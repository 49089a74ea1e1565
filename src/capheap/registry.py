"""The seven canonical allocator configurations, in table order.

The trait records are the single source of truth: ``free_validation``
picks the engine, the engine honours every other trait or refuses the
record with ``ValueError``, and the attack harness consults the same
records for applicability decisions.
"""

from __future__ import annotations

from .allocator_api import Allocator, AllocatorTraits, FreeValidation
from .engines import BumpAllocator, FreeListAllocator, SlabAllocator
from .tagged_memory import DEFAULT_HEAP_SIZE, TaggedHeap

__all__ = ["ALLOCATOR_NAMES", "DEFAULT_HEAP_SIZE", "TRAITS", "create", "engine_for"]

_V = FreeValidation

TRAITS: dict[str, AllocatorTraits] = {
    t.name: t
    for t in (
        AllocatorTraits("bump-alloc-cheri", True, False, False, _V.NONE, False),
        AllocatorTraits("bump-alloc-nocheri", False, False, False, _V.ALLOC_LOG, False),
        AllocatorTraits("dlmalloc-cheribuild", True, False, False, _V.INLINE_HEADER, False),
        AllocatorTraits("jemalloc", True, False, True, _V.INLINE_HEADER, False),
        AllocatorTraits("libmalloc-simple", True, False, True, _V.INLINE_HEADER, True),
        AllocatorTraits("snmalloc-cheribuild", True, True, False, _V.METADATA_LOOKUP, True),
        AllocatorTraits("snmalloc-repo", True, False, False, _V.METADATA_LOOKUP, True),
    )
}

ALLOCATOR_NAMES: tuple[str, ...] = tuple(TRAITS)


# each free validation's engine, from the validations the engines declare
_ENGINE_OF = {v: e for e in (BumpAllocator, FreeListAllocator, SlabAllocator) for v in e.validations}


def engine_for(traits: AllocatorTraits) -> type[Allocator]:
    """The engine that implements ``traits.free_validation``."""
    return _ENGINE_OF[traits.free_validation]


def create(
    name: str, heap_size: int = DEFAULT_HEAP_SIZE, *, rounding_bounds: bool = False
) -> Allocator:
    """Build a named allocator over a fresh heap of its own."""
    if name not in TRAITS:
        raise ValueError(f"unknown allocator {name!r}; choose from {', '.join(ALLOCATOR_NAMES)}")
    traits = TRAITS[name]
    return engine_for(traits)(TaggedHeap(heap_size), traits, rounding_bounds=rounding_bounds)
