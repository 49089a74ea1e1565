"""The seven canonical allocator configurations, in table order.

The trait records are the single source of truth: each engine reads its
configuration from its traits, and the attack harness consults the same
records for applicability decisions.
"""

from __future__ import annotations

from typing import Callable

from .allocator_api import Allocator, AllocatorTraits, FreeValidation
from .engines import BumpAllocator, FreeListAllocator, SlabAllocator

__all__ = ["ALLOCATOR_NAMES", "DEFAULT_HEAP_SIZE", "TRAITS", "create", "default_registry"]

DEFAULT_HEAP_SIZE = 1 << 20  # 1 MiB

_V = FreeValidation

TRAITS: dict[str, AllocatorTraits] = {
    t.name: t
    for t in (
        AllocatorTraits("bump-alloc-cheri", True, False, False, _V.NONE, False, False),
        AllocatorTraits("bump-alloc-nocheri", False, False, False, _V.ALLOC_LOG, True, False),
        AllocatorTraits("dlmalloc-cheribuild", True, False, False, _V.INLINE_HEADER, False, False),
        AllocatorTraits("jemalloc", True, False, True, _V.INLINE_HEADER, False, False),
        AllocatorTraits("libmalloc-simple", True, False, True, _V.INLINE_HEADER, False, True),
        AllocatorTraits("snmalloc-cheribuild", True, True, False, _V.METADATA_LOOKUP, False, True),
        AllocatorTraits("snmalloc-repo", True, False, False, _V.METADATA_LOOKUP, False, True),
    )
}

ALLOCATOR_NAMES: tuple[str, ...] = tuple(TRAITS)

_ENGINES = {
    "bump-alloc-cheri": BumpAllocator,
    "bump-alloc-nocheri": BumpAllocator,
    "dlmalloc-cheribuild": FreeListAllocator,
    "jemalloc": FreeListAllocator,
    "libmalloc-simple": FreeListAllocator,
    "snmalloc-cheribuild": SlabAllocator,
    "snmalloc-repo": SlabAllocator,
}


def create(
    name: str, heap_size: int = DEFAULT_HEAP_SIZE, *, rounding_bounds: bool = False
) -> Allocator:
    """Build a named allocator over a fresh heap of its own."""
    if name not in TRAITS:
        raise ValueError(f"unknown allocator {name!r}; choose from {', '.join(ALLOCATOR_NAMES)}")
    engine = _ENGINES[name]
    return engine(engine.heap_class(heap_size), TRAITS[name], rounding_bounds=rounding_bounds)


def default_registry(
    heap_size: int = DEFAULT_HEAP_SIZE, *, rounding_bounds: bool = False
) -> dict[str, Callable[[], Allocator]]:
    """Name -> zero-argument factory for each canonical allocator, in
    table order.  Every call to a factory yields a fresh instance."""

    def factory(name: str) -> Callable[[], Allocator]:
        return lambda: create(name, heap_size, rounding_bounds=rounding_bounds)

    return {name: factory(name) for name in ALLOCATOR_NAMES}
