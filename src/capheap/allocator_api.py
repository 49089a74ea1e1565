"""The pluggable allocator contract: traits, errors, and the base class.

An allocator binds to one TaggedHeap and hands out tagged capabilities
derived from its region (root) capability.  The static traits record is
the allocator's whole configuration: its ``free_validation`` picks the
engine, the engine honours every other field or refuses the record, and
the attack harness consults the same record when deciding whether a
probe even applies.  ``AllocatorTraits`` is a ``NamedTuple``, like
``Capability``: immutable, with ``_replace`` for a changed copy.
"""

from __future__ import annotations

import abc
import enum
from typing import NamedTuple

from .capability import PERM_ALL, Capability, Perm, make_root
from .tagged_memory import TaggedHeap

__all__ = [
    "AllocError",
    "AllocErrorKind",
    "Allocator",
    "AllocatorTraits",
    "FreeValidation",
]


class FreeValidation(enum.Enum):
    """How free() decides whether to honor a request."""

    NONE = "None"                       # accepts anything silently
    INLINE_HEADER = "InlineHeader"      # reads a header through the client's capability
    METADATA_LOOKUP = "MetadataLookup"  # out-of-band metadata keyed by address
    ALLOC_LOG = "AllocLog"              # record of live allocations


class AllocatorTraits(NamedTuple):
    name: str
    narrow_bounds: bool
    deferred_free: bool
    strips_exec: bool
    free_validation: FreeValidation
    realloc_grows_in_place: bool

    @property
    def double_free_detect(self) -> bool:
        """Derived, not set: only an allocation log tells a second free apart."""
        return self.free_validation is FreeValidation.ALLOC_LOG

    def __repr__(self) -> str:
        # the derived field shown in its place among the set ones
        return (
            f"AllocatorTraits(name={self.name!r}, narrow_bounds={self.narrow_bounds!r}, "
            f"deferred_free={self.deferred_free!r}, strips_exec={self.strips_exec!r}, "
            f"free_validation={self.free_validation!r}, "
            f"double_free_detect={self.double_free_detect!r}, "
            f"realloc_grows_in_place={self.realloc_grows_in_place!r})"
        )


class AllocErrorKind(enum.Enum):
    OUT_OF_MEMORY = "OutOfMemory"
    INVALID_FREE = "InvalidFree"
    DOUBLE_FREE = "DoubleFree"
    BAD_REQUEST = "BadRequest"
    CORRUPT_HEADER = "CorruptHeader"  # an inline chunk header failed its magic check


class AllocError(Exception):
    def __init__(self, kind: AllocErrorKind, detail: str = ""):
        super().__init__(f"{kind.value}: {detail}" if detail else kind.value)
        self.kind = kind
        self.detail = detail

    def __reduce__(self):
        # ``args`` holds only the message: pickle and copy rebuild from these
        return type(self), (self.kind, self.detail)


# the two client permission masks, as plain ints computed once
_CLIENT_PERMS = int(PERM_ALL)
_CLIENT_PERMS_NO_EXEC = int(PERM_ALL & ~Perm.EXEC)


class Allocator(abc.ABC):
    """Behavioral contract shared by all engines.

    One instance binds to one heap and one logical thread.  Placement is
    a pure function of the operation sequence: no randomness, no clocks,
    so identical op sequences on fresh instances yield identical
    capabilities.
    """

    # the free validations an engine implements; trait values it refuses
    validations: tuple[FreeValidation, ...] = ()
    refuses: dict[str, bool] = {}

    def __init__(self, heap: TaggedHeap, traits: AllocatorTraits, *, rounding_bounds: bool = False):
        if traits.free_validation not in self.validations:
            raise ValueError(
                f"{type(self).__name__} does not implement {traits.free_validation.value} validation"
            )
        for trait, value in self.refuses.items():
            if getattr(traits, trait) == value:
                raise ValueError(f"{type(self).__name__} cannot honour {trait}={value}")
        self.heap = heap
        self._traits = traits
        self._rounding = rounding_bounds
        self.region: Capability = make_root(heap.size)
        # the permissions of every client capability: the region's, cut
        # down once here rather than on every op
        perms = _CLIENT_PERMS_NO_EXEC if traits.strips_exec else _CLIENT_PERMS
        self._client_perms = self.region.perms & perms
        self._reset_state()

    def traits(self) -> AllocatorTraits:
        return self._traits

    def reset(self) -> None:
        """Back to the initial state over a freshly zeroed heap (whose
        ``clear()`` drops its watch map).  This is also the one defined
        call after the heap was cleared under the instance: ``clear()``
        zeroes the bytes but not the engine's own state, so until a
        reset the free list faults on a header it no longer finds, the
        slab engine keeps its old records and bump keeps its cursor."""
        self.heap.clear()
        self._reset_state()

    @abc.abstractmethod
    def malloc(self, size: int) -> Capability:
        """Return a tagged capability for at least ``size`` bytes of
        LOAD+STORE authority.  Raises AllocError on failure."""

    @abc.abstractmethod
    def free(self, cap: Capability) -> None:
        """Engine-specific deallocation; validation per traits.  May raise
        AllocError or propagate a CapFault from a tampered capability."""

    @abc.abstractmethod
    def realloc(self, cap: Capability, new_size: int) -> Capability:
        """Resize, preserving the first min(old, new) bytes."""

    @abc.abstractmethod
    def _reset_state(self) -> None:
        ...
