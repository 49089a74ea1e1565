"""A flat simulated heap with one validity tag per 16-byte granule.

Every load and store is mediated by a capability check.  Capabilities
themselves can be stored in memory with a bit-exact 16-byte layout:

    bytes  0..3   base     (little-endian u32)
    bytes  4..7   top
    bytes  8..11  address
    byte   12     permission bitmask (bits 0..5)
    bytes 13..15  zero

A granule's tag is set only by ``store_cap`` with a tagged payload, and
any plain byte store touching the granule clears it again.  The heap
starts zeroed with all tags clear.  Its bytes are a private anonymous
memory map, so they are demand-zero: a new map costs only the pages a
run touches, not a zero-fill of the whole heap; and a forked child
gets a copy-on-write image, so no two processes share a heap's bytes.
The heap keeps its written extent (one past the highest granule
written since the last clear), and ``clear()`` re-zeroes just that
prefix in place, so a cleared heap keeps its map and its pages and
costs only what the last run wrote.

A heap owns its map and tag array until it is dropped.  A dropped heap
no larger than the default 1 MiB whose ``data`` and ``tags`` nothing
else holds re-zeroes its extent as ``clear()`` does and leaves the pair
in a process-wide stock of one slot; the next heap of the same size
takes it instead of mapping anew, so a process that builds and drops
heaps in turn (a grid's rows, a test run) pays no ``mmap``, ``munmap``
or first-touch page faults per heap.  A heap whose ``data`` or ``tags``
is still referenced when it dies is not stocked, so a live reference
never aliases a later heap; a larger heap is unmapped at once, so its
pages do not stay resident.

``store_cap`` refuses a payload the layout cannot encode (a field
outside u32, a negative field, or a permission mask above 255; only a
hand-built ``Capability`` can hold one) with
``CapFault(BOUNDS_VIOLATION)``, after the access checks and before any
byte or tag changes.

Every heap has a write barrier for an engine that mirrors heap bytes
out of band: once the engine sets ``watch`` (one byte per granule, set
under what it mirrors), ``store``, ``store_cap``, ``touch`` and
``clear`` add every watched granule they write to ``dirty``, which the
engine drains before it trusts its mirror.  A writer of ``data`` or
``tags`` other than ``store`` and ``store_cap`` (the free-list engine's
in-place header writes) raises ``extent`` past what it wrote, or
``clear()`` leaves those bytes behind.
"""

from __future__ import annotations

import mmap
import struct
import sys
from collections import deque

from .capability import CapFault, Capability, FaultKind, Perm

__all__ = ["GRANULE", "TaggedHeap"]

GRANULE = 16

_CAP_LAYOUT = struct.Struct("<IIIB3x")
assert _CAP_LAYOUT.size == GRANULE

# access masks as plain ints, so check_access never touches IntFlag
_NEED_LOAD = int(Perm.LOAD)
_NEED_STORE = int(Perm.STORE)
_NEED_STORE_CAP = int(Perm.STORE | Perm.STORE_CAP)
_NEED_LOAD_CAP = int(Perm.LOAD | Perm.LOAD_CAP)

_NONZERO_TO_1 = bytes([0] + [1] * 255)  # a tag byte's translation to its bit

_ZEROS = memoryview(bytes(1 << 16))  # the source of every re-zeroing

_STOCK_MAX = 1 << 20  # registry.DEFAULT_HEAP_SIZE: the largest heap stocked

# a private map wherever there is fork (a forked child copies it on write)
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _zero_prefix(buf, n: int) -> None:
    """Zero ``buf[:n]`` in place, ``_ZEROS`` at a time: one slice for a
    prefix no longer than ``_ZEROS``, as every probe's heap has."""
    at, step = 0, len(_ZEROS)
    while n - at > step:
        buf[at : at + step] = _ZEROS
        at += step
    buf[at:n] = _ZEROS[: n - at]


# The stock: at most one cleared (data, tags) pair a dropped heap left
# behind.  A deque's append and pop are atomic, so it needs no lock (a
# lock taken in __del__ could deadlock, as the collector may run it on a
# thread that holds the lock); when two heaps die at once on two threads,
# ``maxlen`` drops the older pair.
_stock: deque[tuple[mmap.mmap, bytearray]] = deque(maxlen=1)


class TaggedHeap:
    """Single-owner mutable heap state.  One logical thread per heap;
    distinct heaps are independent.  ``data`` is an ``mmap`` (slices are
    ``bytes``; it never resizes) and ``tags`` a ``bytearray``, one byte
    per granule.  ``extent`` is one past the highest granule written
    since the last clear; ``clear()`` zeroes both up to it in place and
    keeps the map, so a cleared heap is a fresh one without a new
    mapping.  A new heap may get the cleared map and tag array of one
    dropped earlier, but only one that nothing else held when it died
    (see the module docstring)."""

    def __init__(self, size: int):
        if size <= 0 or size % GRANULE != 0:
            raise ValueError("heap size must be a positive multiple of 16")
        self.size = size
        try:
            spare = _stock.pop()
        except IndexError:
            spare = None
        if spare is not None and len(spare[0]) == size:
            self.data, self.tags = spare
        else:  # a spare of another size is dropped
            self.data = mmap.mmap(-1, size, **_PRIVATE)
            self.tags = bytearray(size // GRANULE)
        self.extent = 0  # one past the highest granule written since the last clear
        self.watch: bytearray | None = None  # the write barrier's map, one byte per granule
        self.dirty: set[int] = set()  # watched granules written since the engine looked

    def __del__(self, _finalizing=sys.is_finalizing):
        # Stock the pair if the slot is empty, the heap is no larger than
        # _STOCK_MAX and only this heap holds the pair (a count of 2 is the
        # instance dict's and the call's own).  A heap that dies while the
        # interpreter shuts down, when module globals may be gone (hence
        # the default), or whose __init__ raised, is left alone.
        if _finalizing() or _stock or "tags" not in self.__dict__ or self.size > _STOCK_MAX:
            return
        if sys.getrefcount(self.data) > 2 or sys.getrefcount(self.tags) > 2:
            return
        self._zero()
        _stock.append((self.data, self.tags))

    def clear(self) -> None:
        """Re-zero every byte and tag written, in place; every watched
        granule is dirty."""
        self._zero()
        if self.watch is not None:
            self.touch(0, len(self.watch) - 1)

    def _zero(self) -> None:
        """Re-zero every byte and tag written, in place, copying from
        ``_ZEROS``: a zero ``bytes`` as long as a large extent, once freed,
        stays in the C allocator's pool and raises the process's peak
        memory by its size."""
        _zero_prefix(self.data, self.extent * GRANULE)
        _zero_prefix(self.tags, self.extent)
        self.extent = 0

    def touch(self, first: int, last: int) -> None:
        """Mark dirty every watched granule in ``first..last``."""
        watch = self.watch
        g = watch.find(1, first, last + 1)
        while g >= 0:
            self.dirty.add(g)
            g = watch.find(1, g + 1, last + 1)

    def fault_outside(self, addr: int, length: int) -> None:
        """Raise the heap's own bounds fault for [addr, addr + length)."""
        raise CapFault(
            FaultKind.BOUNDS_VIOLATION, f"[{addr}, {addr + length}) outside [0, {self.size})"
        )

    # Each access checks the heap's own bounds after the capability's, so
    # a capability reaching past either end of the heap (wider than the
    # heap, or hand-built with a negative base) faults, tag and
    # permission faults first, instead of slicing ``data`` short or
    # raising IndexError.

    def load(self, cap: Capability, addr: int, length: int) -> bytes:
        cap.check_access(addr, length, _NEED_LOAD)
        if addr < 0 or addr + length > self.size:
            self.fault_outside(addr, length)
        return self.data[addr : addr + length]

    def store(self, cap: Capability, addr: int, payload: bytes) -> None:
        """Write bytes and clear the tag of every overlapped granule."""
        if not payload:
            raise ValueError("store payload must be non-empty")
        cap.check_access(addr, len(payload), _NEED_STORE)
        if addr < 0 or addr + len(payload) > self.size:
            self.fault_outside(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload
        first = addr // GRANULE
        last = (addr + len(payload) - 1) // GRANULE
        self.tags[first : last + 1] = bytes(last + 1 - first)
        if last >= self.extent:
            self.extent = last + 1
        watch = self.watch
        if watch is not None and watch.find(1, first, last + 1) >= 0:
            self.touch(first, last)

    def store_cap(self, cap: Capability, addr: int, payload: Capability) -> None:
        """Serialize ``payload`` into one granule; the granule tag becomes
        the payload's tag.  Alignment is checked before authority."""
        if addr % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_VIOLATION, f"store_cap at {addr}")
        cap.check_access(addr, GRANULE, _NEED_STORE_CAP)
        if addr < 0 or addr + GRANULE > self.size:
            self.fault_outside(addr, GRANULE)
        try:
            raw = _CAP_LAYOUT.pack(payload.base, payload.top, payload.address, payload.perms)
        except struct.error:
            raise CapFault(
                FaultKind.BOUNDS_VIOLATION, f"store_cap payload {payload!r} has no 16-byte encoding"
            ) from None
        self.data[addr : addr + GRANULE] = raw
        granule = addr // GRANULE
        self.tags[granule] = 1 if payload.tag else 0
        if granule >= self.extent:
            self.extent = granule + 1
        watch = self.watch
        if watch is not None and watch[granule]:
            self.dirty.add(granule)

    def load_cap(self, cap: Capability, addr: int) -> Capability:
        """Deserialize one granule; the result's tag is the granule tag,
        so anything clobbered by byte stores comes back untagged."""
        if addr % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_VIOLATION, f"load_cap at {addr}")
        cap.check_access(addr, GRANULE, _NEED_LOAD_CAP)
        if addr < 0 or addr + GRANULE > self.size:
            self.fault_outside(addr, GRANULE)
        base, top, address, perm_bits = _CAP_LAYOUT.unpack_from(self.data, addr)
        tag = bool(self.tags[addr // GRANULE])
        return Capability(tag, base, top, address, perm_bits & 0x3F)

    def snapshot(self) -> bytes:
        """Raw dump: all data bytes followed by the tag bitmap (one bit per
        granule, LSB first within each byte)."""
        # every 8th tag from granule j, as 0/1 bytes, read as a little-endian
        # int has bit 8k set for granule 8k + j; shifted by j and OR-ed over
        # j = 0..7, bit i is granule i's tag
        bits = 0
        for j in range(8):
            bits |= int.from_bytes(self.tags[j::8].translate(_NONZERO_TO_1), "little") << j
        # join reads the map through its buffer: one copy of the heap, not two
        return b"".join((self.data, bits.to_bytes((len(self.tags) + 7) // 8, "little")))

