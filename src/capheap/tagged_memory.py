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

Every access makes the check of ``Capability.check_access``, in its
order: a length below 1 (``ValueError``), then tag, permission and
bounds.  ``load``, ``load_cap`` and ``store_cap`` make it in line: they
unpack the capability once, test its clauses in that order with the
same comparisons, and call ``check_access`` only when one is true, so
it raises that clause's fault with its text and a passing access is one
Python call.  The permission clause is ``perms & need != need``, true
for an int mask exactly when ``need & ~perms`` is, without building the
complement; a mask that is no int (only a hand-built capability holds
one) raises ``TypeError`` there as it did in ``check_access``, with the
text for ``&`` where that was for ``~``.  ``store`` still calls
``check_access`` on every access: the benchmark's traced counts require
some ``check_access`` call in each of its small workloads, and on
mix-reset the free list's moving realloc, through ``store``, makes the
only ones.  Once the benchmark counts something a folded check keeps,
``store`` can be folded too.

``store_cap`` refuses a payload the layout cannot encode (a field
outside u32, a negative field, or a permission mask above 255; only a
hand-built ``Capability`` can hold one) with
``CapFault(BOUNDS_VIOLATION)``, after the access checks and before any
byte or tag changes.

Every heap has a write barrier for an engine that mirrors heap bytes
out of band, and it is a fuse: once the engine sets ``watch`` with
``set_watch`` (one byte per 8 bytes of heap, set at the units it
mirrors; unit ``u`` is bytes ``8u..8u+7``), a ``store`` or
``store_cap`` that writes a watched unit, and every ``clear``, drops the
map (``watch`` becomes None), and the engine trusts its mirror only
while the map is set.  ``watch16`` is a 16-bit view of the same map, one
item per granule, so ``store_cap`` tests the two units of its granule
with one index.  A writer of ``data`` or ``tags`` other than ``store``
and ``store_cap`` (the engines' in-place header writes and copies)
raises ``extent`` past what it wrote, or ``clear()`` leaves those bytes
behind.
"""

from __future__ import annotations

import mmap
import struct
import sys
from collections import deque

from .capability import CapFault, Capability, FaultKind, Perm, _tuple_new

__all__ = ["DEFAULT_HEAP_SIZE", "GRANULE", "TaggedHeap"]

GRANULE = 16

# 1 MiB: an allocator's heap unless its creator asks otherwise, and the
# largest heap stocked
DEFAULT_HEAP_SIZE = 1 << 20

_CAP_LAYOUT = struct.Struct("<IIIB3x")
assert _CAP_LAYOUT.size == GRANULE

# access masks as plain ints, so check_access never touches IntFlag
_NEED_LOAD = int(Perm.LOAD)
_NEED_STORE = int(Perm.STORE)
_NEED_STORE_CAP = int(Perm.STORE | Perm.STORE_CAP)
_NEED_LOAD_CAP = int(Perm.LOAD | Perm.LOAD_CAP)

_NONZERO_TO_1 = bytes([0] + [1] * 255)  # a tag byte's translation to its bit

_ZEROS = memoryview(bytes(1 << 16))  # the source of every re-zeroing

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
        self.watch: bytearray | None = None  # the write barrier's map, one byte per 8 bytes
        self.watch16: memoryview | None = None  # the same map, two bytes per granule

    def set_watch(self, watch: bytearray | None) -> None:
        """Set the write barrier's map (``heap.size >> 3`` bytes), or drop
        it with None; ``watch16`` follows it."""
        self.watch = watch
        self.watch16 = None if watch is None else memoryview(watch).cast("H")

    def __del__(self, _finalizing=sys.is_finalizing):
        # Stock the pair if the slot is empty, the heap is no larger than
        # DEFAULT_HEAP_SIZE and only this heap holds the pair (a count of 2
        # is the instance dict's and the call's own).  A heap that dies
        # while the interpreter shuts down, when module globals may be gone
        # (hence the default), or whose __init__ raised, is left alone.
        if _finalizing() or _stock or "tags" not in self.__dict__ or self.size > DEFAULT_HEAP_SIZE:
            return
        if sys.getrefcount(self.data) > 2 or sys.getrefcount(self.tags) > 2:
            return
        self._zero()
        _stock.append((self.data, self.tags))

    def clear(self) -> None:
        """Re-zero every byte and tag written, in place, and drop the
        watch map."""
        self._zero()
        self.set_watch(None)

    def _zero(self) -> None:
        """Re-zero every byte and tag written, in place, copying from
        ``_ZEROS``: a zero ``bytes`` as long as a large extent, once freed,
        stays in the C allocator's pool and raises the process's peak
        memory by its size."""
        _zero_prefix(self.data, self.extent * GRANULE)
        _zero_prefix(self.tags, self.extent)
        self.extent = 0

    def fault_outside(self, addr: int, length: int) -> None:
        """Raise the heap's own bounds fault for [addr, addr + length)."""
        raise CapFault(
            FaultKind.BOUNDS_VIOLATION, f"[{addr}, {addr + length}) outside [0, {self.size})"
        )

    # Each access checks the heap's own bounds after the capability's, so
    # a capability reaching past either end of the heap (wider than the
    # heap, or hand-built with a negative base) faults, tag and
    # permission faults first, instead of slicing ``data`` short or
    # raising IndexError.  ``load``, ``load_cap`` and ``store_cap`` run
    # the capability check in line (see the module docstring): the test
    # is true exactly when ``check_access`` raises.

    def load(self, cap: Capability, addr: int, length: int) -> bytes:
        tag, base, top, _, perms = cap
        if (
            length < 1
            or not tag
            or perms & _NEED_LOAD != _NEED_LOAD
            or addr < base
            or addr + length > top
        ):
            cap.check_access(addr, length, _NEED_LOAD)
        if addr < 0 or addr + length > self.size:
            self.fault_outside(addr, length)
        return self.data[addr : addr + length]

    def store(self, cap: Capability, addr: int, payload: bytes) -> None:
        """Write bytes and clear the tag of every overlapped granule."""
        if not payload:
            raise ValueError("store payload must be non-empty")
        length = len(payload)
        cap.check_access(addr, length, _NEED_STORE)
        end = addr + length
        if addr < 0 or end > self.size:
            self.fault_outside(addr, length)
        self.data[addr:end] = payload
        first = addr >> 4
        last = (end - 1) >> 4
        self.tags[first : last + 1] = bytes(last + 1 - first)
        if last >= self.extent:
            self.extent = last + 1
        watch = self.watch
        if watch is not None and watch.find(1, addr >> 3, (end + 7) >> 3) >= 0:
            self.set_watch(None)

    def store_cap(self, cap: Capability, addr: int, payload: Capability) -> None:
        """Serialize ``payload`` into one granule; the granule tag becomes
        the payload's tag.  Alignment is checked before authority."""
        if addr % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_VIOLATION, f"store_cap at {addr}")
        tag, base, top, _, perms = cap
        if (
            not tag
            or perms & _NEED_STORE_CAP != _NEED_STORE_CAP
            or addr < base
            or addr + GRANULE > top
        ):
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
        granule = addr >> 4
        self.tags[granule] = 1 if payload.tag else 0
        if granule >= self.extent:
            self.extent = granule + 1
        watch16 = self.watch16
        if watch16 is not None and watch16[granule]:  # either unit of the granule
            self.set_watch(None)

    def load_cap(self, cap: Capability, addr: int) -> Capability:
        """Deserialize one granule; the result's tag is the granule tag,
        so anything clobbered by byte stores comes back untagged."""
        if addr % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_VIOLATION, f"load_cap at {addr}")
        tag, base, top, _, perms = cap
        if (
            not tag
            or perms & _NEED_LOAD_CAP != _NEED_LOAD_CAP
            or addr < base
            or addr + GRANULE > top
        ):
            cap.check_access(addr, GRANULE, _NEED_LOAD_CAP)
        if addr < 0 or addr + GRANULE > self.size:
            self.fault_outside(addr, GRANULE)
        base, top, address, perm_bits = _CAP_LAYOUT.unpack_from(self.data, addr)
        return _tuple_new(
            Capability, (self.tags[addr >> 4] != 0, base, top, address, perm_bits & 0x3F)
        )

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

