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
costs only what the last run wrote.  Every new heap maps its own
bytes; code that builds heaps in turn reuses one through ``clear()``
(as ``harness.run_matrix`` does).

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

An address that is no int (``16.0``, ``"16"``, None) is refused with
``CapFault(BOUNDS_VIOLATION)``, text ``address 16.0 is not an int``,
wherever the access would otherwise end in a ``TypeError`` (a slice, a
shift or a comparison), and always before any byte, tag or watch byte
changes.  The test is each access's ``except TypeError``, which costs a
passing access nothing, where an ``isinstance`` would run on every one.
A float outside the capability's bounds gets the bounds fault's own
text, and ``load_cap`` and ``store_cap`` refuse a misaligned address
(``16.5``) with ``AlignmentViolation`` first, as for an int.  A
permission mask that is no int still raises ``TypeError`` at an int
address.

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

from .capability import CapFault, Capability, FaultKind, Perm, _tuple_new

__all__ = ["DEFAULT_HEAP_SIZE", "GRANULE", "TaggedHeap"]

GRANULE = 16

# 1 MiB: an allocator's heap unless its creator asks otherwise
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


def _refuse_no_int(addr) -> None:
    """An access's ``except TypeError``: refuse an address that is no int
    with a bounds fault; for an int, return, and the caller re-raises."""
    if not isinstance(addr, int):
        raise CapFault(FaultKind.BOUNDS_VIOLATION, f"address {addr!r} is not an int") from None


def _zero_prefix(buf, n: int) -> None:
    """Zero ``buf[:n]`` in place, ``_ZEROS`` at a time."""
    at, step = 0, len(_ZEROS)
    while n - at > step:
        buf[at : at + step] = _ZEROS
        at += step
    buf[at:n] = _ZEROS[: n - at]


class TaggedHeap:
    """Single-owner mutable heap state.  One logical thread per heap;
    distinct heaps are independent.  ``data`` is an ``mmap`` (slices are
    ``bytes``; it never resizes) and ``tags`` a ``bytearray``, one byte
    per granule.  ``extent`` is one past the highest granule written
    since the last clear; ``clear()`` zeroes both up to it in place and
    keeps the map, so a cleared heap is a fresh one without a new
    mapping."""

    def __init__(self, size: int):
        if size <= 0 or size % GRANULE != 0:
            raise ValueError("heap size must be a positive multiple of 16")
        self.size = size
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

    def clear(self) -> None:
        """Re-zero every byte and tag written, in place, and drop the
        watch map.  The zeros are copied from ``_ZEROS``: a zero ``bytes``
        as long as a large extent, once freed, stays in the C allocator's
        pool and raises the process's peak memory by its size.

        Clearing the heap under a live allocator leaves that instance's
        own state (a free list, slab records, a bump cursor) describing
        bytes that are gone: after ``heap.clear()`` the only defined call
        on the instance is ``reset()``."""
        n = self.extent
        end = n * GRANULE
        if end <= len(_ZEROS):  # one slice each, as every probe's heap needs
            self.data[:end] = _ZEROS[:end]
            self.tags[:n] = _ZEROS[:n]
        else:
            _zero_prefix(self.data, end)
            _zero_prefix(self.tags, n)
        self.extent = 0
        self.watch = self.watch16 = None

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
        try:
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
        except TypeError:
            _refuse_no_int(addr)
            raise

    def store(self, cap: Capability, addr: int, payload: bytes) -> None:
        """Write bytes and clear the tag of every overlapped granule."""
        try:
            if not payload:
                raise ValueError("store payload must be non-empty")
            length = len(payload)
            cap.check_access(addr, length, _NEED_STORE)
            end = addr + length
            if addr < 0 or end > self.size:
                self.fault_outside(addr, length)
            first = addr >> 4
            last = (end - 1) >> 4
            self.data[addr:end] = payload
        except TypeError:
            _refuse_no_int(addr)
            raise
        self.tags[first : last + 1] = bytes(last + 1 - first)
        if last >= self.extent:
            self.extent = last + 1
        watch = self.watch
        if watch is not None and watch.find(1, addr >> 3, (end + 7) >> 3) >= 0:
            self.set_watch(None)

    def store_cap(self, cap: Capability, addr: int, payload: Capability) -> None:
        """Serialize ``payload`` into one granule; the granule tag becomes
        the payload's tag.  Alignment is checked before authority."""
        try:
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
                    FaultKind.BOUNDS_VIOLATION,
                    f"store_cap payload {payload!r} has no 16-byte encoding",
                ) from None
            granule = addr >> 4
            self.data[addr : addr + GRANULE] = raw
        except TypeError:
            _refuse_no_int(addr)
            raise
        self.tags[granule] = 1 if payload.tag else 0
        if granule >= self.extent:
            self.extent = granule + 1
        watch16 = self.watch16
        if watch16 is not None and watch16[granule]:  # either unit of the granule
            self.set_watch(None)

    def load_cap(self, cap: Capability, addr: int) -> Capability:
        """Deserialize one granule; the result's tag is the granule tag,
        so anything clobbered by byte stores comes back untagged."""
        try:
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
        except TypeError:
            _refuse_no_int(addr)
            raise
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

