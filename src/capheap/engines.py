"""Three allocation engines behind the seven reference configurations.

* bump: a cursor that only moves forward; memory is never reused.
  Validates frees against an allocation log, or not at all.
* free list: first-fit chunks with an inline 8-byte header before each
  payload; freeing validates by reading that header through the
  client's own capability.
* slab: power-of-two size classes, 4096-byte slabs, out-of-band
  metadata keyed by address (a slotted record per slab with one byte
  per slot, and per class a byte map of the slabs with room);
  optionally defers frees.

Each engine declares the ``FreeValidation`` values it implements, which
pick it for a trait record, and refuses a trait value it would ignore
(``refuses``).  A malloc derives the client capability before it
commits anything, so a derivation fault leaves the heap as it was.

The free-list chunk header, bit-exact:

    bytes 0..3  payload size (little-endian u32)
    bytes 4..5  magic 0xCA1B
    byte  6     status (0 free, 1 live)
    byte  7     zero

Chunks tile the managed region with no gaps: region size is exactly the
sum of (header + payload) sizes.  Requests are rounded up to 16 bytes,
but a chunk handed out or grown whole keeps its full payload, which may
be 8 modulo 16 (the heap's last chunk always is).  Every payload is a
multiple of 8, so every chunk starts at 0 or 8 modulo 16 and its header
sits inside one granule.  For example, malloc(32), malloc(16),
malloc(16) on a fresh jemalloc place chunks at 0, 40 and 64, with
payloads at 8, 48 and 72.

Headers are read and written in place on the heap bytes (``struct``
``unpack_from``/``pack_into``), not through ``TaggedHeap.load`` and
``store``; a write clears the tags of the granules it overlaps and
raises the heap's written extent, as a byte store would.  A client can
forge a header anywhere its capability reaches, including at 9..15
modulo 16, where the 8 bytes straddle two granules; when the engine
rewrites such a header (freeing at the forged address, or handing the
forged chunk out) both tags are cleared.

The free list itself is kept out of band (a list of chunk offsets, most
recently freed first) rather than threaded through chunk payloads:
freeing deliberately leaves payload bytes untouched, which is part of
the threat model these engines exist to exhibit.  A dict counting each
offset's occurrences in the list answers membership in constant time.
It counts rather than flags because the list may hold a chunk twice: a
moving realloc through a stale capability on a free chunk lists that
chunk again, and each copy can be handed out once.

In malloc a finder picks the slot and one tail carves it.  On a short
list the finder scans from the head, reading each header.  Once a scan
has visited more than 64 entries (and until reset), a byte array beside
the list holds each slot's size class instead, read from the chunk's
header: linear in 16-byte steps below 2048 bytes, four per power of two
above, or poisoned for a bad magic.  One ``translate`` and one ``find``
over those bytes pick the slot, or raise the CorruptHeader or bounds
fault, that the scan would.  The tail, which realloc growing in place
shares, splits off a remainder of 32 bytes or more.  The classes stay
true to the heap bytes behind a write barrier: the heap watches the
granules under every indexed header, any store or engine header write
to one marks it dirty, and the next malloc first re-reads just the
listed headers over dirty granules.  A header forged through a stale
capability therefore still steers the next malloc.
"""

from __future__ import annotations

import struct

from .allocator_api import (
    AllocError,
    AllocErrorKind,
    Allocator,
    FreeValidation,
)
from .capability import ADDRESS_MAX, CapFault, Capability, FaultKind, Perm, _derive

__all__ = [
    "BumpAllocator",
    "CHUNK_HEADER_SIZE",
    "CHUNK_MAGIC",
    "FreeListAllocator",
    "SLAB_SIZE",
    "SIZE_CLASSES",
    "SlabAllocator",
]

CHUNK_HEADER_SIZE = 8
CHUNK_MAGIC = 0xCA1B
_HEADER = struct.Struct("<IHBB")  # payload size, magic, status, reserved
assert _HEADER.size == CHUNK_HEADER_SIZE

_STATUS_FREE = 0
_STATUS_LIVE = 1

# Free-list classes, one byte per listed slot.  A payload below _LINEAR
# is in class payload >> 4 (0..127); above, each power of two is split in
# four (128..211); a header with a bad magic is _POISONED.  Classes rise
# with the payload, so a request fits every chunk of a higher class, and
# below _LINEAR, where requests are multiples of 16, of its own class too.
# _FROM[c] maps the payload classes from c up, and _POISONED, to 1.
_LINEAR = 2048
# A scan that visits more than _SCAN_LIMIT entries starts the index.  The
# scan stays for short lists because class upkeep on every push and pop
# costs more there than it saves: indexing from the first chunk slowed
# the in-process free-list grid from 394 to 458-494 us (best of 8
# interleaved runs), and in 6 perfbench pairs cut matrix
# ops_per_s.freelist by 10.8 % and raised its op_p50_us by 16.9 %
# (2-CPU host, Python 3.11).
_SCAN_LIMIT = 64
_TOP = 212  # one above the highest payload class
_POISONED = 255
_FROM = [bytes(c) + b"\1" * (_TOP - c) + bytes(_POISONED - _TOP) + b"\1" for c in range(_TOP + 1)]


def _class(payload: int) -> int:
    if payload < _LINEAR:
        return payload >> 4
    top = payload.bit_length()
    return 4 * top + 80 + (payload >> (top - 3) & 3)


_NEED_LOAD = int(Perm.LOAD)

SLAB_SIZE = 4096
SIZE_CLASSES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class BumpAllocator(Allocator):
    """Bump-the-pointer: allocate by advancing a cursor, never reuse.

    free() is a no-op unless the config keeps an allocation log, in
    which case it marks the matching record freed and detects double
    and invalid frees.  realloc always allocates fresh and copies: the
    logged block at the cursor, or without a log ``min(length, new
    size)`` bytes from the cursor, of which only those inside the
    capability's bounds are read (the rest of the new block stays zero).
    """

    validations = (FreeValidation.NONE, FreeValidation.ALLOC_LOG)
    refuses = {"deferred_free": True, "realloc_grows_in_place": True}

    def _reset_state(self) -> None:
        self._cursor = 0
        # base -> [length, freed], kept only under ALLOC_LOG; bump never
        # reuses a base, so keys are unique
        self._log: dict[int, list] | None = {} if self._traits.double_free_detect else None

    def malloc(self, size: int) -> Capability:
        length = self._check_request(size)
        start = self._cursor
        if start + length > self.heap.size:
            raise AllocError(AllocErrorKind.OUT_OF_MEMORY, f"cursor at {start}")
        region = self.region
        if self._traits.narrow_bounds:
            cap = self._client_cap(start, length)
        else:  # whole-region capability, cursor parked at the block start
            cap = _derive(region, 0, region.top, start, region.perms & self._client_perms, False)
        self._cursor += length
        if self._log is not None:
            self._log[start] = [length, False]
        return cap

    def _live_record(self, cap: Capability) -> list:
        """The log record of the live block at ``cap.address``."""
        record = self._log.get(cap.address)
        if record is None:
            raise AllocError(AllocErrorKind.INVALID_FREE, f"no allocation at {cap.address}")
        if record[1]:
            raise AllocError(AllocErrorKind.DOUBLE_FREE, f"block {cap.address} already freed")
        return record

    def free(self, cap: Capability) -> None:
        if self._log is not None:
            self._live_record(cap)[1] = True

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        self._check_request(new_size)
        old_len = cap.length if self._log is None else self._live_record(cap)[0]
        ncopy = min(old_len, new_size)
        src = cap.address
        if ncopy and src + ncopy > self.heap.size:  # fault before the cursor moves
            self.heap.fault_outside(src, ncopy)
        new_cap = self.malloc(new_size)
        dst = new_cap.address
        if self._log is None and (src < cap.base or src + ncopy > cap.top):
            # a moved cursor: only the bounds say what the block is, so
            # copy just the part of the window inside them
            lo, hi = max(src, cap.base), min(src + ncopy, cap.top)
            dst += lo - src
            src, ncopy = lo, max(hi - lo, 0)
        if ncopy:
            data = self.heap.load(self.region, src, ncopy)
            self.heap.store(self.region, dst, data)
        # fresh cursor memory is already zero; no tail zeroing needed
        self.free(cap)
        return new_cap


class FreeListAllocator(Allocator):
    """First fit over free chunks with inline headers, LIFO order.

    Client capabilities span the whole chunk (header included) with the
    cursor on the payload: free() re-reads the header at address-8
    through the client's capability, so an untampered capability passes
    while one narrowed to the payload faults.  Re-freeing a free chunk
    silently relinks (its first occurrence moves to the head); there is
    no double-free detection, and the list may hold duplicates.  No
    coalescing happens except explicit realloc absorption.

    malloc takes the first listed chunk, from the head, whose header
    payload covers the rounded request: a finder picks the slot and
    ``_carve`` hands it out.  The scan reads the headers in turn: a bad
    magic raises CORRUPT_HEADER, an entry outside the heap the region's
    bounds fault, and none fitting is OUT_OF_MEMORY.  Once a scan has
    visited more than ``_SCAN_LIMIT`` entries, and until reset,
    ``_fit_indexed`` picks without reading the headers it passes over:
    ``_classes`` holds one byte per slot, the chunk's size
    class (see ``_class``) or _POISONED for a bad magic; the first slot
    of a class that surely fits, or a poisoned one, is found by one
    ``translate`` and one ``find`` over the bytes, and only for requests
    of 2048 bytes and more, whose own class may hold smaller chunks, are
    the earlier slots of that class read.  It picks and raises exactly
    what the scan would.  No listed chunk lies outside the heap (each
    was listed right after a bounds-checked header read or write), but
    the poisoned path runs the region's bounds check first, as the scan.

    Clients can overwrite headers, and the engine's own header writes
    can land on a forged one, so the classes stand behind the heap's
    write barrier: the heap watches the granule, or both granules,
    under every indexed header, every write to a watched
    granule marks it dirty, and malloc first re-reads just the listed
    headers over dirty granules and re-files each whose class moved.
    chunks() raises CORRUPT_HEADER on a bad magic or a walk that does
    not end exactly at the heap's end, and realloc absorption on a FREE
    header that is not listed.
    """

    validations = (FreeValidation.INLINE_HEADER,)
    refuses = {"narrow_bounds": False, "deferred_free": True}

    def reset(self) -> None:
        # drop the watch first, or clear() marks every watched granule dirty
        self.heap.watch = None
        self.heap.dirty.clear()
        super().reset()

    def _reset_state(self) -> None:
        self._free_list: list[int] = []  # chunk offsets, head first
        self._listed: dict[int, int] = {}  # chunk -> occurrences in _free_list
        # the class index, None until a scan visits more than _SCAN_LIMIT entries
        self._classes: bytearray | None = None  # the class of each slot's chunk
        self._class_of: dict[int, int] = {}  # chunk -> the class of all its slots
        self._off_grid = False  # whether a chunk off the 8-byte grid was indexed since
        self._push(0, self.heap.size - CHUNK_HEADER_SIZE)  # one free chunk tiles the heap

    # Listing.  All occurrences of a chunk share its header, so they share
    # a class: a chunk already listed is filed under its current class,
    # and the engine's write that changed its header left the granule
    # dirty for the next re-read.  An indexed chunk's header granules are
    # watched.  Chunks on the 8-byte grid (every one but a forged one)
    # have one header granule, shared at most with the chunk at offset
    # ^ 8; once a chunk off the grid is indexed, until reset, every
    # granule a header may overlap is searched instead.

    def _push(self, chunk: int, payload: int, slot: int = -1) -> None:
        """Write a FREE header of ``payload`` bytes at ``chunk`` and list
        it at the head (the free list is LIFO), or in place of the
        occurrence at ``slot``, which the caller then counts out."""
        self._write_header(chunk, payload, _STATUS_FREE)
        listed = self._listed
        n = listed.get(chunk, 0)
        listed[chunk] = n + 1
        classes = self._classes
        if classes is not None:
            if n:
                cls = self._class_of[chunk]
            else:
                cls = self._class_of[chunk] = _class(payload)
                self._watch(chunk)
            if slot < 0:
                classes.insert(0, cls)
            else:
                classes[slot] = cls
        if slot < 0:
            self._free_list.insert(0, chunk)
        else:
            self._free_list[slot] = chunk

    def _leave(self, chunk: int, slot: int = -1) -> None:
        """Count one occurrence of ``chunk`` out, and unlist the one at
        ``slot`` if given."""
        if slot >= 0:
            del self._free_list[slot]
            if self._classes is not None:
                del self._classes[slot]
        listed = self._listed
        n = listed.pop(chunk) - 1
        if n:
            listed[chunk] = n
            return
        if self._classes is None:
            return
        del self._class_of[chunk]
        watch = self.heap.watch
        if not self._off_grid:
            if chunk ^ 8 not in listed:
                watch[chunk >> 4] = 0
            return
        for granule in range(chunk >> 4, ((chunk + CHUNK_HEADER_SIZE - 1) >> 4) + 1):
            if not listed.keys() & self._over(granule):
                watch[granule] = 0

    def _watch(self, chunk: int) -> None:
        watch = self.heap.watch
        watch[chunk >> 4] = 1
        if chunk & 7:
            self._off_grid = True
            watch[(chunk + CHUNK_HEADER_SIZE - 1) >> 4] = 1

    def _over(self, granule: int) -> range | tuple[int, int]:
        """Where a header over ``granule`` can start."""
        start = granule << 4
        if self._off_grid:
            return range(start - CHUNK_HEADER_SIZE + 1, start + 16)
        return start, start + 8

    def _index(self) -> None:
        """Start the class index: file every listed chunk by its header,
        read once from the heap bytes, and watch it from now on."""
        heap = self.heap
        heap.watch = bytearray(len(heap.tags))
        class_of = self._class_of
        for chunk in self._listed:
            payload, magic, _, _ = _HEADER.unpack_from(heap.data, chunk)
            class_of[chunk] = _class(payload) if magic == CHUNK_MAGIC else _POISONED
            self._watch(chunk)
        self._classes = bytearray(class_of[chunk] for chunk in self._free_list)

    def _resync(self) -> None:
        """Re-read the header of every listed chunk over a dirty granule,
        and re-file its slots if its class moved."""
        heap = self.heap
        data = heap.data
        listed = self._listed
        class_of = self._class_of
        for granule in heap.dirty:
            for chunk in self._over(granule):
                cls = class_of.get(chunk)
                if cls is None:
                    continue
                payload, magic, _, _ = _HEADER.unpack_from(data, chunk)
                new = _class(payload) if magic == CHUNK_MAGIC else _POISONED
                if new != cls:
                    class_of[chunk] = new
                    slot = -1
                    for _ in range(listed[chunk]):
                        slot = self._free_list.index(chunk, slot + 1)
                        self._classes[slot] = new
        heap.dirty.clear()

    # Header I/O is done in place on the heap bytes (see the module
    # docstring).  The engine's authority is the region capability, which
    # is tagged, holds every permission and spans the heap, so its check
    # can only fail on bounds: that test stays inline, and when it fails
    # check_access raises the fault heap.load or heap.store would.  A
    # write clears the tag of every granule its 8 bytes overlap: one for
    # a chunk start, two for a header forged at 9..15 modulo 16; like a
    # client's store, it raises the heap's written extent and marks the
    # watched ones dirty.

    def _write_header(self, chunk: int, payload_size: int, status: int) -> None:
        heap = self.heap
        if chunk < 0 or chunk + CHUNK_HEADER_SIZE > heap.size:
            self.region.check_access(chunk, CHUNK_HEADER_SIZE, Perm.STORE)
        _HEADER.pack_into(heap.data, chunk, payload_size, CHUNK_MAGIC, status, 0)
        first = chunk >> 4
        last = (chunk + CHUNK_HEADER_SIZE - 1) >> 4
        tags = heap.tags
        tags[first] = 0
        if last != first:
            tags[last] = 0
        if last >= heap.extent:
            heap.extent = last + 1
        watch = heap.watch
        if watch is not None and (watch[first] or watch[last]):
            heap.touch(first, last)

    def _read_header(self, chunk: int) -> tuple[int, int, int]:
        if chunk < 0 or chunk + CHUNK_HEADER_SIZE > self.heap.size:
            self.region.check_access(chunk, CHUNK_HEADER_SIZE, Perm.LOAD)
        size, magic, status, _ = _HEADER.unpack_from(self.heap.data, chunk)
        return size, magic, status

    def _client_header(self, cap: Capability) -> tuple[int, int]:
        """Validate a client capability by reading the chunk header through
        it, exactly as the client could.  Returns (chunk offset, payload
        size); raises CapFault on tamper, AllocError on a bad header.

        The checks are those of moving the cursor onto the header and
        loading through the copy (``set_address``, then ``heap.load``),
        in the same order, without building the copy."""
        chunk = cap.address - CHUNK_HEADER_SIZE
        if chunk < 0:
            raise CapFault(FaultKind.BOUNDS_VIOLATION, "header would sit below the heap")
        if chunk > ADDRESS_MAX:
            raise ValueError(f"address {chunk} outside 32-bit range")
        cap.check_access(chunk, CHUNK_HEADER_SIZE, _NEED_LOAD)
        heap = self.heap
        if chunk + CHUNK_HEADER_SIZE > heap.size:
            heap.fault_outside(chunk, CHUNK_HEADER_SIZE)
        size, magic, _, _ = _HEADER.unpack_from(heap.data, chunk)
        if magic != CHUNK_MAGIC:
            raise AllocError(AllocErrorKind.INVALID_FREE, f"bad chunk magic at {chunk}")
        return chunk, size

    def malloc(self, size: int) -> Capability:
        want = self._check_request(size)
        free_list = self._free_list
        if self._classes is not None:
            slot, payload = self._fit_indexed(want)
        else:
            # a short list: scan it from the head, reading each header
            data = self.heap.data
            last = self.heap.size - CHUNK_HEADER_SIZE
            for slot, chunk in enumerate(free_list):
                if chunk < 0 or chunk > last:
                    self.region.check_access(chunk, CHUNK_HEADER_SIZE, Perm.LOAD)
                payload, magic, _, _ = _HEADER.unpack_from(data, chunk)
                if magic != CHUNK_MAGIC:
                    raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"free list entry at {chunk}")
                if payload >= want:
                    break
            else:
                slot = -1
                if len(free_list) > _SCAN_LIMIT:
                    self._index()
        if slot < 0:
            raise AllocError(AllocErrorKind.OUT_OF_MEMORY, f"no free chunk holds {want} bytes")
        cap = self._carve(free_list[slot], payload, want, slot)
        if slot >= _SCAN_LIMIT and self._classes is None:
            self._index()  # a long scan: answer from the classes from now on
        return cap

    def _fit_indexed(self, want: int) -> tuple[int, int]:
        """The scan's pick on a long list, from the class index: the slot
        and its chunk's payload, or (-1, 0) when no chunk fits.  A
        poisoned slot raises what the scan would raise there."""
        heap = self.heap
        if heap.dirty:
            self._resync()
        free_list = self._free_list
        classes = self._classes
        # the first slot whose class surely fits, or that is poisoned
        if want < _LINEAR:
            cls = want >> 4
            if classes and cls <= classes[0] < _TOP:
                stop = 0  # the head fits
            else:
                stop = classes.translate(_FROM[cls]).find(1)
            slot = -1
        else:
            # above _LINEAR, a slot of want's own class before it may fit
            cls = min(_class(want), _TOP)
            stop = classes.translate(_FROM[min(cls + 1, _TOP)]).find(1)
            end = len(classes) if stop < 0 else stop
            slot = classes.find(cls, 0, end) if cls < _TOP else -1
        while slot >= 0:
            payload = _HEADER.unpack_from(heap.data, free_list[slot])[0]
            if payload >= want:
                return slot, payload
            slot = classes.find(cls, slot + 1, end)
        if stop < 0:
            return -1, 0
        chunk = free_list[stop]
        if classes[stop] == _POISONED:
            self.region.check_access(chunk, CHUNK_HEADER_SIZE, Perm.LOAD)
            raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"free list entry at {chunk}")
        return stop, _HEADER.unpack_from(heap.data, chunk)[0]

    def _carve(self, chunk: int, payload: int, want: int, slot: int = -1) -> Capability:
        """Hand out ``want`` bytes of ``chunk``, a FREE chunk of ``payload``
        bytes listed at ``slot``, or a grown one not listed (slot -1).  A
        payload 32 bytes or more above ``want`` splits, and the remainder,
        under a FREE header, takes the slot (or the head).  The capability
        is derived, and a remainder header outside the heap faults, before
        anything is committed."""
        region = self.region
        at = chunk + CHUNK_HEADER_SIZE  # the payload
        if payload >= want + 32:
            rest = at + want
            if rest + CHUNK_HEADER_SIZE > self.heap.size:
                region.check_access(rest, CHUNK_HEADER_SIZE, Perm.STORE)
        else:
            rest, want = 0, payload
        perms = region.perms & self._client_perms
        cap = _derive(region, chunk, CHUNK_HEADER_SIZE + want, at, perms, self._rounding)
        if rest:
            self._push(rest, payload - want - CHUNK_HEADER_SIZE, slot)
            if slot >= 0:
                self._leave(chunk)
        elif slot >= 0:
            self._leave(chunk, slot)
        self._write_header(chunk, want, _STATUS_LIVE)
        return cap

    def free(self, cap: Capability) -> None:
        chunk, payload = self._client_header(cap)
        if chunk in self._listed:
            # silent relink: the first occurrence moves to the head
            self._leave(chunk, self._free_list.index(chunk))
        self._push(chunk, payload)

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        want = self._check_request(new_size)
        chunk, payload = self._client_header(cap)
        if want <= payload:
            return self._client_cap(chunk, CHUNK_HEADER_SIZE + payload, chunk + CHUNK_HEADER_SIZE)
        if self._traits.realloc_grows_in_place:
            grown = self._try_absorb(chunk, payload, want)
            if grown is not None:
                return grown
        # move: allocate fresh, copy, zero the tail, release the old chunk.
        # The source is checked before malloc commits but read after it, as
        # a forged header can stretch it over headers that malloc rewrites.
        ncopy = min(payload, new_size)
        heap = self.heap
        if ncopy and cap.address + ncopy > heap.size:
            heap.fault_outside(cap.address, ncopy)
        new_cap = self.malloc(new_size)
        if ncopy:  # a forged header may claim no payload at all
            data = heap.load(self.region, cap.address, ncopy)
            heap.store(self.region, new_cap.address, data)
        if new_size > ncopy:
            heap.store(self.region, new_cap.address + ncopy, bytes(new_size - ncopy))
        # no client validation: a chunk already listed through a stale
        # capability is listed twice
        self._push(chunk, payload)
        return new_cap

    def _try_absorb(self, chunk: int, payload: int, want: int) -> Capability | None:
        """Grow the chunk over the free chunks after it until its payload
        covers ``want`` bytes, carve it and unlist them (after the carve,
        which may fault); None where it cannot grow.  Absorbed bytes (stale
        data, old headers) stay as they are.  A FREE header off the free
        list was written by a client: the walk refuses it as CORRUPT_HEADER
        before anything changes."""
        span = payload
        absorbed = []
        while span < want:
            nxt = chunk + CHUNK_HEADER_SIZE + span
            if nxt + CHUNK_HEADER_SIZE > self.heap.size:
                return None
            nxt_payload, magic, status = self._read_header(nxt)
            if magic != CHUNK_MAGIC or status != _STATUS_FREE:
                return None
            if nxt not in self._listed:
                raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"unlisted free header at {nxt}")
            absorbed.append(nxt)
            span += CHUNK_HEADER_SIZE + nxt_payload
        cap = self._carve(chunk, span, want)
        for off in absorbed:
            self._leave(off, self._free_list.index(off))
        return cap

    def chunks(self) -> list[tuple[int, int, int]]:
        """Walk the heap by headers: (offset, payload size, status) per
        chunk.  Used by tiling checks and the heap dump tooling.  The
        walk must end exactly at the heap's end."""
        out = []
        off = 0
        while off < self.heap.size:
            size, magic, status = self._read_header(off)
            if magic != CHUNK_MAGIC:
                raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"tiling broken at {off}")
            out.append((off, size, status))
            off += CHUNK_HEADER_SIZE + size
        if off != self.heap.size:
            raise AllocError(
                AllocErrorKind.CORRUPT_HEADER, f"tiling ends at {off}, past the heap end {self.heap.size}"
            )
        return out


class _Slab:
    """One carved slab: its offset, size class, one byte per slot (1 when
    taken) and its rank among the slabs of its class in carve order."""

    __slots__ = ("offset", "cls", "bits", "rank")

    def __init__(self, offset: int, cls: int, rank: int):
        self.offset = offset
        self.cls = cls
        self.bits = bytearray(SLAB_SIZE // cls)
        self.rank = rank


class SlabAllocator(Allocator):
    """Size-class slabs with metadata kept out of band.

    Slabs are carved contiguously from 0, so the slab holding an address
    is ``addr // SLAB_SIZE``.  Each slab record keeps one byte per slot,
    1 while the slot is taken.  Each class keeps an open-slab map: one
    byte per slab of the class in carve order (the slab's rank), 1 exactly
    while that slab has a clear slot.  A take that fills a slab clears
    its byte and every applied free sets it, whether strict, deferred or
    a realloc move.  malloc takes ``find(1)`` on the map, then
    ``find(0)`` on that slab's slots: the lowest clear slot of the lowest
    open slab in carve order, found without visiting full slabs in Python.

    free() maps the capability's address to (slab, slot) without ever
    dereferencing through it, so narrowed capabilities are accepted.
    Clearing an already-clear slot bit is silent.  Addresses outside
    every carved slab, and addresses in a later slot of a live
    multi-slot block, are invalid.  With deferred_free, frees queue up
    and are applied when the next malloc or realloc begins; invalid ones
    are dropped there.
    """

    validations = (FreeValidation.METADATA_LOOKUP,)
    refuses = {"narrow_bounds": False}

    def _reset_state(self) -> None:
        self._slab_cursor = 0
        self._slabs: list[_Slab] = []  # carve order, so index = offset // SLAB_SIZE
        self._by_class: dict[int, list[_Slab]] = {}
        # class -> open-slab map: one byte per slab of the class, by rank
        self._open: dict[int, bytearray] = {}
        # block address -> (slab, first slot, slot count, requested size)
        self._live: dict[int, tuple[_Slab, int, int, int]] = {}
        self._pending: list[int] = []

    @staticmethod
    def size_class(size: int) -> int:
        if size > SIZE_CLASSES[-1]:
            raise AllocError(AllocErrorKind.OUT_OF_MEMORY, f"{size} exceeds the largest size class")
        return 1 << (size - 1).bit_length() if size > SIZE_CLASSES[0] else SIZE_CLASSES[0]

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for addr in pending:
            self._apply_free(addr, strict=False)

    def malloc(self, size: int) -> Capability:
        self._check_request(size)
        if self._traits.deferred_free:
            self._flush_pending()
        cls = self.size_class(size)
        open_map = self._open.get(cls)
        if open_map is not None:
            rank = open_map.find(1)
            if rank >= 0:
                slab = self._by_class[cls][rank]
                return self._take(slab, slab.bits.find(0), 1, size)
        if self._slab_cursor + SLAB_SIZE > self.heap.size:
            raise AllocError(AllocErrorKind.OUT_OF_MEMORY, "no room for another slab")
        slabs = self._by_class.setdefault(cls, [])
        slab = _Slab(self._slab_cursor, cls, len(slabs))
        self._slab_cursor += SLAB_SIZE
        self._slabs.append(slab)
        slabs.append(slab)
        self._open.setdefault(cls, bytearray()).append(1)
        return self._take(slab, 0, 1, size)

    def _take(self, slab: _Slab, slot: int, nslots: int, size: int) -> Capability:
        # a single-slot take (every malloc) is an item store, several
        # times cheaper than a slice store
        if nslots == 1:
            slab.bits[slot] = 1
        else:
            slab.bits[slot : slot + nslots] = b"\x01" * nslots
        if 0 not in slab.bits:
            self._open[slab.cls][slab.rank] = 0
        addr = slab.offset + slot * slab.cls
        self._live[addr] = (slab, slot, nslots, size)
        return self._client_cap(addr, nslots * slab.cls)

    def _slot_of(self, addr: int) -> tuple[_Slab, int] | None:
        """Map an address to (slab, slot index), or None when it falls
        outside every carved slab."""
        if not 0 <= addr < self._slab_cursor:
            return None
        slab = self._slabs[addr // SLAB_SIZE]
        return slab, (addr - slab.offset) // slab.cls

    def _apply_free(self, addr: int, *, strict: bool) -> None:
        mapped = self._slot_of(addr)
        if mapped is None:
            if strict:
                raise AllocError(AllocErrorKind.INVALID_FREE, f"{addr} maps outside any slab")
            return
        slab, slot = mapped
        record = self._live.pop(slab.offset + slot * slab.cls, None)
        if record is None:
            # A set bit with no record at its slot is an interior slot of
            # a live multi-slot block: refuse rather than half-free it.
            # Re-clearing a clear bit is silent.
            if strict and slab.bits[slot]:
                raise AllocError(AllocErrorKind.INVALID_FREE, f"{addr} is inside a live block")
            return
        nslots = record[2]
        if nslots == 1:
            slab.bits[slot] = 0
        else:
            slab.bits[slot : slot + nslots] = bytes(nslots)
        self._open[slab.cls][slab.rank] = 1

    def free(self, cap: Capability) -> None:
        if self._traits.deferred_free:
            self._pending.append(cap.address)
            return
        self._apply_free(cap.address, strict=True)

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        self._check_request(new_size)
        if self._traits.deferred_free:
            self._flush_pending()
        record = self._live.get(cap.address)
        if record is None:
            raise AllocError(AllocErrorKind.INVALID_FREE, f"no allocation at {cap.address}")
        slab, slot, nslots, _ = record
        cls = slab.cls
        current = nslots * cls
        if new_size <= current:
            self._live[cap.address] = (slab, slot, nslots, new_size)
            return self._client_cap(cap.address, current)
        if self._traits.realloc_grows_in_place:
            need = -(-new_size // cls)
            if slot + need <= len(slab.bits) and slab.bits.find(1, slot + nslots, slot + need) < 0:
                return self._take(slab, slot, need, new_size)
        # move: fresh slot in the right class, copy, zero the tail
        new_cap = self.malloc(new_size)
        data = self.heap.load(self.region, cap.address, current)
        self.heap.store(self.region, new_cap.address, data)
        if new_size > current:
            self.heap.store(self.region, new_cap.address + current, bytes(new_size - current))
        self._apply_free(cap.address, strict=False)
        return new_cap

    def occupancy(self, addr: int) -> bool:
        """Slot bit for the slot containing ``addr`` (introspection)."""
        mapped = self._slot_of(addr)
        if mapped is None:
            raise ValueError(f"{addr} outside carved slabs")
        slab, slot = mapped
        return slab.bits[slot] == 1
