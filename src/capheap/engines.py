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
(``refuses``).  A malloc builds the client capability before it commits
anything, so a derivation fault leaves the heap as it was.

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

Every engine op keeps its Python frames few, since a call costs about
as much as a handful of the byte and dict operations an op is made of.
Each op checks its request in line, builds the client capability in line
as ``_tuple_new(Capability, ...)`` (the tuple ``_derive`` returns,
without the NamedTuple constructor's frame) wherever ``_derive`` could
neither round nor fault, and copies in place on ``heap.data``, ``tags``
and ``extent`` where it copies (the free list's moving realloc, whose
destination may hold watched headers, stores through ``heap.store``).
``_derive`` runs only where it can do more: with ``rounding_bounds`` on
and a length above ``ROUNDING_THRESHOLD``, or, on the free list, where a
forged header makes a block's top pass the heap's end.  No slab block
passes 4096 bytes or its slab, and bump's out-of-memory test keeps its
blocks inside the heap.  A check folded into an op keeps its order and
its fault text, and runs the helper it replaces only where it fails.
The region capability is tagged, holds every permission and spans the
heap, so its check can only fail on bounds, and a folded copy tests just
those.  The Python calls each op makes into capheap are pinned, per
allocator, by ``CALLS_PER_OP`` in ``tests/test_engines.py``.

The free list itself is kept out of band (a list of chunk offsets, most
recently freed first) rather than threaded through chunk payloads:
freeing deliberately leaves payload bytes untouched, which is part of
the threat model these engines exist to exhibit.  A dict counting each
offset's occurrences in the list answers membership in constant time.
It counts rather than flags because the list may hold a chunk twice: a
moving realloc through a stale capability on a free chunk lists that
chunk again, and each copy can be handed out once.

Every listed chunk lies inside the heap: a chunk is listed only by
writing its FREE header, and that write is bounds-checked.

In malloc a finder picks the slot and one tail carves it.  On a short
list the finder scans from the head, reading each header's payload and
magic, and looks the slot up only for the chunk that fits: a chunk
listed twice has one header, so its first slot is the one the scan
reached first.  Once a scan has visited more than 64 entries (and until
reset), a byte array beside the list holds each slot's size class
instead, read from the chunk's header: linear in 16-byte steps below
2048 bytes, four per power of two above, or poisoned for a bad magic.
One ``translate`` and one ``find`` over those bytes pick the slot, or
raise the CorruptHeader, that the scan would.  The tail, which realloc
growing in place shares, splits off a remainder of 32 bytes or more.
The classes stay true to the heap bytes behind a write barrier that is
a fuse: the heap watches the 8-byte unit of every indexed header, and
the index is on exactly while it does (``heap.watch`` is set).  Any
store or engine header write that reaches a watched unit, and any
``clear``, drops the watch map, and with it the index; so does
re-listing a chunk already listed, whose other slots would keep the old
class.  The next malloc scans from the head, and a scan that visits more
than 64 entries starts the index again from the headers as they are.  A
header forged through a stale capability therefore still steers the
next malloc.  The index holds only chunks on the 8-byte grid, whose
header is exactly one unit: while a forged chunk off the grid is
listed, there is no index and the scan answers.
"""

from __future__ import annotations

import struct

from .allocator_api import (
    _BAD_REQUEST,
    _CORRUPT_HEADER,
    _DOUBLE_FREE,
    _INVALID_FREE,
    _OUT_OF_MEMORY,
    AllocError,
    Allocator,
    AllocatorTraits,
    FreeValidation,
)
from .capability import (
    _BOUNDS_VIOLATION,
    ADDRESS_MAX,
    ROUNDING_THRESHOLD,
    CapFault,
    Capability,
    _derive,
    _tuple_new,
)
from .tagged_memory import _NEED_LOAD, _NEED_STORE, TaggedHeap, _refuse_no_int

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
_PAYLOAD_MAGIC = struct.Struct("<IH")  # the first two fields, for reads that need no status

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
# costs more there than it saves (measured when indexing from the first
# chunk was tried; the figures are in CHANGES.md).
_SCAN_LIMIT = 64
_TOP = 212  # one above the highest payload class
_POISONED = 255
_FROM = [bytes(c) + b"\1" * (_TOP - c) + bytes(_POISONED - _TOP) + b"\1" for c in range(_TOP + 1)]


def _class(payload: int) -> int:
    if payload < _LINEAR:
        return payload >> 4
    top = payload.bit_length()
    return 4 * top + 80 + (payload >> (top - 3) & 3)


SLAB_SIZE = 4096
SIZE_CLASSES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_SMALLEST, _LARGEST = SIZE_CLASSES[0], SIZE_CLASSES[-1]


class BumpAllocator(Allocator):
    """Bump-the-pointer: allocate by advancing a cursor, never reuse.

    free() is a no-op unless the config keeps an allocation log, in
    which case it marks the matching record freed and detects double
    and invalid frees.  realloc always allocates fresh and copies: the
    logged block at the cursor, or without a log ``min(length, new
    size)`` bytes from the cursor, of which only those inside the
    capability's bounds are read (a capability with inverted bounds has
    none, so nothing is copied).  Bump never zeroes: the rest of the new
    block, like every block malloc hands out, holds what the heap holds
    there, which is zero unless a client wrote past the cursor (a
    bump-alloc-nocheri block's capability spans the whole region).

    realloc takes its block as malloc does, in line, and copies in place
    on the heap bytes: its faults come in malloc's order with the copy's
    between them.  A copy window past the heap's end faults first, then
    the out-of-memory test, then the derivation, then a window below the
    heap's start (only a hand-built capability has one), and only then
    does the cursor move, so a refused realloc leaves the cursor where
    it was.  Ahead of them all, after the log's lookup, a capability
    whose address is no int (only a hand-built one has such an address)
    is a bounds fault; a free or realloc the log refuses at such an
    address keeps the log's refusal.
    """

    validations = (FreeValidation.NONE, FreeValidation.ALLOC_LOG)
    refuses = {"deferred_free": True, "realloc_grows_in_place": True}

    def __init__(self, heap: TaggedHeap, traits: AllocatorTraits, *, rounding_bounds: bool = False):
        # read once: the derived flag is a property, a frame per reset
        self._logs = traits.double_free_detect
        super().__init__(heap, traits, rounding_bounds=rounding_bounds)

    def reset(self) -> None:
        self.heap.clear()
        self._cursor = 0
        # base -> [length, freed], kept only under ALLOC_LOG; bump never
        # reuses a base, so keys are unique
        self._log: dict[int, list] | None = {} if self._logs else None

    def malloc(self, size: int) -> Capability:
        if not isinstance(size, int) or size < 1:
            raise AllocError(_BAD_REQUEST, f"size {size!r}")
        length = (size + 15) & ~15
        start = self._cursor
        end = start + length
        if end > self.heap.size:
            raise AllocError(_OUT_OF_MEMORY, f"cursor at {start}")
        # the OOM test keeps the block inside the heap, so only rounding
        # can move or refuse its bounds
        if not self._traits.narrow_bounds:  # whole region, cursor at the block start
            cap = _tuple_new(Capability, (True, 0, self.heap.size, start, self._client_perms))
        elif self._rounding and length > ROUNDING_THRESHOLD:
            cap = _derive(self.region, start, length, start, self._client_perms, True)
        else:
            cap = _tuple_new(Capability, (True, start, end, start, self._client_perms))
        self._cursor = end
        if self._log is not None:
            self._log[start] = [length, False]
        return cap

    def _refuse(self, cap: Capability) -> None:
        """Raise for a free or realloc of ``cap`` under the allocation log.
        free and realloc call this only when the log holds no record at
        ``cap.address`` or the record is freed, so it always raises."""
        if cap.address not in self._log:
            raise AllocError(_INVALID_FREE, f"no allocation at {cap.address}")
        raise AllocError(_DOUBLE_FREE, f"block {cap.address} already freed")

    def free(self, cap: Capability) -> None:
        log = self._log
        if log is not None:
            try:
                record = log.get(cap.address)
            except TypeError:  # an unhashable address
                _refuse_no_int(cap.address)
            if record is None or record[1]:
                self._refuse(cap)
            record[1] = True

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        if not isinstance(new_size, int) or new_size < 1:
            raise AllocError(_BAD_REQUEST, f"size {new_size!r}")
        _, base, top, src, _ = cap
        log = self._log
        record = None
        if log is not None:
            try:
                record = log.get(src)
            except TypeError:  # an unhashable address
                _refuse_no_int(src)
            if record is None or record[1]:
                self._refuse(cap)
        if not isinstance(src, int):  # refused before the cursor moves, where the copy would fail
            _refuse_no_int(src)
        ncopy = min(top - base if record is None else record[0], new_size)
        heap = self.heap
        if ncopy and src + ncopy > heap.size:
            heap.fault_outside(src, ncopy)
        # malloc(new_size), in line
        length = (new_size + 15) & ~15
        start = self._cursor
        end = start + length
        if end > heap.size:
            raise AllocError(_OUT_OF_MEMORY, f"cursor at {start}")
        if not self._traits.narrow_bounds:
            new_cap = _tuple_new(Capability, (True, 0, heap.size, start, self._client_perms))
        elif self._rounding and length > ROUNDING_THRESHOLD:
            new_cap = _derive(self.region, start, length, start, self._client_perms, True)
        else:
            new_cap = _tuple_new(Capability, (True, start, end, start, self._client_perms))
        dst = start
        if record is None:
            # the cursor may have moved: only the bounds say what the block
            # is, so copy just the part of the window inside them
            lo = max(src, base)
            dst += lo - src
            src, ncopy = lo, min(src + ncopy, top) - lo
        if ncopy > 0 and src < 0:  # heap.load's fault, before the cursor moves
            heap.fault_outside(src, ncopy)
        self._cursor = end
        if record is not None:
            log[start] = [length, False]
            record[1] = True  # free(cap)
        if ncopy > 0:
            # the copy in place, as heap.store would make it (the window is
            # inside the heap, and only the free-list engine sets a write
            # barrier); the rest of the block is left as it is
            data = heap.data
            data[dst : dst + ncopy] = data[src : src + ncopy]
            first, last = dst >> 4, (dst + ncopy - 1) >> 4
            heap.tags[first : last + 1] = bytes(last + 1 - first)
            if last >= heap.extent:
                heap.extent = last + 1
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
    ``_carve`` hands it out, writing the LIVE header itself; ``_push``
    writes the FREE ones.  free and realloc read the header in line and
    fall back to ``_client_header``, which raises the fault or error,
    whenever a check would fail; so an address that is no int is
    refused as ``set_address`` refuses it, with a bounds fault, before
    anything changes.  The scan reads the headers in turn: a bad magic
    raises CORRUPT_HEADER, and none fitting is OUT_OF_MEMORY.
    Once a scan has visited more than ``_SCAN_LIMIT`` entries, and until
    reset, ``_fit_indexed`` picks without reading the headers it passes
    over: ``_classes`` holds one byte per slot, the chunk's size class
    (see ``_class``) or _POISONED for a bad magic; the first slot
    of a class that surely fits, or a poisoned one, is found by one
    ``translate`` and one ``find`` over the bytes, and only for requests
    of 2048 bytes and more, whose own class may hold smaller chunks, are
    the earlier slots of that class read.  It picks and raises exactly
    what the scan would.  Neither finder checks bounds: no listed chunk
    lies outside the heap, as each was listed by a bounds-checked write
    of its header.  Listing a chunk off the 8-byte grid (only a forged
    header makes one) drops the index, and no scan starts it again
    while such a chunk is listed.

    Clients can overwrite headers, and the engine's own header writes
    can land on a forged one, so the classes stand behind the heap's
    write barrier: the heap watches the 8-byte unit of every indexed
    header, and the index is on exactly while ``heap.watch`` is set.
    Every write to a watched unit (the LIVE header of a chunk grown in
    place tests both units it may overlap) drops the watch map, as does
    re-listing a listed chunk, and malloc scans until a long scan starts
    the index again.  chunks() raises CORRUPT_HEADER on a bad magic or a
    walk that does not end exactly at the heap's end, and realloc
    absorption on a FREE header that is not listed.
    """

    validations = (FreeValidation.INLINE_HEADER,)
    refuses = {"narrow_bounds": False, "deferred_free": True}

    # the class of each slot's chunk, kept and read only while the heap
    # watches (``heap.watch`` is set), which is exactly while the index is on
    _classes: bytearray

    def reset(self) -> None:
        self.heap.clear()  # drops the watch map: no index, the scan answers
        self._free_list: list[int] = []  # chunk offsets, head first
        self._listed: dict[int, int] = {}  # chunk -> occurrences in _free_list
        self._push(0, self.heap.size - CHUNK_HEADER_SIZE)  # one free chunk tiles the heap

    # Listing goes through _push and _leave; the one exception is the
    # split in _carve, which counts out the chunk whose slot the remainder
    # took in line, as _leave(chunk) would.  The index holds only chunks
    # on the 8-byte grid (every one but a forged one), so a chunk's header
    # is exactly the unit the heap watches at chunk >> 3, and that unit
    # is watched exactly while the chunk is listed.  A push files the
    # chunk by the payload it writes.  Re-listing a chunk already listed
    # drops the index, as its other slots hold the old class, and so does
    # listing a chunk off the grid; the index does not start again while
    # such a chunk is listed.

    def _push(self, chunk: int, payload: int, slot: int = -1) -> None:
        """Write a FREE header of ``payload`` bytes at ``chunk`` and list
        it at the head (the free list is LIFO), or in place of the
        occurrence at ``slot``, which the caller then counts out."""
        heap = self.heap
        if chunk < 0 or chunk + CHUNK_HEADER_SIZE > heap.size:
            self.region.check_access(chunk, CHUNK_HEADER_SIZE, _NEED_STORE)
        _HEADER.pack_into(heap.data, chunk, payload, CHUNK_MAGIC, _STATUS_FREE, 0)
        first, last = chunk >> 4, (chunk + CHUNK_HEADER_SIZE - 1) >> 4
        heap.tags[first] = heap.tags[last] = 0
        if last >= heap.extent:
            heap.extent = last + 1
        listed = self._listed
        n = listed.get(chunk, 0)
        listed[chunk] = n + 1
        watch = heap.watch
        if watch is not None and (n or chunk & 7):
            heap.set_watch(None)
        elif watch is not None:
            watch[chunk >> 3] = 1
            cls = payload >> 4 if payload < _LINEAR else _class(payload)
            if slot < 0:
                self._classes.insert(0, cls)
            else:
                self._classes[slot] = cls
        if slot < 0:
            self._free_list.insert(0, chunk)
        else:
            self._free_list[slot] = chunk

    def _leave(self, chunk: int, slot: int = -1) -> None:
        """Count one occurrence of ``chunk`` out, and unlist the one at
        ``slot`` if given."""
        watch = self.heap.watch
        if slot >= 0:
            del self._free_list[slot]
            if watch is not None:
                del self._classes[slot]
        listed = self._listed
        n = listed.pop(chunk) - 1
        if n:
            listed[chunk] = n
        elif watch is not None:
            watch[chunk >> 3] = 0

    def _index(self) -> None:
        """Start the class index, unless a chunk off the grid is listed:
        file every listed chunk by its header, read once from the heap
        bytes, and watch it from now on."""
        if any(chunk & 7 for chunk in self._listed):
            return
        heap = self.heap
        watch = bytearray(heap.size >> 3)
        heap.set_watch(watch)
        class_of = {}
        for chunk in self._listed:
            payload, magic = _PAYLOAD_MAGIC.unpack_from(heap.data, chunk)
            class_of[chunk] = _class(payload) if magic == CHUNK_MAGIC else _POISONED
            watch[chunk >> 3] = 1
        self._classes = bytearray(class_of[chunk] for chunk in self._free_list)

    # Header I/O is done in place on the heap bytes (see the module
    # docstring).  The engine's authority is the region capability, which
    # is tagged, holds every permission and spans the heap, so its check
    # can only fail on bounds: that test stays inline, and when it fails
    # check_access raises the fault heap.load or heap.store would.  The
    # two header writers, _push (FREE) and _carve (LIVE), each write in
    # line rather than through a shared helper, to save a Python frame
    # per op: a write clears the tag of every granule its 8 bytes
    # overlap (one for a chunk start, two for a header forged at 9..15
    # modulo 16) and, like a client's store, raises the heap's written
    # extent.  Of the watched units it may write, _push needs no test: an
    # on-grid header is its own unit, watched only while that chunk is
    # listed, and both a re-list and an off-grid push drop the index.
    # _carve's LIVE header may be that of an off-grid chunk grown in
    # place, over two units, so it tests both and drops the watch map if
    # either is watched.

    def _read_header(self, chunk: int) -> tuple[int, int, int]:
        if chunk < 0 or chunk + CHUNK_HEADER_SIZE > self.heap.size:
            self.region.check_access(chunk, CHUNK_HEADER_SIZE, _NEED_LOAD)
        size, magic, status, _ = _HEADER.unpack_from(self.heap.data, chunk)
        return size, magic, status

    def _client_header(self, cap: Capability) -> tuple[int, int]:
        """Validate a client capability by reading the chunk header through
        it, exactly as the client could.  Returns (chunk offset, payload
        size); raises CapFault on tamper, AllocError on a bad header.

        The checks are those of moving the cursor onto the header and
        loading through the copy (``set_address``, then ``heap.load``),
        in the same order, without building the copy.  An address
        ``set_address`` refuses, no int (tested first, as it tests it),
        below the heap or past the 32-bit address space, is a bounds
        fault; ``check_access`` runs only when its test fails."""
        tag, base, top, address, perms = cap
        if not isinstance(address, int):
            raise CapFault(_BOUNDS_VIOLATION, f"address {address!r} is not an int")
        chunk = address - CHUNK_HEADER_SIZE
        if chunk < 0:
            raise CapFault(_BOUNDS_VIOLATION, "header would sit below the heap")
        if chunk > ADDRESS_MAX:
            raise CapFault(_BOUNDS_VIOLATION, "header would sit past the 32-bit address space")
        if not (tag and perms & _NEED_LOAD and base <= chunk and address <= top):
            cap.check_access(chunk, CHUNK_HEADER_SIZE, _NEED_LOAD)
        heap = self.heap
        if chunk + CHUNK_HEADER_SIZE > heap.size:
            heap.fault_outside(chunk, CHUNK_HEADER_SIZE)
        size, magic = _PAYLOAD_MAGIC.unpack_from(heap.data, chunk)
        if magic != CHUNK_MAGIC:
            raise AllocError(_INVALID_FREE, f"bad chunk magic at {chunk}")
        return chunk, size

    def malloc(self, size: int) -> Capability:
        if not isinstance(size, int) or size < 1:  # _check_request, in line
            raise AllocError(_BAD_REQUEST, f"size {size!r}")
        want = (size + 15) & ~15
        free_list = self._free_list
        heap = self.heap
        if heap.watch is not None:
            slot, payload = self._fit_indexed(want)
        else:
            # a short list, or the index dropped: scan it from the head,
            # reading each header; the slot is the fitting chunk's first
            data = heap.data
            unpack = _PAYLOAD_MAGIC.unpack_from
            for chunk in free_list:
                payload, magic = unpack(data, chunk)
                if magic != CHUNK_MAGIC:
                    raise AllocError(_CORRUPT_HEADER, f"free list entry at {chunk}")
                if payload >= want:
                    slot = free_list.index(chunk)
                    break
            else:
                slot = -1
                if len(free_list) > _SCAN_LIMIT:
                    self._index()
        if slot < 0:
            raise AllocError(_OUT_OF_MEMORY, f"no free chunk holds {want} bytes")
        cap = self._carve(free_list[slot], payload, want, slot)
        if slot >= _SCAN_LIMIT and heap.watch is None:
            self._index()  # a long scan: answer from the classes from now on
        return cap

    def _fit_indexed(self, want: int) -> tuple[int, int]:
        """The scan's pick on a long list, from the class index: the slot
        and its chunk's payload, or (-1, 0) when no chunk fits.  A
        poisoned slot raises what the scan would raise there."""
        heap = self.heap
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
            payload = _PAYLOAD_MAGIC.unpack_from(heap.data, free_list[slot])[0]
            if payload >= want:
                return slot, payload
            slot = classes.find(cls, slot + 1, end)
        if stop < 0:
            return -1, 0
        chunk = free_list[stop]
        if classes[stop] == _POISONED:
            raise AllocError(_CORRUPT_HEADER, f"free list entry at {chunk}")
        return stop, _PAYLOAD_MAGIC.unpack_from(heap.data, chunk)[0]

    def _carve(self, chunk: int, payload: int, want: int, slot: int = -1) -> Capability:
        """Hand out ``want`` bytes of ``chunk``, a FREE chunk of ``payload``
        bytes listed at ``slot``, or a grown one not listed (slot -1).  A
        payload 32 bytes or more above ``want`` splits, and the remainder,
        under a FREE header, takes the slot (or the head).  The capability
        is derived, and a remainder header outside the heap faults, before
        anything is committed."""
        region = self.region
        heap = self.heap
        at = chunk + CHUNK_HEADER_SIZE  # the payload
        if payload >= want + 32:
            rest = at + want
            if rest + CHUNK_HEADER_SIZE > heap.size:
                region.check_access(rest, CHUNK_HEADER_SIZE, _NEED_STORE)
        else:
            rest, want = 0, payload
        # a chunk handed out whole may end past the heap, if a forged
        # header says so; only there, or when rounding, can _derive refuse
        # or move its bounds
        length = CHUNK_HEADER_SIZE + want
        if at + want > heap.size or (self._rounding and length > ROUNDING_THRESHOLD):
            cap = _derive(region, chunk, length, at, self._client_perms, self._rounding)
        else:
            cap = _tuple_new(Capability, (True, chunk, at + want, at, self._client_perms))
        if rest:
            self._push(rest, payload - want - CHUNK_HEADER_SIZE, slot)
            if slot >= 0:  # the remainder took the slot: _leave(chunk)'s count-out
                listed = self._listed
                n = listed.pop(chunk) - 1
                if n:
                    listed[chunk] = n
                elif heap.watch is not None:
                    heap.watch[chunk >> 3] = 0
        elif slot >= 0:
            self._leave(chunk, slot)
        # the LIVE header, written as _push writes a FREE one
        if chunk < 0 or at > heap.size:
            region.check_access(chunk, CHUNK_HEADER_SIZE, _NEED_STORE)
        _HEADER.pack_into(heap.data, chunk, want, CHUNK_MAGIC, _STATUS_LIVE, 0)
        first, last = chunk >> 4, (at - 1) >> 4
        heap.tags[first] = heap.tags[last] = 0
        # _push raised the extent over this header, or over a higher one
        # absorbed, unless the heap was cleared under this instance since
        if last >= heap.extent:
            heap.extent = last + 1
        watch = heap.watch
        if watch is not None and (watch[chunk >> 3] or watch[(at - 1) >> 3]):
            heap.set_watch(None)
        return cap

    def free(self, cap: Capability) -> None:
        # _client_header's checks in line while they all pass and the
        # capability ends inside the heap, as every one malloc hands out
        # does; otherwise it runs, and raises or returns the same, also
        # where a field that is no int made a check raise TypeError
        tag, base, top, address, perms = cap
        magic = None
        try:
            chunk = address - CHUNK_HEADER_SIZE
            if tag and perms & _NEED_LOAD and 0 <= chunk >= base and address <= top <= self.heap.size:
                payload, magic = _PAYLOAD_MAGIC.unpack_from(self.heap.data, chunk)
        except TypeError:
            pass
        if magic != CHUNK_MAGIC:
            chunk, payload = self._client_header(cap)
        if chunk in self._listed:
            # silent relink: the first occurrence moves to the head
            self._leave(chunk, self._free_list.index(chunk))
        self._push(chunk, payload)

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        if not isinstance(new_size, int) or new_size < 1:
            raise AllocError(_BAD_REQUEST, f"size {new_size!r}")
        want = (new_size + 15) & ~15
        # the header read as free reads it
        tag, base, top, address, perms = cap
        heap = self.heap
        magic = None
        try:
            chunk = address - CHUNK_HEADER_SIZE
            if tag and perms & _NEED_LOAD and 0 <= chunk >= base and address <= top <= heap.size:
                payload, magic = _PAYLOAD_MAGIC.unpack_from(heap.data, chunk)
        except TypeError:
            pass
        if magic != CHUNK_MAGIC:
            chunk, payload = self._client_header(cap)
        if want <= payload:  # the block keeps its chunk, as _carve hands it out
            length = CHUNK_HEADER_SIZE + payload
            if address + payload > heap.size or (self._rounding and length > ROUNDING_THRESHOLD):
                return _derive(self.region, chunk, length, address, self._client_perms, self._rounding)
            return _tuple_new(Capability, (True, chunk, address + payload, address, self._client_perms))
        if self._traits.realloc_grows_in_place:
            grown = self._try_absorb(chunk, payload, want)
            if grown is not None:
                return grown
        # move: allocate fresh, copy, zero the tail, release the old chunk.
        # The source is checked before malloc commits but read after it, as
        # a forged header can stretch it over headers that malloc rewrites.
        ncopy = min(payload, new_size)
        if ncopy and address + ncopy > heap.size:
            heap.fault_outside(address, ncopy)
        new_cap = self.malloc(new_size)
        # the copy, read in place (the source is inside the heap, so the
        # region's check cannot fail), and the zero tail in one store; a
        # forged header may claim no payload at all, so the copy may be empty
        data = heap.data[address : address + ncopy]
        heap.store(self.region, new_cap.address, data.ljust(new_size, b"\0"))
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
                raise AllocError(_CORRUPT_HEADER, f"unlisted free header at {nxt}")
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
                raise AllocError(_CORRUPT_HEADER, f"tiling broken at {off}")
            out.append((off, size, status))
            off += CHUNK_HEADER_SIZE + size
        if off != self.heap.size:
            raise AllocError(
                _CORRUPT_HEADER, f"tiling ends at {off}, past the heap end {self.heap.size}"
            )
        return out


class _Slab:
    """One carved slab: its number in carve order, its offset (the number
    times ``SLAB_SIZE``), size class and one byte per slot (1 when taken)."""

    __slots__ = ("index", "offset", "cls", "bits")

    def __init__(self, index: int, cls: int):
        self.index = index
        self.offset = index * SLAB_SIZE
        self.cls = cls
        self.bits = bytearray(SLAB_SIZE // cls)


class SlabAllocator(Allocator):
    """Size-class slabs with metadata kept out of band.

    Slabs are carved contiguously from 0, so the slab holding an address
    is number ``addr // SLAB_SIZE``.  Each slab record keeps one byte per
    slot, 1 while the slot is taken.  Each class keeps an open-slab map:
    one byte per slab number up to its last slab, 1 exactly while that
    slab is of the class and has a clear slot.  A take that fills a slab
    clears its byte and every applied free sets it, whether strict,
    deferred or a realloc move.  malloc takes ``find(1)`` on the map,
    then ``find(0)`` on that slab's slots: the lowest clear slot of the
    lowest open slab of the class, found without visiting full slabs in
    Python.

    free() maps the capability's address to (slab, slot) without ever
    dereferencing through it, so narrowed capabilities are accepted.
    Clearing an already-clear slot bit is silent.  Addresses outside
    every carved slab, and addresses in a later slot of a live
    multi-slot block, are invalid.  With deferred_free, frees queue up
    and are applied when the next malloc or realloc begins; invalid ones
    are dropped there, an address that is no int among them.  A strict
    free or a realloc of an address that is no int is a bounds fault
    that changes no block (a realloc flushes the queue first), unless
    the address equals a block's own (``0.0``): that names the block,
    and only a realloc that would move it faults.

    malloc applies ``size_class`` and takes its single slot in line; a
    strict free of a one-slot block named by its own address, which is
    every block malloc hands out, clears it in line, and any other free
    goes through ``_apply_free``.  realloc grows a block in place over
    the clear slots after it, or moves it with one in-place copy that
    also zeroes the tail.
    """

    validations = (FreeValidation.METADATA_LOOKUP,)
    refuses = {"narrow_bounds": False}

    def reset(self) -> None:
        self.heap.clear()
        self._slabs: list[_Slab] = []  # by number, which is offset // SLAB_SIZE
        # class -> open-slab map: one byte per slab number
        self._open: dict[int, bytearray] = {}
        # block address -> (slab, first slot, slot count)
        self._live: dict[int, tuple[_Slab, int, int]] = {}
        self._pending: list[int] = []

    @staticmethod
    def size_class(size: int) -> int:
        """The class malloc puts a request of ``size`` bytes in (malloc
        applies this rule in line)."""
        if size > _LARGEST:
            raise AllocError(_OUT_OF_MEMORY, f"{size} exceeds the largest size class")
        return 1 << (size - 1).bit_length() if size > _SMALLEST else _SMALLEST

    def _flush_pending(self) -> None:
        pending, self._pending = self._pending, []
        for addr in pending:
            try:
                self._apply_free(addr, strict=False)
            except TypeError:  # an address that is no int, dropped as invalid
                pass

    def malloc(self, size: int) -> Capability:
        if not isinstance(size, int) or size < 1:
            raise AllocError(_BAD_REQUEST, f"size {size!r}")
        if self._pending:  # only a deferred free queues
            self._flush_pending()
        if size > _LARGEST:  # size_class, in line
            raise AllocError(_OUT_OF_MEMORY, f"{size} exceeds the largest size class")
        cls = 1 << (size - 1).bit_length() if size > _SMALLEST else _SMALLEST
        open_map = self._open.get(cls)
        index = -1 if open_map is None else open_map.find(1)
        if index >= 0:
            slab = self._slabs[index]
        else:
            index = len(self._slabs)
            if (index + 1) * SLAB_SIZE > self.heap.size:
                raise AllocError(_OUT_OF_MEMORY, "no room for another slab")
            slab = _Slab(index, cls)
            self._slabs.append(slab)
            if open_map is None:
                open_map = self._open[cls] = bytearray()
            open_map.extend(bytes(index - len(open_map)) + b"\1")  # 0 for the slabs of other classes
        # the take: the lowest clear slot, so the slab is full when no
        # clear slot follows it
        bits = slab.bits
        slot = bits.find(0)
        addr = slab.offset + slot * cls
        # no slab block passes 4096 bytes or its slab, so _derive could
        # neither round nor refuse it: each is built in line
        cap = _tuple_new(Capability, (True, addr, addr + cls, addr, self._client_perms))
        bits[slot] = 1
        if bits.find(0, slot + 1) < 0:
            open_map[index] = 0
        self._live[addr] = (slab, slot, 1)
        return cap

    def _slot_of(self, addr: int) -> tuple[_Slab, int] | None:
        """Map an address to (slab, slot index), or None when it falls
        outside every carved slab."""
        if not 0 <= addr < len(self._slabs) * SLAB_SIZE:
            return None
        slab = self._slabs[addr // SLAB_SIZE]
        return slab, (addr - slab.offset) // slab.cls

    def _apply_free(self, addr: int, *, strict: bool) -> None:
        # a block's record is keyed by its own address, which a free
        # names unless its capability's cursor has moved
        record = self._live.pop(addr, None)
        if record is None:
            mapped = self._slot_of(addr)
            if mapped is None:
                if strict:
                    raise AllocError(_INVALID_FREE, f"{addr} maps outside any slab")
                return
            slab, slot = mapped
            record = self._live.pop(slab.offset + slot * slab.cls, None)
            if record is None:
                # A set bit with no record at its slot is an interior slot
                # of a live multi-slot block: refuse rather than half-free
                # it.  Re-clearing a clear bit is silent.
                if strict and slab.bits[slot]:
                    raise AllocError(_INVALID_FREE, f"{addr} is inside a live block")
                return
        slab, slot, nslots = record
        if nslots == 1:
            slab.bits[slot] = 0
        else:
            slab.bits[slot : slot + nslots] = bytes(nslots)
        self._open[slab.cls][slab.index] = 1

    def free(self, cap: Capability) -> None:
        addr = cap.address
        if self._traits.deferred_free:
            self._pending.append(addr)
            return
        # _apply_free(addr, strict=True), in line for a one-slot block at
        # its own address, as every malloc hands out; an address that is
        # no int raises TypeError before anything changes
        try:
            record = self._live.get(addr)
            if record is None or record[2] != 1:
                self._apply_free(addr, strict=True)
                return
        except TypeError:
            _refuse_no_int(addr)
        del self._live[addr]
        slab = record[0]
        slab.bits[record[1]] = 0
        self._open[slab.cls][slab.index] = 1

    def realloc(self, cap: Capability, new_size: int) -> Capability:
        if not isinstance(new_size, int) or new_size < 1:
            raise AllocError(_BAD_REQUEST, f"size {new_size!r}")
        if self._pending:
            self._flush_pending()
        addr = cap.address
        try:
            record = self._live.get(addr)
        except TypeError:  # an unhashable address
            _refuse_no_int(addr)
        if record is None:
            raise AllocError(_INVALID_FREE, f"no allocation at {addr}")
        slab, slot, nslots = record
        cls = slab.cls
        current = nslots * cls
        if new_size <= current:
            return _tuple_new(Capability, (True, addr, addr + current, addr, self._client_perms))
        if self._traits.realloc_grows_in_place:
            need = -(-new_size // cls)
            bits = slab.bits
            if slot + need <= len(bits) and bits.find(1, slot + nslots, slot + need) < 0:
                bits[slot : slot + need] = b"\1" * need
                if 0 not in bits:
                    self._open[cls][slab.index] = 0
                self._live[addr] = (slab, slot, need)
                top = addr + need * cls
                return _tuple_new(Capability, (True, addr, top, addr, self._client_perms))
        # move: a fresh slot in the right class; the copy and the zero
        # tail are one write in place, as heap.store would make it (both
        # blocks lie in carved slabs, and only the free-list engine sets
        # a write barrier)
        if not isinstance(addr, int):  # a float equal to a block's address fails the copy
            _refuse_no_int(addr)
        new_cap = self.malloc(new_size)
        dst = new_cap.address
        heap = self.heap
        data = heap.data
        data[dst : dst + new_size] = data[addr : addr + current] + bytes(new_size - current)
        first, last = dst >> 4, (dst + new_size - 1) >> 4
        heap.tags[first : last + 1] = bytes(last + 1 - first)
        if last >= heap.extent:
            heap.extent = last + 1
        self._apply_free(addr, strict=False)
        return new_cap

    def occupancy(self, addr: int) -> bool:
        """Slot bit for the slot containing ``addr`` (introspection)."""
        mapped = self._slot_of(addr)
        if mapped is None:
            raise ValueError(f"{addr} outside carved slabs")
        slab, slot = mapped
        return slab.bits[slot] == 1
