"""Stateful guard for the free-list engine on its three configurations.

Hypothesis drives mallocs, frees, re-frees through stale capabilities
(a relink when the chunk is still listed), reallocs, headers forged
through stale or live capabilities (most on the 8-byte grid, where a
listed one stays in the class index, the rest at any offset, so some
straddle two granules, optionally with the second granule tagged by a
capability store), frees and reallocs aimed at a forged header, a chunk
forged off the grid and grown in place while the class index is on (so
that its LIVE header straddles a watched unit), frees aimed inside a
block or through a capability narrowed to the payload, capability stores
that tag payload granules, and resets.

After every step the occurrence index must equal the free list's
counts and every granule under a header the engine wrote during the
step must be untagged; the writes are recorded at ``_HEADER.pack_into``,
which every header write of the engine goes through.  While the class
index is on, every listed chunk must be on the 8-byte grid, the heap
must watch exactly the 8-byte units of listed headers, and each slot's
class must be its header's as read from the heap bytes.
``chunks()`` may fail only as a classified ``CorruptHeader`` or bounds
fault, and a list it returns must tile the heap exactly.  Until the
client mounts one of the modelled attacks (a forged header, a free that
lists a chunk that was not free, a store over a header), it must not
fail, and must agree with the free list and the blocks the client
holds, and those blocks must be disjoint.  Every malloc, attacked or
not, must match a brute-force first fit over ``_free_list`` read from
heap bytes, and a malloc that faults must leave the heap as it was.

A variant runs with ``rounding_bounds=True`` over a heap whose end is
not 32-byte aligned, with requests that take the chunk at the heap's
end: rounding a block's top past the heap's end is a derivation fault
that must come before the engine commits anything.
"""

import struct
from collections import Counter

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from capheap import engines
from capheap.allocator_api import AllocError, AllocErrorKind, FreeValidation
from capheap.capability import (
    ROUNDING_MANTISSA_BITS,
    ROUNDING_THRESHOLD,
    CapFault,
    Capability,
    FaultKind,
)
from capheap.engines import _POISONED, CHUNK_HEADER_SIZE, CHUNK_MAGIC, _class
from capheap.registry import TRAITS, create
from capheap.tagged_memory import GRANULE
from granules import round16
from stateful_settings import STATEFUL

HEAP = 16384  # small enough that mallocs run out
HEADER = struct.Struct("<IHBB")
FREE, LIVE = 0, 1

SIZES = st.one_of(st.integers(1, 64), st.integers(1, 600), st.integers(1, 6000))
INDEX = st.integers(0, 1 << 16)
# forged payload sizes: mostly granule multiples, some arbitrary or huge
FORGED_SIZES = st.one_of(st.integers(0, 64).map(lambda n: 16 * n), st.integers(0, 1 << 20))
# forged header offsets inside the capability: near its base, or anywhere;
# forge_header moves most down to the 8-byte grid (see FORGE_ON_GRID)
FORGE_OFFSETS = st.one_of(st.integers(0, 24), st.integers(0, 1 << 16))
# non-zero for a forged header moved down to the 8-byte grid: once listed
# it leaves the class index on, so that engine writes over it exercise the
# write barrier (one off the grid switches the index off while listed)
FORGE_ON_GRID = st.integers(0, 7)


def rounded(base, length):
    """The bounds a client capability for [base, base + length) gets
    with rounding on."""
    if length <= ROUNDING_THRESHOLD:
        return base, base + length
    align = 1 << ((length - 1).bit_length() - ROUNDING_MANTISSA_BITS)
    return base // align * align, -(-(base + length) // align) * align


def tagging_capability(header, at):
    """A capability whose stored bytes repeat the tail of an 8-byte
    header forged at ``at`` that spills into the next granule, so that
    storing it there tags that granule and leaves the header intact."""
    tail = header[GRANULE - at % GRANULE :]
    base, top, address = struct.unpack("<III", tail.ljust(12, b"\0"))
    return Capability(True, base, top, address, 0)


class RecordingHeader:
    """Stands in for ``engines._HEADER`` while a machine runs: appends the
    offset of every header written through ``pack_into`` to ``written``
    and passes everything through."""

    def __init__(self, inner, written):
        self.inner = inner
        self.written = written

    def pack_into(self, buffer, offset, *fields):
        self.inner.pack_into(buffer, offset, *fields)
        self.written.append(offset)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FreeListMachine(RuleBasedStateMachine):
    config = "jemalloc"
    heap_size = HEAP
    rounding = False
    written = []  # headers the engine wrote during the current step, set by run_machine

    def __init__(self):
        super().__init__()
        self.alloc = create(self.config, heap_size=self.heap_size, rounding_bounds=self.rounding)
        self.fresh = self.alloc.heap.snapshot()  # the heap as a fresh instance has it
        self.written.clear()
        self.reset_model()

    def reset_model(self):
        self.live = []  # capabilities the client holds
        self.stale = []  # capabilities of blocks freed or resized since
        self.forged = []  # (capability, offset) of each forged header
        self.attacked = False

    def pick(self, pool, index):
        return pool[index % len(pool)]

    def header(self, chunk):
        return HEADER.unpack(self.alloc.heap.data[chunk : chunk + CHUNK_HEADER_SIZE])

    def bounds(self, chunk, payload):
        """The bounds of the client capability for a chunk."""
        length = CHUNK_HEADER_SIZE + payload
        return rounded(chunk, length) if self.rounding else (chunk, chunk + length)

    def first_fit(self, size):
        """Brute force: what malloc must do, read from the heap bytes."""
        want = round16(size)
        for slot, chunk in enumerate(self.alloc._free_list):
            if chunk < 0 or chunk + CHUNK_HEADER_SIZE > self.heap_size:
                return "fault", FaultKind.BOUNDS_VIOLATION
            payload, magic, _, _ = self.header(chunk)
            if magic != CHUNK_MAGIC:
                return "corrupt", chunk
            if payload < want:
                continue
            rest = None
            if payload >= want + 32:
                rest = chunk + CHUNK_HEADER_SIZE + want
                if rest + CHUNK_HEADER_SIZE > self.heap_size:
                    return "fault", FaultKind.BOUNDS_VIOLATION
                payload = want
            if self.bounds(chunk, payload)[1] > self.heap_size:
                return "fault", FaultKind.MONOTONICITY_VIOLATION
            return "fit", (slot, chunk, payload, rest)
        return "oom", None

    def expect_freed(self, chunk, before, relink):
        """A free of ``chunk`` succeeded: it heads the list, and a relink
        moved its first occurrence there."""
        after = list(before)
        if relink:
            after.remove(chunk)
        assert self.alloc._free_list == [chunk] + after
        assert self.header(chunk)[1:3] == (CHUNK_MAGIC, FREE)

    def try_free(self, cap, *, own=False):
        """Free through ``cap``; a refused free changes nothing.  Unless
        ``cap`` is the client's own live block, a free that lists a chunk
        that was not listed is a modelled attack."""
        chunk = cap.address - CHUNK_HEADER_SIZE
        before = list(self.alloc._free_list)
        relink = chunk in self.alloc._listed
        try:
            self.alloc.free(cap)
        except AllocError as exc:
            assert exc.kind is AllocErrorKind.INVALID_FREE
            assert str(exc) == f"InvalidFree: bad chunk magic at {chunk}"
            assert self.alloc._free_list == before
            return False
        except CapFault as exc:
            assert exc.kind is FaultKind.BOUNDS_VIOLATION
            assert self.alloc._free_list == before
            return False
        self.expect_freed(chunk, before, relink)
        if not (relink or own):
            self.attacked = True
        return True

    @rule(size=SIZES)
    def malloc(self, size):
        heap = self.alloc.heap
        before = list(self.alloc._free_list)
        memory = bytes(heap.data), bytes(heap.tags)
        verdict, detail = self.first_fit(size)
        try:
            cap = self.alloc.malloc(size)
        except AllocError as exc:
            if verdict == "oom":
                assert exc.kind is AllocErrorKind.OUT_OF_MEMORY
            else:
                assert (verdict, exc.kind) == ("corrupt", AllocErrorKind.CORRUPT_HEADER)
                assert str(exc) == f"CorruptHeader: free list entry at {detail}"
            assert self.alloc._free_list == before
            assert (bytes(heap.data), bytes(heap.tags)) == memory
            return
        except CapFault as exc:
            assert (verdict, exc.kind) == ("fault", detail)
            assert self.alloc._free_list == before
            assert (bytes(heap.data), bytes(heap.tags)) == memory
            return
        assert verdict == "fit"
        slot, chunk, payload, rest = detail
        assert (cap.base, cap.top, cap.address) == (
            *self.bounds(chunk, payload),
            chunk + CHUNK_HEADER_SIZE,
        )
        assert cap.perms == self.alloc._client_perms
        if rest is None:
            del before[slot]
        else:
            before[slot] = rest
            assert self.header(rest)[1:3] == (CHUNK_MAGIC, FREE)
        assert self.alloc._free_list == before
        assert self.header(chunk) == (payload, CHUNK_MAGIC, LIVE, 0)
        self.live.append(cap)

    @rule(short=st.integers(0, 47))
    def malloc_at_the_end(self, short):
        """A request for about the whole of a listed chunk that ends at
        the heap's end."""
        for chunk in self.alloc._free_list:
            if 0 <= chunk <= self.heap_size - CHUNK_HEADER_SIZE:
                payload = self.header(chunk)[0]
                if chunk + CHUNK_HEADER_SIZE + payload == self.heap_size and payload > short:
                    self.malloc(payload - short)
                    return

    @precondition(lambda self: self.live)
    @rule(index=INDEX)
    def free(self, index):
        cap = self.pick(self.live, index)
        self.live.remove(cap)
        self.stale.append(cap)
        freed = self.try_free(cap, own=True)
        assert freed or self.attacked

    @precondition(lambda self: self.stale)
    @rule(index=INDEX)
    def refree(self, index):
        self.try_free(self.pick(self.stale, index))

    @precondition(lambda self: self.live)
    @rule(index=INDEX, size=SIZES)
    def realloc(self, index, size):
        cap = self.pick(self.live, index)
        heap = self.alloc.heap
        before = list(self.alloc._free_list)
        memory = bytes(heap.data), bytes(heap.tags)
        try:
            new = self.alloc.realloc(cap, size)
        except AllocError as exc:
            assert exc.kind is AllocErrorKind.OUT_OF_MEMORY or self.attacked
            return
        except CapFault as exc:
            if self.attacked:
                return
            # a grown or moved block's rounded top may pass the heap's end,
            # which must fault before anything changes
            assert self.rounding and exc.kind is FaultKind.MONOTONICITY_VIOLATION
            assert self.alloc._free_list == before
            assert (bytes(heap.data), bytes(heap.tags)) == memory
            return
        if new != cap:
            self.live[self.live.index(cap)] = new
            self.stale.append(cap)

    @precondition(lambda self: self.live)
    @rule(index=INDEX, short=st.integers(0, 47))
    def realloc_to_the_end(self, index, short):
        """Grow a block to about the rest of the heap."""
        cap = self.pick(self.live, index)
        self.realloc(index, max(1, self.heap_size - cap.address - short))

    @precondition(lambda self: self.live or self.stale)
    @rule(
        index=INDEX,
        offset=FORGE_OFFSETS,
        on_grid=FORGE_ON_GRID,
        size=FORGED_SIZES,
        status=st.sampled_from([FREE, LIVE]),
        tag=st.booleans(),
    )
    def forge_header(self, index, offset, on_grid, size, status, tag):
        cap = self.pick(self.stale + self.live, index)
        at = cap.base + offset % (cap.length - CHUNK_HEADER_SIZE + 1)
        if on_grid and at & ~7 >= cap.base:  # cap.base is off it only for a forged chunk
            at &= ~7
        header = HEADER.pack(size, CHUNK_MAGIC, status, 0)
        self.alloc.heap.store(cap, at, header)
        spill = (at | (GRANULE - 1)) + 1  # the next granule, if the header reaches it
        if tag and at % GRANULE > GRANULE - CHUNK_HEADER_SIZE and spill + GRANULE <= cap.top:
            self.alloc.heap.store_cap(cap, spill, tagging_capability(header, at))
            assert self.alloc.heap.data[at : at + CHUNK_HEADER_SIZE] == header
        self.forged.append((cap, at))
        self.attacked = True

    @precondition(lambda self: self.forged)
    @rule(index=INDEX)
    def free_at_forged_header(self, index):
        cap, at = self.pick(self.forged, index)
        self.try_free(cap.set_address(at + CHUNK_HEADER_SIZE))

    @precondition(lambda self: self.forged)
    @rule(index=INDEX, size=SIZES)
    def realloc_at_forged_header(self, index, size):
        """Resize the chunk a forged header makes: it may fit, grow in
        place, or move and list the forged chunk.  Once attacked, any
        ``AllocError`` or ``CapFault`` is accepted, as in ``realloc``."""
        cap, at = self.pick(self.forged, index)
        try:
            new = self.alloc.realloc(cap.set_address(at + CHUNK_HEADER_SIZE), size)
        except (AllocError, CapFault):
            return
        self.live.append(new)

    @precondition(lambda self: self.live or self.stale)
    @rule(index=INDEX, which=INDEX, back=st.integers(1, 7), size=SIZES, short=st.integers(0, 31))
    def forge_beside_listed(self, index, which, back, size, short):
        """Forge a FREE header ``back`` bytes before a listed one, over two
        8-byte units, whose payload ends at the next listed chunk; malloc,
        so the class index re-reads the listed header; then realloc
        through the forged header to about its payload and the next
        chunk's together, which may grow it in place over that chunk
        without a split, its LIVE header rewriting the listed header's
        first bytes; and malloc again, which must see that rewrite."""
        cap = self.pick(self.live + self.stale, index)
        listed = sorted(self.alloc._listed)
        spans = [
            (c - back, d)
            for c, d in zip(listed, listed[1:])
            if cap.base <= c - back <= min(cap.top, d) - CHUNK_HEADER_SIZE
        ]
        if not spans:
            return
        at, end = self.pick(spans, which)
        payload = end - at - CHUNK_HEADER_SIZE
        self.alloc.heap.store(cap, at, HEADER.pack(payload, CHUNK_MAGIC, FREE, 0))
        self.forged.append((cap, at))
        self.attacked = True
        self.malloc(size)
        span = payload + CHUNK_HEADER_SIZE + self.header(end)[0]
        self.realloc_at_forged_header(len(self.forged) - 1, max(1, span - short))
        self.malloc(size)

    @precondition(lambda self: self.live or self.stale)
    @rule(index=INDEX, which=INDEX, back=st.sampled_from([4, 5]))
    def grow_off_grid_indexed(self, index, which, back):
        """Forge a FREE header ``back`` bytes before a listed chunk on the
        grid, through a capability that reaches it, whose payload ends at
        a later listed chunk; start the class index as a long scan would;
        then realloc through the forged header to all but the last 16
        bytes of its payload and that chunk's together, which grows it in
        place over that chunk without a split where the engine grows in
        place.  The grown LIVE header then covers two 8-byte units, the
        second the listed chunk's, which the index watches: the write
        must drop the index.  At 4 or 5 bytes back the rewrite's status
        byte lands in the listed chunk's payload and changes its class,
        so an index kept on shows in ``classes_agree_with_heap_bytes``;
        nearer, the forged header has already broken that chunk's magic,
        and farther only its lowest payload bits change."""
        cap = self.pick(self.live + self.stale, index)
        listed = sorted(self.alloc._listed)
        spans = [
            (c - back, e)
            for c in listed
            if not c & 7 and cap.base <= c - back <= cap.top - CHUNK_HEADER_SIZE
            for e in listed
            if e >= c - back + CHUNK_HEADER_SIZE
        ]
        if not spans:
            return
        at, end = self.pick(spans, which)
        payload = end - at - CHUNK_HEADER_SIZE
        self.alloc.heap.store(cap, at, HEADER.pack(payload, CHUNK_MAGIC, FREE, 0))
        self.forged.append((cap, at))
        self.attacked = True
        if self.alloc.heap.watch is None:
            self.alloc._index()  # what a malloc's long scan ends with
        span = payload + CHUNK_HEADER_SIZE + self.header(end)[0]
        self.realloc_at_forged_header(len(self.forged) - 1, max(1, span - 16))

    @precondition(lambda self: self.live)
    @rule(index=INDEX, offset=st.integers(1, 1 << 16))
    def interior_free(self, index, offset):
        cap = self.pick(self.live, index)
        inside = cap.address + 1 + (offset - 1) % (cap.top - cap.address - 1)
        self.try_free(cap.set_address(inside))

    @precondition(lambda self: self.live)
    @rule(index=INDEX)
    def narrowed_free(self, index):
        cap = self.pick(self.live, index)
        narrowed = cap.set_bounds(cap.address, cap.top - cap.address)
        before = list(self.alloc._free_list)
        with pytest.raises(CapFault) as exc:
            self.alloc.free(narrowed)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert self.alloc._free_list == before

    @precondition(lambda self: self.live or self.stale)
    @rule(index=INDEX, granule=INDEX)
    def tag_granule(self, index, granule):
        """Store a capability into a granule of a block's payload, through
        its live or stale capability.  Over a header, it is an attack."""
        cap = self.pick(self.live + self.stale, index)
        first = -(-cap.address // GRANULE) * GRANULE
        count = (cap.top - first) // GRANULE
        if count < 1:
            return
        at = first + GRANULE * (granule % count)
        if not self.attacked:
            heads = [off for off, _, _ in self.alloc.chunks()]
            if any(at - CHUNK_HEADER_SIZE < off < at + GRANULE for off in heads):
                self.attacked = True
        self.alloc.heap.store_cap(cap, at, cap)

    @precondition(lambda self: len(self.live) + len(self.stale) >= 4)
    @rule()
    def reset(self):
        self.alloc.reset()
        assert self.alloc.heap.snapshot() == self.fresh
        self.reset_model()

    @invariant()
    def index_counts_the_free_list(self):
        assert self.alloc._listed == Counter(self.alloc._free_list)

    @invariant()
    def classes_agree_with_heap_bytes(self):
        """While the index is on (the heap watches), every listed chunk
        is on the 8-byte grid, the heap watches exactly the unit of each
        listed header (``chunk >> 3``), and each slot's class is its
        header's, read from the heap bytes."""
        alloc = self.alloc
        heap = alloc.heap
        if heap.watch is None:  # scanned: a short list, one off the grid, or a write tripped it
            return
        assert not any(chunk & 7 for chunk in alloc._free_list)
        assert len(alloc._classes) == len(alloc._free_list)
        watch = bytearray(self.heap_size >> 3)
        for chunk in alloc._listed:
            watch[chunk >> 3] = 1
        assert heap.watch == watch
        for chunk, cls in zip(alloc._free_list, alloc._classes):
            payload, magic, _, _ = self.header(chunk)
            assert cls == (_class(payload) if magic == CHUNK_MAGIC else _POISONED), chunk

    @invariant()
    def engine_headers_are_untagged(self):
        tags = self.alloc.heap.tags
        for chunk in self.written:
            first, last = chunk // GRANULE, (chunk + CHUNK_HEADER_SIZE - 1) // GRANULE
            assert tags[first : last + 1] == bytes(last + 1 - first), chunk
        self.written.clear()

    @invariant()
    def chunks_tile_the_heap(self):
        try:
            chunks = self.alloc.chunks()
        except AllocError as exc:
            assert self.attacked and exc.kind is AllocErrorKind.CORRUPT_HEADER
            return
        except CapFault as exc:
            assert self.attacked and exc.kind is FaultKind.BOUNDS_VIOLATION
            return
        off = 0
        for chunk, payload, _ in chunks:
            assert chunk == off
            off += CHUNK_HEADER_SIZE + payload
        assert off == self.heap_size
        if self.attacked:
            return
        assert all(payload % CHUNK_HEADER_SIZE == 0 for _, payload, _ in chunks)
        status = {chunk: (payload, state) for chunk, payload, state in chunks}
        for chunk in self.alloc._free_list:
            assert status[chunk][1] == FREE
        for cap in self.live:
            payload, state = status[cap.address - CHUNK_HEADER_SIZE]
            assert state == LIVE
            assert self.bounds(cap.address - CHUNK_HEADER_SIZE, payload) == (cap.base, cap.top)

    @invariant()
    def live_blocks_are_disjoint(self):
        """The chunks of the blocks the client holds are disjoint; once
        the capabilities are tied to them (``chunks_tile_the_heap``),
        unrounded capabilities are too."""
        if self.attacked:
            return
        chunks = [cap.address - CHUNK_HEADER_SIZE for cap in self.live]
        spans = sorted((c, c + CHUNK_HEADER_SIZE + self.header(c)[0]) for c in chunks)
        for (_, top), (base, _) in zip(spans, spans[1:]):
            assert top <= base


def run_machine(config, monkeypatch, **attrs):
    assert TRAITS[config].free_validation is FreeValidation.INLINE_HEADER
    written = []
    monkeypatch.setattr(engines, "_HEADER", RecordingHeader(engines._HEADER, written))
    machine = type(
        f"FreeListMachine[{config}]",
        (FreeListMachine,),
        {"config": config, "written": written, **attrs},
    )
    run_state_machine_as_test(machine, settings=STATEFUL)


@pytest.mark.parametrize("config", ["dlmalloc-cheribuild", "jemalloc", "libmalloc-simple"])
def test_free_list_state_machine(config, monkeypatch):
    run_machine(config, monkeypatch)


@pytest.mark.parametrize("config", ["dlmalloc-cheribuild", "jemalloc", "libmalloc-simple"])
def test_free_list_state_machine_indexed(config, monkeypatch):
    """The same machine with the class index starting at the first scan
    that visits more than 4 entries instead of 64, so that most steps run
    on the index and many cross into it."""
    monkeypatch.setattr(engines, "_SCAN_LIMIT", 4)
    run_machine(config, monkeypatch)


@pytest.mark.parametrize(
    "config, scan_limit", [("jemalloc", 64), ("jemalloc", 0), ("libmalloc-simple", 64)]
)
def test_free_list_state_machine_rounding(config, scan_limit, monkeypatch):
    """Bounds rounding on, over a heap 16 bytes past a power of two:
    scanned mallocs, indexed ones (the index starting at the first
    malloc), and (``libmalloc-simple``) blocks grown in place."""
    monkeypatch.setattr(engines, "_SCAN_LIMIT", scan_limit)
    run_machine(config, monkeypatch, rounding=True, heap_size=HEAP + 16)
