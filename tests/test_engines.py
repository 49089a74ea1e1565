from bisect import bisect_left, insort
from collections import Counter
import enum
import random
import struct
import sys

import pytest

from capheap import engines
from capheap.allocator_api import AllocError, AllocErrorKind
from capheap.attacks import Tape, run_attack
from capheap.bench import Workload, run_workload
from capheap.capability import CapFault, Capability, FaultKind, Perm, _derive, make_root
from capheap.engines import (
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    SIZE_CLASSES,
    SLAB_SIZE,
    FreeListAllocator,
    SlabAllocator,
)
from capheap.harness import EXPECTED_MATRIX, parse_csv, render, run_matrix
from capheap.registry import ALLOCATOR_NAMES, TRAITS, create
from capheap.tagged_memory import GRANULE, TaggedHeap
from granules import round16


FREE_LIST_NAMES = ["dlmalloc-cheribuild", "jemalloc", "libmalloc-simple"]


def region_size(alloc):
    return alloc.region.top - alloc.region.base


class TestBumpEngine:
    def test_cursor_arithmetic_matches_oracle(self):
        # oracle: blocks sit at cumulative sums of granule-rounded sizes
        sizes = [16, 16, 24, 100, 1]
        alloc = create("bump-alloc-cheri")
        expected_starts = []
        cursor = 0
        for s in sizes:
            expected_starts.append(cursor)
            cursor += round16(s)
        got = [alloc.malloc(s).address for s in sizes]
        assert got == expected_starts

    def test_two_mallocs_of_16(self):
        alloc = create("bump-alloc-cheri")
        assert alloc.malloc(16).address == 0
        assert alloc.malloc(16).address == 16

    def test_narrowed_bounds_round_to_granule(self):
        cap = create("bump-alloc-cheri").malloc(24)
        assert cap.top - cap.base == round16(24) == 32

    def test_nocheri_returns_whole_region_bounds(self):
        alloc = create("bump-alloc-nocheri")
        cap = alloc.malloc(24)
        assert (cap.base, cap.top) == (alloc.region.base, alloc.region.top)
        assert cap.address == 0
        assert alloc.malloc(24).address == 32

    def test_cheri_free_is_noop_and_undetected(self):
        alloc = create("bump-alloc-cheri")
        p = alloc.malloc(32)
        alloc.free(p)
        alloc.free(p)  # no log, no detection

    def test_alloc_log_detects_double_free(self):
        # oracle: replay the log by hand
        alloc = create("bump-alloc-nocheri")
        p = alloc.malloc(48)
        alloc.free(p)
        with pytest.raises(AllocError) as exc:
            alloc.free(p)
        assert exc.value.kind is AllocErrorKind.DOUBLE_FREE

    def test_alloc_log_rejects_unknown_address(self):
        alloc = create("bump-alloc-nocheri")
        p = alloc.malloc(48)
        with pytest.raises(AllocError) as exc:
            alloc.free(p.set_address(999))
        assert exc.value.kind is AllocErrorKind.INVALID_FREE

    @pytest.mark.parametrize(
        "stale, kind",
        [(False, AllocErrorKind.INVALID_FREE), (True, AllocErrorKind.DOUBLE_FREE)],
    )
    def test_alloc_log_realloc_refuses_before_allocating(self, stale, kind):
        # realloc validates against the log as free does, before the cursor moves
        alloc = create("bump-alloc-nocheri")
        p = alloc.malloc(48)
        if stale:
            alloc.free(p)
        else:
            p = p.set_address(999)
        with pytest.raises(AllocError) as exc:
            alloc.realloc(p, 64)
        assert exc.value.kind is kind
        assert alloc.malloc(16).address == 48

    def test_out_of_memory(self):
        alloc = create("bump-alloc-cheri", heap_size=64)
        alloc.malloc(64)
        with pytest.raises(AllocError) as exc:
            alloc.malloc(1)
        assert exc.value.kind is AllocErrorKind.OUT_OF_MEMORY

    def test_realloc_moves_to_fresh_zero_memory(self):
        alloc = create("bump-alloc-cheri")
        p = alloc.malloc(32)
        alloc.heap.store(p, p.address, b"\x5a" * 32)
        q = alloc.realloc(p, 128)
        assert q.address > p.address
        assert alloc.heap.load(q, q.address, 32) == b"\x5a" * 32
        assert alloc.heap.load(q, q.address + 32, 96) == bytes(96)

    def test_blocks_past_the_cursor_hold_what_a_client_wrote_there(self):
        # Bump never zeroes.  A bump-alloc-nocheri block's capability
        # spans the whole region, so a client can write past the cursor,
        # and the block a later realloc or malloc takes there holds those
        # bytes (pinned: zeroing them would change dump snapshots)
        alloc = create("bump-alloc-nocheri")
        x = alloc.malloc(32)
        assert (x.base, x.top) == (0, alloc.heap.size)
        alloc.heap.store(x, 200, b"\xa5" * 16)
        alloc.heap.store(x, 280, b"\x5a" * 16)
        alloc.malloc(32)
        moved = alloc.realloc(x, 200)  # the block at 64..271; x's 32 bytes copied
        assert moved.address == 64
        assert alloc.heap.load(moved, 64, 200) == bytes(136) + b"\xa5" * 16 + bytes(48)
        later = alloc.malloc(32)  # 272..303
        assert later.address == 272
        assert alloc.heap.load(later, 272, 32) == bytes(8) + b"\x5a" * 16 + bytes(8)

    def test_malloc_zero_is_bad_request(self):
        with pytest.raises(AllocError) as exc:
            create("bump-alloc-cheri").malloc(0)
        assert exc.value.kind is AllocErrorKind.BAD_REQUEST

    @pytest.mark.parametrize("full, top", [(False, 4112), (True, 4144)], ids=["room", "full"])
    def test_realloc_source_past_the_heap_end_moves_no_cursor(self, full, top):
        # the copy source faults before the new block is taken, and wins
        # over the out-of-memory a full heap would raise
        alloc = create("bump-alloc-cheri", heap_size=4096)
        x = alloc.malloc(4096 if full else 32)
        with pytest.raises(CapFault) as exc:
            alloc.realloc(x.set_address(4080), 64)
        assert str(exc.value) == f"BoundsViolation: [4080, {top}) outside [0, 4096)"
        assert alloc._cursor == x.length
        if not full:
            assert alloc.malloc(16).address == 32

    def test_realloc_window_below_the_heap_moves_no_cursor(self):
        # a hand-built capability whose window starts below the heap: the
        # copy faults as heap.load would, after the out-of-memory test and
        # before the cursor moves
        alloc = create("bump-alloc-cheri")
        alloc.malloc(64)
        snapshot = alloc.heap.snapshot()
        with pytest.raises(CapFault) as exc:
            alloc.realloc(Capability(True, -32, 64, -16, 0x3F), 32)
        assert str(exc.value) == "BoundsViolation: [-16, 16) outside [0, 1048576)"
        assert alloc._cursor == 64 and alloc.heap.snapshot() == snapshot
        full = create("bump-alloc-cheri", heap_size=64)
        full.malloc(64)
        with pytest.raises(AllocError) as exc:
            full.realloc(Capability(True, -32, 64, -16, 0x3F), 32)
        assert str(exc.value) == "OutOfMemory: cursor at 64"

    def test_realloc_through_inverted_bounds_copies_nothing(self):
        # no byte lies inside bounds whose top is below their base
        alloc = create("bump-alloc-cheri")
        x = alloc.malloc(32)
        alloc.heap.store(x, x.address, b"\x77" * 32)
        z = alloc.realloc(Capability(True, 32, 0, 32, 0x3F), 32)
        assert (z.base, z.top, alloc._cursor) == (32, 64, 64)
        assert alloc.heap.load(z, z.address, 32) == bytes(32)

    def test_realloc_of_a_raised_cursor_reads_nothing_past_top(self):
        # without a log the copy window starts at the cursor, but only the
        # bytes inside the capability's bounds are read: y's secret, just
        # past x's top, must not reach the new block
        alloc = create("bump-alloc-cheri")
        x = alloc.malloc(32)
        y = alloc.malloc(32)
        alloc.heap.store(x, x.address, bytes(range(1, 33)))
        alloc.heap.store(y, y.address, b"SECRET-of-y-0123")
        z = alloc.realloc(x.set_address(16), 32)
        assert alloc.heap.load(z, z.address, 32) == bytes(range(17, 33)) + bytes(16)

    def test_realloc_of_a_lowered_cursor_reads_nothing_below_base(self):
        alloc = create("bump-alloc-cheri")
        w = alloc.malloc(32)
        x = alloc.malloc(32)
        alloc.heap.store(w, w.address + 16, b"SECRET-of-w-0123")
        alloc.heap.store(x, x.address, bytes(range(1, 33)))
        z = alloc.realloc(x.set_address(x.base - 16), 32)
        assert alloc.heap.load(z, z.address, 32) == bytes(16) + bytes(range(1, 17))

    @pytest.mark.parametrize("name", ["bump-alloc-cheri", "bump-alloc-nocheri"])
    @pytest.mark.parametrize("new_size", [16, 32, 64])
    def test_untampered_realloc_copies_the_whole_block(self, name, new_size):
        alloc = create(name)
        x = alloc.malloc(32)
        y = alloc.malloc(32)
        alloc.heap.store(x, x.address, bytes(range(1, 33)))
        alloc.heap.store(y, y.address, b"\xee" * 32)
        z = alloc.realloc(x, new_size)
        kept = min(32, new_size)
        assert alloc.heap.load(z, z.address, new_size) == bytes(range(1, kept + 1)) + bytes(
            new_size - kept
        )

    def test_realloc_copy_clears_the_tags_it_copies_over(self):
        # a capability stored past the cursor through the whole region; the
        # second realloc copies the block onto its granule, whose tag the
        # copy must clear, or plain bytes read back as a tagged capability
        alloc = create("bump-alloc-nocheri")
        p = alloc.malloc(32)
        alloc.heap.store_cap(alloc.region, 64, alloc.region)
        assert alloc.heap.tags[4] == 1
        q = alloc.realloc(p, 32)
        r = alloc.realloc(q, 32)
        assert (p.address, q.address, r.address) == (0, 32, 64)
        assert alloc.heap.load_cap(alloc.region, 64).tag is False


class TestFreeListEngine:
    def test_client_bounds_cover_header_and_payload(self):
        cap = create("dlmalloc-cheribuild").malloc(24)
        assert cap.address == cap.base + CHUNK_HEADER_SIZE
        assert cap.top - cap.address == round16(24)

    def test_free_with_narrowed_capability_faults(self):
        # oracle: header sits at address-8, below the narrowed base
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(64)
        narrowed = p.set_bounds(p.address, 16)
        assert narrowed.base == p.address  # so address-8 must fault
        with pytest.raises(CapFault) as exc:
            alloc.free(narrowed)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION

    def test_free_with_intact_capability_succeeds(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(64)
        alloc.free(p)

    def test_refreeing_silently_relinks(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(64)
        alloc.free(p)
        alloc.free(p)  # no DoubleFree by design

    def test_free_with_bad_magic_is_invalid(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(64)
        with pytest.raises(AllocError) as exc:
            alloc.free(p.set_address(p.address + 16))
        assert exc.value.kind is AllocErrorKind.INVALID_FREE

    def test_header_layout_bit_exact(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(40)
        raw = alloc.heap.load(alloc.region, p.base, 8)
        assert int.from_bytes(raw[0:4], "little") == round16(40)
        assert int.from_bytes(raw[4:6], "little") == CHUNK_MAGIC
        assert raw[6] == 1  # live
        assert raw[7] == 0

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    def test_header_writes_clear_the_tag_of_the_header_granule(self, name):
        """A capability stored over a header whose first 8 bytes encode the
        header itself (base = payload, top = magic and status) tags the
        granule and leaves the header intact; the FREE header write of
        ``free`` and the LIVE one of ``malloc`` must each clear that tag."""
        alloc = create(name)
        x = alloc.malloc(64)
        assert x.base == 0
        for status, op in ((1, lambda: alloc.free(x)), (0, lambda: alloc.malloc(64))):
            alloc.heap.store_cap(x, 0, Capability(True, 64, CHUNK_MAGIC | status << 16, 0, 0))
            assert alloc.heap.tags[0] == 1 and alloc.chunks()[0] == (0, 64, status)
            op()
            assert alloc.heap.tags[0] == 0 and alloc.chunks()[0] == (0, 64, 1 - status)

    def test_chunks_tile_the_region(self):
        # oracle: sum of (header + payload) must equal the region size
        alloc = create("dlmalloc-cheribuild")
        caps = [alloc.malloc(s) for s in (16, 40, 64, 100)]
        alloc.free(caps[1])
        alloc.realloc(caps[2], 200)
        chunks = alloc.chunks()
        assert sum(CHUNK_HEADER_SIZE + size for _, size, _ in chunks) == region_size(alloc)

    def test_first_fit_reuses_freed_chunk(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(32)
        alloc.malloc(32)
        alloc.free(p)
        q = alloc.malloc(32)
        assert q.address == p.address

    def test_split_threshold(self):
        # a freed 32-byte chunk is reused whole for a 16-byte request:
        # the 24-byte leftover is below the 32-byte split threshold
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(32)
        alloc.malloc(32)
        alloc.free(p)
        q = alloc.malloc(16)
        assert q.address == p.address
        assert q.top - q.address == 32

    def test_inplace_realloc_exposes_stale_neighbor_bytes(self):
        # oracle: plant a sentinel, free, grow over it, byte-compare
        alloc = create("libmalloc-simple")
        p = alloc.malloc(32)
        q = alloc.malloc(32)
        alloc.heap.store(q, q.address, b"\xab" * 32)
        alloc.free(q)
        widened = alloc.realloc(p, 96)
        assert widened.address == p.address  # grew in place
        assert alloc.heap.load(widened, q.address, 32) == b"\xab" * 32

    def test_moving_realloc_zeroes_the_tail(self):
        alloc = create("dlmalloc-cheribuild")
        p = alloc.malloc(32)
        q = alloc.malloc(32)
        alloc.heap.store(q, q.address, b"\xab" * 32)
        alloc.free(q)
        moved = alloc.realloc(p, 96)
        assert moved.address != p.address
        assert alloc.heap.load(moved, moved.address + 32, 64) == bytes(64)

    def test_realloc_same_size_preserves_contents(self):
        alloc = create("jemalloc")
        p = alloc.malloc(48)
        alloc.heap.store(p, p.address, bytes(range(48)))
        q = alloc.realloc(p, 48)
        assert alloc.heap.load(q, q.address, 48) == bytes(range(48))

    @pytest.mark.parametrize("name", ["dlmalloc-cheribuild", "jemalloc"])
    def test_moving_realloc_over_a_forged_empty_header(self, name):
        # a header forged to claim no payload leaves nothing to copy: the
        # block moves, its bytes are zeroed and the old chunk is listed
        alloc = create(name)
        p = alloc.malloc(1)
        alloc.heap.store(p, p.base, (0).to_bytes(4, "little"))
        moved = alloc.realloc(p, 40)
        assert moved.address != p.address
        assert alloc.heap.load(moved, moved.address, 40) == bytes(40)
        assert alloc._free_list[0] == p.base

    def test_realloc_source_past_the_heap_end_commits_nothing(self):
        # a LIVE header forged to claim 2200 bytes stretches the copy
        # source past the heap's end: the realloc faults before malloc
        # takes the free chunk at 0, so the heap is its untouched twin's
        def forged():
            alloc = create("jemalloc", heap_size=8192)
            p = alloc.malloc(6000)
            x = alloc.malloc(32)
            alloc.free(p)
            alloc.heap.store(x, x.address - 8, struct.pack("<IHBB", 2200, CHUNK_MAGIC, 1, 0))
            return alloc, x

        alloc, x = forged()
        twin, _ = forged()
        with pytest.raises(CapFault) as exc:
            alloc.realloc(x, 2208)
        assert str(exc.value) == "BoundsViolation: [6016, 8216) outside [0, 8192)"
        assert alloc._free_list == twin._free_list == [0, 6048]
        assert alloc._listed == twin._listed
        assert alloc.heap.snapshot() == twin.heap.snapshot()
        assert alloc.malloc(32).describe() == twin.malloc(32).describe()

    def test_absorb_refuses_free_header_off_the_free_list(self):
        # a stale capability rewrites live c's status byte to FREE; the
        # grow-in-place scan must refuse c before it changes anything
        alloc = create("libmalloc-simple")
        a = alloc.malloc(64)
        alloc.free(a)
        b = alloc.malloc(16)
        c = alloc.malloc(32)
        alloc.heap.store(a, c.base + 6, b"\x00")
        chunks, free_list = alloc.chunks(), list(alloc._free_list)
        assert (c.base, 0) in [(off, status) for off, _, status in chunks]
        with pytest.raises(AllocError) as exc:
            alloc.realloc(b, 48)
        assert exc.value.kind is AllocErrorKind.CORRUPT_HEADER
        assert alloc.chunks() == chunks
        assert alloc._free_list == free_list

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("op", ["free", "realloc"])
    def test_header_below_the_heap_faults_and_commits_nothing(self, name, op):
        # a cursor moved to 4 puts the header at -4
        alloc = create(name, heap_size=4096)
        p = alloc.malloc(32)
        free_list, snapshot = list(alloc._free_list), alloc.heap.snapshot()
        args = (p.set_address(4),) if op == "free" else (p.set_address(4), 64)
        with pytest.raises(CapFault) as exc:
            getattr(alloc, op)(*args)
        assert str(exc.value) == "BoundsViolation: header would sit below the heap"
        assert alloc._free_list == free_list
        assert alloc.heap.snapshot() == snapshot

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("op", ["free", "realloc"])
    @pytest.mark.parametrize(
        "tamper, kind",
        [
            (lambda p: p.clear_tag(), FaultKind.TAG_VIOLATION),
            (lambda p: p.and_perms(~Perm.LOAD), FaultKind.PERMISSION_VIOLATION),
            (lambda p: p.set_bounds(p.address, 16), FaultKind.BOUNDS_VIOLATION),
            (lambda p: p.set_bounds(p.base, 4).set_address(p.address), FaultKind.BOUNDS_VIOLATION),
        ],
        ids=["untagged", "no-load", "header-below-base", "header-past-top"],
    )
    def test_header_read_through_a_tampered_capability_faults(self, name, op, tamper, kind):
        # the header is read through the client's capability, as a load
        # through it would be, for a realloc the block holds too
        alloc = create(name)
        p = alloc.malloc(64)
        free_list, snapshot = list(alloc._free_list), alloc.heap.snapshot()
        args = (tamper(p),) if op == "free" else (tamper(p), 16)
        with pytest.raises(CapFault) as exc:
            getattr(alloc, op)(*args)
        assert exc.value.kind is kind
        assert alloc._free_list == free_list and alloc.heap.snapshot() == snapshot

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("op", ["free", "realloc"])
    def test_header_past_32_bits_faults_and_commits_nothing(self, name, op):
        # set_address would refuse the header's address; the engine
        # classifies that as a bounds fault, ahead of the tag check
        alloc = create(name, heap_size=4096)
        cap = Capability(False, 0, 1 << 40, (1 << 32) + 8, 0x3F)
        args = (cap,) if op == "free" else (cap, 64)
        with pytest.raises(CapFault) as exc:
            getattr(alloc, op)(*args)
        assert str(exc.value) == "BoundsViolation: header would sit past the 32-bit address space"
        assert alloc._free_list == [0]

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    def test_header_past_the_heap_end_is_the_heaps_bounds_fault(self, name):
        # a hand-built capability wider than the heap passes its own check
        alloc = create(name, heap_size=4096)
        with pytest.raises(CapFault) as exc:
            alloc.free(Capability(True, 0, 8192, 4100, 0x3F))
        assert str(exc.value) == "BoundsViolation: [4092, 4100) outside [0, 4096)"
        assert alloc._free_list == [0]

    # Capabilities that fail one clause of free's and realloc's in-line
    # header check, over the 64-byte block at 48 between two 32-byte
    # ones, and what each op did with them before realloc read the header
    # in line, when it called _client_header every time: the fault or
    # error, or None where _client_header accepts the capability and the
    # op runs as it would through the block's own.
    FALLBACK_CLAUSES = {
        "untagged": (lambda p: p.clear_tag(), "TagViolation: access through untagged capability"),
        "no-load": (lambda p: p.and_perms(~Perm.LOAD), "PermissionViolation: missing <Perm.LOAD: 1>"),
        "base-above-header": (
            lambda p: p.set_bounds(p.address, 16),
            "BoundsViolation: [40, 48) outside [48, 64)",
        ),
        "top-below-cursor": (
            lambda p: p.set_bounds(p.base, 4).set_address(p.address),
            "BoundsViolation: [40, 48) outside [40, 44)",
        ),
        "top-past-heap": (lambda p: Capability(True, p.base, 4096 + 16, p.address, p.perms), None),
        "bad-magic": (lambda p: p.set_address(p.address + 16), "InvalidFree: bad chunk magic at 56"),
        "header-below-heap": (lambda p: p.set_address(4), "BoundsViolation: header would sit below the heap"),
        "header-past-heap": (
            lambda p: Capability(True, 0, 8192, 4100, p.perms),
            "BoundsViolation: [4092, 4100) outside [0, 4096)",
        ),
    }

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("call", [("free",), ("realloc", 16), ("realloc", 200)], ids=str)
    @pytest.mark.parametrize("clause", FALLBACK_CLAUSES)
    def test_in_line_header_check_falls_back_exactly(self, name, call, clause):
        """Where a clause of the in-line check fails, the op does what
        ``_client_header`` decides: it raises the same class, kind and
        text and leaves the list and heap as they were, or, where the
        helper accepts the capability, runs as through the untampered
        one."""
        tamper, text = self.FALLBACK_CLAUSES[clause]
        op, *size = call
        allocs = []
        for _ in range(2):
            alloc = create(name, heap_size=4096)
            alloc.malloc(32)
            p = alloc.malloc(64)
            alloc.malloc(32)
            allocs.append((alloc, p))
        (alloc, p), (twin, twin_p) = allocs
        cap = tamper(p)
        before = alloc._free_list[:], dict(alloc._listed), alloc.heap.snapshot()
        helper = outcome(lambda: alloc._client_header(cap))
        got = outcome(lambda: getattr(alloc, op)(cap, *size))
        after = alloc._free_list, alloc._listed, alloc.heap.snapshot()
        if text is None:
            assert helper == ("value", (p.base, 64))
            assert got == outcome(lambda: getattr(twin, op)(twin_p, *size))
            assert after == (twin._free_list, twin._listed, twin.heap.snapshot())
        else:
            assert got == helper and str(got[2]) == text
            assert after == before

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("op", ["free", "realloc"])
    @pytest.mark.parametrize("address", [8.0, "16", None], ids=["float", "str", "none"])
    @pytest.mark.parametrize(
        "tag, top", [(True, 4096), (True, 8192), (False, 4096)], ids=["in-line", "past-heap", "untagged"]
    )
    def test_address_that_is_no_int_is_a_bounds_fault(self, name, op, address, tag, top):
        # refused as set_address refuses it, ahead of the tag check and
        # before anything changes, whether the in-line check reads the
        # header (8.0 there is the chunk at 0.0) or, for a top past the
        # heap or an untagged capability, _client_header does
        alloc = create(name, heap_size=4096)
        alloc.malloc(32)
        before = alloc._free_list[:], dict(alloc._listed), alloc.heap.snapshot()
        cap = Capability(tag, 0, top, address, 0x3F)
        args = (cap,) if op == "free" else (cap, 64)
        with pytest.raises(CapFault) as exc:
            getattr(alloc, op)(*args)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert str(exc.value) == f"BoundsViolation: address {address!r} is not an int"
        assert (alloc._free_list, alloc._listed, alloc.heap.snapshot()) == before

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    @pytest.mark.parametrize("op", ["free", "realloc"])
    def test_permission_mask_that_is_no_int_is_a_type_error(self, name, op):
        alloc = create(name, heap_size=4096)
        p = alloc.malloc(32)
        cap = Capability(True, p.base, p.top, p.address, 3.0)
        with pytest.raises(TypeError):
            getattr(alloc, op)(*((cap,) if op == "free" else (cap, 64)))
        assert alloc._free_list == [p.top]

    def test_out_of_memory(self):
        alloc = create("dlmalloc-cheribuild", heap_size=128)
        alloc.malloc(64)
        with pytest.raises(AllocError) as exc:
            alloc.malloc(64)
        assert exc.value.kind is AllocErrorKind.OUT_OF_MEMORY


class TestSlabEngine:
    def test_class_rounding_matches_oracle(self):
        # oracle: smallest class at least the request
        alloc = create("snmalloc-repo")
        for size in (1, 16, 17, 24, 32, 100, 2049, 4096):
            expected = min(c for c in SIZE_CLASSES if c >= size)
            assert SlabAllocator.size_class(size) == expected
            cap = alloc.malloc(size)
            assert cap.top - cap.base == expected

    @pytest.mark.parametrize("name", ["snmalloc-cheribuild", "snmalloc-repo"])
    def test_malloc_classes_every_size_as_size_class_does(self, name):
        # malloc applies size_class's rule in line: the two must agree on
        # every size up to one past the largest class
        alloc = create(name)
        for size in range(1, SIZE_CLASSES[-1] + 2):
            try:
                expected = SlabAllocator.size_class(size)
            except AllocError as exc:
                with pytest.raises(AllocError) as got:
                    alloc.malloc(size)
                assert str(got.value) == str(exc)
                continue
            cap = alloc.malloc(size)
            assert cap.top - cap.base == expected
            alloc.free(cap)

    def test_oversized_request_is_out_of_memory(self):
        with pytest.raises(AllocError) as exc:
            create("snmalloc-repo").malloc(4097)
        assert exc.value.kind is AllocErrorKind.OUT_OF_MEMORY

    def test_slots_fill_lowest_first(self):
        alloc = create("snmalloc-repo")
        a = alloc.malloc(24)
        b = alloc.malloc(24)
        assert (a.address, b.address) == (0, 32)
        alloc.free(a)
        c = alloc.malloc(24)
        assert c.address == 0

    def test_distinct_classes_use_distinct_slabs(self):
        alloc = create("snmalloc-repo")
        a = alloc.malloc(24)
        b = alloc.malloc(100)
        assert b.address == SLAB_SIZE
        assert a.address // SLAB_SIZE != b.address // SLAB_SIZE

    def test_free_accepts_narrowed_capability(self):
        # metadata is keyed by address, never dereferenced through the cap
        alloc = create("snmalloc-repo")
        p = alloc.malloc(64)
        alloc.free(p.set_bounds(p.address, 16))
        assert not alloc.occupancy(p.address)

    def test_free_outside_any_slab_is_invalid(self):
        alloc = create("snmalloc-repo")
        p = alloc.malloc(64)
        with pytest.raises(AllocError) as exc:
            alloc.free(p.set_address(SLAB_SIZE * 10))
        assert exc.value.kind is AllocErrorKind.INVALID_FREE
        with pytest.raises(ValueError, match=f"^{SLAB_SIZE * 10} outside carved slabs$"):
            alloc.occupancy(SLAB_SIZE * 10)

    def test_double_free_is_silent(self):
        alloc = create("snmalloc-repo")
        p = alloc.malloc(48)
        alloc.free(p)
        alloc.free(p)  # re-clearing a clear bit

    def test_deferred_free_applies_at_next_malloc(self):
        # oracle: replay the queue by hand against the occupancy bitmap;
        # the next malloc goes to another class so the slot stays empty
        alloc = create("snmalloc-cheribuild")
        p = alloc.malloc(32)
        alloc.free(p)
        assert alloc.occupancy(p.address)  # still set: free is queued
        alloc.malloc(100)
        assert not alloc.occupancy(p.address)  # queue flushed first

    def test_deferred_flush_lets_malloc_reuse_the_slot(self):
        alloc = create("snmalloc-cheribuild")
        p = alloc.malloc(32)
        alloc.free(p)
        q = alloc.malloc(32)
        assert q.address == p.address

    def test_inplace_growth_over_free_slots(self):
        alloc = create("snmalloc-repo")
        p = alloc.malloc(32)
        v = alloc.malloc(32)
        alloc.heap.store(v, v.address, b"\xab" * 32)
        alloc.free(v)
        q = alloc.realloc(p, 128)
        assert q.address == p.address
        assert q.top - q.base == 128
        assert alloc.heap.load(q, v.address, 32) == b"\xab" * 32

    def test_blocked_growth_moves_and_zeroes(self):
        alloc = create("snmalloc-repo")
        p = alloc.malloc(32)
        blocker = alloc.malloc(32)
        q = alloc.realloc(p, 128)
        assert q.address != p.address
        assert q.address != blocker.address
        assert alloc.heap.load(q, q.address + 32, 96) == bytes(96)

    @pytest.mark.parametrize("name", ["snmalloc-cheribuild", "snmalloc-repo"])
    def test_interior_free_never_half_frees_a_grown_block(self, name):
        # malloc(16) grown in place to [0, 48) spans slots 0..2; a free
        # aimed at slot 1 must leave all three slots taken
        alloc = create(name)
        p = alloc.realloc(alloc.malloc(16), 48)
        assert (p.base, p.top) == (0, 48)
        if TRAITS[name].deferred_free:
            alloc.free(p.set_address(16))  # queued, dropped at the flush
        else:
            with pytest.raises(AllocError) as exc:
                alloc.free(p.set_address(16))
            assert exc.value.kind is AllocErrorKind.INVALID_FREE
        assert alloc.malloc(16).address == 48
        assert all(alloc.occupancy(a) for a in (0, 16, 32))
        alloc.free(p)
        alloc.free(p)  # the bits are clear again, so this stays silent
        assert [alloc.malloc(16).address for _ in range(3)] == [0, 16, 32]

    def test_moving_realloc_clears_the_tags_it_copies_over(self):
        # x stores itself, then is freed; its slot goes to the moving
        # realloc of a 16-byte block, whose copy must clear the tag x left
        alloc = create("snmalloc-repo")
        x = alloc.malloc(32)
        alloc.heap.store_cap(x, x.address, x)
        alloc.free(x)
        a = alloc.malloc(16)
        alloc.malloc(16)
        alloc.heap.store(a, a.address, bytes(range(16)))
        moved = alloc.realloc(a, 32)
        assert moved.address == x.address
        assert alloc.heap.load_cap(moved, moved.address).tag is False


class TestContractAcrossAllEngines:
    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_malloc_returns_tagged_capability_with_load_store(self, name):
        alloc = create(name)
        cap = alloc.malloc(40)
        assert cap.tag
        cap.check_access(cap.address, 40, Perm.LOAD | Perm.STORE)
        assert alloc.region.base <= cap.base and cap.top <= alloc.region.top

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_exec_stripping_matches_traits(self, name):
        cap = create(name).malloc(32)
        assert bool(cap.perms & Perm.EXEC) == (not TRAITS[name].strips_exec)

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_malloc_zero_is_bad_request(self, name):
        with pytest.raises(AllocError) as exc:
            create(name).malloc(0)
        assert exc.value.kind is AllocErrorKind.BAD_REQUEST

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    @pytest.mark.parametrize("size", [0, -16, 1.5, "32"])
    def test_realloc_to_a_bad_size_is_bad_request(self, name, size):
        # checked first, before the block is looked up, and nothing moves
        alloc = create(name)
        cap = alloc.malloc(32)
        snapshot = alloc.heap.snapshot()
        for target in (cap, cap.set_address(8)):
            with pytest.raises(AllocError) as exc:
                alloc.realloc(target, size)
            assert str(exc.value) == f"BadRequest: size {size!r}"
        assert alloc.heap.snapshot() == snapshot
        twin = create(name)
        twin.malloc(32)
        assert alloc.malloc(32) == twin.malloc(32)

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_reset_reproduces_fresh_instance(self, name):
        fresh_alloc = create(name)
        fresh = [fresh_alloc.malloc(s) for s in (24, 64)]
        alloc = create(name)
        alloc.malloc(48)
        alloc.reset()
        again = [alloc.malloc(s) for s in (24, 64)]
        assert again == fresh

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_reset_after_clearing_the_heap_under_the_instance(self, name):
        # heap.clear() under a live instance zeroes the bytes but not the
        # engine's own state; reset() is the one call defined after it,
        # and it gives back a fresh instance's placements
        rng = random.Random(name)
        alloc = create(name)
        caps = [alloc.malloc(rng.randrange(1, 300)) for _ in range(12)]
        for cap in caps[::3]:
            alloc.free(cap)
        alloc.realloc(caps[1], 500)
        alloc.heap.clear()
        alloc.reset()
        fresh = create(name)
        sizes = [rng.randrange(1, 300) for _ in range(20)]
        assert [alloc.malloc(n) for n in sizes] == [fresh.malloc(n) for n in sizes]
        assert alloc.heap.snapshot() == fresh.heap.snapshot()

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_reset_is_idempotent_and_keeps_traits(self, name):
        alloc = create(name)
        before = alloc.traits()
        alloc.malloc(32)
        alloc.reset()
        one = alloc.malloc(16)
        alloc.reset()
        alloc.reset()
        assert alloc.malloc(16) == one
        assert alloc.traits() == before

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_deterministic_sequences(self, name):
        def run():
            alloc = create(name)
            caps = [alloc.malloc(s) for s in (16, 48, 32, 128, 24)]
            alloc.free(caps[1])
            caps.append(alloc.realloc(caps[2], 80))
            caps.append(alloc.malloc(40))
            return caps

        assert run() == run()

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_realloc_preserves_prefix(self, name):
        alloc = create(name)
        p = alloc.malloc(32)
        alloc.heap.store(p, p.address, bytes(range(32)))
        q = alloc.realloc(p, 200)
        assert alloc.heap.load(q, q.address, 32) == bytes(range(32))


class TestOffGridFallback:
    """The class index holds only chunks on the 8-byte grid.  A header
    forged off the grid (at 4 modulo 8) and listed drops the index, no
    scan starts it again while that chunk is listed, and once it is
    handed out the next long scan does.  One grown in place is never
    listed, but its LIVE header write reaches the listed header in its
    second 8-byte unit, so it drops the index.  Each scenario runs with
    the index on from the first malloc (``_SCAN_LIMIT`` 0) and again on a
    scan-only twin (a limit no list reaches): every result, fault text,
    free list and heap snapshot must be the same."""

    HEAP = 1 << 14
    FORGED = struct.Struct("<IHBB")

    def forge(self, alloc, cap, chunk, payload, status):
        alloc.heap.store(cap, chunk, self.FORGED.pack(payload, CHUNK_MAGIC, status, 0))

    def listed_by_free(self, alloc, step):
        a = alloc.malloc(600)  # chunk 0
        alloc.malloc(64)  # keeps a apart from the tail
        alloc.free(a)
        self.forge(alloc, a, 36, 16, 0)
        step(alloc.free, a.set_address(44))  # lists the chunk at 36
        step(alloc.malloc, 64)  # splits the chunk at 0 behind it
        step(alloc.malloc, 16)  # takes the chunk at 36

    def listed_by_a_moving_realloc(self, alloc, step):
        a = alloc.malloc(600)
        alloc.malloc(64)
        self.forge(alloc, a, 36, 16, 1)
        step(alloc.realloc, a.set_address(44), 100)  # moves; lists the chunk at 36
        step(alloc.malloc, 5000)
        step(alloc.malloc, 16)

    def listed_by_a_split_after_absorbing(self, alloc, step):
        a = alloc.malloc(600)  # chunk 0, payload 608
        b = alloc.malloc(64)  # chunk 616
        alloc.malloc(64)
        alloc.free(b)
        # 12 bytes of payload reach the listed chunk at 616: the grown
        # chunk at 596 splits, and its remainder at 652 is listed
        self.forge(alloc, a, 596, 12, 1)
        step(alloc.realloc, a.set_address(604), 48)
        step(alloc.malloc, 16)

    def grown_in_place_over_a_listed_header(self, alloc, step):
        a = alloc.malloc(600)
        for chunk in (176, 208):  # listed, units 22 and 26
            self.forge(alloc, a, chunk, 16, 0)
            alloc.free(a.set_address(chunk + CHUNK_HEADER_SIZE))
        # a FREE header at 172 reaches the chunk at 208; its magic and
        # status are the payload bytes of the header at 176, now 0xCA1B
        self.forge(alloc, a, 172, 28, 0)
        # the forge wrote unit 22 and dropped the index: this malloc scans,
        # reading 176 as it is, takes the heap's tail and starts it again
        step(alloc.malloc, 60000)
        # grows 172 over 208 without a split: the LIVE status byte it
        # writes in unit 22 makes the chunk at 176 claim 0x1CA1B bytes and
        # drops the index
        step(alloc.realloc, a.set_address(180), 32)
        # scans: fits only the chunk at 176 before the tail, whose
        # remainder would lie past the heap, and faults before any restart
        step(alloc.malloc, 100000)

    SCENARIOS = {
        "free": (listed_by_free, FREE_LIST_NAMES, [False, False, True]),
        "move": (listed_by_a_moving_realloc, FREE_LIST_NAMES, [False, False, True]),
        "absorb": (listed_by_a_split_after_absorbing, ["libmalloc-simple"], [False, True]),
        "grow": (grown_in_place_over_a_listed_header, ["libmalloc-simple"], [True, False, False]),
    }

    def run(self, scenario, name):
        """Each step's outcome (a capability, None or a fault text), the
        free list after it and whether the index is on, then the final
        heap snapshot."""
        alloc = create(name, self.HEAP)
        steps = []

        def step(fn, *args):
            try:
                got = fn(*args)
                got = None if got is None else got.describe()
            except (AllocError, CapFault) as exc:
                got = f"{type(exc).__name__}: {exc}"
            steps.append((got, list(alloc._free_list), alloc.heap.watch is not None))

        scenario(self, alloc, step)
        return steps, alloc.heap.snapshot()

    @pytest.mark.parametrize(
        "scenario, name",
        [(key, name) for key, (_, names, _) in SCENARIOS.items() for name in names],
    )
    def test_indexed_run_matches_a_scan_only_twin(self, scenario, name, monkeypatch):
        run, _, indexed = self.SCENARIOS[scenario]
        monkeypatch.setattr(engines, "_SCAN_LIMIT", 0)
        steps, snapshot = self.run(run, name)
        assert [on for _, _, on in steps] == indexed
        monkeypatch.setattr(engines, "_SCAN_LIMIT", 1 << 20)
        twin_steps, twin_snapshot = self.run(run, name)
        assert not any(on for _, _, on in twin_steps)
        assert [s[:2] for s in steps] == [s[:2] for s in twin_steps]
        assert snapshot == twin_snapshot


class TestResetLeavesAFreshHeap:
    """reset() re-zeroes only the heap's written extent, so every path
    that writes heap bytes must raise it: after a reset the heap is byte
    for byte the heap of a fresh instance."""

    HEAP = 4 * SLAB_SIZE

    def assert_fresh_after_reset(self, alloc):
        alloc.reset()
        fresh = create(alloc.traits().name, alloc.heap.size)
        assert alloc.heap.snapshot() == fresh.heap.snapshot()

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_store_and_store_cap_at_the_last_granule(self, name):
        alloc = create(name, self.HEAP)
        alloc.heap.store(alloc.region, self.HEAP - 3, b"\xff" * 3)
        alloc.heap.store_cap(alloc.region, self.HEAP - 2 * GRANULE, alloc.region)
        self.assert_fresh_after_reset(alloc)

    @pytest.mark.parametrize("name", ["dlmalloc-cheribuild", "jemalloc", "libmalloc-simple"])
    def test_free_list_header_writes(self, name):
        alloc = create(name, self.HEAP)
        p = alloc.malloc(32)  # splits: a FREE header past the block
        alloc.realloc(alloc.malloc(64), 400)
        alloc.free(p)
        self.assert_fresh_after_reset(alloc)

    def test_forged_header_straddling_two_granules(self):
        # The whole heap as one block.  A 6-byte store forges payload and
        # magic at 10 mod 16 in granule 250; the status byte sits in
        # granule 251, which only the engine's LIVE header write touches.
        alloc = create("jemalloc", 4096)
        whole = alloc.malloc(4096 - 2 * CHUNK_HEADER_SIZE)
        assert (whole.base, whole.top) == (0, 4096)
        chunk = 250 * GRANULE + 10
        alloc.heap.store(whole, chunk, (16).to_bytes(4, "little") + CHUNK_MAGIC.to_bytes(2, "little"))
        alloc.free(whole.set_address(chunk + CHUNK_HEADER_SIZE))
        assert alloc.malloc(16).address == chunk + CHUNK_HEADER_SIZE
        assert alloc.heap.data[chunk + 6] == 1 and alloc.heap.extent == 252
        self.assert_fresh_after_reset(alloc)

    def test_forged_header_rewritten_after_a_clear_under_the_instance(self):
        # As above, but the heap is cleared under the live instance once
        # the forged chunk is listed, and the 6-byte store made again:
        # the LIVE header's status byte is then the one byte of granule
        # 251 written since the clear, so only _carve raises the extent.
        alloc = create("jemalloc", 4096)
        whole = alloc.malloc(4096 - 2 * CHUNK_HEADER_SIZE)
        chunk = 250 * GRANULE + 10
        forged = (16).to_bytes(4, "little") + CHUNK_MAGIC.to_bytes(2, "little")
        alloc.heap.store(whole, chunk, forged)
        alloc.free(whole.set_address(chunk + CHUNK_HEADER_SIZE))
        alloc.heap.clear()
        alloc.heap.store(whole, chunk, forged)
        assert alloc.heap.extent == 251
        assert alloc.malloc(16).address == chunk + CHUNK_HEADER_SIZE
        assert alloc.heap.data[chunk + 6] == 1 and alloc.heap.extent == 252
        self.assert_fresh_after_reset(alloc)

    @pytest.mark.parametrize("name", FREE_LIST_NAMES)
    def test_indexed_free_list_reset_drops_the_index(self, name):
        """With the class index on, the heap watches a unit per listed
        chunk; reset's ``clear()`` drops the watch map, and with it the
        index, and leaves a fresh heap."""
        alloc = create(name)
        blocks = [alloc.malloc(16) for _ in range(1200)]
        for cap in blocks[::2]:
            alloc.free(cap)
        alloc.malloc(4096)  # a scan past 600 listed chunks starts the index
        assert alloc.heap.watch is not None and len(alloc._listed) >= 500
        self.assert_fresh_after_reset(alloc)
        assert alloc.heap.watch is None

    @pytest.mark.parametrize(
        "name", ["bump-alloc-cheri", "bump-alloc-nocheri", "snmalloc-cheribuild", "snmalloc-repo"]
    )
    def test_moving_realloc(self, name):
        alloc = create(name, self.HEAP)
        p = alloc.malloc(32)
        alloc.malloc(32)  # blocks growth in place on slab
        alloc.heap.store(p, p.address, b"\xab" * 32)
        q = alloc.realloc(p, 200)
        assert q.address > p.address
        self.assert_fresh_after_reset(alloc)


class TestRoundingBoundsMode:
    def test_large_bounds_get_padded(self):
        alloc = create("bump-alloc-cheri", rounding_bounds=True)
        alloc.malloc(16)  # move the cursor off zero
        cap = alloc.malloc(5000)
        # alignment for 5008 rounded: 32; base 16 rounds down, top rounds up
        assert cap.address == 16
        assert cap.base == 0
        assert cap.top % 32 == 0 and cap.top >= 16 + 5000

    def test_small_bounds_stay_exact(self):
        alloc = create("bump-alloc-cheri", rounding_bounds=True)
        cap = alloc.malloc(24)
        assert (cap.base, cap.top) == (0, 32)

    def test_mode_never_escapes_the_region(self):
        alloc = create("snmalloc-repo", rounding_bounds=True)
        cap = alloc.malloc(4096)
        assert alloc.region.base <= cap.base and cap.top <= alloc.region.top


def test_create_rejects_unknown_name():
    with pytest.raises(ValueError):
        create("tcmalloc")


class LiveIntervals:
    """Sorted interval set: the disjointness oracle."""

    def __init__(self):
        self._starts = []
        self._by_start = {}

    def add(self, start, length):
        i = bisect_left(self._starts, start)
        if i > 0:
            prev = self._starts[i - 1]
            assert prev + self._by_start[prev] <= start, "overlap with predecessor"
        if i < len(self._starts):
            assert start + length <= self._starts[i], "overlap with successor"
        insort(self._starts, start)
        self._by_start[start] = length

    def remove(self, start):
        self._starts.remove(start)
        del self._by_start[start]


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_random_sequences_keep_live_blocks_disjoint(name):
    rng = random.Random(f"disjoint {name}")  # a str seed: the same draws in every process
    alloc = create(name)
    for _ in range(20):
        alloc.reset()
        oracle = LiveIntervals()
        live = []
        for _ in range(100):
            roll = rng.random()
            if roll < 0.55 or not live:
                size = rng.randint(1, 200)
                try:
                    cap = alloc.malloc(size)
                except AllocError:
                    continue
                assert alloc.region.base <= cap.base and cap.top <= alloc.region.top
                oracle.add(cap.address, round16(size))
                live.append((cap, size))
            elif roll < 0.85:
                cap, _ = live.pop(rng.randrange(len(live)))
                alloc.free(cap)
                oracle.remove(cap.address)
            else:
                cap, _ = live.pop(rng.randrange(len(live)))
                new_size = rng.randint(1, 200)
                try:
                    new_cap = alloc.realloc(cap, new_size)
                except AllocError:
                    oracle.remove(cap.address)
                    continue
                oracle.remove(cap.address)
                oracle.add(new_cap.address, round16(new_size))
                live.append((new_cap, new_size))


def _hostile_field(rng, live, heap_size):
    """A bound or address: negative, inside the heap, past its end, past
    32 bits, or near a live block's."""
    near = [x for cap in live for x in (cap.base, cap.top, cap.address)]
    pick = rng.choice(
        [-(1 << 40), -4096, -32, -16, -8, 0, 8, 16, 48, heap_size - 16, heap_size,
         heap_size + 16, (1 << 32) - 8, 1 << 32, (1 << 32) + 8, 1 << 40] + near
    )
    return pick + rng.choice([0, 0, 0, 8, -8, 16])


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_hand_built_capabilities_are_refused_cleanly(name):
    """free and realloc through hand-built capabilities: negative, huge
    and inverted bounds, untagged ones, addresses past 32 bits, any
    permission byte.  Each call returns or raises AllocError or
    CapFault, never another exception, and a refused call leaves the
    heap's bytes and tags (and the bump cursor) as they were."""
    heap_size = 1 << 16
    rng = random.Random(f"hand-built {name}")
    alloc = create(name, heap_size=heap_size)
    live = [alloc.malloc(64)]
    # first the two that escaped or leaked on bump: a copy window below
    # the heap, and inverted bounds
    calls = [(Capability(True, -32, 64, -16, 0x3F), 32), (Capability(True, 32, 0, 32, 0x3F), 32)]
    for step in range(600):
        if rng.random() < 0.3:
            try:
                live.append(alloc.malloc(rng.choice([16, 48, 100, 600])))
            except AllocError:
                pass
        if step < len(calls):
            cap, size = calls[step]
        else:
            fields = (_hostile_field(rng, live, heap_size) for _ in range(3))
            cap = Capability(rng.random() < 0.7, *fields, rng.choice([0, 1, 3, 0x3D, 0x3F, 0xFF]))
            size = rng.choice([None, 1, 16, 48, 100, 600, 4096, 5000, 0, -1])
        snapshot, cursor = alloc.heap.snapshot(), getattr(alloc, "_cursor", None)
        try:
            if size is None:
                alloc.free(cap)
            else:
                live.append(alloc.realloc(cap, size))
        except (AllocError, CapFault):
            assert alloc.heap.snapshot() == snapshot, cap
            assert getattr(alloc, "_cursor", None) == cursor, cap


def engine_state(alloc):
    """What a bump or slab op can change, as plain values: the heap's
    bytes and tags, the cursor and log, and the slab records, open-slab
    maps and queued frees."""
    state = [alloc.heap.snapshot(), repr(getattr(alloc, "_cursor", None)), repr(getattr(alloc, "_log", None))]
    if isinstance(alloc, SlabAllocator):
        state += [
            {addr: (slab.index, slot, n) for addr, (slab, slot, n) in alloc._live.items()},
            [bytes(slab.bits) for slab in alloc._slabs],
            {cls: bytes(open_map) for cls, open_map in alloc._open.items()},
            repr(alloc._pending),
        ]
    return state


# (allocator, op, address) for each capability whose address is no int
# where a bump or slab op would end in a TypeError (bump's realloc of 8.0
# only in its copy, after the cursor moved); blocks of 16 bytes sit at 0
# and 16 and realloc asks for 32, so a slab realloc of 0.0 must move
NO_INT_ADDRESSES = [
    *[("bump-alloc-cheri", "realloc", a) for a in (8.0, 0.0, "16", None, [8])],
    ("bump-alloc-nocheri", "free", [8]),
    *[("bump-alloc-nocheri", "realloc", a) for a in (0.0, [8])],
    *[("snmalloc-repo", "free", a) for a in (8.0, "16", None, [8])],
    *[(name, "realloc", a) for name in ("snmalloc-cheribuild", "snmalloc-repo") for a in (0.0, [8])],
]


@pytest.mark.parametrize(
    "name, op, address", NO_INT_ADDRESSES, ids=[f"{n}-{op}-{a!r}" for n, op, a in NO_INT_ADDRESSES]
)
def test_address_that_is_no_int_is_a_bounds_fault_on_bump_and_slab(name, op, address):
    alloc = create(name, heap_size=8192)
    alloc.malloc(16)
    alloc.malloc(16)
    before = engine_state(alloc)
    cap = Capability(True, 0, 4096, address, 0x3F)
    with pytest.raises(CapFault) as exc:
        alloc.free(cap) if op == "free" else alloc.realloc(cap, 32)
    assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
    assert str(exc.value) == f"BoundsViolation: address {address!r} is not an int"
    assert engine_state(alloc) == before


@pytest.mark.parametrize("address", [8.0, "16", None, [8]])
def test_deferred_free_of_an_address_that_is_no_int_is_dropped(address):
    # the free queues it; the flush drops it, as any invalid deferred free
    alloc, twin = create("snmalloc-cheribuild", heap_size=8192), create("snmalloc-cheribuild", heap_size=8192)
    alloc.malloc(16)
    twin.malloc(16)
    alloc.free(Capability(True, 0, 4096, address, 0x3F))
    assert alloc.malloc(16) == twin.malloc(16)
    assert engine_state(alloc) == engine_state(twin)


# The in-line derivation sweep.  Engines build a client capability in line
# wherever _derive could neither round nor fault, and call _derive only
# where it can do more (rounding on and a block above ROUNDING_THRESHOLD,
# or a free-list block whose forged header ends it past the heap).  The
# sweep holds every call to _derive's answer: a capability handed out is
# what _derive(alloc.region, ...) builds for its block, and a refused call
# raises what _derive (or the check before it) raises for the block the
# call would take, and leaves the heap and the bump cursor as they were.

DERIVE_HEAPS = (8208, 1 << 15)  # an end off the 32-byte grid, and one on it
HEADER = struct.Struct("<IHBB")


def outcome(run):
    """``run()``'s value, or its exception as (type, text, kind)."""
    try:
        return "value", run()
    except (AllocError, CapFault) as exc:
        return "raised", type(exc), str(exc), exc.kind


def expected_call(alloc, op, cap, size):
    """What ``op`` must hand out, or raise, read from the allocator's state
    before it runs: ``_derive`` over the block it takes.  Bump and free
    list only; a slab block is held to ``_derive`` after the call."""
    region, perms, rounding = alloc.region, alloc._client_perms, alloc._rounding
    heap = alloc.heap
    want = round16(size)
    if isinstance(alloc, engines.BumpAllocator):
        start = alloc._cursor
        if start + want > heap.size:
            raise AllocError(AllocErrorKind.OUT_OF_MEMORY, f"cursor at {start}")
        if not alloc._traits.narrow_bounds:
            return _derive(region, 0, region.top, start, perms, False)
        return _derive(region, start, want, start, perms, rounding)

    def header(chunk):
        return HEADER.unpack_from(heap.data, chunk)

    def carve(chunk, payload):
        at = chunk + CHUNK_HEADER_SIZE
        if payload >= want + 32:
            region.check_access(at + want, CHUNK_HEADER_SIZE, Perm.STORE)
            payload = want
        return _derive(region, chunk, CHUNK_HEADER_SIZE + payload, at, perms, rounding)

    if op == "realloc":
        chunk = cap.address - CHUNK_HEADER_SIZE
        payload = header(chunk)[0]
        if want <= payload:
            return _derive(region, chunk, CHUNK_HEADER_SIZE + payload, cap.address, perms, rounding)
        span = payload
        while alloc._traits.realloc_grows_in_place and span < want:
            nxt = chunk + CHUNK_HEADER_SIZE + span
            if nxt + CHUNK_HEADER_SIZE > heap.size or header(nxt)[1:3] != (CHUNK_MAGIC, 0):
                break
            if nxt not in alloc._listed:
                raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"unlisted free header at {nxt}")
            span += CHUNK_HEADER_SIZE + header(nxt)[0]
        else:
            if span >= want:
                return carve(chunk, span)
        ncopy = min(payload, size)
        if ncopy and cap.address + ncopy > heap.size:
            heap.fault_outside(cap.address, ncopy)
    for chunk in alloc._free_list:  # first fit
        payload, magic, _, _ = header(chunk)
        if magic != CHUNK_MAGIC:
            raise AllocError(AllocErrorKind.CORRUPT_HEADER, f"free list entry at {chunk}")
        if payload >= want:
            return carve(chunk, payload)
    raise AllocError(AllocErrorKind.OUT_OF_MEMORY, f"no free chunk holds {want} bytes")


def derived_after(alloc, cap):
    """``_derive`` over the block ``cap`` was handed out for, read from the
    allocator's state after the call."""
    region, perms, rounding = alloc.region, alloc._client_perms, alloc._rounding
    if isinstance(alloc, engines.BumpAllocator):
        if not alloc._traits.narrow_bounds:
            return _derive(region, 0, region.top, cap.address, perms, False)
        return _derive(region, cap.address, alloc._cursor - cap.address, cap.address, perms, rounding)
    if isinstance(alloc, FreeListAllocator):
        chunk = cap.address - CHUNK_HEADER_SIZE
        payload, magic, _, _ = HEADER.unpack_from(alloc.heap.data, chunk)
        assert magic == CHUNK_MAGIC
        return _derive(region, chunk, CHUNK_HEADER_SIZE + payload, cap.address, perms, rounding)
    slab, _, nslots = alloc._live[cap.address]
    return _derive(region, cap.address, nslots * slab.cls, cap.address, perms, rounding)


class DerivationSweep:
    """Runs calls on one allocator and holds each to ``_derive``."""

    def __init__(self, alloc):
        self.alloc = alloc
        self.outcomes = set()

    def call(self, op, *args):
        """``malloc(size)`` or ``realloc(cap, size)``: the capability handed
        out, or None where the call is refused."""
        alloc = self.alloc
        cap = args[0] if op == "realloc" else None
        size = args[-1]
        slab = isinstance(alloc, SlabAllocator)
        want = None if slab else outcome(lambda: expected_call(alloc, op, cap, size))
        before = alloc.heap.snapshot(), getattr(alloc, "_cursor", None)
        got = outcome(lambda: getattr(alloc, op)(*args))
        context = (op, args, alloc.heap.size, alloc._rounding)
        if got[0] == "value":
            assert type(got[1]) is Capability, context
            assert outcome(lambda: derived_after(alloc, got[1])) == got, context
            if want is not None:
                assert got == want, context
            self.outcomes.add("handed out")
            return got[1]
        assert (alloc.heap.snapshot(), getattr(alloc, "_cursor", None)) == before, context
        if slab:
            assert got[1] is AllocError, context
        else:
            assert got == want, context
        self.outcomes.add(got[3])
        return None


def forge(alloc, cap, chunk, payload):
    """Write a FREE header of ``payload`` bytes at ``chunk`` through ``cap``."""
    alloc.heap.store(cap, chunk, HEADER.pack(payload, CHUNK_MAGIC, 0, 0))


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_in_line_capabilities_are_what_derive_builds(name):
    outcomes = set()
    for heap_size in DERIVE_HEAPS:
        for rounding in (False, True):
            sweep = DerivationSweep(create(name, heap_size=heap_size, rounding_bounds=rounding))
            alloc = sweep.alloc
            # requests at and just past the rounding threshold, and small
            small = [sweep.call("malloc", size) for size in (16, 48, 48)]
            large = [sweep.call("malloc", size) for size in (4096, 4097, 4112)]
            # a realloc that fits, one that may grow in place, one that moves
            fitted = sweep.call("realloc", small[0], 8)
            grown = sweep.call("realloc", small[-1], 100)
            sweep.call("realloc", small[1], 4097)
            if large[0] is not None:
                large[0] = sweep.call("realloc", large[0], 4000) or large[0]
                sweep.call("realloc", large[0], 4112)
            if grown is not None:
                sweep.call("realloc", grown, 5000)
            alloc.free(fitted)
            # requests at the heap's end: what is left, whole or nearly,
            # from a few small blocks in
            alloc.reset()
            for size in (16, 48, 48):
                sweep.call("malloc", size)
            for _ in range(3):
                left = alloc.heap.size - getattr(alloc, "_cursor", 0)
                if isinstance(alloc, FreeListAllocator):
                    tail = alloc.chunks()[-1]
                    left = tail[1] if tail[2] == 0 else 16
                for size in (left, left - 20, left + 1):
                    sweep.call("malloc", max(1, min(size, 1 << 20)))
            outcomes |= sweep.outcomes
    if name in FREE_LIST_NAMES:
        outcomes |= forged_past_the_heap_end(name)
    # the sweep reaches what each engine can answer
    assert "handed out" in outcomes
    if name.startswith("bump"):
        assert AllocErrorKind.OUT_OF_MEMORY in outcomes
    if TRAITS[name].narrow_bounds and not name.startswith("snmalloc"):
        assert FaultKind.MONOTONICITY_VIOLATION in outcomes


def forged_past_the_heap_end(name):
    """Free-list chunks whose forged header runs past the heap's end: one
    handed out whole, one kept by a fitting realloc, and (libmalloc-simple)
    one grown over in place, whole and split."""
    outcomes = set()
    for heap_size in DERIVE_HEAPS:
        for rounding in (False, True):
            sweep = DerivationSweep(create(name, heap_size=heap_size, rounding_bounds=rounding))
            alloc = sweep.alloc
            a, b = (sweep.call("malloc", 48) for _ in range(2))
            past = heap_size - 64 + 16  # a payload at 56 that runs 16 bytes past the end
            # a listed chunk, forged through its stale capability, handed out whole
            alloc.free(b)
            forge(alloc, b, b.base, past)
            sweep.call("malloc", past)
            forge(alloc, b, b.base, heap_size)
            sweep.call("malloc", heap_size - 64)  # splits, its remainder's header at the end
            sweep.call("malloc", 48)  # splits inside the heap: handed out
            # a live chunk's own header, forged, kept by a fitting realloc
            forge(alloc, a, a.base, heap_size)
            sweep.call("realloc", a, 16)
            forge(alloc, a, a.base, 32)
            sweep.call("realloc", a, 16)
            # a listed neighbour forged past the end, and a realloc over it
            alloc.reset()
            a, b = (sweep.call("malloc", 48) for _ in range(2))
            alloc.free(b)
            forge(alloc, b, b.base, past)
            for size in (48 + CHUNK_HEADER_SIZE + past - 16, 200, heap_size - 24, 64):
                sweep.call("realloc", a, size)
            outcomes |= sweep.outcomes
    assert {"handed out", FaultKind.MONOTONICITY_VIOLATION, FaultKind.BOUNDS_VIOLATION} <= outcomes
    return outcomes


@pytest.mark.parametrize("scan_limit", [engines._SCAN_LIMIT, 0], ids=["scanned", "indexed"])
@pytest.mark.parametrize("size", [48, 16], ids=["whole", "split"])
@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_malloc_takes_the_first_slot_of_a_chunk_listed_twice(name, size, scan_limit, monkeypatch):
    """A moving realloc through a stale capability lists a free chunk a
    second time, two slots after the first.  malloc takes the chunk at
    its first slot, as the reference first fit does, and the list, its
    counts and the heap are what that pick predicts.  With the index on
    from the first malloc, the re-list drops it, so the scan answers."""
    monkeypatch.setattr(engines, "_SCAN_LIMIT", scan_limit)
    alloc = create(name)
    a, _, c, _ = (alloc.malloc(48) for _ in range(4))
    alloc.free(a)
    alloc.free(c)
    alloc.realloc(a, 200)  # a's neighbour is live, so the block moves
    free_list, data = alloc._free_list[:], alloc.heap.data
    assert free_list[:3] == [a.base, c.base, a.base] and alloc.heap.watch is None
    want = round16(size)
    # the reference first fit's pick, and what carving it leaves
    slot = next(i for i, chunk in enumerate(free_list) if HEADER.unpack_from(data, chunk)[0] >= want)
    chunk, payload = free_list[slot], HEADER.unpack_from(data, free_list[slot])[0]
    heap = bytearray(alloc.heap.snapshot())
    if payload >= want + 32:
        free_list[slot] = rest = chunk + CHUNK_HEADER_SIZE + want
        HEADER.pack_into(heap, rest, payload - want - CHUNK_HEADER_SIZE, CHUNK_MAGIC, 0, 0)
        payload = want
    else:
        del free_list[slot]
    HEADER.pack_into(heap, chunk, payload, CHUNK_MAGIC, 1, 0)
    expected = outcome(lambda: expected_call(alloc, "malloc", None, size))
    assert outcome(lambda: alloc.malloc(size)) == expected
    assert expected[1].base == a.base and slot == 0
    assert alloc._free_list == free_list
    assert alloc._listed == Counter(free_list)
    assert alloc.heap.snapshot() == heap


class CountingHeader:
    """Stands in for one of the free-list engine's two header readers,
    ``engines._HEADER`` (all four fields) or ``engines._PAYLOAD_MAGIC``
    (payload and magic): counts ``unpack_from`` calls made while
    ``inside`` is non-zero and passes everything through.  A second
    instance built with ``tally=`` the first counts into the first, so
    one count covers both readers.  Every header read of the free-list
    engine, folded into its caller or not, goes through one of the two
    readers' ``unpack_from``, so with both hooked none inside ``malloc``
    goes uncounted."""

    def __init__(self, inner, tally=None):
        self.inner = inner
        self.tally = tally or self
        self.inside = 0
        self.reads = 0

    def unpack_from(self, *args):
        tally = self.tally
        if tally.inside:
            tally.reads += 1
        return self.inner.unpack_from(*args)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize(
    "workload, reads, mallocs",
    [
        (Workload.randsize(2000, 1, 16, 512), 2059, 1010),
        (Workload.reallocramp(2000), 74379, 2001),
    ],
    ids=["randsize", "reallocramp"],
)
def test_first_fit_header_reads_per_malloc(monkeypatch, workload, reads, mallocs):
    """Headers read inside ``FreeListAllocator.malloc`` (its moving-realloc
    calls included) on jemalloc: a count, so an algorithmic regression
    shows without a timing.  The scan from the list's head that the class
    bytes replaced read 99.4 per malloc on randsize (100,410 in 1,010) and
    328 on reallocramp (657,021 in 2,001), 1,640 of whose mallocs run out
    of memory after visiting the whole list.  Now the first scan that
    visits more than 64 entries starts the class index, and from then on
    randsize reads just the chunk it takes (2.04 per malloc overall);
    reallocramp's requests pass 2048 bytes, where a class spans a quarter
    of a power of two, so smaller free chunks of the request's own class
    are read too (37.2 per malloc).  Reallocramp read 74,527 while the
    barrier watched 16-byte granules, 148 of them re-reads of headers
    whose granule only a payload store had written."""
    counter = CountingHeader(engines._HEADER)
    monkeypatch.setattr(engines, "_HEADER", counter)
    monkeypatch.setattr(engines, "_PAYLOAD_MAGIC", CountingHeader(engines._PAYLOAD_MAGIC, counter))
    malloc = FreeListAllocator.malloc
    calls = []

    def counted(self, size):
        calls.append(size)
        counter.inside += 1
        try:
            return malloc(self, size)
        finally:
            counter.inside -= 1

    monkeypatch.setattr(FreeListAllocator, "malloc", counted)
    run_workload(create("jemalloc"), workload)
    assert (counter.reads, len(calls)) == (reads, mallocs)


def calls_into_capheap(run):
    """The Python calls into capheap's modules while ``run()`` runs,
    counted by a profile hook: a cost count that needs no timing."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").partition(".")[0] == "capheap":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


# Python calls into capheap per engine op on a fresh 1 MiB heap, as
# (malloc, free, realloc that fits, realloc that moves, pair):
#   malloc  the second malloc(48);
#   free    free of that block, once both reallocs have run;
#   fits    realloc of that block to 40 bytes, which its block holds;
#   moves   realloc of the first block to 200 bytes, which the second
#           keeps from growing in place (into a new slab on slab);
#   pair    one of 1,000 malloc(48) + free pairs: on the free list each
#           takes and gives back the head chunk whole, and on a deferring
#           slab each malloc applies the free queued before it.
# The "-indexed" rows run the free list with its class index on from the
# first malloc.  The counts are pinned so that any change to one is a
# reviewed number; the test also holds each engine to the maxima its ops
# were folded to.
CALLS_PER_OP = {
    "bump-alloc-cheri": (1, 1, 1, 1, 2),
    "bump-alloc-nocheri": (1, 1, 1, 1, 2),
    "dlmalloc-cheribuild": (3, 2, 1, 7, 5),
    "jemalloc": (3, 2, 1, 7, 5),
    "libmalloc-simple": (3, 2, 1, 9, 5),
    "snmalloc-cheribuild": (1, 1, 1, 4, 4),
    "snmalloc-repo": (1, 1, 1, 4, 2),
    "dlmalloc-cheribuild-indexed": (5, 2, 1, 9, 6),
    "jemalloc-indexed": (5, 2, 1, 9, 6),
    "libmalloc-simple-indexed": (5, 2, 1, 11, 6),
}


@pytest.mark.parametrize("row", CALLS_PER_OP)
def test_python_calls_per_engine_op(row, monkeypatch):
    name = row.removesuffix("-indexed")
    if name != row:
        monkeypatch.setattr(engines, "_SCAN_LIMIT", 0)
    alloc = create(name)
    first = alloc.malloc(48)
    results = []

    def calls(op, *args):
        n = calls_into_capheap(lambda: results.append(op(*args)))
        return n, results[-1]

    malloc, block = calls(alloc.malloc, 48)
    fits, block = calls(alloc.realloc, block, 40)
    moves, moved = calls(alloc.realloc, first, 200)
    free, _ = calls(alloc.free, block)
    assert moved.address != first.address
    alloc.free(alloc.malloc(48))

    def pairs():
        for _ in range(1000):
            alloc.free(alloc.malloc(48))

    counts = (malloc, free, fits, moves, calls_into_capheap(pairs) / 1000)
    assert counts == CALLS_PER_OP[row]
    if name in FREE_LIST_NAMES:
        assert (alloc.heap.watch is not None) == (name != row)
        assert (alloc._free_list[0], 48, 0) in alloc.chunks()
    # the maxima the folds were held to
    engine = type(alloc)
    if engine is engines.BumpAllocator:
        assert malloc == free == fits == moves == 1
    elif engine is SlabAllocator:
        assert malloc == free == fits == 1
    else:
        assert fits == 1


# Python calls into capheap per ``reset()`` after a malloc(48) and its
# free: the engine's own ``reset``, which builds all its state in its
# frame, and ``heap.clear``; the free list adds the ``_push`` of the one
# free chunk that tiles the heap.
CALLS_PER_RESET = {
    "bump-alloc-cheri": 2,
    "bump-alloc-nocheri": 2,
    "dlmalloc-cheribuild": 3,
    "jemalloc": 3,
    "libmalloc-simple": 3,
    "snmalloc-cheribuild": 2,
    "snmalloc-repo": 2,
}


@pytest.mark.parametrize("name", CALLS_PER_RESET)
def test_python_calls_per_reset(name):
    alloc = create(name)
    alloc.free(alloc.malloc(48))
    assert calls_into_capheap(alloc.reset) == CALLS_PER_RESET[name]


# Python calls into capheap per op taped through attacks.Tape, as
# (malloc, free, load, set_bounds, refused load), on the second malloc(48)
# block of a fresh 1 MiB heap: a load of 8 bytes at its address, bounds
# of 16 bytes there, a load 4 KiB past it (a BoundsViolation, whose
# raise runs check_access and CapFault.__init__), then its free.  Each
# taped op costs its direct call plus Tape.do: a step keeps the op's
# value and renders its text only when read.
CALLS_PER_TAPE_OP = {
    "snmalloc-repo": (2, 2, 2, 3, 4),
    "jemalloc": (4, 3, 2, 3, 4),
}


@pytest.mark.parametrize("name", CALLS_PER_TAPE_OP)
def test_python_calls_per_tape_op(name):
    tape, twin = Tape(create(name)), create(name)
    tape.do("malloc", 48)
    twin.malloc(48)
    results = []

    def calls(op, *args):
        n = calls_into_capheap(lambda: results.append(op(*args)))
        return n, results[-1]

    def refused_load(cap, addr):
        try:
            twin.heap.load(cap, addr, 8)
        except CapFault:
            pass

    malloc, ref = calls(tape.do, "malloc", 48)
    direct_malloc, cap = calls(twin.malloc, 48)
    addr = cap.address
    assert tape.steps[-1].value == (ref, cap)
    load, data = calls(tape.do, "load", ref, addr, 8)
    assert data == twin.heap.load(cap, addr, 8)
    bounds, _ = calls(tape.do, "set_bounds", ref, addr, 16)
    refused, _ = calls(tape.do, "load", ref, addr + 4096, 8)
    assert tape.steps[-1].result == "fault:BoundsViolation"
    free, _ = calls(tape.do, "free", ref)
    assert tape.error is None
    taped = (malloc, free, load, bounds, refused)
    assert taped == CALLS_PER_TAPE_OP[name]
    direct = (
        direct_malloc,
        calls_into_capheap(lambda: twin.free(cap)),
        calls_into_capheap(lambda: twin.heap.load(cap, addr, 8)),
        calls_into_capheap(lambda: cap.set_bounds(addr, 16)),
        calls_into_capheap(lambda: refused_load(cap, addr + 4096)),
    )
    assert taped == tuple(d + 1 for d in direct)


def test_grid_renders_no_trace_text():
    """A grid reads only outcomes, so no step renders its capability text;
    reading a step's ``result`` is what calls ``Capability.describe``."""
    describe = Capability.describe.__code__
    seen = 0

    def profile(frame, event, arg):
        nonlocal seen
        if event == "call" and frame.f_code is describe:
            seen += 1

    def profiled(run):
        nonlocal seen
        seen = 0
        sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.setprofile(None)
        return seen, result

    assert profiled(run_matrix) == (0, EXPECTED_MATRIX)
    report = run_attack("A1", create("jemalloc"))
    assert profiled(lambda: report.trace[0].result)[0] == 1


def test_grid_builds_no_report():
    """A grid runs each probe's body on the row's ``Ops``, which records
    nothing, and keeps its outcome: it builds no ``Tape``, no
    ``AttackReport`` and no ``TraceStep``, so it enters none of
    ``run_attack``, ``Tape.__init__``, ``Tape.do`` or ``Tape.steps``."""
    codes = {
        run_attack.__code__: "report",
        Tape.__init__.__code__: "init",
        Tape.steps.fget.__code__: "steps",
        Tape.do.__code__: "do",
    }
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        matrix = run_matrix()
    finally:
        sys.setprofile(None)
    assert matrix == EXPECTED_MATRIX
    assert seen == {}
    # the same hook sees a tape, its ops, a report and its steps where a
    # probe reports
    sys.setprofile(profile)
    try:
        run_attack("A1", create("jemalloc"))
    finally:
        sys.setprofile(None)
    assert seen == {"init": 1, "do": 4, "report": 1, "steps": 1}


# Python calls into capheap for one default ``run_matrix()`` after a
# first grid has left its heap and instances: each op a body makes is the
# engine's own call, plus per row one ``Ops`` and the five resets of the
# instance the last grid built (one before each probe, each costing
# ``CALLS_PER_RESET``), and the op set's adapters for store, traits and
# note.  ``Ops.traits`` reads the record the op set bound, and the grid
# builds its result without ``ConformanceMatrix.__new__``'s checks.
CALLS_PER_GRID = 386


def test_python_calls_per_grid():
    run_matrix()
    assert calls_into_capheap(run_matrix) == CALLS_PER_GRID


# what reading an enum member's ``value`` runs: the property's getter,
# and its ``__get__`` where that is Python code
_VALUE = vars(enum.Enum)["value"]
ENUM_VALUE_CODES = {_VALUE.fget.__code__} | (
    {type(_VALUE).__get__.__code__} if hasattr(type(_VALUE).__get__, "__code__") else set()
)


def calls_into_enum_value(run):
    """The frames of ``enum``'s ``value`` property while ``run()`` runs,
    counted by a profile hook, as ``calls_into_capheap`` counts."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in ENUM_VALUE_CODES:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_grids_refusals_and_renders_read_no_enum_value():
    """A grid, a refusal and a rendered outcome or refusal read the kind's
    ``_value_``, never the ``value`` property: two Python frames a read."""
    assert calls_into_enum_value(lambda: FaultKind.BOUNDS_VIOLATION.value) > 0
    heap = TaggedHeap(4096)
    cap = make_root(4096).set_bounds(32, 64)
    bump = create("bump-alloc-cheri", 4096)
    while bump._cursor < 4096:
        bump.malloc(16)
    refusals = []

    def refused_load():
        try:
            heap.load(cap, 200, 8)
        except CapFault as exc:
            refusals.append(str(exc))

    def out_of_memory():
        try:
            bump.malloc(16)
        except AllocError as exc:
            refusals.append(str(exc))

    report = run_attack("A4", create("bump-alloc-nocheri"))
    run_matrix()
    runs = {
        "grid": run_matrix,
        "refused load": refused_load,
        "out of memory": out_of_memory,
        "renders": lambda: [render(EXPECTED_MATRIX, fmt) for fmt in ("text", "csv", "json")],
        "parse": lambda: parse_csv(render(EXPECTED_MATRIX, "csv")),
        "report": lambda: (report.headline(), [step.result for step in report.trace]),
    }
    assert {name: calls_into_enum_value(run) for name, run in runs.items()} == dict.fromkeys(runs, 0)
    assert refusals == ["BoundsViolation: [200, 208) outside [32, 96)", "OutOfMemory: cursor at 4096"]
    assert report.trace[-1].result == "error:DoubleFree"


# Python calls into capheap per heap access that passes, on a fresh heap:
# load, load_cap and store_cap test their capability in line, so each is
# one call.  store is two, itself and check_access: it still calls the
# check on every access, because the benchmark's traced counts require a
# check_access call in every small workload, and on mix-reset only the
# free list's moving realloc, through heap.store, makes one.
CALLS_PER_HEAP_OP = {"load": 1, "load_cap": 1, "store_cap": 1, "store": 2}
HEAP_OPS = {
    "load": lambda heap, cap: heap.load(cap, 16, 8),
    "load_cap": lambda heap, cap: heap.load_cap(cap, 16),
    "store_cap": lambda heap, cap: heap.store_cap(cap, 16, cap),
    "store": lambda heap, cap: heap.store(cap, 16, b"x" * 8),
}


@pytest.mark.parametrize("op", HEAP_OPS)
def test_python_calls_per_heap_op(op, monkeypatch):
    heap = TaggedHeap(4096)
    root = make_root(4096)
    assert calls_into_capheap(lambda: HEAP_OPS[op](heap, root)) == CALLS_PER_HEAP_OP[op]
    # a faulting access still raises through check_access, each kind once
    checks = []
    check_access = Capability.check_access

    def counted(cap, *args):
        checks.append(args)
        check_access(cap, *args)

    monkeypatch.setattr(Capability, "check_access", counted)
    faulting = {
        FaultKind.TAG_VIOLATION: root.clear_tag(),
        FaultKind.PERMISSION_VIOLATION: root.and_perms(Perm.EXEC),
        FaultKind.BOUNDS_VIOLATION: root.set_bounds(32, 64),
    }
    for kind, cap in faulting.items():
        del checks[:]
        with pytest.raises(CapFault) as exc:
            HEAP_OPS[op](heap, cap)
        assert exc.value.kind is kind
        assert len(checks) == 1


@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_client_fills_never_drop_the_index(name, monkeypatch):
    """Long-lived-style traffic with the class index on from the first
    malloc: each block filled to its requested size, a back-pointer
    stored in its first whole granule, some blocks freed.  No client
    write reaches a header, so the index starts once and is never
    dropped: a spurious drop would show as a second start.  While the
    barrier watched 16-byte granules, a fill ending in the low half of a
    granule whose high half held a listed header marked that header."""
    monkeypatch.setattr(engines, "_SCAN_LIMIT", 0)
    starts = []
    index = FreeListAllocator._index

    def counted(self):
        starts.append(len(self._free_list))
        index(self)

    monkeypatch.setattr(FreeListAllocator, "_index", counted)
    rng = random.Random(1)
    alloc = create(name)
    live = []
    for _ in range(600):
        if live and rng.random() < 0.4:
            alloc.free(live.pop(rng.randrange(len(live))))
            continue
        size = rng.randint(16, 2048)
        cap = alloc.malloc(size)
        alloc.heap.store(cap, cap.address, b"\xa5" * size)
        granule = -(-cap.address // GRANULE) * GRANULE
        if granule + GRANULE <= cap.address + size:
            alloc.heap.store_cap(cap, granule, cap)
        live.append(cap)
    assert alloc.heap.watch is not None and len(alloc._free_list) > 1
    assert len(starts) == 1


@pytest.mark.parametrize("scan_limit", [0, 1 << 20], ids=["indexed", "scanned"])
@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_capability_stored_over_a_listed_header_poisons_it(name, scan_limit, monkeypatch):
    """A capability stored through a stale capability over the granule
    whose high half is a listed header breaks that header's magic, so
    the next malloc that reaches it raises CorruptHeader, indexed (the
    ``store_cap`` barrier drops the index, so that malloc scans) as
    scanned."""
    monkeypatch.setattr(engines, "_SCAN_LIMIT", scan_limit)
    alloc = create(name)
    a = alloc.malloc(600)
    alloc.malloc(64)  # keeps a apart from the tail
    alloc.free(a)
    alloc.malloc(16)  # splits the chunk at 0: the remainder at 24 heads the list
    assert alloc._free_list[0] == 24 and (alloc.heap.watch is not None) == (scan_limit == 0)
    alloc.heap.store_cap(a, 16, a)
    assert alloc.heap.watch is None
    with pytest.raises(AllocError) as exc:
        alloc.malloc(5000)
    assert str(exc.value) == "CorruptHeader: free list entry at 24"


def test_free_list_engine_runs_over_a_plain_heap():
    alloc = FreeListAllocator(TaggedHeap(4096), TRAITS["jemalloc"])
    alloc.free(alloc.malloc(32))
    assert alloc.chunks() == [(0, 32, 0), (40, 4048, 0)]
    assert all(type(create(name).heap) is TaggedHeap for name in ALLOCATOR_NAMES)
