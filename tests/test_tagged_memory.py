import mmap
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import capheap
from capheap import harness, tagged_memory
from capheap.attacks import ATTACKS
from capheap.capability import CapFault, Capability, FaultKind, PERM_ALL, Perm, make_root
from capheap.cli import main
from capheap.harness import EXPECTED_MATRIX, run_matrix
from capheap.registry import ALLOCATOR_NAMES, DEFAULT_HEAP_SIZE, create
from capheap.tagged_memory import GRANULE, TaggedHeap

HEAP = 4096


@pytest.fixture
def heap():
    return TaggedHeap(HEAP)


@pytest.fixture
def root():
    return make_root(HEAP)


def test_heap_starts_zeroed(heap, root):
    # heap bytes are demand-zero pages; the last granule reads zero too
    assert heap.load(root, 0, HEAP) == bytes(HEAP)
    assert heap.load_cap(root, HEAP - GRANULE) == (False, 0, 0, 0, Perm(0))
    assert not any(heap.tags)
    assert heap.snapshot() == bytes(HEAP) + bytes(HEAP // 128)


def test_rejects_bad_sizes():
    for bad in (0, -16, 24):
        with pytest.raises(ValueError):
            TaggedHeap(bad)


@pytest.mark.parametrize(
    "bad, text",
    [(4096.0, "heap size 4096.0 is not an int"), ("4096", "heap size '4096' is not an int"),
     (None, "heap size None is not an int"), (True, "heap size True is not an int"),
     (1 << 32, "heap size exceeds the 32-bit address space"),
     (1 << 33, "heap size exceeds the 32-bit address space")],
)
def test_heap_and_root_share_one_size_rule_checked_before_any_map(bad, text, monkeypatch):
    # a map would fail the test rather than reserve the size asked for
    def no_map(*args, **kwargs):
        raise AssertionError(f"mapped {args}")

    monkeypatch.setattr(tagged_memory, "mmap", SimpleNamespace(mmap=no_map))
    for build in (TaggedHeap, make_root, lambda size: create("jemalloc", heap_size=size)):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            build(bad)


class TestLoadStore:
    def test_round_trip(self, heap, root):
        heap.store(root, 64, bytes([1, 2, 3]))
        assert heap.load(root, 64, 3) == bytes([1, 2, 3])

    def test_load_without_permission(self, heap, root):
        c = root.and_perms(Perm.STORE)
        with pytest.raises(CapFault) as exc:
            heap.load(c, 0, 1)
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    def test_load_straddling_top(self, heap, root):
        c = root.set_bounds(128, 64)
        with pytest.raises(CapFault) as exc:
            heap.load(c, c.top - 1, 2)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION

    def test_store_via_untagged_leaves_heap_unmodified(self, heap, root):
        with pytest.raises(CapFault) as exc:
            heap.store(root.clear_tag(), 0, b"\xff" * 8)
        assert exc.value.kind is FaultKind.TAG_VIOLATION
        assert heap.load(root, 0, 8) == bytes(8)

    def test_empty_store_rejected(self, heap, root):
        with pytest.raises(ValueError):
            heap.store(root, 0, b"")

    def test_store_past_heap_end_faults_and_leaves_heap(self, heap, root):
        heap.store(root, HEAP - 8, b"\x11" * 8)
        before = heap.snapshot()
        with pytest.raises(CapFault) as exc:
            heap.store(root, HEAP - 8, b"\xff" * 16)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert len(heap.data) == HEAP
        assert heap.snapshot() == before

    def test_store_does_not_touch_neighbors(self, heap, root):
        heap.store(root, 100, b"\xee" * 4)
        assert heap.load(root, 99, 1) == b"\x00"
        assert heap.load(root, 104, 1) == b"\x00"


class TestCapStorage:
    def test_round_trip_preserves_fields_and_tag(self, heap, root):
        payload = root.set_bounds(32, 64).set_address(40).and_perms(Perm.LOAD | Perm.STORE)
        heap.store_cap(root, 16, payload)
        assert heap.load_cap(root, 16) == payload

    def test_untagged_payload_round_trips_untagged(self, heap, root):
        payload = root.set_bounds(32, 64).clear_tag()
        heap.store_cap(root, 16, payload)
        out = heap.load_cap(root, 16)
        assert not out.tag
        assert (out.base, out.top, out.address, out.perms) == (32, 96, 32, PERM_ALL)

    def test_requires_store_cap_permission(self, heap, root):
        c = root.and_perms(Perm.LOAD | Perm.STORE)
        with pytest.raises(CapFault) as exc:
            heap.store_cap(c, 16, root)
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    def test_requires_load_cap_permission(self, heap, root):
        heap.store_cap(root, 16, root)
        c = root.and_perms(Perm.LOAD | Perm.STORE)
        with pytest.raises(CapFault) as exc:
            heap.load_cap(c, 16)
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    @pytest.mark.parametrize("addr", [8, 1, 15, 17])
    def test_misaligned_store_cap(self, heap, root, addr):
        with pytest.raises(CapFault) as exc:
            heap.store_cap(root, addr, root)
        assert exc.value.kind is FaultKind.ALIGNMENT_VIOLATION

    def test_misaligned_load_cap(self, heap, root):
        with pytest.raises(CapFault) as exc:
            heap.load_cap(root, 8)
        assert exc.value.kind is FaultKind.ALIGNMENT_VIOLATION

    def test_never_written_granule_reads_untagged_zeros(self, heap, root):
        out = heap.load_cap(root, 256)
        assert out == (False, 0, 0, 0, Perm(0))

    @pytest.mark.parametrize("offset", range(GRANULE))
    def test_any_byte_store_clears_granule_tag(self, heap, root, offset):
        heap.store_cap(root, 32, root)
        assert heap.tags[2]
        heap.store(root, 32 + offset, b"\x00")
        assert not heap.tags[2]
        assert not heap.load_cap(root, 32).tag

    def test_layout_is_bit_exact(self):
        heap = TaggedHeap(64 * 1024)
        root = make_root(64 * 1024)
        payload = root.set_bounds(0x1234, 0x100).set_address(0x1250).and_perms(
            Perm.LOAD | Perm.EXEC
        )
        heap.store_cap(root, 0, payload)
        raw = heap.load(root, 0, 16)
        assert raw[0:4] == (0x1234).to_bytes(4, "little")
        assert raw[4:8] == (0x1334).to_bytes(4, "little")
        assert raw[8:12] == (0x1250).to_bytes(4, "little")
        assert raw[12] == (Perm.LOAD | Perm.EXEC).value
        assert raw[13:16] == b"\x00\x00\x00"

    def test_cap_write_sets_only_its_granule(self, heap, root):
        heap.store_cap(root, 48, root)
        assert [i for i, t in enumerate(heap.tags) if t] == [3]


class TestCapabilityWiderThanHeap:
    """A capability may span more than the heap it is used on; the heap
    checks its own bounds after the capability's, writing nothing."""

    @pytest.fixture
    def wide(self):
        return make_root(2 * HEAP)

    CALLS = {
        "store": lambda heap, cap: heap.store(cap, HEAP - 6, b"\xff" * 16),
        "store_cap": lambda heap, cap: heap.store_cap(cap, HEAP, cap),
        "load_cap": lambda heap, cap: heap.load_cap(cap, HEAP),
        "load": lambda heap, cap: heap.load(cap, HEAP - 6, 16),
    }
    TEXTS = {
        "store": "BoundsViolation: [4090, 4106) outside [0, 4096)",
        "store_cap": "BoundsViolation: [4096, 4112) outside [0, 4096)",
        "load_cap": "BoundsViolation: [4096, 4112) outside [0, 4096)",
        "load": "BoundsViolation: [4090, 4106) outside [0, 4096)",
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_access_past_heap_end_is_bounds_fault(self, heap, root, wide, call):
        heap.store(root, HEAP - 16, b"\x11" * 16)
        before = heap.snapshot()
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, wide)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert str(exc.value) == self.TEXTS[call]
        assert heap.snapshot() == before

    @pytest.mark.parametrize("call", CALLS)
    def test_capability_faults_keep_priority(self, heap, wide, call):
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, wide.clear_tag())
        assert exc.value.kind is FaultKind.TAG_VIOLATION
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, wide.and_perms(Perm.EXEC))
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    def test_access_inside_heap_still_works(self, heap, wide):
        heap.store_cap(wide, HEAP - GRANULE, wide)
        assert heap.load_cap(wide, HEAP - GRANULE) == wide
        assert heap.load(wide, HEAP - GRANULE, 4) == bytes(4)



class TestCapabilityBelowHeap:
    """A hand-built capability may reach below address 0; the heap's own
    lower bound faults it the same way, writing nothing."""

    @pytest.fixture
    def low(self):
        return Capability(True, -64, 64, 0, 0x3F)

    CALLS = {
        "store": lambda heap, cap: heap.store(cap, -8, b"\xff" * 16),
        "store_cap": lambda heap, cap: heap.store_cap(cap, -16, cap),
        "load_cap": lambda heap, cap: heap.load_cap(cap, -16),
        "load": lambda heap, cap: heap.load(cap, -8, 16),
    }
    TEXTS = {
        "store": "BoundsViolation: [-8, 8) outside [0, 4096)",
        "store_cap": "BoundsViolation: [-16, 0) outside [0, 4096)",
        "load_cap": "BoundsViolation: [-16, 0) outside [0, 4096)",
        "load": "BoundsViolation: [-8, 8) outside [0, 4096)",
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_access_below_heap_is_bounds_fault(self, heap, root, low, call):
        heap.store(root, 0, b"\x11" * 16)
        heap.store_cap(root, HEAP - GRANULE, root)
        before = heap.snapshot()
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, low)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert str(exc.value) == self.TEXTS[call]
        assert heap.snapshot() == before

    @pytest.mark.parametrize("call", CALLS)
    def test_capability_faults_keep_priority(self, heap, low, call):
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, low.clear_tag())
        assert exc.value.kind is FaultKind.TAG_VIOLATION
        with pytest.raises(CapFault) as exc:
            self.CALLS[call](heap, low.and_perms(Perm.EXEC))
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    def test_misaligned_capability_access_below_heap_is_alignment_fault(self, heap, low):
        # alignment is checked before authority, and before the heap's bounds
        for call in (lambda: heap.store_cap(low, -8, low), lambda: heap.load_cap(low, -8)):
            with pytest.raises(CapFault) as exc:
                call()
            assert exc.value.kind is FaultKind.ALIGNMENT_VIOLATION

    def test_access_inside_heap_still_works(self, heap, root, low):
        heap.store_cap(low, 0, root)
        assert heap.load_cap(low, 0) == root
        assert heap.load(low, 4, 4) == HEAP.to_bytes(4, "little")


def test_snapshot_is_data_plus_tag_bitmap(heap, root):
    heap.store(root, 0, b"\xaa")
    heap.store_cap(root, 16, root)
    snap = heap.snapshot()
    assert len(snap) == HEAP + (HEAP // GRANULE + 7) // 8
    assert snap[0] == 0xAA
    assert snap[HEAP] == 0b10  # granule 1 tagged


def _reference_snapshot(heap):
    """The layout spelled out one granule at a time."""
    bitmap = bytearray((len(heap.tags) + 7) // 8)
    for i, t in enumerate(heap.tags):
        if t:
            bitmap[i // 8] |= 1 << (i % 8)
    return bytes(heap.data) + bytes(bitmap)


@pytest.mark.parametrize("granules", [1, 7, 8, 9, 15, 17, 64, 1001, 65536])
def test_snapshot_matches_per_granule_reference(granules):
    import random

    heap = TaggedHeap(granules * GRANULE)
    root = make_root(heap.size)
    assert heap.snapshot() == _reference_snapshot(heap)
    rng = random.Random(granules)
    # the first and last granule, then a seeded scatter
    for g in {0, granules - 1, *(rng.randrange(granules) for _ in range(granules // 3))}:
        heap.store_cap(root, g * GRANULE, root)
    heap.store(root, heap.size - 1, b"\x5a")
    assert heap.snapshot() == _reference_snapshot(heap)
    heap.tags[rng.randrange(granules)] = 0xFF  # any nonzero tag byte is a set bit
    assert heap.snapshot() == _reference_snapshot(heap)

def test_clear_resets_everything(heap, root):
    heap.store(root, 0, b"\xaa" * HEAP)
    for addr in range(0, HEAP, 256):
        heap.store_cap(root, addr, root)
    heap.clear()
    assert len(heap.data) == HEAP
    assert heap.load(root, 0, HEAP) == bytes(HEAP)
    assert heap.tags == bytes(HEAP // GRANULE)


class TestClearInPlace:
    """clear() re-zeroes only the written extent, in place: whichever path
    wrote last, a cleared heap is byte for byte a fresh one, on the same
    map and tag array."""

    FRESH = TaggedHeap(HEAP).snapshot()

    def assert_cleared(self, heap, extent):
        data, tags = heap.data, heap.tags
        assert heap.extent == extent
        heap.clear()
        assert heap.snapshot() == self.FRESH
        assert heap.data is data and heap.tags is tags
        assert heap.extent == 0

    @pytest.mark.parametrize(
        "addr, length",
        [(0, 1), (10, 8), (HEAP - 40, 33), (HEAP - 5, 5), (0, HEAP)],
        ids=["first-byte", "straddle", "before-last", "last-granule", "whole"],
    )
    def test_store(self, heap, root, addr, length):
        heap.store(root, addr, b"\xff" * length)
        self.assert_cleared(heap, (addr + length - 1) // GRANULE + 1)

    @pytest.mark.parametrize("addr", [0, 48, HEAP - GRANULE])
    def test_store_cap(self, heap, root, addr):
        heap.store_cap(root, addr, root)
        self.assert_cleared(heap, addr // GRANULE + 1)

    @pytest.mark.parametrize("size", [65536 + 16, 2 * 65536 * GRANULE + 48], ids=["64k+16", "2m+48"])
    def test_extent_past_the_zero_source_is_cleared_slice_by_slice(self, size):
        # past 64 KiB the zeros come one slice at a time, the last one short;
        # the larger heap takes the sliced path for its tags too
        heap = TaggedHeap(size)
        root = make_root(size)
        heap.store(root, 0, b"\xff" * size)
        for addr in (0, 65536 - GRANULE, 65536, size // 2 // GRANULE * GRANULE, size - GRANULE):
            heap.store_cap(root, addr, root)
        data, tags = heap.data, heap.tags
        heap.clear()
        assert heap.snapshot() == bytes(size) + bytes((size // GRANULE + 7) // 8)
        assert heap.data is data and heap.tags is tags and heap.extent == 0

    def test_extent_only_grows_until_cleared(self, heap, root):
        heap.store(root, HEAP - 5, b"\xff" * 5)
        heap.store(root, 0, b"\xff")
        heap.store_cap(root, 64, root)
        self.assert_cleared(heap, HEAP // GRANULE)

    def test_refused_writes_leave_the_extent(self, heap, root):
        with pytest.raises(CapFault):
            heap.store(root.clear_tag(), 64, b"x")
        with pytest.raises(CapFault):
            heap.store_cap(root, 64, Capability(True, -1, 0, 0, 0))
        assert heap.extent == 0


class TestUnrepresentablePayload:
    """store_cap of a hand-built payload that the 16-byte layout cannot
    encode is a bounds fault, raised before any byte or tag changes (it
    used to escape as a bare ``struct.error``)."""

    @pytest.mark.parametrize(
        "payload",
        [
            Capability(True, 0, 1 << 32, 0, 0x3F),  # top outside u32
            Capability(True, 0, 64, (1 << 32) + 8, 0x3F),  # address outside u32
            Capability(True, -64, 64, 0, 0x3F),  # negative base
            Capability(False, 0, 64, -1, 0x3F),  # negative address, untagged
            Capability(True, 0, 64, 0, 0x100),  # perms above 255
            Capability(True, 0, 64, 0, -1),  # negative perms
        ],
        ids=["top", "address", "negative-base", "negative-address", "perms", "negative-perms"],
    )
    def test_is_bounds_fault_and_changes_nothing(self, heap, root, payload):
        heap.store(root, 32, b"\xab" * GRANULE)
        heap.store_cap(root, 48, root)
        before = heap.snapshot()
        for addr in (32, 48):
            with pytest.raises(CapFault) as exc:
                heap.store_cap(root, addr, payload)
            assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
        assert heap.snapshot() == before

    def test_access_faults_come_first(self, heap, root):
        with pytest.raises(CapFault) as exc:
            heap.store_cap(root.clear_tag(), 0, Capability(True, 0, 64, 0, 0x100))
        assert exc.value.kind is FaultKind.TAG_VIOLATION
        with pytest.raises(CapFault) as exc:
            heap.store_cap(root, 8, Capability(True, 0, 64, 0, 0x100))
        assert exc.value.kind is FaultKind.ALIGNMENT_VIOLATION

    def test_largest_representable_fields_still_store(self, heap, root):
        top = (1 << 32) - 1
        heap.store_cap(root, 0, Capability(True, top, top, top, 0xFF))
        assert heap.load_cap(root, 0) == Capability(True, top, top, top, 0x3F)


def watching(*units):
    """A heap that watches the 8-byte ``units`` (unit ``u`` is bytes
    ``8u..8u+7``)."""
    heap = TaggedHeap(HEAP)
    heap.set_watch(bytearray(HEAP // 8))
    for unit in units:
        heap.watch[unit] = 1
    return heap


class TestWatchedHeap:
    """The write barrier is a fuse: a store or ``store_cap`` that writes a
    watched 8-byte unit, and every ``clear``, drops the watch map; one
    that writes none keeps it.  Each boundary has its own case."""

    def test_unwatched_until_a_watch_is_set(self, root):
        heap = TaggedHeap(HEAP)
        assert heap.watch is None and heap.watch16 is None
        heap.store(root, 0, b"\xff" * 64)
        heap.store_cap(root, 64, root)
        heap.clear()
        assert heap.watch is None and heap.watch16 is None
        assert TaggedHeap(HEAP).watch is None

    def test_set_watch_sets_and_drops_the_map_and_its_view(self):
        heap = watching(9)
        assert heap.watch16[4] == 1 << 8  # unit 9 is the high half of granule 4
        heap.set_watch(None)
        assert heap.watch is None and heap.watch16 is None

    @pytest.mark.parametrize(
        "unit, dropped",
        [(4, False), (5, True), (12, True), (13, False)],
        ids=["unit-before", "first-unit", "last-unit", "unit-after"],
    )
    def test_store_drops_the_map_at_its_first_and_last_unit(self, root, unit, dropped):
        heap = watching(unit)
        heap.store(root, 40, bytes(60))  # bytes 40..99: units 5..12
        assert (heap.watch is None) == dropped
        assert (heap.watch16 is None) == dropped

    @pytest.mark.parametrize(
        "unit, addr, length, dropped",
        [
            (5, 20, 20, False),  # bytes 20..39 end in the low half of granule 2
            (5, 47, 1, True),  # the last byte of its high half
            (4, 40, 8, False),  # the whole high half; unit 4 is the low one
            (4, 39, 1, True),  # the last byte of the low half
            (4, 32, 1, True),  # its first byte
            (5, 48, 8, False),  # the next granule
        ],
        ids=["low-of-5", "high-of-5", "high-of-4", "low-end", "low-start", "next-granule"],
    )
    def test_store_tells_a_granules_halves_apart(self, root, unit, addr, length, dropped):
        heap = watching(unit)
        heap.store(root, addr, b"x" * length)
        assert (heap.watch is None) == dropped

    @pytest.mark.parametrize(
        "unit, dropped", [(7, False), (8, True), (9, True), (10, False)], ids=["7", "8", "9", "10"]
    )
    def test_store_cap_drops_the_map_at_either_unit_of_its_granule(self, root, unit, dropped):
        heap = watching(unit)
        heap.store_cap(root, 64, root)  # granule 4: units 8 and 9
        assert (heap.watch is None) == dropped

    def test_refused_store_keeps_the_map(self, root):
        heap = watching(0)
        watch = heap.watch
        with pytest.raises(CapFault):
            heap.store(root.clear_tag(), 0, b"x")
        with pytest.raises(CapFault):
            heap.store(root, HEAP - 4, b"x" * 8)
        with pytest.raises(CapFault):
            heap.store_cap(root, 0, Capability(True, -1, 0, 0, 0))
        with pytest.raises(CapFault):
            heap.store_cap(root, 8, root)
        assert heap.watch is watch and heap.watch[0] == 1

    def test_bytes_and_tags_match_a_plain_heap(self, heap, root):
        watched = watching(1, 9, 12)
        for h in (heap, watched):
            h.store(root, 10, bytes(range(40)))
            h.store_cap(root, 64, root)
            h.store(root, 70, b"\xff")
            h.store_cap(root, 96, root)
        assert watched.snapshot() == heap.snapshot()

    def test_clear_drops_the_map(self, root):
        heap = watching(1, 200)
        heap.store(root, 64, b"\xff" * 64)  # units 8..15, none watched
        assert heap.watch is not None
        heap.clear()
        assert heap.watch is None and heap.watch16 is None
        assert heap.load(root, 64, 64) == bytes(64)


# load, load_cap and store_cap test the capability in line and call
# check_access only when that test fails; store still calls it.  The sweep
# holds all four to the order before the fold: alignment (the ``*_cap``
# ops), check_access, then the heap's own bounds; and to one rule for an
# address that is no int: where that order ends in a TypeError, the
# access raises a bounds fault instead.  Each case runs once on each of
# two heaps in the same state, through the op and through
# ``reference_access``, and everything observable must match.

SWEEP_HEAP = 512
SWEEP_NEED = {
    "load": Perm.LOAD,
    "store": Perm.STORE,
    "load_cap": Perm.LOAD | Perm.LOAD_CAP,
    "store_cap": Perm.STORE | Perm.STORE_CAP,
}
SWEEP_OPS = {
    "load": lambda heap, cap, addr, length: heap.load(cap, addr, length),
    "store": lambda heap, cap, addr, payload: heap.store(cap, addr, payload),
    "load_cap": lambda heap, cap, addr, _: heap.load_cap(cap, addr),
    "store_cap": lambda heap, cap, addr, payload: heap.store_cap(cap, addr, payload),
}
# the last argument of each op: load lengths, store and store_cap payloads
SWEEP_ARGS = {
    "load": [0, -1, 1, 8, 16, 17],
    "store": [
        b"", b"\x5a", bytes(range(8)), b"\xa5" * 17, bytearray(b"ab"), memoryview(b"xyz"),
        [1, 2], "ab", 7, None,
    ],
    "load_cap": [None],
    "store_cap": [
        Capability(True, 64, 128, 80, 0x3F),
        Capability(False, 0, 16, 0, 0x01),
        Capability(True, 0, 1 << 32, 0, 0x3F),  # no 16-byte encoding
        bytes(GRANULE),  # not a capability
    ],
}
# (base, top) of the capabilities the sweep builds by hand
SWEEP_BOUNDS = [
    (0, SWEEP_HEAP),  # the whole heap
    (64, 192),
    (192, 64),  # inverted
    (-64, 64),  # negative base
    (SWEEP_HEAP - 64, SWEEP_HEAP + 64),  # top past the heap
    (96, 96),  # empty
]

# the outcomes each op's sweep must reach: every fault kind the op raises,
# the ValueError of a load length below 1 or of an empty store, the
# TypeError of a store payload that is not bytes, and the type of a value
# returned
_FAULTS = {FaultKind.TAG_VIOLATION, FaultKind.PERMISSION_VIOLATION, FaultKind.BOUNDS_VIOLATION}
SWEEP_OUTCOMES = {
    "load": {*_FAULTS, ValueError, bytes},
    "store": {*_FAULTS, ValueError, TypeError, type(None)},
    "load_cap": {*_FAULTS, FaultKind.ALIGNMENT_VIOLATION, Capability},
    "store_cap": {*_FAULTS, FaultKind.ALIGNMENT_VIOLATION, type(None)},
}


def sweep_heap() -> TaggedHeap:
    """A heap with bytes, two tagged granules and five watched units."""
    heap = TaggedHeap(SWEEP_HEAP)
    root = make_root(SWEEP_HEAP)
    heap.store(root, 0, bytes(range(200)))
    heap.store_cap(root, 32, root)
    heap.store_cap(root, SWEEP_HEAP - GRANULE, root.set_bounds(64, 64))
    heap.set_watch(bytearray(SWEEP_HEAP // 8))
    for unit in (1, 8, 9, 40, SWEEP_HEAP // 8 - 1):
        heap.watch[unit] = 1
    return heap


def reference_access(heap, op, cap, addr, arg):
    """``op`` in the order before the fold (``ordered_access``), where an
    address that is no int ends in the bounds fault instead of a
    TypeError."""
    try:
        return ordered_access(heap, op, cap, addr, arg)
    except TypeError:
        if isinstance(addr, int):
            raise
    raise CapFault(FaultKind.BOUNDS_VIOLATION, f"address {addr!r} is not an int")


def ordered_access(heap, op, cap, addr, arg):
    """``op`` in the order before the fold: the ``*_cap`` alignment test,
    ``check_access``, the heap's own bounds, and then the access through
    the root capability, which passes both checks."""
    if op == "load":
        length = arg
    elif op == "store":
        if not arg:
            raise ValueError("store payload must be non-empty")
        length = len(arg)
    else:
        if addr % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_VIOLATION, f"{op} at {addr}")
        length = GRANULE
    cap.check_access(addr, length, int(SWEEP_NEED[op]))
    if addr < 0 or addr + length > heap.size:
        heap.fault_outside(addr, length)
    return SWEEP_OPS[op](heap, make_root(heap.size), addr, arg)


def observed(heap, run):
    """What a caller can see of ``run()`` on ``heap``: the value (its type
    and repr) or the exception (type, text, fault kind), then the heap's
    snapshot, extent and watch map."""
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        result = ("raised", type(exc), str(exc), getattr(exc, "kind", None))
    else:
        result = ("value", type(value), repr(value), None)
    watch = None if heap.watch is None else bytes(heap.watch)
    return result, heap.snapshot(), heap.extent, watch


def sweep_addresses(base, top, length):
    """Addresses at and just past each end of the capability and of the
    heap, misaligned ones, and addresses that are not ints: floats inside
    and below the heap, a misaligned float, a str and None."""
    ends = (base - GRANULE, base - 1, base, base + 1, base + 8, top - length, top - length + 1)
    heap_ends = (-GRANULE, SWEEP_HEAP - length, SWEEP_HEAP - length + 1, top, 1 << 40)
    return (*ends, *heap_ends, 16.0, 16.5, -16.0, "16", None)


def sweep_cases(op):
    """(capability, address, argument) for ``op``: every permission subset,
    as an int and as a ``Perm``, tagged and untagged, at a random edge;
    then every bounds shape, argument and edge address, tagged."""
    rng = random.Random(f"inline check sweep {op}")

    def length_of(arg):
        if op == "load":
            return arg
        if op == "store":
            return len(arg) if hasattr(arg, "__len__") and arg else 1
        return GRANULE

    for tag in (True, False):
        for bits in range(64):
            for perms in (bits, Perm(bits)):
                base, top = rng.choice(SWEEP_BOUNDS)
                arg = rng.choice(SWEEP_ARGS[op])
                addr = rng.choice(sweep_addresses(base, top, length_of(arg)))
                yield Capability(tag, base, top, base, perms), addr, arg
    for base, top in SWEEP_BOUNDS:
        for arg in SWEEP_ARGS[op]:
            for addr in sweep_addresses(base, top, length_of(arg)):
                perms = rng.choice([0x3F, int(SWEEP_NEED[op]), PERM_ALL])
                yield Capability(True, base, top, rng.randrange(SWEEP_HEAP), perms), addr, arg


@pytest.mark.parametrize("op", SWEEP_OPS)
def test_inline_check_acts_as_check_access(op):
    """Each case matches ``reference_access``; a refused access changes
    no byte, tag, extent or watch byte; and an address that is no int
    never escapes as a TypeError (only a store payload that is not bytes,
    at an int address, still does)."""
    kinds = set()
    untouched = observed(sweep_heap(), lambda: None)[1:]
    for cap, addr, arg in sweep_cases(op):
        heap, ref = sweep_heap(), sweep_heap()
        got = observed(heap, lambda: SWEEP_OPS[op](heap, cap, addr, arg))
        want = observed(ref, lambda: reference_access(ref, op, cap, addr, arg))
        assert got == want, (op, cap, addr, arg)
        if got[0][0] == "raised":
            assert got[1:] == untouched, (op, cap, addr, arg)
            assert got[0][1] is not TypeError or isinstance(addr, int), (op, cap, addr, arg)
        kinds.add(got[0][3] or got[0][1])
    assert kinds >= SWEEP_OUTCOMES[op]


@pytest.mark.parametrize("op", SWEEP_OPS)
def test_permission_mask_that_is_no_int_escapes_as_type_error(op):
    # the one outcome the sweep leaves out: the in-line test raises where
    # check_access did, with the text for ``&`` instead of ``~``
    heap = sweep_heap()
    before = heap.snapshot()
    arg = {"load": 8, "store": b"x", "load_cap": None, "store_cap": make_root(SWEEP_HEAP)}[op]
    for perms in (15.0, None):
        with pytest.raises(TypeError):
            SWEEP_OPS[op](heap, Capability(True, 0, SWEEP_HEAP, 0, perms), 16, arg)
    assert heap.snapshot() == before and heap.watch is not None


# A grid runs its rows over one heap and leaves it, cleared, in
# ``harness._spare`` for the next grid, next to the instances built over
# it.  These tests hold that heap to what a new one is: all zero, no
# extent and no watch map, never shared with another thread or process.

FRESH_GRID_SNAPSHOT = bytes(DEFAULT_HEAP_SIZE) + bytes(DEFAULT_HEAP_SIZE // 128)


def _write_last_granule(alloc):
    heap = alloc.heap
    heap.store(alloc.region, heap.size - 5, b"\xff" * 5)
    assert heap.extent == heap.size // GRANULE


def _tag_by_store_cap(alloc):
    heap = alloc.heap
    heap.store_cap(alloc.region, 0, alloc.region)
    heap.store_cap(alloc.region, heap.size - GRANULE, alloc.region)
    assert heap.tags[0] == heap.tags[-1] == 1


def _free_list_header_at_the_end(alloc):
    # a split leaves the remainder's header as close to the end as it goes
    size = alloc.heap.size
    alloc.reset()
    alloc.malloc(size - 48)
    assert alloc._free_list == [size - 40]
    assert alloc.heap.extent == (size - 40) // GRANULE + 1


def _free_list_indexed(alloc):
    alloc.reset()
    blocks = [alloc.malloc(16) for _ in range(100)]
    for cap in blocks:
        alloc.free(cap)
    alloc.malloc(1000)  # scans past the 100 small chunks and starts the index
    assert alloc.heap.watch is not None


class TestSpareHeapIsFresh:
    @pytest.mark.parametrize(
        "dirty",
        [_write_last_granule, _tag_by_store_cap, _free_list_header_at_the_end, _free_list_indexed],
        ids=["last-granule", "store-cap-tag", "free-list-end-header", "free-list-indexed"],
    )
    def test_next_heap_snapshots_as_never_used(self, monkeypatch, dirty):
        # the grid's last probe leaves its heap dirty in the way given
        probe = ATTACKS["A5"]
        ran = []

        def dirtying(t):
            decision = probe(t)
            dirty(t.alloc)
            assert t.alloc.heap.snapshot() != FRESH_GRID_SNAPSHOT
            ran.append(t.alloc.traits().name)
            return decision

        monkeypatch.setitem(ATTACKS, "A5", dirtying)
        assert run_matrix(rows=["jemalloc"]).cells == (EXPECTED_MATRIX.row("jemalloc"),)
        assert ran == ["jemalloc"]  # the dirtying body ran, and to its end
        ((spare, _),) = harness._spare
        assert spare.snapshot() == FRESH_GRID_SNAPSHOT
        assert spare.extent == 0 and spare.watch is None
        monkeypatch.undo()
        assert run_matrix() == EXPECTED_MATRIX
        assert harness._spare[0][0] is spare

    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    def test_each_row_leaves_a_never_used_spare(self, monkeypatch, name):
        # each engine writes the heap its own way (bump extent, slab
        # headers, free lists, tags); the grid's heap must read as a
        # never-used one after any single row
        wrote = []

        def recording(probe):
            def run(t):
                decision = probe(t)
                wrote.append(t.alloc.heap.snapshot() != FRESH_GRID_SNAPSHOT)
                return decision

            return run

        for attack, probe in list(ATTACKS.items()):
            monkeypatch.setitem(ATTACKS, attack, recording(probe))
        assert run_matrix(rows=[name]).cells == (EXPECTED_MATRIX.row(name),)
        # each recording body ran, and the row did write its heap
        assert len(wrote) == 5 and any(wrote)
        ((spare, _),) = harness._spare
        assert spare.snapshot() == FRESH_GRID_SNAPSHOT
        assert spare.extent == 0 and spare.watch is None

    def test_threads_only_get_zeroed_heaps(self):
        # more threads than cores, switching often, each running restricted
        # grids: a heap two grids shared would change some grid's outcomes
        threads_n = (os.cpu_count() or 1) + 2
        failures = []

        def work(k):
            try:
                for i in range(40):
                    names = [ALLOCATOR_NAMES[(k + i) % 7], ALLOCATOR_NAMES[(3 * k + i) % 7]]
                    matrix = run_matrix(rows=names)
                    if matrix.cells != tuple(map(EXPECTED_MATRIX.row, matrix.names)):
                        failures.append((k, i, names))
                    if len(harness._spare) > 1:
                        failures.append((k, i, "spare"))
            except BaseException as exc:  # reported below, not lost in the thread
                failures.append((k, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(harness._spare) == 1


class TestNoMapChurn:
    """Map creations, counted: a grid, the CLI and interpreter shutdown."""

    @pytest.fixture
    def maps(self, monkeypatch):
        made = []

        def counting(*args, **kwargs):
            made.append(args)
            return mmap.mmap(*args, **kwargs)

        monkeypatch.setattr(tagged_memory, "mmap", SimpleNamespace(mmap=counting))
        return made

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_processes_share_no_heap_bytes(self):
        # the parent runs a grid, which leaves the spare, and holds a live
        # heap, then forks; the child runs a grid and writes both heaps; the
        # parent's spare and live heap must not see those bytes
        script = (
            "import os\n"
            "from capheap import harness\n"
            "from capheap.harness import EXPECTED_MATRIX, run_matrix\n"
            "from capheap.tagged_memory import TaggedHeap\n"
            "from capheap.capability import make_root\n"
            "root = make_root(4096)\n"
            "assert run_matrix() == EXPECTED_MATRIX\n"
            "((spare, _),) = harness._spare\n"
            "fresh = spare.snapshot()\n"
            "live = TaggedHeap(4096)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = run_matrix() == EXPECTED_MATRIX and harness._spare[0][0] is spare\n"
            "    spare.store(root, 0, b'child!')\n"
            "    live.store(root, 0, b'child!')\n"
            "    os._exit(0 if ok else 3)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0, 'child'\n"
            "assert spare.snapshot() == fresh, 'spare shared'\n"
            "assert live.load(root, 0, 6) == bytes(6), 'live heap shared'\n"
            "assert run_matrix() == EXPECTED_MATRIX, 'grid'\n"
            "assert harness._spare[0][0] is spare, 'not reused'\n"
            "assert spare.load(root, 0, 6) == bytes(6), 'spare written'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(capheap.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stderr) == (0, "")

    def test_grids_after_a_warm_up_map_nothing(self, maps):
        run_matrix()
        maps.clear()
        run_matrix()
        run_matrix(rows=["jemalloc", "bump-alloc-cheri", "snmalloc-repo"])
        assert maps == []

    def test_cli_matrix_maps_one_heap(self, maps, capsys):
        harness._spare.clear()
        assert main(["matrix", "--expect"]) == 0
        assert len(maps) == 1  # the grid's one heap, which every row reuses

    def test_shutdown_is_silent_in_dev_mode(self):
        # a heap whose __init__ raised, heaps dropped before exit, heaps
        # alive at exit (in a cycle, with their map held, and one held by
        # a module global that shutdown clears after the module's own)
        script = (
            "from capheap import create, tagged_memory\n"
            "from capheap.tagged_memory import TaggedHeap\n"
            "from capheap.capability import make_root\n"
            "try:\n"
            "    TaggedHeap(24)\n"
            "except ValueError:\n"
            "    pass\n"
            "for _ in range(3):\n"
            "    create('jemalloc').malloc(64)\n"
            "alive = [create(name) for name in ('bump-alloc-cheri', 'jemalloc', 'snmalloc-repo')]\n"
            "held = TaggedHeap(4096)\n"
            "data = held.data\n"
            "cycle = TaggedHeap(4096)\n"
            "cycle.me = cycle\n"
            "cycle.store_cap(make_root(4096), 0, make_root(4096))\n"
            "tagged_memory.kept = TaggedHeap(4096)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(capheap.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, "")
