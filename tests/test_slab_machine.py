"""Stateful guard for the slab engine on both slab configurations.

Hypothesis drives mallocs, frees, grow-reallocs, interior-address frees,
frees outside every slab and resets.  After every step the slot bits
must equal the union of the live records, each class's open-slab map
must agree with its slabs, and the blocks the client holds must be
disjoint.  Every malloc is checked against a brute-force scan over
``occupancy()``: the lowest clear slot of the lowest slab of the class
in carve order, or slot 0 of a newly carved slab.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from capheap.allocator_api import AllocError, AllocErrorKind
from capheap.engines import SLAB_SIZE, SlabAllocator
from capheap.registry import TRAITS, create
from stateful_settings import STATEFUL

SLABS = 8  # small enough that carving runs out
# small classes share slabs, the 4096 class fills one slab per block
SIZES = st.one_of(
    st.integers(1, 16), st.integers(1, 64), st.integers(2049, 4096), st.integers(1, 4096)
)
GROWTH = st.one_of(st.integers(1, 48), st.integers(1, 4096))


class SlabMachine(RuleBasedStateMachine):
    config = "snmalloc-repo"

    def __init__(self):
        super().__init__()
        self.alloc = create(self.config, heap_size=SLABS * SLAB_SIZE)
        self.fresh = self.alloc.heap.snapshot()  # the heap as a fresh instance has it
        self.deferred = TRAITS[self.config].deferred_free
        self.reset_model()

    def reset_model(self):
        self.live = []  # capabilities the client holds
        self.slab_class = []  # class of each carved slab, by index
        self.pending = set()  # bases of queued frees (deferred only)

    def carved(self, cap):
        """Record the class of a slab the first time a block lands in it."""
        idx = cap.base // SLAB_SIZE
        if idx == len(self.slab_class):
            self.slab_class.append(SlabAllocator.size_class(cap.length))
        assert idx < len(self.slab_class)

    def expected_address(self, cls, got):
        """Brute force: the first slot of class ``cls`` in carve order that
        is clear (``got`` counts as clear: malloc has just taken it)."""
        for idx, slab_cls in enumerate(self.slab_class):
            if slab_cls != cls:
                continue
            for addr in range(idx * SLAB_SIZE, (idx + 1) * SLAB_SIZE, cls):
                if addr == got or not self.alloc.occupancy(addr):
                    return addr
        return len(self.slab_class) * SLAB_SIZE  # a new slab, slot 0

    def applied(self):
        """A malloc or realloc has begun: the queue is flushed."""
        self.pending.clear()

    def pick(self, index):
        return self.live[index % len(self.live)]

    @rule(size=SIZES)
    def malloc(self, size):
        cls = SlabAllocator.size_class(size)
        try:
            cap = self.alloc.malloc(size)
        except AllocError as exc:
            self.applied()
            assert exc.kind is AllocErrorKind.OUT_OF_MEMORY
            assert len(self.slab_class) == SLABS
            assert self.expected_address(cls, None) == SLABS * SLAB_SIZE
            return
        self.applied()
        assert cap.address == self.expected_address(cls, cap.address)
        assert cap.length == cls
        self.carved(cap)
        self.live.append(cap)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 1 << 16))
    def free(self, index):
        cap = self.pick(index)
        self.live.remove(cap)
        self.alloc.free(cap)
        if self.deferred:
            self.pending.add(cap.base)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 1 << 16), grow=GROWTH)
    def grow_realloc(self, index, grow):
        cap = self.pick(index)
        try:
            new = self.alloc.realloc(cap, min(4096, cap.length + grow))
        except AllocError as exc:
            self.applied()
            assert exc.kind is AllocErrorKind.OUT_OF_MEMORY
            return
        self.applied()
        self.carved(new)
        self.live[self.live.index(cap)] = new

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 1 << 16), offset=st.integers(1, 4095))
    def interior_free(self, index, offset):
        cap = self.pick(index)
        offset = 1 + (offset - 1) % (cap.length - 1)
        cls = self.slab_class[cap.base // SLAB_SIZE]
        frees_block = offset < cls  # the address maps to the block's slot
        try:
            self.alloc.free(cap.set_address(cap.base + offset))
        except AllocError as exc:
            assert not self.deferred and not frees_block
            assert exc.kind is AllocErrorKind.INVALID_FREE
            return
        assert self.deferred or frees_block
        if frees_block:
            self.live.remove(cap)
            if self.deferred:
                self.pending.add(cap.base)

    @rule(slot=st.integers(0, 1 << 16))
    def free_outside_every_slab(self, slot):
        carved_end = len(self.slab_class) * SLAB_SIZE
        addr = carved_end + slot * 16
        try:
            self.alloc.free(self.alloc.region.set_address(addr))
        except AllocError as exc:
            assert not self.deferred
            assert exc.kind is AllocErrorKind.INVALID_FREE
        else:
            assert self.deferred

    @precondition(lambda self: len(self.slab_class) >= 2)
    @rule()
    def reset(self):
        self.alloc.reset()
        assert self.alloc.heap.snapshot() == self.fresh
        self.reset_model()

    @invariant()
    def slot_bits_are_the_live_records(self):
        records = self.alloc._live
        expected = {slab.offset: bytearray(len(slab.bits)) for slab in self.alloc._slabs}
        for addr, (slab, slot, nslots) in records.items():
            assert addr == slab.offset + slot * slab.cls
            assert expected[slab.offset][slot : slot + nslots] == bytes(nslots)
            expected[slab.offset][slot : slot + nslots] = b"\x01" * nslots
        for slab in self.alloc._slabs:
            assert slab.bits == expected[slab.offset]
            assert self.alloc._open[slab.cls][slab.index] == (0 in slab.bits)
        assert set(records) == {cap.base for cap in self.live} | self.pending

    @invariant()
    def live_blocks_are_disjoint(self):
        spans = sorted((cap.base, cap.top) for cap in self.live)
        for (_, top), (base, _) in zip(spans, spans[1:]):
            assert top <= base


@pytest.mark.parametrize("config", ["snmalloc-cheribuild", "snmalloc-repo"])
def test_slab_state_machine(config):
    machine = type(f"SlabMachine[{config}]", (SlabMachine,), {"config": config})
    run_state_machine_as_test(machine, settings=STATEFUL)
