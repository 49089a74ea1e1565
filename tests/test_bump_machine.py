"""Stateful guard for the bump engine on both bump configurations.

Hypothesis drives mallocs, frees, re-frees, reallocs, writes through
live and stale capabilities, frees aimed inside a block, frees through
a capability narrowed to the block, and resets.  The bump engine has no
headers to forge; the stale-capability attack it can suffer is a write
after free, which never reaches a live block because no byte is ever
handed out twice.

Every malloc, including one that takes exactly the room left, must
land at the model's cursor (or run out exactly when the rounded request
passes the heap's end) with the configured bounds
and permissions.  After every step the engine's cursor and allocation
log must equal the model's, the blocks the client holds must be
disjoint, and each must still hold the bytes last written to it.

A variant runs with ``rounding_bounds=True`` over a heap whose end is
not 32-byte aligned: a request whose rounded top passes the heap's end
must fault before the cursor moves.
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

from capheap.allocator_api import AllocError, AllocErrorKind, FreeValidation, round16
from capheap.capability import ROUNDING_MANTISSA_BITS, ROUNDING_THRESHOLD, CapFault, FaultKind
from capheap.registry import TRAITS, create
from stateful_settings import STATEFUL

HEAP = 8192  # small enough that the cursor reaches the end
SIZES = st.one_of(st.integers(1, 64), st.integers(1, 1024))
INDEX = st.integers(0, 1 << 16)


def rounded(base, length):
    """The bounds a client capability for [base, base + length) gets
    with rounding on."""
    if length <= ROUNDING_THRESHOLD:
        return base, base + length
    align = 1 << ((length - 1).bit_length() - ROUNDING_MANTISSA_BITS)
    return base // align * align, -(-(base + length) // align) * align


class BumpMachine(RuleBasedStateMachine):
    config = "bump-alloc-cheri"
    heap_size = HEAP
    rounding = False

    def __init__(self):
        super().__init__()
        self.alloc = create(self.config, heap_size=self.heap_size, rounding_bounds=self.rounding)
        traits = TRAITS[self.config]
        self.narrow = traits.narrow_bounds
        self.logs = traits.free_validation is FreeValidation.ALLOC_LOG
        self.fresh = self.alloc.heap.snapshot()  # the heap as a fresh instance has it
        self.reset_model()

    def reset_model(self):
        self.cursor = 0
        self.log = {}  # base -> [length, freed], as the engine keeps it
        self.blocks = {}  # base -> length of every block handed out
        self.live = []  # capabilities the client holds
        self.stale = []  # capabilities of blocks freed or moved since
        self.contents = {}  # block base -> bytes last written there

    def pick(self, pool, index):
        return pool[index % len(pool)]

    def length(self, cap):
        """The length of the block ``cap`` was handed out for."""
        return self.blocks[cap.address]

    def bounds(self, start, length):
        """The bounds of the client capability for a block."""
        if not self.narrow:
            return 0, self.heap_size
        return rounded(start, length) if self.rounding else (start, start + length)

    def refused(self, exc, start, length):
        """A malloc (or a realloc's) refused: out of memory, or a rounded
        top past the heap's end, before the cursor moved."""
        if isinstance(exc, CapFault):
            assert exc.kind is FaultKind.MONOTONICITY_VIOLATION
            assert start + length <= self.heap_size < self.bounds(start, length)[1]
        else:
            assert exc.kind is AllocErrorKind.OUT_OF_MEMORY
            assert start + length > self.heap_size

    def expect_free(self, cap):
        """What free(cap) must raise, or None; updates the log model."""
        if not self.logs:
            return None
        record = self.log.get(cap.address)
        if record is None:
            return AllocErrorKind.INVALID_FREE
        if record[1]:
            return AllocErrorKind.DOUBLE_FREE
        record[1] = True
        return None

    def handed_out(self, cap, start, length):
        """Check a fresh block's capability and enter it in the model."""
        assert start + length <= self.heap_size
        assert (cap.tag, cap.base, cap.top, cap.address) == (True, *self.bounds(start, length), start)
        assert cap.perms == self.alloc._client_perms
        self.cursor += length
        self.blocks[start] = length
        if self.logs:
            self.log[start] = [length, False]
        self.live.append(cap)

    def free_through(self, cap):
        expected = self.expect_free(cap)
        try:
            self.alloc.free(cap)
        except AllocError as exc:
            assert exc.kind is expected
            return False
        assert expected is None
        return True

    @rule(size=SIZES)
    def malloc(self, size):
        start, length = self.cursor, round16(size)
        try:
            cap = self.alloc.malloc(size)
        except (AllocError, CapFault) as exc:
            self.refused(exc, start, length)
            return
        self.handed_out(cap, start, length)
        self.contents[start] = bytes(length)

    @precondition(lambda self: self.cursor < self.heap_size)
    @rule(short=st.integers(0, 15))
    def malloc_the_rest(self, short):
        """A request that rounds up to exactly the room left."""
        self.malloc(max(1, self.heap_size - self.cursor - short))

    @precondition(lambda self: self.live)
    @rule(index=INDEX)
    def free(self, index):
        cap = self.pick(self.live, index)
        assert self.free_through(cap)
        self.live.remove(cap)
        self.stale.append(cap)
        del self.contents[cap.address]

    @precondition(lambda self: self.stale)
    @rule(index=INDEX)
    def refree(self, index):
        self.free_through(self.pick(self.stale, index))

    @precondition(lambda self: self.live)
    @rule(index=INDEX, size=SIZES)
    def realloc(self, index, size):
        cap = self.pick(self.live, index)
        old = self.contents[cap.address]
        start, length = self.cursor, round16(size)
        try:
            new = self.alloc.realloc(cap, size)
        except (AllocError, CapFault) as exc:
            self.refused(exc, start, length)
            return
        if self.logs:
            self.log[cap.address][1] = True
        self.live.remove(cap)
        self.stale.append(cap)
        del self.contents[cap.address]
        self.handed_out(new, start, length)
        kept = old[:size]
        self.contents[start] = kept + bytes(length - len(kept))

    @precondition(lambda self: self.stale)
    @rule(index=INDEX, size=SIZES)
    def realloc_stale(self, index, size):
        """A realloc through a stale capability: the log refuses it before
        the cursor moves; without a log it copies the freed bytes."""
        cap = self.pick(self.stale, index)
        if self.logs:
            with pytest.raises(AllocError) as exc:
                self.alloc.realloc(cap, size)
            assert exc.value.kind is AllocErrorKind.DOUBLE_FREE
            return
        old = self.alloc.heap.load(cap, cap.address, cap.length)
        start, length = self.cursor, round16(size)
        try:
            new = self.alloc.realloc(cap, size)
        except (AllocError, CapFault) as exc:
            self.refused(exc, start, length)
            return
        self.handed_out(new, start, length)
        kept = old[:size]
        self.contents[start] = kept + bytes(length - len(kept))

    @precondition(lambda self: self.live or self.stale)
    @rule(index=INDEX, fill=st.integers(0, 255), stale=st.booleans())
    def write(self, index, fill, stale):
        """Fill a block through its capability; a stale one writes after
        free, over bytes no live block can hold."""
        pool = self.stale if stale and self.stale else self.live or self.stale
        cap = self.pick(pool, index)
        length = self.length(cap)
        self.alloc.heap.store(cap, cap.address, bytes([fill]) * length)
        if cap in self.live:
            self.contents[cap.address] = bytes([fill]) * length

    @precondition(lambda self: self.live)
    @rule(index=INDEX, offset=st.integers(1, 1 << 16))
    def interior_free(self, index, offset):
        cap = self.pick(self.live, index)
        inside = cap.address + 1 + (offset - 1) % (self.length(cap) - 1)
        self.free_through(cap.set_address(inside))

    @precondition(lambda self: self.live)
    @rule(index=INDEX)
    def narrowed_free(self, index):
        """A free through a capability cut down to the block behaves as
        a free through the block's own capability."""
        cap = self.pick(self.live, index)
        narrowed = cap.set_bounds(cap.address, self.length(cap))
        assert self.free_through(narrowed)
        self.live.remove(cap)
        self.stale.append(cap)
        del self.contents[cap.address]

    @precondition(lambda self: len(self.live) + len(self.stale) >= 4)
    @rule()
    def reset(self):
        self.alloc.reset()
        assert self.alloc.heap.snapshot() == self.fresh
        self.reset_model()

    @invariant()
    def cursor_and_log_match_the_model(self):
        assert self.alloc._cursor == self.cursor
        assert self.alloc._log == (self.log if self.logs else None)

    @invariant()
    def live_blocks_are_disjoint(self):
        spans = sorted((cap.address, cap.address + self.length(cap)) for cap in self.live)
        for (_, top), (base, _) in zip(spans, spans[1:]):
            assert top <= base

    @invariant()
    def live_blocks_keep_their_bytes(self):
        for cap in self.live:
            data = self.contents[cap.address]
            assert self.alloc.heap.load(cap, cap.address, len(data)) == data


def run_machine(config, **attrs):
    machine = type(f"BumpMachine[{config}]", (BumpMachine,), {"config": config, **attrs})
    run_state_machine_as_test(machine, settings=STATEFUL)


@pytest.mark.parametrize("config", ["bump-alloc-cheri", "bump-alloc-nocheri"])
def test_bump_state_machine(config):
    run_machine(config)


def test_bump_state_machine_rounding():
    """Bounds rounding on, over a heap 16 bytes past a power of two."""
    run_machine("bump-alloc-cheri", rounding=True, heap_size=HEAP + 16)
