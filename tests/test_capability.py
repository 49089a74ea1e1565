import random

import pytest
from hypothesis import given, strategies as st

from capheap.capability import (
    PERM_ALL,
    PERM_NONE,
    CapFault,
    Capability,
    FaultKind,
    Perm,
    _derive,
    make_root,
)

HEAP = 64 * 1024


@pytest.fixture
def root():
    return make_root(HEAP)


class TestMakeRoot:
    def test_definition(self):
        c = make_root(65536)
        assert c == Capability(True, 0, 65536, 0, PERM_ALL)

    def test_minimum_heap(self):
        c = make_root(16)
        assert c.tag and c.base == 0 and c.top == 16

    @pytest.mark.parametrize("bad", [0, 15, -16, 17, 100, 1 << 32])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            make_root(bad)


class TestSetBounds:
    def test_containment_arithmetic(self, root):
        c = root.set_bounds(128, 64)
        assert (c.base, c.top, c.address, c.tag) == (128, 192, 128, True)

    def test_identity_case(self, root):
        c = root.set_bounds(root.base, root.top - root.base)
        assert (c.base, c.top) == (root.base, root.top)

    def test_escaping_parent_faults(self, root):
        child = root.set_bounds(128, 64)
        with pytest.raises(CapFault) as exc:
            child.set_bounds(100, 64)
        assert exc.value.kind is FaultKind.MONOTONICITY_VIOLATION

    def test_untagged_parent_faults(self, root):
        with pytest.raises(CapFault) as exc:
            root.clear_tag().set_bounds(0, 16)
        assert exc.value.kind is FaultKind.TAG_VIOLATION

    def test_exact_bounds_by_default(self, root):
        c = root.set_bounds(16, 8192)
        assert c.top - c.base == 8192

    def test_rounding_mode_pads_large_lengths(self):
        root = make_root(1 << 20)
        # alignment for a 5000-byte request: 2^(ceil(log2 5000) - 8) = 32
        c = root.set_bounds(100, 5000, rounding=True)
        assert c.base == 96
        assert c.top == 5120
        assert c.address == 100
        assert c.base <= 100 and c.top >= 5100

    def test_rounding_below_threshold_is_exact(self, root):
        c = root.set_bounds(100, 4096, rounding=True)
        assert (c.base, c.top) == (100, 4196)

    def test_rounding_escape_faults(self):
        root = make_root(1 << 20)
        parent = root.set_bounds(16, 8192)
        with pytest.raises(CapFault) as exc:
            parent.set_bounds(16, 8192, rounding=True)
        assert exc.value.kind is FaultKind.MONOTONICITY_VIOLATION


NO_INTS = (0.5, 16.0, -1.5, float("nan"), float("inf"), "0", "16", "", None)


def test_seeded_sweep_of_bounds_that_are_no_int(root):
    """A base or length that is no int faults with BOUNDS_VIOLATION naming
    the value, before any other check and with nothing built: an int
    and a non-int of equal value would otherwise give the same trace
    text (``describe`` formats with ``%d``) for unequal capabilities."""
    rng = random.Random(23)
    parents = (root, root.set_bounds(128, 8192), root.clear_tag())
    for _ in range(300):
        parent = rng.choice(parents)
        good = (rng.choice((0, 128, 4096)), rng.choice((-1, 0, 16, 5000, HEAP * 2)))
        bad = rng.choice(NO_INTS)
        which = rng.randrange(3)  # 0: base, 1: length, 2: both
        base = bad if which != 1 else good[0]
        length = bad if which != 0 else good[1]
        field = "length" if which == 1 else "base"  # the first checked
        rounding = rng.random() < 0.5
        for derive in (
            lambda: parent.set_bounds(base, length, rounding=rounding),
            lambda: _derive(parent, base, length, 0, parent.perms, rounding),
        ):
            with pytest.raises(CapFault) as exc:
                derive()
            assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
            assert exc.value.detail == f"{field} {bad!r} is not an int"


class TestSetAddress:
    def test_moves_cursor_only(self, root):
        c = root.set_address(40)
        assert c.address == 40
        assert (c.base, c.top, c.tag, c.perms) == (root.base, root.top, True, PERM_ALL)

    def test_out_of_bounds_cursor_is_legal(self, root):
        child = root.set_bounds(128, 64)
        roaming = child.set_address(child.top)
        assert roaming.tag and roaming.address == child.top

    def test_tag_untouched_on_untagged(self, root):
        c = root.clear_tag().set_address(5)
        assert not c.tag and c.address == 5

    @pytest.mark.parametrize("address", [-1, 1 << 32])
    def test_cursor_outside_32_bits_is_refused(self, root, address):
        with pytest.raises(ValueError, match=f"^address {address} outside 32-bit range$"):
            root.set_address(address)

    @pytest.mark.parametrize("address", NO_INTS, ids=repr)
    def test_address_that_is_no_int_faults(self, root, address):
        # as a heap access at such an address does, on any parent: an
        # int-valued float would otherwise build a capability whose
        # trace text (``%d``) names another one
        for parent in (root, root.set_bounds(128, 64), root.clear_tag()):
            with pytest.raises(CapFault) as exc:
                parent.set_address(address)
            assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
            assert exc.value.detail == f"address {address!r} is not an int"


class TestAndPerms:
    def test_intersection(self, root):
        c = root.and_perms(Perm.LOAD | Perm.STORE)
        assert c.perms == Perm.LOAD | Perm.STORE

    def test_identity(self, root):
        assert root.and_perms(PERM_ALL) == root

    def test_disjoint_masks_to_empty(self, root):
        c = root.and_perms(Perm.LOAD).and_perms(Perm.STORE)
        assert c.perms == PERM_NONE

    @pytest.mark.parametrize("mask", NO_INTS, ids=repr)
    def test_mask_that_is_no_int_faults(self, root, mask):
        # a float's ``&`` would hand back NotImplemented as the mask
        for parent in (root, root.set_bounds(128, 64), root.clear_tag()):
            with pytest.raises(CapFault) as exc:
                parent.and_perms(mask)
            assert exc.value.kind is FaultKind.PERMISSION_VIOLATION
            assert exc.value.detail == f"mask {mask!r} is not an int"


class TestClearTag:
    def test_clears(self, root):
        c = root.clear_tag()
        assert not c.tag
        assert c._replace(tag=True) == root

    def test_idempotent(self, root):
        assert root.clear_tag().clear_tag() == root.clear_tag()

    def test_gates_access(self, root):
        with pytest.raises(CapFault) as exc:
            root.clear_tag().check_access(root.base, 1, Perm.LOAD)
        assert exc.value.kind is FaultKind.TAG_VIOLATION


class TestCheckAccess:
    def test_root_allows_load(self, root):
        assert root.check_access(0, 16, Perm.LOAD) is None

    def test_straddling_top_faults(self, root):
        c = root.set_bounds(128, 64)
        with pytest.raises(CapFault) as exc:
            c.check_access(190, 4, Perm.LOAD)
        assert exc.value.kind is FaultKind.BOUNDS_VIOLATION

    def test_tag_outranks_bounds(self, root):
        c = root.set_bounds(128, 64).clear_tag()
        with pytest.raises(CapFault) as exc:
            c.check_access(0, 1, Perm.LOAD)
        assert exc.value.kind is FaultKind.TAG_VIOLATION

    def test_permission_outranks_bounds(self, root):
        c = root.set_bounds(128, 64).and_perms(Perm.STORE)
        with pytest.raises(CapFault) as exc:
            c.check_access(0, 1, Perm.LOAD)
        assert exc.value.kind is FaultKind.PERMISSION_VIOLATION

    def test_zero_length_rejected(self, root):
        with pytest.raises(ValueError):
            root.check_access(0, 0, Perm.LOAD)

    def test_pure(self, root):
        before = root
        root.check_access(0, 8, Perm.LOAD)
        assert root == before


# Monotonicity over random derivation chains.  Each step either narrows
# bounds, drops permissions, moves the cursor, or clears the tag; every
# tagged descendant must stay inside the root's bounds and permissions.

_steps = st.lists(
    st.tuples(
        st.sampled_from(["bounds", "perms", "address", "clear"]),
        st.integers(0, HEAP),
        st.integers(0, HEAP // 4),
    ),
    max_size=32,
)


@given(_steps)
def test_derivation_chain_is_monotonic(steps):
    root = make_root(HEAP)
    cap = root
    for kind, a, b in steps:
        try:
            if kind == "bounds":
                cap = cap.set_bounds(a, b)
            elif kind == "perms":
                cap = cap.and_perms(Perm(a & 0x3F))
            elif kind == "address":
                cap = cap.set_address(a)
            else:
                cap = cap.clear_tag()
        except CapFault:
            continue
        if cap.tag:
            assert root.base <= cap.base and cap.top <= root.top
        assert (cap.perms & PERM_ALL) == cap.perms
        assert (cap.perms & root.perms) == cap.perms


@given(_steps)
def test_tag_never_resurrected(steps):
    cap = make_root(HEAP).clear_tag()
    for kind, a, b in steps:
        try:
            if kind == "bounds":
                cap = cap.set_bounds(a, b)
            elif kind == "perms":
                cap = cap.and_perms(Perm(a & 0x3F))
            elif kind == "address":
                cap = cap.set_address(a)
            else:
                cap = cap.clear_tag()
        except CapFault:
            continue
        assert not cap.tag
