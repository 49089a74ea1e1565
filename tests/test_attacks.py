import pytest

from capheap.allocator_api import AllocatorTraits, FreeValidation
from capheap.attacks import (
    ATTACK_IDS,
    ATTACKS,
    Outcome,
    Tape,
    a1_use_after_free,
    a2_realloc_widening,
    a4_double_free,
    predicted_row,
    replay_trace,
)
from capheap.capability import CapFault, FaultKind
from capheap.engines import BumpAllocator
from capheap.harness import EXPECTED_MATRIX
from capheap.registry import ALLOCATOR_NAMES, TRAITS, create
from capheap.tagged_memory import TaggedHeap


class TestOutcome:
    def test_glyphs(self):
        assert Outcome.SUCCEEDS.glyph == "✓"
        assert Outcome.THWARTED.glyph == "×"
        assert Outcome.NOT_APPLICABLE.glyph == "⊘"

    def test_token_round_trip(self):
        for o in Outcome:
            assert Outcome.from_token(o.token) is o

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            Outcome.from_token("X")


class TestProbeExamples:
    def test_a1_bump_cheri_succeeds(self):
        assert a1_use_after_free(create("bump-alloc-cheri")).outcome is Outcome.SUCCEEDS

    def test_a1_snmalloc_repo_succeeds(self):
        assert a1_use_after_free(create("snmalloc-repo")).outcome is Outcome.SUCCEEDS

    def test_a2_bump_nocheri_not_applicable(self):
        report = a2_realloc_widening(create("bump-alloc-nocheri"))
        assert report.outcome is Outcome.NOT_APPLICABLE
        assert report.note == "no bounds narrowing"

    def test_a2_bump_cheri_thwarted(self):
        assert a2_realloc_widening(create("bump-alloc-cheri")).outcome is Outcome.THWARTED

    def test_a2_snmalloc_cheribuild_succeeds(self):
        assert a2_realloc_widening(create("snmalloc-cheribuild")).outcome is Outcome.SUCCEEDS

    def test_a3_dlmalloc_thwarted(self):
        assert ATTACKS["A3"](create("dlmalloc-cheribuild")).outcome is Outcome.THWARTED

    def test_a3_snmalloc_repo_succeeds(self):
        assert ATTACKS["A3"](create("snmalloc-repo")).outcome is Outcome.SUCCEEDS

    def test_a3_bump_nocheri_succeeds_via_alloc_log(self):
        # the log matches on the block-start address even though the
        # capability was narrowed
        assert ATTACKS["A3"](create("bump-alloc-nocheri")).outcome is Outcome.SUCCEEDS

    def test_a4_bump_nocheri_thwarted(self):
        assert a4_double_free(create("bump-alloc-nocheri")).outcome is Outcome.THWARTED

    def test_a4_snmalloc_cheribuild_not_applicable(self):
        report = a4_double_free(create("snmalloc-cheribuild"))
        assert report.outcome is Outcome.NOT_APPLICABLE
        assert report.note == "deferred free"

    def test_a4_jemalloc_succeeds(self):
        assert a4_double_free(create("jemalloc")).outcome is Outcome.SUCCEEDS

    def test_a5_jemalloc_thwarted(self):
        assert ATTACKS["A5"](create("jemalloc")).outcome is Outcome.THWARTED

    def test_a5_libmalloc_thwarted(self):
        assert ATTACKS["A5"](create("libmalloc-simple")).outcome is Outcome.THWARTED

    def test_a5_dlmalloc_succeeds(self):
        assert ATTACKS["A5"](create("dlmalloc-cheribuild")).outcome is Outcome.SUCCEEDS


class RevokingHeap(TaggedHeap):
    """Heap double that models a revocation sweep: loads from revoked
    ranges fault as if the capability's tag had been cleared."""

    def __init__(self, size):
        super().__init__(size)
        self.revoked = []

    def load(self, cap, addr, length):
        for start, end in self.revoked:
            if addr < end and addr + length > start:
                raise CapFault(FaultKind.TAG_VIOLATION, "capability revoked")
        return super().load(cap, addr, length)


class RevokingAllocator(BumpAllocator):
    """Test double: free() revokes the freed block."""

    def free(self, cap):
        self.heap.revoked.append((cap.base, cap.top))


def _revoking_allocator():
    heap = RevokingHeap(1 << 16)
    traits = AllocatorTraits(
        "revoking-double", True, False, False, FreeValidation.NONE, False
    )
    return RevokingAllocator(heap, traits)


class WideGapAllocator(BumpAllocator):
    """Test double whose blocks are placed 128 bytes apart, so no victim
    is ever adjacent to the probe's first allocation."""

    def malloc(self, size):
        return super().malloc(max(size, 128))


def _wide_gap_allocator():
    traits = AllocatorTraits(
        "wide-gap-double", True, False, False, FreeValidation.NONE, False
    )
    return WideGapAllocator(TaggedHeap(1 << 16), traits)


class TestClassifierBranches:
    def test_a1_thwarted_by_revocation(self):
        report = a1_use_after_free(_revoking_allocator())
        assert report.outcome is Outcome.THWARTED
        assert report.trace[-1].result == "fault:TagViolation"

    def test_a2_thwarted_by_revocation(self):
        # realloc copies from the revoked source, so the probe sees a fault
        report = a2_realloc_widening(_revoking_allocator())
        assert report.outcome is Outcome.THWARTED

    def test_a2_gives_up_after_eight_victims(self):
        report = a2_realloc_widening(_wide_gap_allocator())
        assert report.outcome is Outcome.NOT_APPLICABLE
        assert report.note == "no adjacent victim found"
        last = report.trace[-1]
        assert (last.op, last.args) == ("note", ("no adjacent victim found",))
        assert sum(1 for s in report.trace if s.op == "malloc") == 1 + 8


class TestTraitPrediction:
    def test_decision_rules_reproduce_every_expected_row(self):
        for name in ALLOCATOR_NAMES:
            assert predicted_row(TRAITS[name]) == EXPECTED_MATRIX.row(name), name

    def test_rules_are_exhaustive_over_registered_traits(self):
        for name in ALLOCATOR_NAMES:
            row = predicted_row(TRAITS[name])
            assert len(row) == 5
            assert all(isinstance(o, Outcome) for o in row)


class TestProbesAgainstExpectedCells:
    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    @pytest.mark.parametrize("attack_id", ATTACK_IDS)
    def test_probe_matches_expected_cell(self, name, attack_id):
        report = ATTACKS[attack_id](create(name))
        expected = EXPECTED_MATRIX.row(name)[ATTACK_IDS.index(attack_id)]
        assert report.outcome is expected


class TestTraces:
    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    @pytest.mark.parametrize("attack_id", ATTACK_IDS)
    def test_replay_reproduces_every_step(self, name, attack_id):
        report = ATTACKS[attack_id](create(name))
        replayed = replay_trace(report, create(name))
        assert tuple(replayed) == report.trace

    def test_refused_step_keeps_the_refusal_text(self):
        t = Tape(create("bump-alloc-nocheri"))
        p = t.do("malloc", 32)
        t.do("free", p.ref)
        again = t.do("free", p.ref)
        assert (p.ok, p.error) == (True, None)
        assert (again.ok, again.text) == (False, "error:DoubleFree")
        assert again.error == "DoubleFree: block 0 already freed"
        assert t.steps[-1].result == "error:DoubleFree"

    def test_probe_is_deterministic(self):
        a = ATTACKS["A2"](create("libmalloc-simple"))
        b = ATTACKS["A2"](create("libmalloc-simple"))
        assert a == b

    def test_probe_order_does_not_matter(self):
        # each probe owns a fresh allocator, so any order agrees
        forward = [ATTACKS[aid](create("jemalloc")).outcome for aid in ATTACK_IDS]
        backward = [ATTACKS[aid](create("jemalloc")).outcome for aid in reversed(ATTACK_IDS)]
        assert forward == list(reversed(backward))

    def test_headline_for_not_applicable(self):
        report = a4_double_free(create("snmalloc-cheribuild"))
        assert report.headline() == "⊘ not applicable (deferred free)"
