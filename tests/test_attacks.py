import itertools
import random
import sys

import pytest

from capheap.allocator_api import AllocError, AllocErrorKind, AllocatorTraits, FreeValidation
from capheap.attacks import (
    ATTACK_IDS,
    ATTACKS,
    OP_FIELDS,
    Ops,
    Outcome,
    Tape,
    predicted_row,
    replay_trace,
    run_attack,
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
        assert [o.token for o in Outcome] == ["S", "T", "NA"]
        for o in Outcome:
            assert Outcome.from_token(o.token) is o

    def test_unknown_token(self):
        for token in ("X", "", "s", "succeeds", None, 1, ["S"]):
            with pytest.raises(ValueError, match="^unknown outcome token "):
                Outcome.from_token(token)


class TestProbeExamples:
    def test_a1_bump_cheri_succeeds(self):
        assert run_attack("A1", create("bump-alloc-cheri")).outcome is Outcome.SUCCEEDS

    def test_a1_snmalloc_repo_succeeds(self):
        assert run_attack("A1", create("snmalloc-repo")).outcome is Outcome.SUCCEEDS

    def test_a2_bump_nocheri_not_applicable(self):
        report = run_attack("A2", create("bump-alloc-nocheri"))
        assert report.outcome is Outcome.NOT_APPLICABLE
        assert report.note == "no bounds narrowing"

    def test_a2_bump_cheri_thwarted(self):
        assert run_attack("A2", create("bump-alloc-cheri")).outcome is Outcome.THWARTED

    def test_a2_snmalloc_cheribuild_succeeds(self):
        assert run_attack("A2", create("snmalloc-cheribuild")).outcome is Outcome.SUCCEEDS

    def test_a3_dlmalloc_thwarted(self):
        assert run_attack("A3", create("dlmalloc-cheribuild")).outcome is Outcome.THWARTED

    def test_a3_snmalloc_repo_succeeds(self):
        assert run_attack("A3", create("snmalloc-repo")).outcome is Outcome.SUCCEEDS

    def test_a3_bump_nocheri_succeeds_via_alloc_log(self):
        # the log matches on the block-start address even though the
        # capability was narrowed
        assert run_attack("A3", create("bump-alloc-nocheri")).outcome is Outcome.SUCCEEDS

    def test_a4_bump_nocheri_thwarted(self):
        assert run_attack("A4", create("bump-alloc-nocheri")).outcome is Outcome.THWARTED

    def test_a4_snmalloc_cheribuild_not_applicable(self):
        report = run_attack("A4", create("snmalloc-cheribuild"))
        assert report.outcome is Outcome.NOT_APPLICABLE
        assert report.note == "deferred free"

    def test_a4_jemalloc_succeeds(self):
        assert run_attack("A4", create("jemalloc")).outcome is Outcome.SUCCEEDS

    def test_a5_jemalloc_thwarted(self):
        assert run_attack("A5", create("jemalloc")).outcome is Outcome.THWARTED

    def test_a5_libmalloc_thwarted(self):
        assert run_attack("A5", create("libmalloc-simple")).outcome is Outcome.THWARTED

    def test_a5_dlmalloc_succeeds(self):
        assert run_attack("A5", create("dlmalloc-cheribuild")).outcome is Outcome.SUCCEEDS


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
        report = run_attack("A1", _revoking_allocator())
        assert report.outcome is Outcome.THWARTED
        assert report.trace[-1].result == "fault:TagViolation"

    def test_a2_thwarted_by_revocation(self):
        # realloc copies from the revoked source, so the probe sees a fault
        report = run_attack("A2", _revoking_allocator())
        assert report.outcome is Outcome.THWARTED

    def test_a2_gives_up_after_eight_victims(self):
        report = run_attack("A2", _wide_gap_allocator())
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
        report = run_attack(attack_id, create(name))
        expected = EXPECTED_MATRIX.row(name)[ATTACK_IDS.index(attack_id)]
        assert report.outcome is expected


class TestTraces:
    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    @pytest.mark.parametrize("attack_id", ATTACK_IDS)
    def test_replay_reproduces_every_step(self, name, attack_id):
        report = run_attack(attack_id, create(name))
        replayed = replay_trace(report, create(name))
        assert tuple(replayed) == report.trace

    def test_steps_are_equal_exactly_when_their_texts_are(self):
        """A step keeps the op's value and renders its text on demand, so
        replay and report equality compare values: across all 35 cells,
        two steps of one probe compare equal exactly when their
        ``(op, args, result)`` do, within and across allocators."""
        for attack_id in ATTACK_IDS:
            steps = []
            for name in ALLOCATOR_NAMES:
                report = run_attack(attack_id, create(name))
                replayed = tuple(replay_trace(report, create(name)))
                assert replayed == report.trace
                assert [s.result for s in replayed] == [s.result for s in report.trace]
                steps += [(name, s) for s in report.trace]
            equal_across = unequal_alike = 0
            for (m, s), (n, t) in itertools.product(steps, repeat=2):
                assert (s == t) == ((s.op, s.args, s.result) == (t.op, t.args, t.result)), (s, t)
                equal_across += s == t and m != n
                unequal_alike += s != t and (s.op, s.args) == (t.op, t.args)
            # both sides of the equivalence occur for every probe
            assert equal_across and unequal_alike, attack_id

    def test_bounds_that_are_no_int_are_a_recorded_fault(self):
        t = Tape(create("jemalloc"))
        ref = t.do("malloc", 32)
        assert t.do("set_bounds", ref, 8.0, 16) is None
        assert t.error == "BoundsViolation: base 8.0 is not an int"
        assert t.steps[-1].result == "fault:BoundsViolation"

    def test_refused_step_keeps_the_refusal_text(self):
        t = Tape(create("bump-alloc-nocheri"))
        p = t.do("malloc", 32)
        assert (p, t.error) == ("r0", None)
        t.do("free", p)
        assert t.do("free", p) is None
        assert t.error == "DoubleFree: block 0 already freed"
        assert t.steps[-1].result == "error:DoubleFree"
        assert t.do("load", p, 0, 4) == bytes(4)
        assert t.error is None

    def test_probe_is_deterministic(self):
        a = run_attack("A2", create("libmalloc-simple"))
        b = run_attack("A2", create("libmalloc-simple"))
        assert a == b

    def test_probe_order_does_not_matter(self):
        # each probe owns a fresh allocator, so any order agrees
        forward = [run_attack(aid, create("jemalloc")).outcome for aid in ATTACK_IDS]
        backward = [run_attack(aid, create("jemalloc")).outcome for aid in reversed(ATTACK_IDS)]
        assert forward == list(reversed(backward))

    def test_headline_for_not_applicable(self):
        report = run_attack("A4", create("snmalloc-cheribuild"))
        assert report.headline() == "⊘ not applicable (deferred free)"


class TestOpSets:
    """The bodies run alike on the allocator's own ops and on a tape, and
    a tape's ops return and raise what the allocator's do."""

    @pytest.mark.parametrize("rounding", [False, True], ids=["exact", "rounded"])
    @pytest.mark.parametrize("name", ALLOCATOR_NAMES)
    @pytest.mark.parametrize("attack_id", ATTACK_IDS)
    def test_every_body_decides_alike_on_ops_and_on_a_tape(self, attack_id, name, rounding):
        body = ATTACKS[attack_id]
        decision = body(Ops(create(name, rounding_bounds=rounding)))
        assert body(Tape(create(name, rounding_bounds=rounding))) == decision
        report = run_attack(attack_id, create(name, rounding_bounds=rounding))
        assert (report.outcome, report.note) == decision
        assert tuple(replay_trace(report, create(name, rounding_bounds=rounding))) == report.trace

    @staticmethod
    def refusal(run):
        try:
            run()
        except (AllocError, CapFault) as exc:
            return type(exc), exc.kind, exc.detail
        raise AssertionError("no refusal")

    def test_a_tape_raises_each_refusal_as_the_allocator_does(self):
        ops, tape = Ops(create("bump-alloc-nocheri")), Tape(create("bump-alloc-nocheri"))
        p, q = ops.malloc(32), tape.malloc(32)
        assert p == q
        ops.free(p)
        tape.free(q)
        assert self.refusal(lambda: ops.free(p)) == self.refusal(lambda: tape.free(q)) == (
            AllocError, AllocErrorKind.DOUBLE_FREE, "block 0 already freed")
        assert tape.steps[-1].result == "error:DoubleFree"
        ops, tape = Ops(create("jemalloc")), Tape(create("jemalloc"))
        p, q = ops.malloc(32), tape.malloc(32)
        fault = self.refusal(lambda: ops.load(p, p.address + 4096, 8))
        assert fault[:2] == (CapFault, FaultKind.BOUNDS_VIOLATION)
        assert self.refusal(lambda: tape.load(q, q.address + 4096, 8)) == fault
        assert tape.load(q, q.address, 8) == ops.load(p, p.address, 8)
        assert tape.error is None

    def test_a_tape_names_a_capability_by_the_step_that_returned_it(self):
        tape = Tape(create("snmalloc-repo"))
        p = tape.malloc(64)
        q = tape.set_bounds(p, p.base, p.top - p.base)
        assert q == p and q is not p
        tape.store(q, b"\xa5" * 4)
        tape.free(q)
        assert [(s.op, s.args) for s in tape.steps] == [
            ("malloc", (64,)), ("set_bounds", ("r0", 0, 64)),
            ("store", ("r1", "a5a5a5a5")), ("free", ("r1",))]
        with pytest.raises(ValueError, match="^no step of this tape returned Capability"):
            tape.free(Ops(create("snmalloc-repo")).malloc(64))
        assert len(tape.steps) == 4


ENGINE_ERRORS = (KeyError("engine bug"), ValueError("engine bug"))


class _RaisingAllocator(BumpAllocator):
    """Test double whose malloc and free raise what a broken engine might."""

    def malloc(self, size):
        if size == 13:
            raise ENGINE_ERRORS[0]
        return super().malloc(size)

    def free(self, cap):
        raise ENGINE_ERRORS[1]


def test_op_table_names_the_op_sets_methods():
    # Tape.do calls the Ops method an OP_FIELDS row names, and each row
    # has a typed Tape method of its name
    ops = {name for name in dir(Ops(create("jemalloc"))) if not name.startswith("_")} - {"alloc"}
    typed = {
        name for name, member in vars(Tape).items()
        if callable(member) and not name.startswith("_") and name != "do"
    }
    assert set(OP_FIELDS) == ops == typed
    assert len(typed) == 8


class TestMalformedOps:
    """An op the tape cannot run raises a ValueError naming the op, the
    ref or the trait, before any engine call and without recording a
    step; an op that is well formed keeps its own exceptions."""

    # op: the arity, and whether the first argument is a capability ref
    OPS = {"malloc": (1, False), "free": (1, True), "realloc": (2, True),
           "store": (2, True), "load": (3, True), "set_bounds": (3, True),
           "traits": (1, False), "note": (1, False)}
    GOOD = {"malloc": (32,), "free": ("r0",), "realloc": ("r0", 64),
            "store": ("r0", "a5"), "load": ("r0", 0, 4), "set_bounds": ("r0", 0, 16),
            "traits": ("strips_exec",), "note": ("hello",)}
    BAD_REFS = ["r1", "r99", "r-1", "R0", "0", "", 0, None, ("r0",), ["r0"]]
    BAD_TRAITS = ["nope", "", "Strips_exec", "count", "_replace", "__class__", 3, None,
                  ["strips_exec"]]

    def malformed(self, rng):
        """One (op, args, words the message names) draw."""
        op = rng.choice(list(self.OPS))
        arity, takes_ref = self.OPS[op]
        args = list(self.GOOD[op])
        kind = rng.choice(["arity", "first"])
        if kind == "arity" or op in ("malloc", "note"):
            n = rng.choice([k for k in range(5) if k != arity])
            args = (args + [rng.randrange(100) for _ in range(n)])[:n]
            return op, tuple(args), [op, f"takes {arity} argument"]
        if takes_ref:
            args[0] = rng.choice(self.BAD_REFS)
            return op, tuple(args), [op, f"unknown ref {args[0]!r}"]
        args[0] = rng.choice(self.BAD_TRAITS)
        return op, tuple(args), [f"unknown trait {args[0]!r}"]

    @staticmethod
    def engine_calls(run):
        """The calls into the engines, the heap and the capability algebra
        while ``run()`` runs, and the ValueError it raised, or None."""
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__") in (
                "capheap.engines", "capheap.tagged_memory", "capheap.capability"
            ):
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            run()
        except ValueError as exc:
            return calls, exc
        finally:
            sys.setprofile(None)
        return calls, None

    def test_seeded_sweep_of_malformed_ops(self):
        rng = random.Random("tape-malformed-ops")
        seen = set()
        for _ in range(300):
            t = Tape(create(rng.choice(ALLOCATOR_NAMES), 4096))
            calls, exc = self.engine_calls(lambda: t.do("malloc", 32))
            assert calls and exc is None  # the profile hook sees engine calls
            before = t.alloc.heap.snapshot()
            op, args, words = self.malformed(rng)
            calls, exc = self.engine_calls(lambda: t.do(op, *args))
            assert type(exc) is ValueError, (op, args)
            assert all(w in str(exc) for w in words), (op, args, str(exc))
            assert calls == [], (op, args)
            assert len(t.steps) == 1 and t.error is None
            assert t.alloc.heap.snapshot() == before
            seen.add(op)
        assert seen == set(self.OPS)

    def test_unknown_op_names_it(self):
        t = Tape(create("jemalloc"))
        with pytest.raises(ValueError, match="^unknown trace op 'mallok'$"):
            t.do("mallok", 32)
        assert t.steps == []

    def test_fresh_tape_has_no_refs(self):
        with pytest.raises(ValueError, match="^free: unknown ref 'r0'$"):
            Tape(create("jemalloc")).do("free", "r0")

    def test_replay_of_an_edited_report_names_the_ref(self):
        report = run_attack("A4", create("jemalloc"))
        step = report.trace[-1]
        edited = report._replace(trace=report.trace[:-1] + (step._replace(args=("r7",)),))
        with pytest.raises(ValueError, match="^free: unknown ref 'r7'$"):
            replay_trace(edited, create("jemalloc"))

    def test_engine_exceptions_propagate_unchanged(self):
        traits = AllocatorTraits("raising-double", True, False, False, FreeValidation.NONE, False)
        t = Tape(_RaisingAllocator(TaggedHeap(1 << 12), traits))
        ref = t.do("malloc", 32)
        for op, args, error in [("malloc", (13,), ENGINE_ERRORS[0]), ("free", (ref,), ENGINE_ERRORS[1])]:
            with pytest.raises(type(error)) as exc:
                t.do(op, *args)
            assert exc.value is error
        assert len(t.steps) == 1

    def test_model_rejections_keep_their_text(self):
        t = Tape(create("jemalloc"))
        ref = t.do("malloc", 32)
        with pytest.raises(ValueError, match="non-hexadecimal"):
            t.do("store", ref, "zz")
        with pytest.raises(ValueError, match="^access length must be at least 1$"):
            t.do("load", ref, 8, 0)
        assert len(t.steps) == 1
