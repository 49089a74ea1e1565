import gc
import random
from collections import Counter, deque

import pytest

from capheap import harness
from capheap.allocator_api import AllocError, FreeValidation
from capheap.attacks import ATTACK_IDS, ATTACKS, Ops, Outcome, replay_trace, run_attack
from capheap.capability import ROUNDING_THRESHOLD
from capheap.harness import (
    ConfigurationError,
    ConformanceMatrix,
    EXPECTED_MATRIX,
    diff_matrix,
    parse_csv,
    render,
    run_matrix,
)
from capheap.registry import ALLOCATOR_NAMES, TRAITS, create, engine_for
from capheap.tagged_memory import TaggedHeap


def test_expected_matrix_shape():
    assert EXPECTED_MATRIX.names == ALLOCATOR_NAMES
    assert EXPECTED_MATRIX.attacks == ATTACK_IDS
    assert len(EXPECTED_MATRIX.cells) == 7
    assert all(len(row) == 5 for row in EXPECTED_MATRIX.cells)


def test_full_run_equals_expected_matrix():
    assert run_matrix() == EXPECTED_MATRIX


def test_restricted_run_single_all_succeeds_row():
    m = run_matrix(rows=["snmalloc-repo"])
    assert m.names == ("snmalloc-repo",)
    assert m.cells == ((Outcome.SUCCEEDS,) * 5,)


def test_two_runs_are_identical():
    assert run_matrix() == run_matrix()


@pytest.mark.parametrize("rounding", [False, True], ids=["exact", "rounding"])
@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_reset_instance_reports_equal_fresh_ones(name, rounding):
    # run_matrix probes a row on one instance, reset before every probe
    # after the first: each report (outcome, trace and note) must be the
    # one a fresh instance gives
    reused = create(name, rounding_bounds=rounding)
    for i, attack in enumerate(ATTACK_IDS):
        if i:
            reused.reset()
        fresh = run_attack(attack, create(name, rounding_bounds=rounding))
        assert run_attack(attack, reused) == fresh


@pytest.fixture
def own_spare(monkeypatch):
    """A spare of the test's own: what its grids build, with patched
    engines or traits, never reaches a later test's grid."""
    monkeypatch.setattr(harness, "_spare", deque(maxlen=1))


def test_one_instance_per_row(monkeypatch, own_spare):
    # one engine built per row, all over one heap
    engines, maps = Counter(), []

    def counting(engine):
        class Counted(engine):
            def __init__(self, heap, traits, **kwargs):
                engines[traits.name] += 1
                super().__init__(heap, traits, **kwargs)

        return Counted

    class CountedHeap(TaggedHeap):
        def __init__(self, size):
            maps.append(size)
            super().__init__(size)

    monkeypatch.setattr(harness, "engine_for", lambda traits: counting(engine_for(traits)))
    monkeypatch.setattr(harness, "TaggedHeap", CountedHeap)
    assert run_matrix() == EXPECTED_MATRIX
    assert engines == Counter(ALLOCATOR_NAMES) and len(maps) == 1
    engines.clear()
    harness._spare[0][1].clear()  # keep the heap, drop the instances
    assert run_matrix(rows=["jemalloc", "snmalloc-repo"]).names == ("jemalloc", "snmalloc-repo")
    assert engines == Counter(["jemalloc", "snmalloc-repo"]) and len(maps) == 1
    engines.clear()
    assert run_matrix() == EXPECTED_MATRIX
    assert engines == Counter(set(ALLOCATOR_NAMES) - {"jemalloc", "snmalloc-repo"})
    assert len(maps) == 1


def test_next_grid_reuses_each_rows_instance(monkeypatch, own_spare):
    # a grid after the first builds nothing: each row runs on the
    # instance the last grid built over the spare heap, reset
    assert run_matrix() == EXPECTED_MATRIX
    ((heap, built),) = harness._spare
    first = dict(built)
    assert list(first) == [(TRAITS[name], False) for name in ALLOCATOR_NAMES]
    assert all(alloc.heap is heap for alloc in first.values())
    ran = []

    def recording(probe):
        def run(t):
            ran.append(t.alloc)
            return probe(t)

        return run

    for attack, probe in list(ATTACKS.items()):
        monkeypatch.setitem(ATTACKS, attack, recording(probe))
    monkeypatch.setattr(harness, "engine_for", None)  # a build would raise
    assert run_matrix() == EXPECTED_MATRIX
    assert run_matrix(rows=["snmalloc-repo", "bump-alloc-cheri"]).cells == (
        EXPECTED_MATRIX.row("bump-alloc-cheri"),
        EXPECTED_MATRIX.row("snmalloc-repo"),
    )
    names = list(ALLOCATOR_NAMES) + ["bump-alloc-cheri", "snmalloc-repo"]
    assert ran == [first[TRAITS[name], False] for name in names for _ in ATTACK_IDS]
    assert harness._spare[0][0] is heap and harness._spare[0][1] == first


def _drive(alloc):
    """Leave every kind of engine state behind: 100 small frees that start
    the free list's class index (a deferred-free slab engine queues them),
    a large block, freed (still queued on a deferred-free engine; logged
    on bump), and a tagged capability on the heap."""
    blocks = [alloc.malloc(16) for _ in range(100)]
    for cap in blocks:
        alloc.free(cap)
    alloc.free(alloc.malloc(1000))
    alloc.heap.store_cap(alloc.region, alloc.heap.size - 16, alloc.region)


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_reset_restores_a_fresh_instances_state(name):
    # the grid serves a row the instance an earlier grid left, reset: its
    # state must be a fresh instance's.  ``heap`` and ``region`` are the
    # instance's own (a fresh one has a heap of its own), and ``_classes``
    # is read only while ``heap.watch`` is set, which a reset clears.
    alloc, fresh = create(name), create(name)
    _drive(alloc)
    traits = alloc.traits()
    if traits.free_validation is FreeValidation.INLINE_HEADER:
        assert alloc.heap.watch is not None
    if traits.deferred_free:
        assert alloc._pending
    if traits.double_free_detect:
        assert len(alloc._log) == 101
    assert alloc.heap.snapshot() != fresh.heap.snapshot()
    heap, region = alloc.heap, alloc.region
    alloc.reset()
    assert alloc.heap is heap and alloc.region is region == fresh.region
    kept = ("heap", "region", "_classes")
    state = {k: v for k, v in vars(alloc).items() if k not in kept}
    assert state == {k: v for k, v in vars(fresh).items() if k not in kept}
    assert alloc.heap.snapshot() == fresh.heap.snapshot()
    assert alloc.heap.extent == fresh.heap.extent and alloc.heap.watch is None


SIZE_ROUNDED = ROUNDING_THRESHOLD + 905  # a length rounding pads


def _malloc_rounded(malloc):
    try:
        return malloc(SIZE_ROUNDED)
    except AllocError as exc:  # past the slab engine's largest class
        return exc.kind


def test_rounding_is_part_of_the_key(monkeypatch, own_spare):
    # a grid after one in the other rounding mode gets the bounds a fresh
    # instance in its own mode gives, not the last grid's instance
    got = {}

    def allocating(t):
        got[t.traits("name")] = _malloc_rounded(t.malloc)
        return Outcome.SUCCEEDS, ""

    monkeypatch.setitem(ATTACKS, "A1", allocating)
    seen = []
    # any flag counts by its truth, as in the engines (a list is no key)
    for rounding in (False, True, 0, [1]):
        got.clear()
        run_matrix(rounding_bounds=rounding)
        assert got == {
            name: _malloc_rounded(create(name, rounding_bounds=rounding).malloc)
            for name in ALLOCATOR_NAMES
        }
        seen.append(dict(got))
    # the rows whose bounds the mode changes: all that narrow such a block
    assert {name for name in ALLOCATOR_NAMES if seen[0][name] != seen[1][name]} == {
        "bump-alloc-cheri",
        "dlmalloc-cheribuild",
        "jemalloc",
        "libmalloc-simple",
    }
    assert len(harness._spare[0][1]) == 2 * len(ALLOCATOR_NAMES)


def test_a_changed_trait_record_is_honoured(monkeypatch, own_spare):
    # the key is the trait record, not the name: a record set into the
    # table after a grid gets an instance of its own in the next grid
    assert run_matrix() == EXPECTED_MATRIX
    first = harness._spare[0][1][TRAITS["jemalloc"], False]
    patched = TRAITS["jemalloc"]._replace(strips_exec=False)
    monkeypatch.setitem(harness.TRAITS, "jemalloc", patched)
    used = []

    def recording(probe):
        def run(t):
            used.append(t.alloc)
            return probe(t)

        return run

    for attack, probe in list(ATTACKS.items()):
        monkeypatch.setitem(ATTACKS, attack, recording(probe))
    row = run_matrix(rows=["jemalloc"]).cells[0]
    fresh = [run_attack(a, engine_for(patched)(TaggedHeap(4096), patched)) for a in ATTACK_IDS]
    assert row == tuple(report.outcome for report in fresh) != EXPECTED_MATRIX.row("jemalloc")
    assert used[0] is not first and used[0].traits() is patched
    monkeypatch.setitem(harness.TRAITS, "jemalloc", first.traits())
    used.clear()
    assert run_matrix(rows=["jemalloc"]).cells == (EXPECTED_MATRIX.row("jemalloc"),)
    assert used == [first] * len(ATTACK_IDS)


@pytest.mark.parametrize("rounding", [False, True], ids=["exact", "rounding"])
def test_rounding_bounds_reaches_every_instance(monkeypatch, own_spare, rounding):
    # the flag is each instance's, passed per grid: the shared traits
    # table is neither read for it nor changed by it
    built = []

    def recording(engine):
        class Recorded(engine):
            def __init__(self, heap, traits, **kwargs):
                super().__init__(heap, traits, **kwargs)
                built.append((traits.name, self._rounding))

        return Recorded

    traits = dict(TRAITS)
    monkeypatch.setattr(harness, "engine_for", lambda t: recording(engine_for(t)))
    assert run_matrix(rounding_bounds=rounding) == EXPECTED_MATRIX
    assert built == [(name, rounding) for name in ALLOCATOR_NAMES]
    assert TRAITS == traits
    monkeypatch.undo()
    assert run_matrix() == EXPECTED_MATRIX


def test_grid_and_report_run_the_one_table(monkeypatch):
    # a counting wrapper set into ATTACKS, as a tracer sets its spans,
    # sees every grid cell and every report
    calls = Counter()

    def counting(attack, body):
        def run(t):
            calls[attack] += 1
            return body(t)

        return run

    for attack, body in list(ATTACKS.items()):
        monkeypatch.setitem(ATTACKS, attack, counting(attack, body))
    assert run_matrix() == EXPECTED_MATRIX
    assert calls == {attack: len(ALLOCATOR_NAMES) for attack in ATTACK_IDS}
    for attack in ATTACK_IDS:
        for name in ALLOCATOR_NAMES:
            calls.clear()
            report = run_attack(attack, create(name))
            assert report.outcome is EXPECTED_MATRIX.row(name)[ATTACK_IDS.index(attack)]
            assert calls == {attack: 1}


def test_probe_that_raises_leaves_a_fresh_spare(monkeypatch):
    # a probe that writes the heap (a tagged capability, a watched free
    # list) and then raises: the error reaches the caller, and the heap
    # the grid leaves is a never-used one
    class ProbeError(Exception):
        pass

    ran = []

    def raising(t):
        # the grid's op set: the allocator's own ops, over its instance
        assert type(t) is Ops
        alloc = t.alloc
        ran.append(t.traits("name"))
        alloc.heap.store_cap(alloc.region, alloc.heap.size - 16, alloc.region)
        blocks = [t.malloc(16) for _ in range(100)]
        for cap in blocks:
            t.free(cap)
        t.malloc(1000)
        assert alloc.heap.watch is not None
        raise ProbeError

    monkeypatch.setitem(ATTACKS, "A3", raising)
    with pytest.raises(ProbeError):
        run_matrix(rows=["jemalloc"])
    assert ran == ["jemalloc"]
    ((spare, _),) = harness._spare
    size = spare.size
    assert spare.snapshot() == bytes(size) + bytes(size // 128)
    assert spare.extent == 0 and spare.watch is None
    monkeypatch.undo()
    assert run_matrix() == EXPECTED_MATRIX
    assert harness._spare[0][0] is spare


def test_grid_and_replay_leave_no_reference_cycles():
    # a caught fault kept past its handler ties its traceback's frame to
    # itself, so the heaps it reaches wait for the cyclic collector
    run_matrix()
    gc.collect()
    gc.disable()
    try:
        assert run_matrix() == EXPECTED_MATRIX
        assert gc.collect() == 0
        for name in ALLOCATOR_NAMES:
            for attack in ATTACK_IDS:
                replay_trace(run_attack(attack, create(name, 4096)), create(name, 4096))
        assert gc.collect() == 0
    finally:
        gc.enable()


ITERATORS = pytest.mark.parametrize(
    "make", [iter, lambda names: (n for n in names)], ids=["iter", "generator"]
)


@ITERATORS
def test_row_restriction_from_an_iterator(make):
    matrix = run_matrix(rows=make(["jemalloc"]))
    assert matrix.names == ("jemalloc",)
    assert matrix.cells == (EXPECTED_MATRIX.row("jemalloc"),)


@ITERATORS
def test_unknown_rows_from_an_iterator_are_rejected(make):
    with pytest.raises(ConfigurationError):
        run_matrix(rows=make(["tcmalloc"]))
    with pytest.raises(ConfigurationError):
        run_matrix(rows=make(["jemalloc", "tcmalloc"]))


def test_rejects_unknown_row_restriction():
    with pytest.raises(ConfigurationError):
        run_matrix(rows=["tcmalloc"])


def test_row_restriction_sweep(monkeypatch):
    # seeded row restrictions of every shape: a str, items that are no str,
    # unknown and known names.  Each either runs those rows in table order
    # or raises a ConfigurationError that names the offender, and a refused
    # one never takes the spare heap.
    class SpySpare(deque):
        def pop(self):
            taken.append(True)
            return super().pop()

    taken = []
    monkeypatch.setattr(harness, "_spare", SpySpare(harness._spare, maxlen=1))
    not_str = [None, 3, 1.5, b"jemalloc", ["jemalloc"], ("jemalloc",), {"jemalloc"}]
    strings = [*ALLOCATOR_NAMES, "tcmalloc", "", "JEMALLOC", "jemalloc "]
    rng = random.Random(25)
    for case in range(80):
        items = [
            rng.choice(not_str if rng.random() < 0.15 else strings) for _ in range(rng.randrange(4))
        ]
        rows = rng.choice([list, tuple, iter, lambda xs: (x for x in xs)])(items)
        if case % 8 == 0:
            rows = rng.choice(strings)
        taken.clear()
        bad = [x for x in items if not isinstance(x, str)]
        unknown = sorted({x for x in items if isinstance(x, str)} - set(ALLOCATOR_NAMES))
        if isinstance(rows, str) or bad or unknown:
            with pytest.raises(ConfigurationError) as info:
                run_matrix(rows=rows)
            named = rows if isinstance(rows, str) else bad[0] if bad else unknown
            assert repr(named) in str(info.value), (case, rows)
            assert taken == [], (case, rows)
        else:
            names = tuple(n for n in ALLOCATOR_NAMES if n in items)
            assert run_matrix(rows=rows) == ConformanceMatrix(
                names, ATTACK_IDS, tuple(map(EXPECTED_MATRIX.row, names))
            )
            assert taken == [True]


class TestDiff:
    def test_equal_matrices_diff_empty(self):
        assert diff_matrix(EXPECTED_MATRIX, EXPECTED_MATRIX) == []

    def test_single_flipped_cell(self):
        cells = [list(row) for row in EXPECTED_MATRIX.cells]
        cells[2][3] = Outcome.THWARTED
        mutated = ConformanceMatrix(
            EXPECTED_MATRIX.names, EXPECTED_MATRIX.attacks, tuple(tuple(r) for r in cells)
        )
        diffs = diff_matrix(mutated, EXPECTED_MATRIX)
        assert diffs == [
            ("dlmalloc-cheribuild", "A4", Outcome.THWARTED, Outcome.SUCCEEDS)
        ]

    def test_dimension_mismatch_is_usage_error(self):
        single = ConformanceMatrix(
            ("snmalloc-repo",), ATTACK_IDS, ((Outcome.SUCCEEDS,) * 5,)
        )
        with pytest.raises(ValueError):
            diff_matrix(single, EXPECTED_MATRIX)


class TestRender:
    def test_text_rows_in_table_order(self):
        text = render(EXPECTED_MATRIX, "text").decode("utf-8")
        lines = text.strip().splitlines()
        assert [line.split()[0] for line in lines[1:]] == list(ALLOCATOR_NAMES)
        assert lines[1].split()[1:] == ["✓", "×", "✓", "✓", "✓"]

    def test_text_uses_all_three_glyphs(self):
        text = render(EXPECTED_MATRIX, "text").decode("utf-8")
        for glyph in ("✓", "×", "⊘"):
            assert glyph in text

    def test_csv_header_and_jemalloc_row(self):
        lines = render(EXPECTED_MATRIX, "csv").decode("utf-8").splitlines()
        assert lines[0] == "allocator,A1,A2,A3,A4,A5"
        assert "jemalloc,S,T,T,S,T" in lines

    def test_csv_round_trip(self):
        assert parse_csv(render(EXPECTED_MATRIX, "csv")) == EXPECTED_MATRIX

    def test_csv_without_an_allocator_header_is_refused(self):
        csv = render(EXPECTED_MATRIX, "csv").replace(b"allocator,", b"name,", 1)
        with pytest.raises(ValueError, match="^missing allocator header column$"):
            parse_csv(csv)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(EXPECTED_MATRIX, "yaml")
