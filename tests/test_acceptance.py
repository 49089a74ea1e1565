"""Acceptance suite.

Each test enforces one acceptance criterion at its stated size and
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to
see the lines on success).
"""

import random
import time
from bisect import bisect_left, insort

import pytest

from capheap.allocator_api import AllocError
from capheap.attacks import ATTACK_IDS, predicted_row, replay_trace, run_attack
from capheap.bench import Workload, run_workload
from capheap.capability import CapFault, FaultKind, Perm, make_root
from capheap.cli import main
from capheap.harness import EXPECTED_MATRIX, parse_csv
from capheap.registry import ALLOCATOR_NAMES, TRAITS, create
from capheap.tagged_memory import TaggedHeap
from granules import round16


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_golden_matrix_reproduction(capsys):
    start = time.perf_counter()
    rc = main(["matrix", "--expect", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    cells_match = parse_csv(out.encode("utf-8")) == EXPECTED_MATRIX
    ok = rc == 0 and cells_match and elapsed < 5.0
    with capsys.disabled():
        report(1, "golden matrix reproduction", ok)


def test_criterion_2_flag_consistency_oracle():
    ok = all(
        predicted_row(TRAITS[name]) == EXPECTED_MATRIX.row(name)
        for name in ALLOCATOR_NAMES
    )
    report(2, "trait table consistent with probe decision rules", ok)


def test_criterion_3_capability_monotonicity_chains():
    heap_size = 1 << 20
    rng = random.Random(0xC0FFEE)
    root = make_root(heap_size)
    violations = 0
    for _ in range(10_000):
        cap = root
        for _ in range(rng.randint(1, 32)):
            op = rng.randrange(4)
            try:
                if op == 0:
                    base = rng.randrange(heap_size)
                    cap = cap.set_bounds(base, rng.randrange(heap_size // 2))
                elif op == 1:
                    cap = cap.and_perms(Perm(rng.randrange(64)))
                elif op == 2:
                    cap = cap.set_address(rng.randrange(heap_size + 64))
                else:
                    cap = cap.clear_tag()
            except CapFault:
                continue
            if cap.tag:
                if not (root.base <= cap.base and cap.top <= root.top):
                    violations += 1
            if (cap.perms & root.perms) != cap.perms:
                violations += 1
            if op == 3 and cap.tag:
                violations += 1
    report(3, "derivation chains never gain authority (10000 chains)", violations == 0)


def test_criterion_4_tagged_memory_hygiene():
    ok = True
    heap = TaggedHeap(4096)
    root = make_root(4096)

    # every byte offset in a granule clears the tag
    for offset in range(16):
        heap.clear()
        heap.store_cap(root, 16, root)
        heap.store(root, 16 + offset, b"\x01")
        ok = ok and not heap.load_cap(root, 16).tag

    # store_cap / load_cap round-trip preserves all fields
    payload = root.set_bounds(64, 128).set_address(96).and_perms(Perm.LOAD | Perm.STORE_CAP)
    heap.clear()
    heap.store_cap(root, 32, payload)
    ok = ok and heap.load_cap(root, 32) == payload

    # fault priority, all eight combinations of (tag, perm, bounds) health
    narrowed = root.set_bounds(128, 64).and_perms(Perm.LOAD)
    cases = [
        (False, False, False, FaultKind.TAG_VIOLATION),
        (False, False, True, FaultKind.TAG_VIOLATION),
        (False, True, False, FaultKind.TAG_VIOLATION),
        (False, True, True, FaultKind.TAG_VIOLATION),
        (True, False, False, FaultKind.PERMISSION_VIOLATION),
        (True, False, True, FaultKind.PERMISSION_VIOLATION),
        (True, True, False, FaultKind.BOUNDS_VIOLATION),
        (True, True, True, None),
    ]
    for tag_ok, perm_ok, bounds_ok, expected in cases:
        cap = narrowed if tag_ok else narrowed.clear_tag()
        need = Perm.LOAD if perm_ok else Perm.STORE
        addr = 128 if bounds_ok else 0
        try:
            cap.check_access(addr, 8, need)
            ok = ok and expected is None
        except CapFault as fault:
            ok = ok and fault.kind is expected
    report(4, "tagged-memory hygiene and fault priority", ok)


class _IntervalOracle:
    def __init__(self):
        self.starts = []
        self.lengths = {}

    def add(self, start, length):
        i = bisect_left(self.starts, start)
        if i > 0:
            prev = self.starts[i - 1]
            if prev + self.lengths[prev] > start:
                return False
        if i < len(self.starts) and start + length > self.starts[i]:
            return False
        insort(self.starts, start)
        self.lengths[start] = length
        return True

    def remove(self, start):
        self.starts.remove(start)
        del self.lengths[start]


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_criterion_5_allocator_disjointness(name):
    rng = random.Random(0xD15C0)
    alloc = create(name)
    region = alloc.region
    ok = True
    for _ in range(1000):
        alloc.reset()
        oracle = _IntervalOracle()
        live = []
        for _ in range(200):
            roll = rng.random()
            if roll < 0.55 or not live:
                size = rng.randint(1, 160)
                try:
                    cap = alloc.malloc(size)
                except AllocError:
                    continue
                ok = ok and region.base <= cap.base and cap.top <= region.top
                ok = ok and oracle.add(cap.address, round16(size))
                live.append(cap)
            elif roll < 0.85:
                cap = live.pop(rng.randrange(len(live)))
                alloc.free(cap)
                oracle.remove(cap.address)
            else:
                cap = live.pop(rng.randrange(len(live)))
                size = rng.randint(1, 160)
                try:
                    new_cap = alloc.realloc(cap, size)
                except AllocError:
                    oracle.remove(cap.address)
                    continue
                oracle.remove(cap.address)
                ok = ok and region.base <= new_cap.base and new_cap.top <= region.top
                ok = ok and oracle.add(new_cap.address, round16(size))
                live.append(new_cap)
        if not ok:
            break
    report(5, f"live allocations disjoint and contained ({name})", ok)


def test_criterion_6_determinism(capsys):
    main(["matrix", "--format", "csv"])
    first = capsys.readouterr().out
    main(["matrix", "--format", "csv"])
    second = capsys.readouterr().out
    ok = first.encode("utf-8") == second.encode("utf-8")
    with capsys.disabled():
        report(6, "byte-identical csv runs", ok)


def test_criterion_7_attack_trace_replay():
    ok = True
    for name in ALLOCATOR_NAMES:
        for attack_id in ATTACK_IDS:
            original = run_attack(attack_id, create(name))
            replayed = replay_trace(original, create(name))
            rerun = run_attack(attack_id, create(name))
            ok = ok and tuple(replayed) == original.trace
            ok = ok and rerun.outcome is original.outcome
    report(7, "trace replay reproduces all 35 cells", ok)


def test_criterion_8_bench_reuse_property():
    workload = Workload.churn(1024, 32)
    peaks = {}
    again = {}
    for name in ALLOCATOR_NAMES:
        peaks[name] = run_workload(create(name), workload)
        again[name] = run_workload(create(name), workload)
    bump_floor = min(
        peaks["bump-alloc-cheri"].peak_touched_bytes,
        peaks["bump-alloc-nocheri"].peak_touched_bytes,
    )
    reusing = [n for n in ALLOCATOR_NAMES if not n.startswith("bump")]
    ok = all(peaks[n].peak_touched_bytes < bump_floor for n in reusing)
    for name in ALLOCATOR_NAMES:
        a, b = peaks[name], again[name]
        ok = ok and (
            a.ops_completed,
            a.peak_live_bytes,
            a.peak_touched_bytes,
            a.oom_count,
        ) == (b.ops_completed, b.peak_live_bytes, b.peak_touched_bytes, b.oom_count)
    report(8, "reusing engines touch less than bump on churn(1024, 32)", ok)
