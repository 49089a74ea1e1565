"""Self-tests of the benchmark: inputs, checks, tracing and statistics.

    python -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench.stats import Histogram
from perfbench.tracer import LAYER_METRICS, Tracer, derive, layer_targets
from perfbench.workloads import (
    DEFAULT_SEED,
    Digest,
    LongLived,
    Matrix,
    WORKLOADS,
    MixReset,
    run_episode,
)

ROOT = Path(__file__).resolve().parents[2]


def _small(seed):
    """Workloads shrunk so that a test episode takes well under a second."""
    return [
        MixReset(seed, rounds=2),
        LongLived(seed, steps=300, ramp=60),
        Matrix(seed, iterations=2),
    ]


def _inputs(wl):
    if isinstance(wl, MixReset):
        return wl.rounds
    if isinstance(wl, LongLived):
        return wl.ops
    return [[(engine, expected) for engine, _, expected in grids] for grids in wl.order]


def test_seed_fully_determines_inputs():
    for a, b, other in zip(_small(5), _small(5), _small(6)):
        assert _inputs(a) == _inputs(b)
        assert _inputs(a) != _inputs(other)
    assert run_episode(_small(5)[1]).digest == run_episode(_small(5)[1]).digest


def test_reference_digests_match_at_default_seed():
    for name, workload in WORKLOADS.items():
        run = bench_run.Run(name, DEFAULT_SEED)
        run.episode(run_episode(workload(DEFAULT_SEED)))
        run.check_reference()
        assert run.problems == [] and run.failed == 0


def test_digest_check_fails_on_one_byte_perturbation(monkeypatch):
    original = Digest.data
    perturbed = []

    def data(self, raw):
        if not perturbed:
            raw = bytes([raw[0] ^ 1]) + raw[1:]
            perturbed.append(raw)
        original(self, raw)

    monkeypatch.setattr(Digest, "data", data)
    run = bench_run.Run("long-lived", DEFAULT_SEED)
    run.episode(run_episode(LongLived(DEFAULT_SEED)))
    assert perturbed
    run.check_reference()
    assert run.problems and run.failed == run.attempted


def test_digest_mismatch_fails_every_operation_of_the_episode():
    wl = _small(3)[0]
    first, second = run_episode(wl), run_episode(wl)
    run = bench_run.Run(MixReset.name, 3)
    run.episode(first)
    run.episode(second)
    run.expect_digest(second, first.digest, "untraced digest")
    assert run.problems == [] and run.failed == 0
    second.digest = second.digest[:-1] + ("0" if second.digest[-1] != "0" else "1")
    run.expect_digest(second, first.digest, "untraced digest")
    assert run.problems and run.failed == second.ops


def _wrapped_attributes():
    out = []
    for owner, attr, _, _ in layer_targets():
        out.append(owner[attr] if isinstance(owner, dict) else vars(owner)[attr])
    return out


def test_untraced_run_leaves_functions_untouched():
    before = _wrapped_attributes()
    for wl in _small(2):
        run_episode(wl)
    assert all(a is b for a, b in zip(before, _wrapped_attributes()))
    tracer = Tracer()
    with tracer.installed():
        assert not any(a is b for a, b in zip(before, _wrapped_attributes()))
        run_episode(_small(2)[0])
    assert all(a is b for a, b in zip(before, _wrapped_attributes()))


def test_tracer_restores_functions_when_the_episode_raises():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("episode failed")
    assert all(a is b for a, b in zip(before, _wrapped_attributes()))


def test_percentile_needs_ten_samples_beyond():
    hist = Histogram()
    hist.add(range(1, 1000))
    with pytest.raises(ValueError):
        hist.percentile(99)
    hist.add([1000])
    assert hist.percentile(99) == pytest.approx(990, rel=1e-3)
    small = Histogram()
    small.add(range(1, 20), scale=2.0)
    with pytest.raises(ValueError):
        small.percentile(50)
    small.add([40])
    assert small.percentile(50) == pytest.approx(20, rel=1e-3)


def _traced_counts(wl):
    tracer = Tracer()
    with tracer.installed():
        run_episode(wl)
    counts, _ = derive(tracer)
    return counts


def test_traced_counts_repeat_exactly():
    for a, b in zip(_small(4), _small(4)):
        first, second = _traced_counts(a), _traced_counts(b)
        assert first == second
        assert first["capability.check_access.calls"] > 0


def test_traced_episode_has_the_untraced_digest():
    wl = _small(4)[1]
    plain = run_episode(wl)
    with Tracer().installed():
        traced = run_episode(wl)
    assert traced.digest == plain.digest and traced.failed == 0


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(bench_run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(bench_run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == ["mix-reset", "long-lived", "matrix"]


def test_seconds_beyond_the_run_cap_are_refused():
    for seconds in ("0", str(bench_run.MAX_RUN_S), "150"):
        with pytest.raises(SystemExit) as stop:
            bench_run.main(["--workload", "matrix", "--seconds", seconds])
        assert stop.value.code == 2
