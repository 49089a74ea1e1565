"""Run one capheap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mix-reset --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; capheap is imported from ``src/`` next to
this directory.  Untraced runs (``--trace 0``) print the end-to-end
metrics; traced runs (``--trace 1``) print the per-layer metrics.  Every
metric is printed as ``name value unit`` and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed: no failed operation, every traced episode's digest equal to the
untraced one on the same inputs and, at the default seed, the digest of
episode 0 equal to ``perfbench/digests.json``, every matrix diff empty
and every ``capheap matrix --expect`` exit code 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 11  # set-up is measured this many times per run, in fresh processes
CLI_SAMPLES = 21  # `capheap matrix --expect` runs per run
CHILD_TIMEOUT_S = 60
MAX_RUN_S = 120  # a run must end well inside 180 s
CALIBRATION_MIN_NS = 30_000_000  # the kernel is timed this long between episodes, at least
ENGINE_NAMES = ("bump", "freelist", "slab")

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    **{f"ops_per_s.{e}": "1/s" for e in ENGINE_NAMES},
    "op_p50_us": "us",
    "cli_matrix_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed and recorded, but not in the result: the 96th to 99th
# percentiles of run_matrix's pooled grids swing with the load on the
# host's other CPU, far more than their median does, so no bound of at
# most 0.25 holds for op_p99_us on matrix (see README.md).
REPORT_ONLY = {"op_p99_us": "us"}


def _import_capheap() -> None:
    """Put this checkout's ``src/`` first on the path and make sure that is
    where capheap comes from; exit with an error otherwise."""
    if not (SRC / "capheap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no capheap sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import capheap

    if not Path(capheap.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: capheap imported from {capheap.__file__}, not {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    capheap, generated the inputs and constructed the allocators, i.e.
    until it could issue its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}: {line!r}")
    return elapsed


def cli_sample(expected_stdout: str) -> tuple[float, bool]:
    """Wall time of one `capheap matrix --expect` and whether it passed."""
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "capheap.cli", "matrix", "--expect"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - t0
    ok = done.returncode == 0 and done.stdout == expected_stdout
    if not ok:
        print(f"capheap matrix --expect: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
    return elapsed, ok


def reference_digest(workload: str) -> str | None:
    return json.loads(DIGESTS.read_text()).get(workload)


class Run:
    """Outcome bookkeeping shared by traced and untraced runs."""

    def __init__(self, workload_name: str, seed: int):
        self.workload_name = workload_name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None  # episode 0: its digest is the run's
        self.episodes = 0

    def episode(self, ep) -> None:
        self.episodes += 1
        self.attempted += ep.ops
        self.failed += ep.failed
        self.problems += ep.errors
        self.first = self.first or ep

    def expect_digest(self, ep, expected: str | None, what: str) -> None:
        """The digest covers every result of ``ep``, so when it differs
        none of them can be trusted: all count as failed."""
        if ep.digest != expected:
            self.failed += ep.ops - ep.failed
            self.problems.append(f"digest {ep.digest} != {what} {expected}")

    def check_reference(self) -> None:
        """At the default seed, episode 0 must match ``digests.json``."""
        from perfbench.workloads import DEFAULT_SEED

        print(f"digest {self.workload_name} seed={self.seed} {self.first.digest}")
        if self.seed == DEFAULT_SEED:
            self.expect_digest(self.first, reference_digest(self.workload_name), "reference")

    def finish(self, metrics: dict[str, tuple[float, str]], report_only=None) -> int:
        for text in self.problems:
            print(text, file=sys.stderr)
        for name, (value, unit) in {**metrics, **(report_only or {})}.items():
            print(f"{name} {value:.9g} {unit}")
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"failed_ops_share {share:.9g} share ({self.failed} of {self.attempted} operations)")
        correct = not self.problems and self.failed == 0 and self.attempted > 0
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1


def _deadline_loop(seconds: float, step, enough=lambda: True) -> None:
    """Call ``step(elapsed)`` until ``seconds`` have passed and ``enough()``
    holds; at least once, and never past ``MAX_RUN_S``."""
    t0 = perf_counter()
    while True:
        step(perf_counter() - t0)
        elapsed = perf_counter() - t0
        if elapsed >= seconds and enough():
            return
        if elapsed >= MAX_RUN_S:
            raise RuntimeError(f"no complete measurement after {elapsed:.0f} s")


def untraced(workload_name: str, seed: int, seconds: float) -> int:
    from capheap import EXPECTED_MATRIX, render
    from perfbench.calibrate import Calibration, bracketed
    from perfbench.stats import MIN_TAIL_SAMPLES, Histogram
    from perfbench.workloads import WORKLOADS, run_episode

    run = Run(workload_name, seed)
    expected_cli = render(EXPECTED_MATRIX, "text").decode()
    cal = Calibration(pooled=WORKLOADS[workload_name].pooled)
    speed = [cal.measure(CALIBRATION_MIN_NS)]  # factor after each episode, and before the first
    # metric -> samples, each as (host value, value scaled to reference speed)
    samples: dict[str, list[tuple[float, float]]] = {n: [] for n in {**END_TO_END, **REPORT_ONLY}}
    latency = {"host": Histogram(), "scaled": Histogram()}  # every call's latency, ns
    starts: list[float] = []  # bare interpreter start-up next to each side sample

    def cli() -> float:
        elapsed, ok = cli_sample(expected_cli)
        run.attempted += 1
        run.failed += not ok
        return elapsed

    def side_samples(share: float) -> None:
        """Set-up and CLI samples, spread evenly over the run; they run in
        fresh interpreters, so each is scaled by the start-up time of a
        bare interpreter around it."""
        share = min(share, 1.0)
        for name, count, sample in (
            ("setup_s", SETUP_SAMPLES, lambda: setup_sample(workload_name, seed)),
            ("cli_matrix_s", CLI_SAMPLES, cli),
        ):
            while len(samples[name]) < math.ceil(count * share):
                host, scaled, start = bracketed(sample)
                samples[name].append((host, scaled))
                starts.append(start)

    def step(elapsed: float) -> None:
        side_samples(elapsed / seconds)
        ep = run_episode(WORKLOADS[workload_name](seed, run.episodes))
        run.episode(ep)
        speed.append(cal.measure(max(CALIBRATION_MIN_NS, ep.wall_ns // 10)))
        factor = (speed[-2] + speed[-1]) / 2
        for name, (ops, ns) in [("ops_per_s", (ep.ops, ep.busy_ns)), *(
            (f"ops_per_s.{e}", totals) for e, totals in ep.engines.items()
        )]:
            samples[name].append((ops / ns * 1e9, ops / ns * 1e9 / factor))
        latency["host"].add(ep.latencies)
        latency["scaled"].add(ep.latencies, factor)

    min_calls = 100 * MIN_TAIL_SAMPLES  # for a p99 with that many samples beyond it
    _deadline_loop(seconds, step, enough=lambda: latency["host"].count >= min_calls)
    side_samples(1.0)
    for name, pct in (("op_p50_us", 50), ("op_p99_us", 99)):
        samples[name].append(tuple(latency[k].percentile(pct) / 1e3 for k in ("host", "scaled")))
    run.check_reference()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mib"].append((rss, rss))
    host = {n: statistics.median(h for h, _ in v) for n, v in samples.items()}
    metrics = {n: statistics.median(x for _, x in v) for n, v in samples.items()}
    report_only = {n: (metrics[n], u) for n, u in REPORT_ONLY.items()}
    _meta(run, seconds, trace=False, kernel_s=cal.kernel_s(), start_s=statistics.median(starts),
          host=host, report_only={n: metrics[n] for n in REPORT_ONLY})
    return run.finish({n: (metrics[n], u) for n, u in END_TO_END.items()}, report_only)


def traced(workload_name: str, seed: int, seconds: float) -> int:
    from perfbench.tracer import LAYER_METRICS, Tracer, derive, unit_of
    from perfbench.workloads import WORKLOADS, run_episode

    run = Run(workload_name, seed)
    counts: dict = {}
    times: list[dict] = []
    overhead: list[float] = []
    tracers: list = []

    def step(elapsed: float) -> None:
        wl = WORKLOADS[workload_name](seed, len(times))
        plain = run_episode(wl)
        run.episode(plain)
        tracer = Tracer()
        with tracer.installed():
            ep = run_episode(wl)
        run.episode(ep)
        run.expect_digest(ep, plain.digest, "untraced digest")
        overhead.append(ep.wall_ns / plain.wall_ns)
        ep_counts, ep_times = derive(tracer)
        times.append(ep_times)
        if not tracers:
            tracers.append(tracer)
            counts.update(ep_counts)

    _deadline_loop(seconds, step)
    run.check_reference()
    metrics = dict(counts)
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    metrics["trace_overhead"] = statistics.median(overhead)
    TRACE_DIR.mkdir(exist_ok=True)
    spans = TRACE_DIR / f"spans-{workload_name}-seed{seed}.tsv.gz"
    tracers[0].write(spans)
    print(f"spans of the first traced episode: {spans.relative_to(ROOT)}")
    _meta(run, seconds, trace=True)
    return run.finish({n: (metrics[n], unit_of(n)) for n in LAYER_METRICS})


def _meta(run: Run, seconds: float, *, trace: bool, **extra) -> None:
    print("meta " + json.dumps({
        "workload": run.workload_name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "episodes": run.episodes,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "digest": run.first.digest,
        **extra,
    }))


def setup_probe(workload_name: str, seed: int) -> int:
    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload_name](seed).construct()
    print("ready", flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    from perfbench.workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, timeout=CHILD_TIMEOUT_S * 10,
        )
        worst = max(worst, done.returncode)
    return worst


def _seconds(text: str) -> float:
    """A run gives up at ``MAX_RUN_S``, so it must be asked for less."""
    value = float(text)
    if not 0 < value < MAX_RUN_S:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, {MAX_RUN_S})")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="mix-reset, long-lived, matrix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=_seconds, default=30.0,
                        help=f"measuring time, more than 0 and less than {MAX_RUN_S}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_capheap()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
