"""Run the benchmark on several seeds and record medians and quartiles.

    python3 perfbench/record.py --runs 10 --out perfbench/results/baseline.json
    python3 perfbench/record.py --runs 5 --workloads long-lived --trace 1

Each run is one ``run.py`` process with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every workload and metric the record
holds the run values, their median, quartiles and inter-quartile spread
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  It also records the Python version, ``nproc``, the
git commit and the tree hash of ``src/`` (the program measured).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import summary  # noqa: E402


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": done.returncode, "meta": meta, "result": result,
            "stderr": done.stderr[-2000:] if done.returncode else ""}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "src_tree": _git("rev-parse", "HEAD:src"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": args.runs,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in record["seeds"]:
            run = one_run(workload, seed, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            good = run["exit"] == 0 and res is not None and res["correct"]
            ok = ok and good
            print(f"{workload} seed={seed} exit={run['exit']} correct={good}"
                  f" episodes={run['meta'].get('episodes')}", file=sys.stderr)
            if not good:
                print(run["stderr"], file=sys.stderr)
        metrics = {}
        names = [n for n in (runs[0]["result"] or {}).get("metrics", {})]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            metrics[name] = {**summary(values), "bound": bounds.get(name), "values": values,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
        for name in runs[0]["meta"].get("report_only", {}):
            values = [r["meta"]["report_only"][name] for r in runs if r["meta"]]
            metrics[name] = {**summary(values), "bound": None, "values": values,
                             "unit": "report only"}
        host = {}
        for name in runs[0]["meta"].get("host", {}):
            values = [r["meta"]["host"][name] for r in runs if r["meta"].get("host")]
            host[name] = {**summary(values), "values": values}
        kernel = [r["meta"]["kernel_s"] for r in runs if "kernel_s" in r["meta"]]
        start = [r["meta"]["start_s"] for r in runs if "start_s" in r["meta"]]
        record["workloads"][workload] = {
            "host": host,
            "kernel_s": kernel,
            "start_s": start,
            "metrics": metrics,
            "digests": sorted({r["meta"].get("digest") for r in runs if r["meta"]}),
            "attempted": [r["result"]["attempted"] for r in runs if r["result"]],
            "failed": [r["result"]["failed"] for r in runs if r["result"]],
        }
        print(f"== {workload}")
        for name, m in metrics.items():
            flag = ""
            if m["bound"] is not None and m["iqr_share"] * 3 >= m["bound"]:
                flag = "  spread >= bound/3" if m["iqr_share"] < m["bound"] else "  SPREAD > BOUND"
            raw = f"  (host spread {host[name]['iqr_share']:.4f})" if name in host else ""
            print(f"  {name:42s} median {m['median']:<14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['iqr_share']:.4f}{flag}{raw}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
