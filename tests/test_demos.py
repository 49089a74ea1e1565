"""Each demo under ``demos/`` runs in its own interpreter and prints
exactly the output recorded in ``tests/demo_outputs``.

Every demo is deterministic except for wall time: demo 06 prints the
``bench`` CSV, whose ``elapsed_ns`` column is masked on both sides.  To
re-record after a deliberate change, run
``PYTHONPATH=src python tests/test_demos.py`` from the repository root
and review the diff.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import capheap

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_outputs"

# a bench CSV row: allocator, workload, ops, elapsed_ns, then three counts
_ELAPSED = re.compile(r"^([^,\n]*,[^,\n]*,\d+,)\d+(,\d+,\d+,\d+)$", re.MULTILINE)


def run_demo(path: Path) -> str:
    """The demo's standard output, with every ``elapsed_ns`` masked."""
    env = dict(os.environ, PYTHONPATH=str(Path(capheap.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return _ELAPSED.sub(r"\1*\2", run.stdout)


def test_every_demo_has_a_recording():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.out"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_unchanged(path):
    assert run_demo(path) == (RECORDED / f"{path.stem}.out").read_text()


if __name__ == "__main__":
    for demo in DEMOS:
        (RECORDED / f"{demo.stem}.out").write_text(run_demo(demo))
