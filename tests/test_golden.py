"""The golden CLI corpus: every output of the ``capheap`` command line,
run in process through ``cli.main`` and compared with
``golden/cli_outputs.txt``.  It holds ``capheap matrix`` in every format
and mode, ``attack --trace`` for every cell, ``bench`` of each workload
at its default options on each allocator and on ``all``, ``list`` with
and without ``--traits``, and ``dump`` of twelve scripts on every
allocator.

Each record there is a ``$ capheap ...`` command line followed by its
output, one line per stored line: ``|`` then a line of stdout,
``# sha256`` then the digest and length of a dump's stdout (its heap
snapshot), ``!`` then a line of stderr, and ``= exit`` then the exit
code.  Output is split at each newline, so a final ``|`` or ``!`` line
with nothing after it records a trailing newline.  A bench row's
``elapsed_ns`` is wall time, so its field is stored empty.  The dump
scripts live in ``golden/scripts``.

``PYTHONPATH=src python tests/golden/regenerate.py`` rewrites the corpus
from the current tree and prints each record it changed.  A change to a
stored line is a change to the program's output: name the line and its
reason with the change.
"""

import contextlib
import hashlib
import io
import itertools
import re
from pathlib import Path

import pytest

from capheap.attacks import ATTACK_IDS
from capheap.bench import WORKLOADS
from capheap.cli import main
from capheap.registry import ALLOCATOR_NAMES

GOLDEN = Path(__file__).parent / "golden"
CLI_OUTPUTS = GOLDEN / "cli_outputs.txt"
MATRIX_MODES = ("", " --expect", " --rounding-bounds", " --expect --rounding-bounds")
# a bench CSV row's fourth field, elapsed_ns; the header's is no number
ELAPSED_NS = re.compile(r"^((?:[^,\n]*,){3})\d+,", re.MULTILINE)


def cli_commands() -> list[str]:
    """The corpus's command lines, in its order; a dump's script path is
    relative to ``golden``."""
    scripts = sorted(p.name for p in (GOLDEN / "scripts").glob("*.txt"))
    return [
        *(f"capheap matrix --format {fmt}{mode}" for fmt in ("text", "csv", "json") for mode in MATRIX_MODES),
        *(f"capheap attack {a} --allocator {n} --trace" for a in ATTACK_IDS for n in ALLOCATOR_NAMES),
        *(f"capheap bench {w} --allocator {n}" for w in WORKLOADS for n in (*ALLOCATOR_NAMES, "all")),
        "capheap list",
        "capheap list --traits",
        *(f"capheap dump --allocator {n} --script scripts/{s}" for s in scripts for n in ALLOCATOR_NAMES),
    ]


def run(command: str) -> tuple[int, bytes, str]:
    """``command`` through ``cli.main``: its exit code, stdout and stderr."""
    argv = command.split()[1:]
    if "--script" in argv:
        i = argv.index("--script") + 1
        argv[i] = str(GOLDEN / argv[i])
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.detach().getvalue(), err.getvalue()


def record(command: str) -> list[str]:
    """``command``'s stored lines, as the module docstring lays them out."""
    code, out, err = run(command)
    subcommand = command.split()[1]
    if subcommand == "dump":
        lines = [f"# sha256 {hashlib.sha256(out).hexdigest()} {len(out)}"]
    else:
        text = out.decode("utf-8")
        if subcommand == "bench":
            text = ELAPSED_NS.sub(r"\1,", text)
        lines = ["|" + line for line in text.split("\n")]
    lines += ["!" + line for line in err.split("\n")]
    lines.append(f"= exit {code}")
    return lines


def stored_records() -> dict[str, list[str]]:
    """Each command line in ``cli_outputs.txt`` and its stored lines."""
    stored: dict[str, list[str]] = {}
    for line in CLI_OUTPUTS.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            command = line[2:]
            stored[command] = []
        else:
            stored[command].append(line)
    return stored


def first_difference(got: list[str], want: list[str]) -> tuple[int, str | None, str | None] | None:
    """The first line, counted from 1, where ``got`` and ``want`` differ,
    with each one's line there (None past its end); None when they are
    equal."""
    for i, (a, b) in enumerate(itertools.zip_longest(got, want), start=1):
        if a != b:
            return i, a, b
    return None


def test_every_cli_output_matches_the_corpus():
    stored = stored_records()
    commands = cli_commands()
    assert list(stored) == commands
    for command in commands:
        diff = first_difference(record(command), stored[command])
        if diff is not None:
            i, got, want = diff
            pytest.fail(f"{command}: line {i} is {got!r}, stored {want!r}")
