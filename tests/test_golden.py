"""The golden CLI corpus: ``capheap matrix`` in every format and mode, and
``capheap dump`` of twelve scripts on every allocator, run in process
through ``cli.main`` and compared with ``golden/cli_outputs.txt``.

Each record there is a ``$ capheap ...`` command line followed by its
output, one line per stored line: ``|`` then a line of stdout,
``# sha256`` then the digest and length of a dump's stdout (its heap
snapshot), ``!`` then a line of stderr, and ``= exit`` then the exit
code.  Output is split at each newline, so a final ``|`` or ``!`` line
with nothing after it records a trailing newline.  The dump scripts
live in ``golden/scripts``.

``PYTHONPATH=src python tests/golden/regenerate.py`` rewrites the corpus
from the current tree, ``golden/attack_traces.txt`` included.  A change
to a stored line is a change to the program's output: name the line and
its reason with the change.
"""

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

import pytest

from capheap.cli import main
from capheap.registry import ALLOCATOR_NAMES

GOLDEN = Path(__file__).parent / "golden"
CLI_OUTPUTS = GOLDEN / "cli_outputs.txt"
MATRIX_MODES = ("", " --expect", " --rounding-bounds", " --expect --rounding-bounds")


def cli_commands() -> list[str]:
    """The corpus's command lines, in its order; a dump's script path is
    relative to ``golden``."""
    scripts = sorted(p.name for p in (GOLDEN / "scripts").glob("*.txt"))
    return [
        *(f"capheap matrix --format {fmt}{mode}" for fmt in ("text", "csv", "json") for mode in MATRIX_MODES),
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
    if command.split()[1] == "dump":
        lines = [f"# sha256 {hashlib.sha256(out).hexdigest()} {len(out)}"]
    else:
        lines = ["|" + line for line in out.decode("utf-8").split("\n")]
    lines += ["!" + line for line in err.split("\n")]
    lines.append(f"= exit {code}")
    return lines


def test_every_cli_output_matches_the_corpus():
    stored: dict[str, list[str]] = {}
    for line in CLI_OUTPUTS.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            command = line[2:]
            stored[command] = []
        else:
            stored[command].append(line)
    commands = cli_commands()
    assert list(stored) == commands
    for command in commands:
        for i, (got, want) in enumerate(itertools.zip_longest(record(command), stored[command]), start=1):
            if got != want:
                pytest.fail(f"{command}: line {i} is {got!r}, stored {want!r}")
