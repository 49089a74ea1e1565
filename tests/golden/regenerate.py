"""Rewrite the golden corpus from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

writes ``attack_traces.txt`` (each ``capheap attack A --allocator NAME
--trace`` command line, then its stdout) and ``cli_outputs.txt`` (laid
out as ``tests/test_golden.py`` describes), next to this script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1]))

from capheap.attacks import ATTACK_IDS  # noqa: E402
from capheap.registry import ALLOCATOR_NAMES  # noqa: E402
from test_golden import CLI_OUTPUTS, GOLDEN, cli_commands, record, run  # noqa: E402


def main() -> None:
    with open(GOLDEN / "attack_traces.txt", "w", encoding="utf-8", newline="\n") as fh:
        for a in ATTACK_IDS:
            for n in ALLOCATOR_NAMES:
                command = f"capheap attack {a} --allocator {n} --trace"
                fh.write(f"$ {command}\n{run(command)[1].decode('utf-8')}")
    with open(CLI_OUTPUTS, "w", encoding="utf-8", newline="\n") as fh:
        for command in cli_commands():
            fh.write("".join(f"{line}\n" for line in [f"$ {command}", *record(command)]))


if __name__ == "__main__":
    main()
