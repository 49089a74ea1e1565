"""Rewrite the golden corpus from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

writes ``cli_outputs.txt``, laid out as ``tests/test_golden.py``
describes, next to this script.  For each command whose record changed
it prints the command and its first differing line, old and new, and
it names each command added to or dropped from the corpus.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1]))

from test_golden import CLI_OUTPUTS, cli_commands, first_difference, record, stored_records  # noqa: E402


def main() -> None:
    old = stored_records() if CLI_OUTPUTS.exists() else {}
    new = {command: record(command) for command in cli_commands()}
    with open(CLI_OUTPUTS, "w", encoding="utf-8", newline="\n") as fh:
        for command, lines in new.items():
            fh.write("".join(f"{line}\n" for line in [f"$ {command}", *lines]))
    for command, lines in new.items():
        if command not in old:
            print(f"added: {command}")
            continue
        diff = first_difference(old[command], lines)
        if diff is not None:
            i, was, now = diff
            print(f"changed: {command}\n  line {i} was {was!r}\n  line {i} now {now!r}")
    for command in old:
        if command not in new:
            print(f"dropped: {command}")


if __name__ == "__main__":
    main()
