"""The comma-separated tables capheap writes (the matrix and the bench
results) and reads (the reference matrix): a header line, then one line
per row, every line ending in a newline, UTF-8.  No field holds a comma."""

from __future__ import annotations

from typing import Iterable


def emit(header: Iterable[str], rows: Iterable[Iterable[object]]) -> bytes:
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse(data: bytes) -> tuple[list[str], list[list[str]]]:
    """The header's fields and each row's fields."""
    header, *rows = data.decode("utf-8").strip().splitlines()
    return header.split(","), [line.split(",") for line in rows]
