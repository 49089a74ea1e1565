"""Run the full allocator-by-attack conformance matrix and compare it
against the reference matrix.

The reference matrix is the package's golden target: 7 allocators by
5 attacks.  It is stored once, as the CSV fixture
``data/expected_matrix.csv`` shipped with the package, and
``EXPECTED_MATRIX`` is that file read with ``parse_csv`` at import, the
one format the package reads back.  What ``render`` writes in each
format is pinned byte for byte by the CLI's golden corpus.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable, NamedTuple

from . import _csv
from .attacks import ATTACK_IDS, ATTACKS, Ops, Outcome
from .capability import _tuple_new
from .registry import ALLOCATOR_NAMES, TRAITS, engine_for
from .tagged_memory import DEFAULT_HEAP_SIZE, TaggedHeap

__all__ = [
    "ConfigurationError",
    "ConformanceMatrix",
    "EXPECTED_MATRIX",
    "diff_matrix",
    "parse_csv",
    "render",
    "run_matrix",
]


class ConfigurationError(Exception):
    """A row restriction that is a ``str``, holds an item that is no
    ``str``, or names an allocator outside the table."""


class _Matrix(NamedTuple):
    names: tuple[str, ...]
    attacks: tuple[str, ...]
    cells: tuple[tuple[Outcome, ...], ...]


class ConformanceMatrix(_Matrix):
    """Outcome cells, one row per allocator and one column per attack."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.cells) != len(self.names):
            raise ValueError("one cell row per allocator required")
        for row in self.cells:
            if len(row) != len(self.attacks):
                raise ValueError("one cell per attack required")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: check the copy as well
        return cls(*iterable)

    def row(self, name: str) -> tuple[Outcome, ...]:
        return self.cells[self.names.index(name)]


# What the last grid left for the next one: its heap, cleared, and the
# instances built over it, keyed by (trait record, rounding mode).  A
# deque's pop and append are atomic, so grids on two threads need no
# lock: each takes the spare or builds its own, and ``maxlen`` keeps one.
_spare: deque[tuple[TaggedHeap, dict]] = deque(maxlen=1)

_KNOWN = frozenset(ALLOCATOR_NAMES)  # what a row restriction may name


def run_matrix(
    *, rows: Iterable[str] | None = None, rounding_bounds: bool = False
) -> ConformanceMatrix:
    """Probe every (allocator, attack) cell serially: a cell is tens of
    microseconds of pure Python, too little for a GIL-bound pool to pay.
    A cell runs the attack's body from ``attacks.ATTACKS``, looked up per
    cell, on the row's ``attacks.Ops`` (the instance's own callables) and
    keeps its outcome alone: the grid records nothing, so it builds no
    ``Tape``, no ``TraceStep`` and no ``AttackReport``.
    Every row runs over one 1 MiB heap.  A row's instance is the one an
    earlier grid built over that heap for the same trait record and
    rounding mode (the truth of ``rounding_bounds``), reset; failing
    that, the instance is built, and its constructor resets it, which
    clears the heap.  Each instance is reset again before every probe
    after the first, so each cell starts from the state a fresh instance
    on a fresh heap has.  The grid takes the heap and instances the last
    grid left and leaves them, the heap cleared, for the next, even when
    a probe raises: a grid maps at most one heap, and none after the
    first grid in a process.
    ``rows`` restricts the run to a subset of allocators, in table order;
    a ``str``, an item that is no ``str`` or an unknown name raises
    ``ConfigurationError`` before the grid takes a heap.
    ``rounding_bounds`` is every instance's bounds rounding.
    """
    if rows is None:
        names = ALLOCATOR_NAMES
    else:
        if isinstance(rows, str):
            raise ConfigurationError(f"rows must be allocator names, not the str {rows!r}")
        rows = list(rows)  # once: ``rows`` may be an iterator
        for row in rows:
            if not isinstance(row, str):
                raise ConfigurationError(f"allocator name {row!r} is not a str")
        rows = set(rows)
        unknown = rows - _KNOWN
        if unknown:
            raise ConfigurationError(f"unknown allocators: {sorted(unknown)}")
        names = tuple(filter(rows.__contains__, ALLOCATOR_NAMES))
    rounding = bool(rounding_bounds)  # a key half; the engines read only its truth
    try:
        heap, built = _spare.pop()
    except IndexError:
        heap, built = TaggedHeap(DEFAULT_HEAP_SIZE), {}
    cells = []
    try:
        for name in names:
            traits = TRAITS[name]
            alloc = built.get((traits, rounding))
            if alloc is None:
                alloc = engine_for(traits)(heap, traits, rounding_bounds=rounding)
                built[traits, rounding] = alloc
            else:
                alloc.reset()
            # built per row, so it binds the engine's methods as they are
            # now; a reset keeps its bound ops valid
            ops = Ops(alloc)
            outcomes = []
            for attack in ATTACK_IDS:
                if outcomes:
                    alloc.reset()
                outcomes.append(ATTACKS[attack](ops)[0])
            cells.append(tuple(outcomes))
    finally:
        heap.clear()
        _spare.append((heap, built))
    # one cell per attack in each row by construction: no checks to run
    return _tuple_new(ConformanceMatrix, (names, ATTACK_IDS, tuple(cells)))


def diff_matrix(
    actual: ConformanceMatrix, expected: ConformanceMatrix
) -> list[tuple[str, str, Outcome, Outcome]]:
    """Row-major list of (allocator, attack, actual, expected) mismatches;
    empty means the matrices are equal."""
    if actual.names != expected.names or actual.attacks != expected.attacks:
        raise ValueError("matrix dimensions or labels differ")
    out = []
    for name, arow, erow in zip(actual.names, actual.cells, expected.cells):
        for attack, a, e in zip(actual.attacks, arow, erow):
            if a is not e:
                out.append((name, attack, a, e))
    return out


def render(matrix: ConformanceMatrix, fmt: str = "text") -> bytes:
    """Render as aligned glyph text, token CSV, or JSON.  Output is
    byte-identical across runs and platforms."""
    if fmt == "text":
        width = max(len(n) for n in matrix.names + ("allocator",))
        lines = ["allocator".ljust(width) + "  " + " ".join(matrix.attacks)]
        for name, row in zip(matrix.names, matrix.cells):
            glyphs = " ".join(o.glyph.ljust(2) for o in row).rstrip()
            lines.append(name.ljust(width) + "  " + glyphs)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "csv":
        rows = ((name, *(o.token for o in row)) for name, row in zip(matrix.names, matrix.cells))
        return _csv.emit(("allocator", *matrix.attacks), rows)
    if fmt == "json":
        import json

        obj = {
            name: [o._value_ for o in row] for name, row in zip(matrix.names, matrix.cells)
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def parse_csv(data: bytes) -> ConformanceMatrix:
    header, rows = _csv.parse(data)
    if header[0] != "allocator":
        raise ValueError("missing allocator header column")
    names = tuple(fields[0] for fields in rows)
    cells = tuple(tuple(Outcome.from_token(tok) for tok in fields[1:]) for fields in rows)
    return ConformanceMatrix(names, tuple(header[1:]), cells)


with open(os.path.join(os.path.dirname(__file__), "data", "expected_matrix.csv"), "rb") as fh:
    EXPECTED_MATRIX = parse_csv(fh.read())
