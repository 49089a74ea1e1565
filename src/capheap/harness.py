"""Run the full allocator-by-attack conformance matrix and compare it
against the embedded reference matrix.

The reference matrix is the package's golden target: 7 allocators by
5 attacks.  It is embedded as constant data here and also shipped as a
CSV fixture (``data/expected_matrix.csv``); a test asserts the two
agree so transcription drift cannot go unnoticed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

from . import _csv
from .allocator_api import Allocator
from .attacks import ATTACK_IDS, ATTACKS, Outcome
from .registry import ALLOCATOR_NAMES, default_registry

__all__ = [
    "ConfigurationError",
    "ConformanceMatrix",
    "EXPECTED_MATRIX",
    "diff_matrix",
    "expected_matrix_fixture",
    "parse_csv",
    "parse_json",
    "render",
    "run_matrix",
]


class ConfigurationError(Exception):
    """A registry that does not describe the canonical seven allocators."""


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


def _matrix(rows: Mapping[str, str]) -> ConformanceMatrix:
    cells = tuple(
        tuple(Outcome.from_token(tok) for tok in row.split()) for row in rows.values()
    )
    return ConformanceMatrix(tuple(rows), ATTACK_IDS, cells)


EXPECTED_MATRIX = _matrix(
    {
        "bump-alloc-cheri": "S T S S S",
        "bump-alloc-nocheri": "S NA S T S",
        "dlmalloc-cheribuild": "S T T S S",
        "jemalloc": "S T T S T",
        "libmalloc-simple": "S S T S T",
        "snmalloc-cheribuild": "S S S NA S",
        "snmalloc-repo": "S S S S S",
    }
)


def expected_matrix_fixture() -> bytes:
    """The canonical CSV fixture shipped with the package."""
    from importlib import resources

    return resources.files("capheap").joinpath("data/expected_matrix.csv").read_bytes()


def run_matrix(
    registry: Mapping[str, Callable[[], Allocator]] | None = None,
    *,
    rows: Iterable[str] | None = None,
) -> ConformanceMatrix:
    """Probe every (allocator, attack) cell serially: a cell is tens of
    microseconds of pure Python, too little for a GIL-bound pool to pay.
    Each row builds one instance and resets it before every probe after
    the first, so each cell starts from the state a fresh instance has,
    without a heap of its own.  A row's instance is dropped before the
    next row's is built, so with the default registry each row's heap
    takes the cleared map the row before left (see ``tagged_memory``):
    a grid maps at most one heap, and none right after a heap of its
    size was dropped.  The registry is never mutated.
    ``rows`` restricts the run to a subset of allocators, in table order.
    """
    if registry is None:
        registry = default_registry()
    if tuple(registry) != ALLOCATOR_NAMES:
        raise ConfigurationError(
            f"registry must hold exactly {list(ALLOCATOR_NAMES)}, got {list(registry)}"
        )
    if rows is None:
        names = ALLOCATOR_NAMES
    else:
        rows = set(rows)  # once: ``rows`` may be an iterator
        names = tuple(n for n in ALLOCATOR_NAMES if n in rows)
        unknown = rows - set(ALLOCATOR_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown allocators: {sorted(unknown)}")

    def row(alloc: Allocator) -> tuple[Outcome, ...]:
        outcomes = []
        for attack in ATTACK_IDS:
            if outcomes:
                alloc.reset()
            outcomes.append(ATTACKS[attack](alloc).outcome)
        return tuple(outcomes)

    cells = tuple(row(registry[name]()) for name in names)
    return ConformanceMatrix(names, ATTACK_IDS, cells)


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
            name: [o.value for o in row] for name, row in zip(matrix.names, matrix.cells)
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


def parse_json(data: bytes) -> ConformanceMatrix:
    import json

    obj = json.loads(data.decode("utf-8"))
    names = tuple(obj)
    cells = tuple(tuple(Outcome(v) for v in row) for row in obj.values())
    return ConformanceMatrix(names, ATTACK_IDS, cells)
