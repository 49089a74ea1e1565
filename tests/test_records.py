"""The package's immutable records: frozen fields, construction checks,
pinned reprs, and an import that pulls in no record machinery; and its
two error types, which pickle and copy as they are."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import capheap
from capheap import (
    EXPECTED_MATRIX,
    TRAITS,
    AllocatorTraits,
    ConformanceMatrix,
    FreeValidation,
    Workload,
    create,
    run_workload,
)
from capheap.allocator_api import AllocError, AllocErrorKind
from capheap.attacks import AttackReport, Outcome, TraceStep, run_attack
from capheap.bench import BenchResult
from capheap.capability import CapFault, FaultKind


RECORDS = [AllocatorTraits, TraceStep, AttackReport, ConformanceMatrix, Workload, BenchResult]


def _example(cls):
    """One record of ``cls`` and one of its fields."""
    report = run_attack("A1", create("jemalloc"))
    return {
        AllocatorTraits: (TRAITS["jemalloc"], "strips_exec"),
        TraceStep: (report.trace[0], "value"),
        AttackReport: (report, "outcome"),
        ConformanceMatrix: (EXPECTED_MATRIX, "cells"),
        Workload: (Workload.churn(10, 32), "size"),
        BenchResult: (run_workload(create("jemalloc"), Workload.churn(10, 32)), "elapsed_ns"),
    }[cls]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_refuse_assignment(cls):
    record, field = _example(cls)
    assert type(record) is cls
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert repr(record) == before


class TestConformanceMatrixChecks:
    def test_missing_row(self):
        with pytest.raises(ValueError, match="^one cell row per allocator required$"):
            ConformanceMatrix(EXPECTED_MATRIX.names, EXPECTED_MATRIX.attacks, EXPECTED_MATRIX.cells[:-1])

    def test_short_row(self):
        cells = EXPECTED_MATRIX.cells[:-1] + (EXPECTED_MATRIX.cells[-1][:-1],)
        with pytest.raises(ValueError, match="^one cell per attack required$"):
            ConformanceMatrix(EXPECTED_MATRIX.names, EXPECTED_MATRIX.attacks, cells)

    def test_replace_checks_the_copy(self):
        with pytest.raises(ValueError, match="^one cell row per allocator required$"):
            EXPECTED_MATRIX._replace(cells=EXPECTED_MATRIX.cells[:-1])
        assert EXPECTED_MATRIX._replace(names=EXPECTED_MATRIX.names) == EXPECTED_MATRIX

    def test_keywords_build_the_same_matrix(self):
        m = ConformanceMatrix(
            names=EXPECTED_MATRIX.names, attacks=EXPECTED_MATRIX.attacks, cells=EXPECTED_MATRIX.cells
        )
        assert m == EXPECTED_MATRIX
        S, T = Outcome.SUCCEEDS, Outcome.THWARTED
        assert m.row("jemalloc") == (S, T, T, S, T)


def test_workload_replace_checks_the_copy():
    w = Workload.randsize(10, 1, 16, 64)
    with pytest.raises(ValueError, match="^randsize needs a positive seed$"):
        w._replace(seed=0)
    with pytest.raises(ValueError, match="^randsize needs min_size <= max_size$"):
        w._replace(min_size=65)
    assert w._replace(seed=2) == Workload.randsize(10, 2, 16, 64)


TRAITS_REPR = {
    "bump-alloc-cheri": "AllocatorTraits(name='bump-alloc-cheri', narrow_bounds=True, deferred_free=False, strips_exec=False, free_validation=<FreeValidation.NONE: 'None'>, double_free_detect=False, realloc_grows_in_place=False)",
    "bump-alloc-nocheri": "AllocatorTraits(name='bump-alloc-nocheri', narrow_bounds=False, deferred_free=False, strips_exec=False, free_validation=<FreeValidation.ALLOC_LOG: 'AllocLog'>, double_free_detect=True, realloc_grows_in_place=False)",
    "dlmalloc-cheribuild": "AllocatorTraits(name='dlmalloc-cheribuild', narrow_bounds=True, deferred_free=False, strips_exec=False, free_validation=<FreeValidation.INLINE_HEADER: 'InlineHeader'>, double_free_detect=False, realloc_grows_in_place=False)",
    "jemalloc": "AllocatorTraits(name='jemalloc', narrow_bounds=True, deferred_free=False, strips_exec=True, free_validation=<FreeValidation.INLINE_HEADER: 'InlineHeader'>, double_free_detect=False, realloc_grows_in_place=False)",
    "libmalloc-simple": "AllocatorTraits(name='libmalloc-simple', narrow_bounds=True, deferred_free=False, strips_exec=True, free_validation=<FreeValidation.INLINE_HEADER: 'InlineHeader'>, double_free_detect=False, realloc_grows_in_place=True)",
    "snmalloc-cheribuild": "AllocatorTraits(name='snmalloc-cheribuild', narrow_bounds=True, deferred_free=True, strips_exec=False, free_validation=<FreeValidation.METADATA_LOOKUP: 'MetadataLookup'>, double_free_detect=False, realloc_grows_in_place=True)",
    "snmalloc-repo": "AllocatorTraits(name='snmalloc-repo', narrow_bounds=True, deferred_free=False, strips_exec=False, free_validation=<FreeValidation.METADATA_LOOKUP: 'MetadataLookup'>, double_free_detect=False, realloc_grows_in_place=True)",
}


@pytest.mark.parametrize("name", list(TRAITS_REPR))
def test_traits_repr_is_pinned(name):
    assert repr(TRAITS[name]) == TRAITS_REPR[name]
    assert f"{TRAITS[name]}" == TRAITS_REPR[name]


def test_traits_take_six_arguments():
    with pytest.raises(TypeError):
        AllocatorTraits("x", True, False, False, FreeValidation.ALLOC_LOG, True, False)
    with pytest.raises(TypeError):
        AllocatorTraits("x", True, False, False, FreeValidation.ALLOC_LOG, False, double_free_detect=True)


ERRORS = [(CapFault, kind) for kind in FaultKind] + [(AllocError, kind) for kind in AllocErrorKind]


@pytest.mark.parametrize("detail", ["", "[16, 32) outside [0, 16)"], ids=["bare", "detail"])
@pytest.mark.parametrize("cls, kind", ERRORS, ids=lambda x: getattr(x, "name", None))
def test_errors_survive_pickle_and_copy(cls, kind, detail):
    # ``args`` holds only the message, so a rebuild from it would pass
    # the message as ``kind``
    error = cls(kind, detail)
    text = f"{kind.value}: {detail}" if detail else kind.value
    assert (str(error), error.args) == (text, (text,))
    pickled = [pickle.loads(pickle.dumps(error, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in (*pickled, copy.copy(error), copy.deepcopy(error)):
        assert type(again) is cls and again is not error
        assert (again.kind, again.detail, again.args, str(again)) == (kind, detail, (text,), text)


# what each snippet adds to the modules a bare interpreter has loaded
_MODULES_AFTER = """
import sys
before = set(sys.modules)
import {module}
print("\\n".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("module", ["capheap", "capheap.cli"])
def test_import_pulls_in_no_record_machinery(module):
    env = dict(os.environ, PYTHONPATH=str(Path(capheap.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER.format(module=module)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert module in added  # the import really ran in the child
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)
