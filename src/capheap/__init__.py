"""capheap: a desk-scale model of CHERI-style capability heaps.

Seven reference allocators run over a simulated tagged heap, five
deterministic attack probes classify each as succeeding, thwarted, or
not applicable, and a harness checks the full grid against the
package's reference outcome matrix.
"""

from .allocator_api import (
    AllocError,
    AllocErrorKind,
    Allocator,
    AllocatorTraits,
    FreeValidation,
)
from .attacks import ATTACK_IDS, ATTACKS, AttackReport, Outcome, predicted_row, replay_trace
from .bench import BenchResult, Workload, emit_csv, run_workload
from .capability import (
    PERM_ALL,
    PERM_NONE,
    CapFault,
    Capability,
    FaultKind,
    Perm,
    make_root,
)
from .harness import (
    EXPECTED_MATRIX,
    ConfigurationError,
    ConformanceMatrix,
    diff_matrix,
    render,
    run_matrix,
)
from .registry import ALLOCATOR_NAMES, DEFAULT_HEAP_SIZE, TRAITS, create
from .tagged_memory import GRANULE, TaggedHeap

__version__ = "0.1.0"

__all__ = [
    "ALLOCATOR_NAMES",
    "ATTACKS",
    "ATTACK_IDS",
    "AllocError",
    "AllocErrorKind",
    "Allocator",
    "AllocatorTraits",
    "AttackReport",
    "BenchResult",
    "CapFault",
    "Capability",
    "ConfigurationError",
    "ConformanceMatrix",
    "DEFAULT_HEAP_SIZE",
    "EXPECTED_MATRIX",
    "FaultKind",
    "FreeValidation",
    "GRANULE",
    "Outcome",
    "PERM_ALL",
    "PERM_NONE",
    "Perm",
    "TRAITS",
    "TaggedHeap",
    "Workload",
    "create",
    "diff_matrix",
    "emit_csv",
    "make_root",
    "predicted_row",
    "render",
    "replay_trace",
    "run_matrix",
    "run_workload",
]
