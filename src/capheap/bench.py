"""Deterministic allocator micro-benchmarks.

Three workloads: churn (fixed-size malloc/free through a sliding
window), randsize (seeded random malloc/free interleave), and
reallocramp (one block grown by 16 bytes per step).  Elapsed time is
reported but every other metric is a pure function of (allocator,
workload), so results are reproducible and assertable.
"""

from __future__ import annotations

import time
from collections import deque
from typing import NamedTuple

from . import _csv
from .allocator_api import AllocError, AllocErrorKind, Allocator

__all__ = [
    "BenchResult", "WORKLOADS", "Workload", "Xorshift64", "emit_csv", "run_workload",
]

WINDOW = 64  # live blocks kept by the churn workload

CSV_HEADER = "allocator,workload,ops,elapsed_ns,peak_live_bytes,peak_touched_bytes,oom_count"

SEED_MAX = 2**64 - 1  # seeds are the generator's whole 64-bit state; 0 is its fixed point


class Xorshift64:
    """Tiny deterministic generator; the seed is part of the workload
    descriptor so runs are reproducible from the output alone."""

    def __init__(self, seed: int):
        if not 1 <= seed <= SEED_MAX:
            raise ValueError("seed must be in [1, 2**64 - 1]")
        self.state = seed

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self.state = x
        return x


class _Workload(NamedTuple):
    kind: str
    op_count: int
    size: int = 0
    seed: int = 0
    min_size: int = 0
    max_size: int = 0


class Workload(_Workload):
    """A kind, an op count, and the parameters that kind reads (see
    ``WORKLOADS``), each positive, with ``min_size <= max_size`` and a
    seed of at most ``SEED_MAX``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.op_count < 1:
            raise ValueError("op_count must be at least 1")
        if self.kind not in WORKLOADS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        for name in WORKLOADS[self.kind][0]:
            if getattr(self, name) < 1:
                raise ValueError(f"{self.kind} needs a positive {name}")
        if self.min_size > self.max_size:
            raise ValueError(f"{self.kind} needs min_size <= max_size")
        if self.seed > SEED_MAX:
            raise ValueError(f"{self.kind} needs a seed of at most 2**64 - 1")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: check the copy as well
        return cls(*iterable)

    @classmethod
    def churn(cls, op_count: int, size: int) -> "Workload":
        return cls("churn", op_count, size=size)

    @classmethod
    def randsize(cls, op_count: int, seed: int, min_size: int, max_size: int) -> "Workload":
        return cls("randsize", op_count, seed=seed, min_size=min_size, max_size=max_size)

    @classmethod
    def reallocramp(cls, op_count: int) -> "Workload":
        return cls("reallocramp", op_count)

    def describe(self) -> str:
        # each parameter keyed by its name, min_size and max_size as min and max
        fields = [f"{n.removesuffix('_size')}={getattr(self, n)}" for n in WORKLOADS[self.kind][0]]
        return ";".join([self.kind, f"ops={self.op_count}", *fields])


class BenchResult(NamedTuple):
    allocator: str
    workload: str
    ops_completed: int
    elapsed_ns: int
    peak_live_bytes: int
    peak_touched_bytes: int
    oom_count: int


class _Meter:
    """Workload-side accounting: completed and out-of-memory ops, requested
    sizes of live blocks and the high-water mark of returned extents."""

    def __init__(self):
        self.completed = 0
        self.oom = 0
        self.live_bytes = 0
        self.peak_live = 0
        self.peak_touched = 0

    def attempt(self, op, *args):
        """``op(*args)``, or None after counting an out-of-memory refusal."""
        try:
            return op(*args)
        except AllocError as exc:
            if exc.kind is not AllocErrorKind.OUT_OF_MEMORY:
                raise
            self.oom += 1
            return None

    def placed(self, cap, size: int) -> None:
        self.live_bytes += size
        self.peak_live = max(self.peak_live, self.live_bytes)
        self.peak_touched = max(self.peak_touched, cap.address + size)

    def removed(self, size: int) -> None:
        self.live_bytes -= size


def _churn(alloc: Allocator, workload: Workload, meter: _Meter) -> None:
    live: deque = deque()
    for _ in range(workload.op_count):
        cap = meter.attempt(alloc.malloc, workload.size)
        if cap is None:
            continue
        meter.placed(cap, workload.size)
        live.append((cap, workload.size))
        if len(live) > WINDOW:
            old, old_size = live.popleft()
            alloc.free(old)
            meter.removed(old_size)
        meter.completed += 1


def _randsize(alloc: Allocator, workload: Workload, meter: _Meter) -> None:
    rng = Xorshift64(workload.seed)
    span = workload.max_size - workload.min_size + 1
    live: deque = deque()
    for _ in range(workload.op_count):
        if (rng.next() & 1) == 1 or not live:
            size = workload.min_size + rng.next() % span
            cap = meter.attempt(alloc.malloc, size)
            if cap is None:
                continue
            meter.placed(cap, size)
            live.append((cap, size))
        else:
            cap, size = live.popleft()
            alloc.free(cap)
            meter.removed(size)
        meter.completed += 1


def _reallocramp(alloc: Allocator, workload: Workload, meter: _Meter) -> None:
    cap = meter.attempt(alloc.malloc, 16)
    if cap is None:  # not even the first block: nothing to grow
        return
    size = 16
    meter.placed(cap, size)
    for _ in range(workload.op_count):
        grown = meter.attempt(alloc.realloc, cap, size + 16)
        if grown is None:
            continue
        meter.removed(size)
        size += 16
        cap = grown
        meter.placed(cap, size)
        meter.completed += 1


# kind -> (the parameters it reads, in descriptor order; the function that drives it)
WORKLOADS = {
    "churn": (("size",), _churn),
    "randsize": (("seed", "min_size", "max_size"), _randsize),
    "reallocramp": ((), _reallocramp),
}


def run_workload(alloc: Allocator, workload: Workload) -> BenchResult:
    """Drive a fresh allocator through one workload.  Out-of-memory is
    recorded per failed operation, never fatal."""
    meter = _Meter()
    start = time.perf_counter_ns()
    WORKLOADS[workload.kind][1](alloc, workload, meter)
    elapsed = time.perf_counter_ns() - start
    return BenchResult(
        alloc.traits().name, workload.describe(), meter.completed, elapsed,
        meter.peak_live, meter.peak_touched, meter.oom,
    )


def emit_csv(results: list[BenchResult]) -> bytes:
    if not results:
        raise ValueError("no results to emit")
    return _csv.emit(CSV_HEADER.split(","), results)
