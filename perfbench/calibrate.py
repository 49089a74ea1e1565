"""Machine-speed calibration for the end-to-end timings.

On a 2-CPU virtual machine whose cores are shared with other machines,
the same code ran up to 1.8 times slower for stretches of seconds to
minutes, so two runs of one commit a few minutes apart differed by more
than any useful bound.  So a fixed pure-Python kernel, which imports
nothing from capheap, is timed between episodes, and each host timing
of an episode is scaled by ``REFERENCE_S / kernel time`` measured next
to it.  The reported figures are therefore host times at the speed at
which the kernel takes ``REFERENCE_S``.  No change to capheap can change
the kernel's time; only a change in the machine's speed can.

A workload whose timed calls run on ``run_matrix``'s 8-thread pool is
calibrated by ``pool_kernel``, which runs many short slices of the
kernel on a fresh 8-thread pool, as ``run_matrix`` runs its cells:
thread start-up and hand-offs between the threads slow down differently
from a single thread when the host is busy.

Set-up and CLI samples run in fresh processes, whose start-up (exec,
page faults, imports) slows down more than interpreted code when the
host is busy, so each sample is scaled on its own by ``bracketed()``:
against the mean start-up time of a bare interpreter timed just before
and just after it.  Over about 550 CLI samples in a row on that
machine, the medians of 25-sample windows spread by 9 % unscaled, by
7 % scaled by the single-thread kernel and by 3 % scaled by the
start-up times next to them.
"""

from __future__ import annotations

import statistics
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns
from typing import Callable, NamedTuple

__all__ = [
    "POOL_REFERENCE_S",
    "REFERENCE_S",
    "START_REFERENCE_S",
    "Calibration",
    "bracketed",
    "kernel",
    "pool_kernel",
    "start_time",
]

# The scaled figures are host times at the speed at which one kernel call
# takes this long.
REFERENCE_S = 2.5e-3
KERNEL_STEPS = 600  # loop iterations of one kernel call
LEAST_CALLS = 9  # kernel calls per measurement, at least
POOL_THREADS = 8  # the size of run_matrix's pool
POOL_TASKS = 64  # pool_kernel's tasks ...
POOL_TASK_STEPS = 40  # ... of this many loop iterations each
# pool_kernel's time at reference speed, were its threads free
POOL_REFERENCE_S = REFERENCE_S * POOL_TASKS * POOL_TASK_STEPS / KERNEL_STEPS
START_REFERENCE_S = 0.05  # start_time() at reference speed

_HEADER = struct.Struct("<IHBB")


class _Record(NamedTuple):
    base: int
    size: int
    flags: int

    def moved(self, to: int) -> "_Record":
        if to < self.base:
            raise ValueError(to)
        return self._replace(flags=to)


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Interpreter work of the kind capheap does: small immutable records,
    method calls, dict look-ups, struct packing, byte slices and a caught
    exception per step."""
    table: dict[int, _Record] = {}
    buf = bytearray(8192)
    acc = 0
    for i in range(steps):
        rec = _Record(i, i & 255, 0).moved(i)
        table[i & 127] = rec
        other = table.get((i * 7) & 127)
        if other is not None:
            acc += other.flags
        at = i & 4095
        buf[at : at + 8] = _HEADER.pack(i, 0xCA1B, 1, 0)
        at = (i * 3) & 4095
        acc += _HEADER.unpack(bytes(buf[at : at + 8]))[0]
        try:
            rec.moved(-1)
        except ValueError:
            acc += 1
    return acc


def pool_kernel() -> None:
    """Short kernel slices on a fresh pool, as ``run_matrix`` runs its cells."""
    with ThreadPoolExecutor(max_workers=POOL_THREADS) as pool:
        list(pool.map(lambda _: kernel(POOL_TASK_STEPS), range(POOL_TASKS)))


def start_time() -> float:
    """Seconds to start a bare interpreter and wait for it to exit.

    The output is captured so that ``run`` waits on the pipes: without
    them, a wait with a timeout polls at intervals growing to 50 ms, and
    every start-up between 32 and 64 ms reads as about 64 ms."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e9


def bracketed(sample: Callable[[], float]) -> tuple[float, float, float]:
    """Run ``sample()``, which returns host seconds, between two
    ``start_time()`` calls; return the sample, the sample scaled to
    ``START_REFERENCE_S`` by their mean, and that mean."""
    before = start_time()
    host = sample()
    start = (before + start_time()) / 2
    return host, host * START_REFERENCE_S / start, start


class Calibration:
    """Kernel timings taken between the episodes of one run; ``pooled``
    times ``pool_kernel`` against ``POOL_REFERENCE_S``."""

    def __init__(self, pooled: bool = False):
        self.samples: list[int] = []
        self._kernel = pool_kernel if pooled else kernel
        self._reference_s = POOL_REFERENCE_S if pooled else REFERENCE_S

    def measure(self, budget_ns: int) -> float:
        """Time the kernel for about ``budget_ns`` (at least ``LEAST_CALLS`` calls)
        and return the speed factor, reference time ÷ median kernel time;
        a host time times the factor is the time at reference speed."""
        taken: list[int] = []
        spent = 0
        while len(taken) < LEAST_CALLS or spent < budget_ns:
            t0 = perf_counter_ns()
            self._kernel()
            taken.append(perf_counter_ns() - t0)
            spent += taken[-1]
        self.samples += taken
        return self._reference_s * 1e9 / statistics.median(taken)

    def kernel_s(self) -> float:
        """Median kernel time over the run, in host seconds."""
        return statistics.median(self.samples) / 1e9
