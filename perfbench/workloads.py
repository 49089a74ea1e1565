"""The three seeded workloads and the meter that times each call.

Every workload is a fixed amount of work per *episode*, with inputs
made from the seed and the episode number; a run plays episodes 0, 1,
2, ... until its time is up.  Each call into
capheap is timed on its own, classified (result, modelled refusal or
failure) and folded into a SHA-256 digest of the episode's results, so
repeated episodes, tracing and later commits can all be compared for
equality.

The driver only touches the public API and looks functions up through
their modules at call time (``registry.create``, ``harness.run_matrix``),
so traced mode sees every call without editing ``src/``.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import traceback
from array import array
from time import perf_counter_ns

from capheap import (
    ALLOCATOR_NAMES,
    EXPECTED_MATRIX,
    GRANULE,
    AllocError,
    CapFault,
    ConformanceMatrix,
    diff_matrix,
    harness,
    registry,
    render,
)
from capheap.engines import BumpAllocator, FreeListAllocator, SlabAllocator

__all__ = [
    "DEFAULT_SEED",
    "ENGINES",
    "FAILED",
    "REFUSED",
    "Digest",
    "Episode",
    "LongLived",
    "Matrix",
    "Meter",
    "MixReset",
    "WORKLOADS",
]

DEFAULT_SEED = 1

# Engine name -> class; the benchmark's per-engine metrics and the tracer's
# engine layers both come from this table.
ENGINES = {"bump": BumpAllocator, "freelist": FreeListAllocator, "slab": SlabAllocator}

REFUSED = object()  # the call raised AllocError or CapFault: a modelled outcome
FAILED = object()  # the call raised anything else

_MALLOC, _FREE, _REALLOC = 0, 1, 2


def engine_of(alloc) -> str:
    for name, cls in ENGINES.items():
        if type(alloc) is cls:
            return name
    raise TypeError(f"no engine for {type(alloc).__name__}")


class Digest:
    """SHA-256 over every returned capability (``describe()``), the kind of
    every refusal and every read-back byte string, in call order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def cap(self, cap) -> None:
        self._h.update(b"c" + cap.describe().encode() + b"\n")

    def refused(self, exc) -> None:
        self._h.update(b"r" + exc.kind.value.encode() + b"\n")

    def data(self, raw: bytes) -> None:
        self._h.update(b"d%d:" % len(raw) + raw)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Meter:
    """Times each call into capheap and classifies what it returned.

    ``call`` returns the call's value, ``REFUSED`` for a modelled refusal
    (recorded in the digest) or ``FAILED`` for any other exception.
    Latencies are kept per episode; ``begin`` opens the segment whose
    calls count toward one engine.
    """

    def __init__(self):
        self.lat = array("q")
        self.digest = Digest()
        self.failed = 0
        self.errors: list[str] = []
        self.segments: list[tuple[str | None, int]] = []

    def begin(self, engine: str | None) -> None:
        self.segments.append((engine, len(self.lat)))

    def call(self, fn, *args):
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except (AllocError, CapFault) as exc:
            self.lat.append(perf_counter_ns() - t0)
            self.digest.refused(exc)
            return REFUSED
        except Exception:  # a failed operation is counted, never fatal
            self.lat.append(perf_counter_ns() - t0)
            self.fail(traceback.format_exc())
            return FAILED
        self.lat.append(perf_counter_ns() - t0)
        return out

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(detail)

    def engine_totals(self) -> dict[str, tuple[int, int]]:
        """Engine -> (calls, summed latency in ns) over this episode."""
        out: dict[str, tuple[int, int]] = {}
        bounds = self.segments + [(None, len(self.lat))]
        for (engine, lo), (_, hi) in zip(bounds, bounds[1:]):
            if engine is not None:
                ops, ns = out.get(engine, (0, 0))
                out[engine] = (ops + hi - lo, ns + sum(self.lat[lo:hi]))
        return out


class Episode:
    """What one episode measured."""

    def __init__(self, meter: Meter, wall_ns: int):
        self.ops = len(meter.lat)
        self.busy_ns = sum(meter.lat)
        self.wall_ns = wall_ns
        self.engines = meter.engine_totals()
        self.latencies = meter.lat
        self.digest = meter.digest.hexdigest()
        self.failed = meter.failed
        self.errors = meter.errors


class _Intervals:
    """Live [start, start + length) blocks; add() refuses an overlap."""

    def __init__(self):
        self.starts: list[int] = []
        self.ends: dict[int, int] = {}

    def add(self, start: int, length: int) -> bool:
        i = bisect.bisect_left(self.starts, start)
        if i > 0 and self.ends[self.starts[i - 1]] > start:
            return False
        if i < len(self.starts) and start + length > self.starts[i]:
            return False
        self.starts.insert(i, start)
        self.ends[start] = start + length
        return True

    def remove(self, start: int) -> None:
        del self.starts[bisect.bisect_left(self.starts, start)]
        del self.ends[start]


def _round16(n: int) -> int:
    return (n + GRANULE - 1) & -GRANULE


def _rng(seed: int, episode: int) -> random.Random:
    """Inputs of one episode; every episode of a run gets its own, so a
    run's medians average over many inputs instead of one."""
    return random.Random(f"{seed}/{episode}")


class _Workload:
    pooled = False  # whether the timed calls run on run_matrix's thread pool

    def construct(self) -> list:
        """One fresh allocator per configuration, in table order."""
        return [registry.create(name) for name in ALLOCATOR_NAMES]


class MixReset(_Workload):
    """Criterion-5 traffic: rounds of 200 ops (55 % malloc, 30 % free,
    15 % realloc, sizes 1..160) on random live blocks, with ``reset()``
    before every round."""

    name = "mix-reset"

    OPS_PER_ROUND = 200

    def __init__(self, seed: int, episode: int = 0, rounds: int = 20):
        rng = _rng(seed, episode)
        self.rounds = []
        for _ in range(rounds):
            ops = []
            for _ in range(self.OPS_PER_ROUND):
                roll = rng.random()
                kind = _MALLOC if roll < 0.55 else _FREE if roll < 0.85 else _REALLOC
                ops.append((kind, rng.randint(1, 160), rng.getrandbits(32)))
            self.rounds.append(ops)

    def episode(self, meter: Meter) -> None:
        for alloc in self.construct():
            meter.begin(engine_of(alloc))
            for ops in self.rounds:
                meter.call(alloc.reset)
                self._round(meter, alloc, ops)

    def _round(self, meter: Meter, alloc, ops) -> None:
        live: list = []
        oracle = _Intervals()
        region = alloc.region
        call = meter.call
        for kind, size, pick in ops:
            if kind == _MALLOC or not live:
                cap = call(alloc.malloc, size)
            else:
                old = live.pop(pick % len(live))
                oracle.remove(old.address)
                if kind == _FREE:
                    call(alloc.free, old)
                    continue
                cap = call(alloc.realloc, old, size)
            if cap is REFUSED or cap is FAILED:
                continue
            meter.digest.cap(cap)
            if not (
                cap.tag
                and region.base <= cap.base <= cap.address
                and cap.address + size <= cap.top <= region.top
                and oracle.add(cap.address, _round16(size))
            ):
                meter.fail(f"{alloc.traits().name}: bad placement {cap.describe()} for {size}")
                continue
            live.append(cap)


class LongLived(_Workload):
    """One heap per allocator, never reset.

    The episode opens with ``ramp`` mallocs, then runs shuffled blocks
    of 8 mallocs, 8 frees and 4 grow-reallocs on random live blocks with
    sizes 16..2048.  Every new block is filled with a byte pattern and,
    where a whole granule fits, a capability back-pointer; blocks are
    read back and verified before they are freed or moved.
    """

    name = "long-lived"
    _BLOCK = (_MALLOC,) * 8 + (_FREE,) * 8 + (_REALLOC,) * 4
    MAX_REALLOC = 4096

    def __init__(self, seed: int, episode: int = 0, steps: int = 1500, ramp: int = 200):
        rng = _rng(seed, episode)
        kinds = [_MALLOC] * ramp
        while len(kinds) < steps:
            block = list(self._BLOCK)
            rng.shuffle(block)
            kinds += block
        self.ops = [
            (kind, rng.randint(16, 2048), rng.getrandbits(32), rng.randrange(1, 256))
            for kind in kinds[:steps]
        ]

    def episode(self, meter: Meter) -> None:
        for alloc in self.construct():
            meter.begin(engine_of(alloc))
            self._run(meter, alloc)

    def _run(self, meter: Meter, alloc) -> None:
        live: list = []  # [cap, size, fill byte, back-pointer granule or -1]
        for kind, size, pick, fill in self.ops:
            if kind == _MALLOC or not live:
                cap = meter.call(alloc.malloc, size)
                if cap is not REFUSED and cap is not FAILED:
                    meter.digest.cap(cap)
                    live.append(self._fill(meter, alloc, cap, size, fill))
            elif kind == _FREE:
                block = live.pop(pick % len(live))
                self._verify(meter, alloc, *block)
                meter.call(alloc.free, block[0])
            else:
                i = pick % len(live)
                cap, old_size = live[i][0], live[i][1]
                before = self._verify(meter, alloc, *live[i])
                new_size = min(self.MAX_REALLOC, old_size + size)
                new = meter.call(alloc.realloc, cap, new_size)
                if new is REFUSED or new is FAILED:
                    continue
                meter.digest.cap(new)
                after = self._load(meter, alloc, new, new.address, old_size)
                if before is not None and after != before:
                    meter.fail(f"{alloc.traits().name}: realloc lost the prefix of {cap.describe()}")
                live[i] = self._fill(meter, alloc, new, new_size, fill)

    def _fill(self, meter: Meter, alloc, cap, size: int, fill: int) -> list:
        if not (cap.tag and cap.address + size <= cap.top):
            meter.fail(f"{alloc.traits().name}: {cap.describe()} cannot hold {size} bytes")
        if meter.call(alloc.heap.store, cap, cap.address, bytes((fill,)) * size) is not None:
            meter.fail(f"{alloc.traits().name}: fill of {cap.describe()} refused")
        granule = _round16(cap.address)
        if granule + GRANULE > cap.address + size:
            return [cap, size, fill, -1]
        if meter.call(alloc.heap.store_cap, cap, granule, cap) is not None:
            meter.fail(f"{alloc.traits().name}: back-pointer store at {granule} refused")
        return [cap, size, fill, granule]

    def _load(self, meter: Meter, alloc, cap, addr: int, length: int):
        data = meter.call(alloc.heap.load, cap, addr, length)
        if data is REFUSED or data is FAILED:
            meter.fail(f"{alloc.traits().name}: read-back of {cap.describe()} refused")
            return None
        meter.digest.data(data)
        return data

    def _verify(self, meter: Meter, alloc, cap, size: int, fill: int, granule: int):
        """Read a live block back; returns its bytes (None if refused)."""
        data = self._load(meter, alloc, cap, cap.address, size)
        if data is None:
            return None
        pattern = bytes((fill,)) * size
        cut = granule - cap.address if granule >= 0 else size
        if data[:cut] != pattern[:cut] or data[cut + GRANULE :] != pattern[cut + GRANULE :]:
            meter.fail(f"{alloc.traits().name}: data of {cap.describe()} changed")
        if granule >= 0:
            back = meter.call(alloc.heap.load_cap, cap, granule)
            if back is REFUSED or back is FAILED:
                meter.fail(f"{alloc.traits().name}: back-pointer load at {granule} refused")
            else:
                meter.digest.cap(back)
                if back != cap:
                    meter.fail(f"{alloc.traits().name}: back-pointer {back.describe()} != {cap.describe()}")
        return data


class Matrix(_Workload):
    """Repeated in-process conformance grids with ``run_matrix``'s default
    arguments, so each grid runs on its own 8-thread pool: the full grid
    plus one grid per engine restricted to that engine's rows, in a
    seeded order per iteration.  Every grid is diffed against the
    reference matrix."""

    name = "matrix"
    pooled = True

    def __init__(self, seed: int, episode: int = 0, iterations: int = 25):
        rng = _rng(seed, episode)
        rows = {engine: [] for engine in ENGINES}
        for name in ALLOCATOR_NAMES:
            rows[engine_of(registry.create(name, 16 * GRANULE))].append(name)
        # (engine or None for the full grid, grid runner, expected matrix)
        grids = [(None, lambda: harness.run_matrix(), EXPECTED_MATRIX)]
        for engine, names in rows.items():
            expected = ConformanceMatrix(
                tuple(names), EXPECTED_MATRIX.attacks, tuple(EXPECTED_MATRIX.row(n) for n in names)
            )
            grids.append(
                (engine, lambda names=names: harness.run_matrix(rows=names), expected)
            )
        self.order = [rng.sample(grids, len(grids)) for _ in range(iterations)]

    def episode(self, meter: Meter) -> None:
        for grids in self.order:
            for engine, run, expected in grids:
                meter.begin(engine)
                grid = meter.call(run)
                if grid is REFUSED or grid is FAILED:
                    meter.fail(f"grid {engine or 'all'} raised")
                    continue
                meter.digest.data(render(grid, "csv"))
                diff = diff_matrix(grid, expected)
                if diff:
                    meter.fail(f"grid {engine or 'all'} differs: {diff}")


WORKLOADS = {cls.name: cls for cls in (MixReset, LongLived, Matrix)}


def run_episode(workload) -> Episode:
    meter = Meter()
    t0 = perf_counter_ns()
    workload.episode(meter)
    return Episode(meter, perf_counter_ns() - t0)
