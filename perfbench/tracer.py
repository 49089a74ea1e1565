"""Traced mode: spans around the public functions of each capheap layer.

``Tracer.installed()`` replaces each function named in ``layer_targets``
with a wrapper that records a span (name, start, end, parent) and puts
the original back on exit; nothing under ``src/`` changes.  Spans live
in per-thread arrays while the episode runs: the cells of a grid run on
``run_matrix``'s pool, and each pool thread's calls nest among
themselves as root spans of that thread.  A span's parent is therefore
always on its own thread, and span ids are indices into that thread's
arrays.

``derive`` turns the spans of one episode into the per-layer metrics:
calls, self time (duration minus the time child spans cover), bytes and
OOM counts, and the ratios built from them.
"""

from __future__ import annotations

import contextlib
import gzip
import threading
from array import array
from time import perf_counter_ns

from capheap import AllocError, AllocErrorKind, attacks, capability, harness, registry, tagged_memory

from .workloads import ENGINES

__all__ = ["LAYER_METRICS", "Tracer", "derive", "layer_targets"]

_OOM = AllocErrorKind.OUT_OF_MEMORY

ENGINE_OPS = ("malloc", "free", "realloc")
CAPABILITY_OPS = ("check_access", "set_bounds", "and_perms")


def _payload_len(args) -> int:
    return len(args[3])  # TaggedHeap.store(self, cap, addr, payload)


def _load_len(args) -> int:
    return args[3]  # TaggedHeap.load(self, cap, addr, length)


def layer_targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, byte-count function or None) for every
    traced function; ``owner`` is a class, a module or the ATTACKS dict."""
    heap = tagged_memory.TaggedHeap
    targets = [(capability.Capability, op, f"capability.{op}", None) for op in CAPABILITY_OPS]
    targets += [
        (heap, "load", "tagged_memory.load", _load_len),
        (heap, "store", "tagged_memory.store", _payload_len),
        (heap, "store_cap", "tagged_memory.store_cap", None),
        (heap, "load_cap", "tagged_memory.load_cap", None),
        (heap, "clear", "tagged_memory.clear", None),
        (heap, "__init__", "tagged_memory.init", None),
        (registry, "create", "registry.create", None),
        (attacks.Tape, "do", "attacks.tape_do", None),
        (harness, "run_matrix", "harness.run_matrix", None),
    ]
    targets += [(attacks.ATTACKS, a, "attacks.probe", None) for a in attacks.ATTACK_IDS]
    targets += [
        (cls, op, f"engines.{engine}.{op}", None)
        for engine, cls in ENGINES.items()
        for op in ENGINE_OPS
    ]
    return targets


def _layer_metric_names() -> list[str]:
    names = [f"capability.{op}.{f}" for op in CAPABILITY_OPS for f in ("calls", "self_s")]
    for op in ("load", "store"):
        names += [f"tagged_memory.{op}.{f}" for f in ("calls", "self_s", "bytes")]
    for op in ("store_cap", "load_cap", "clear", "init"):
        names += [f"tagged_memory.{op}.{f}" for f in ("calls", "self_s")]
    names += ["registry.create.calls", "registry.create.self_s"]
    for engine in ENGINES:
        for op in ENGINE_OPS:
            names += [f"engines.{engine}.{op}.{f}" for f in ("calls", "self_s", "oom")]
        names.append(f"engines.{engine}.oom_share")
    names.append("engines.freelist.header_loads_per_malloc")
    for layer in ("attacks.probe", "attacks.tape_do", "harness.run_matrix"):
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["driver.self_s", "trace_overhead"]
    return names


LAYER_METRICS = _layer_metric_names()

UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "oom": "count"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "ratio")


class _Buffer:
    """Spans opened on one thread, as parallel arrays."""

    __slots__ = ("name", "parent", "start", "end", "aux", "stack")

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = ["driver"]
        self._ids = {"driver": 0}
        self._local = threading.local()
        self.buffers: list[_Buffer] = []  # one per thread that opened a span; append is atomic

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buf = self._local.buffer = _Buffer()
            self.buffers.append(buf)
            return buf

    def _open(self, name_id: int, aux: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        stack = buf.stack
        parent = stack[-1] if stack else -1
        i = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(parent)
        buf.aux.append(aux)
        buf.end.append(0)
        stack.append(i)
        buf.start.append(perf_counter_ns())
        return buf, i

    @staticmethod
    def _close(buf: _Buffer, i: int) -> None:
        buf.end[i] = perf_counter_ns()
        buf.stack.pop()

    def _wrap(self, fn, name: str, count_bytes):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            buf, i = tracer._open(name_id, count_bytes(args) if count_bytes else 0)
            try:
                return fn(*args, **kwargs)
            except AllocError as exc:
                if exc.kind is _OOM:
                    buf.aux[i] = 1
                raise
            finally:
                tracer._close(buf, i)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace everything inside the block under one ``driver`` span, then
        restore every original function, also when the block raises."""
        saved = []
        try:
            for owner, attr, name, count_bytes in layer_targets():
                if isinstance(owner, dict):
                    original = owner[attr]
                    owner[attr] = self._wrap(original, name, count_bytes)
                else:
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(original, name, count_bytes))
                saved.append((owner, attr, original))
            buf, i = self._open(0, 0)
            try:
                yield self
            finally:
                self._close(buf, i)
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped TSV: thread, id, parent, name, start_ns, end_ns,
        aux; ``id`` and ``parent`` (-1 for a root) count within the thread."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("thread\tid\tparent\tname\tstart_ns\tend_ns\taux\n")
            for thread, buf in enumerate(self.buffers):
                for i, name_id in enumerate(buf.name):
                    out.write(
                        f"{thread}\t{i}\t{buf.parent[i]}\t{self.names[name_id]}\t"
                        f"{buf.start[i]}\t{buf.end[i]}\t{buf.aux[i]}\n"
                    )


def derive(tracer: Tracer) -> tuple[dict[str, int | float], dict[str, float]]:
    """Per-layer metrics of the spans recorded so far.

    Returns (counts, times): ``counts`` holds the deterministic values
    (calls, bytes, OOMs and their ratios), ``times`` the self times in
    seconds.  Children of a span run on its thread one after another, so
    the time they cover is the sum of their durations.  Work a span hands
    to other threads is not a child: ``harness.run_matrix``'s self time
    includes the wait for its pool.
    """
    names = tracer.names
    n = len(names)
    calls = [0] * n
    self_ns = [0] * n
    aux = [0] * n
    fl_malloc = tracer._ids.get("engines.freelist.malloc")
    load = tracer._ids.get("tagged_memory.load")
    header_loads = 0
    for buf in tracer.buffers:
        covered = [0] * len(buf.name)
        for i, parent in enumerate(buf.parent):
            if parent >= 0:
                covered[parent] += buf.end[i] - buf.start[i]
        for i, name_id in enumerate(buf.name):
            calls[name_id] += 1
            self_ns[name_id] += buf.end[i] - buf.start[i] - covered[i]
            aux[name_id] += buf.aux[i]
            parent = buf.parent[i]
            if name_id == load and parent >= 0 and buf.name[parent] == fl_malloc:
                header_loads += 1

    def total(values, name):
        return sum(values[i] for i, x in enumerate(names) if x == name)

    counts: dict[str, int | float] = {}
    times: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            counts[metric] = total(calls, layer)
        elif field in ("bytes", "oom"):
            counts[metric] = total(aux, layer)
        elif field == "self_s":
            times[metric] = total(self_ns, layer) / 1e9
    for engine in ENGINES:
        attempts = sum(total(calls, f"engines.{engine}.{op}") for op in ("malloc", "realloc"))
        ooms = sum(total(aux, f"engines.{engine}.{op}") for op in ("malloc", "realloc"))
        counts[f"engines.{engine}.oom_share"] = ooms / attempts if attempts else 0.0
    mallocs = total(calls, "engines.freelist.malloc")
    counts["engines.freelist.header_loads_per_malloc"] = header_loads / mallocs if mallocs else 0.0
    return counts, times
