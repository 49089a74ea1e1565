"""Five deterministic heap-attack probes.

Each probe drives an allocator in its initial state (fresh, or reset:
the two are the same state) through a short, fully recorded scenario
and classifies the result:

* A1  use-after-free read-back
* A2  stale-data exposure through realloc bounds widening
* A3  free() fed a capability narrowed below the allocation
* A4  double free
* A5  executable permission on returned capabilities

Outcomes: the attack Succeeds, is Thwarted, or is NotApplicable when
its precondition is absent for that allocator.  Every step goes through
a recording tape, so a report's trace can be replayed against a fresh
instance and must reproduce each step result.  The tape is the one
interpreter of op names: ``capheap dump`` scripts run through it too,
with a script's result index ``K`` naming the tape's ``rK``.  Reports
and their steps are ``NamedTuple`` records, immutable like
``Capability``; a step result keeps a refusal's text, never the caught
exception, so a probe leaves no reference cycle behind for the cyclic
collector.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from .allocator_api import AllocError, Allocator, AllocatorTraits, FreeValidation
from .capability import CapFault, Capability, Perm

__all__ = [
    "ATTACK_IDS",
    "ATTACKS",
    "AttackReport",
    "Outcome",
    "TraceStep",
    "Tape",
    "a1_use_after_free",
    "a2_realloc_widening",
    "a3_free_narrowed",
    "a4_double_free",
    "a5_excess_permissions",
    "predicted_row",
    "replay_trace",
]

A1_SENTINEL = b"\xa5" * 8
A2_SENTINEL = b"\xab" * 32
A2_MAX_VICTIMS = 8  # candidate victim allocations before giving up
_EXEC = int(Perm.EXEC)  # a plain int: an IntFlag ``&`` costs microseconds


class Outcome(enum.Enum):
    SUCCEEDS = "succeeds"
    THWARTED = "thwarted"
    NOT_APPLICABLE = "not_applicable"

    @property
    def glyph(self) -> str:
        return {"succeeds": "✓", "thwarted": "×", "not_applicable": "⊘"}[self.value]

    @property
    def token(self) -> str:
        return {"succeeds": "S", "thwarted": "T", "not_applicable": "NA"}[self.value]

    @classmethod
    def from_token(cls, token: str) -> "Outcome":
        for member in cls:
            if member.token == token:
                return member
        raise ValueError(f"unknown outcome token {token!r}")


class TraceStep(NamedTuple):
    op: str
    args: tuple
    result: str


class AttackReport(NamedTuple):
    attack: str
    allocator: str
    outcome: Outcome
    trace: tuple[TraceStep, ...]
    note: str = ""

    def headline(self) -> str:
        if self.outcome is Outcome.SUCCEEDS:
            text = "attack succeeded"
        elif self.outcome is Outcome.THWARTED:
            text = "attack thwarted"
        else:
            text = f"not applicable ({self.note})" if self.note else "not applicable"
        return f"{self.outcome.glyph} {text}"


class StepResult:
    """What a tape op produced: a capability ref, its trace text, whether
    it succeeded, and the text of the refusal when it did not."""

    __slots__ = ("ref", "text", "ok", "error")

    def __init__(self, ref: str | None, text: str, error: str | None):
        self.ref = ref
        self.text = text
        self.ok = error is None
        self.error = error


class Tape:
    """Executes probe and dump-script operations against one allocator
    while recording (op, args, result) steps.  Capabilities are
    referenced by the ids assigned on creation ("r0", "r1", ...), which
    makes the recording self-contained: replaying the same ops on a
    fresh instance assigns the same ids.  An op the allocator refuses
    records ``error:Kind`` or ``fault:Kind``; any other exception, such
    as a ``ValueError`` for an argument the model rejects, propagates
    and records no step."""

    def __init__(self, alloc: Allocator):
        self.alloc = alloc
        self.heap = alloc.heap
        self.steps: list[TraceStep] = []
        self._caps: dict[str, Capability] = {}
        self._next = 0

    def cap(self, ref: str) -> Capability:
        return self._caps[ref]

    def _register(self, cap: Capability) -> str:
        ref = f"r{self._next}"
        self._next += 1
        self._caps[ref] = cap
        return ref

    def do(self, op: str, *args) -> StepResult:
        ref = error = None
        try:
            value = self._execute(op, args)
        except (AllocError, CapFault) as exc:
            # only text survives the handler: the exception's traceback
            # refers to this frame, so keeping it would make a cycle
            text = _error_text(exc)
            error = str(exc)
        else:
            if isinstance(value, Capability):
                ref = self._register(value)
                text = f"{ref}={value.describe()}"
            elif isinstance(value, bytes):
                text = value.hex()
            else:
                text = "ok" if value is None else str(value)
        self.steps.append(TraceStep(op, args, text))
        return StepResult(ref, text, error)

    def _execute(self, op: str, args: tuple):
        if op == "malloc":
            return self.alloc.malloc(args[0])
        if op == "free":
            return self.alloc.free(self._caps[args[0]])
        if op == "realloc":
            return self.alloc.realloc(self._caps[args[0]], args[1])
        if op == "store":
            cap = self._caps[args[0]]
            return self.heap.store(cap, cap.address, bytes.fromhex(args[1]))
        if op == "load":
            return self.heap.load(self._caps[args[0]], args[1], args[2])
        if op == "set_bounds":
            return self._caps[args[0]].set_bounds(args[1], args[2])
        if op == "traits":
            return getattr(self.alloc.traits(), args[0])
        if op == "note":
            return None
        raise ValueError(f"unknown trace op {op!r}")


def _error_text(exc: Exception) -> str:
    if isinstance(exc, CapFault):
        return f"fault:{exc.kind.value}"
    if isinstance(exc, AllocError):
        return f"error:{exc.kind.value}"
    raise exc


def replay_trace(report: AttackReport, alloc: Allocator) -> list[TraceStep]:
    """Re-run a report's recorded ops against a fresh allocator and return
    the steps produced; equal step lists mean the trace reproduced."""
    tape = Tape(alloc)
    for step in report.trace:
        tape.do(step.op, *step.args)
    return tape.steps


def a1_use_after_free(alloc: Allocator) -> AttackReport:
    """Read back a sentinel through a capability that was freed.

    Succeeds when the stale capability still works and the data is
    intact: nothing revoked or quarantined the allocation.
    """
    t = Tape(alloc)
    p = t.do("malloc", 64)
    outcome = Outcome.THWARTED
    if p.ok:
        addr = t.cap(p.ref).address
        wrote = t.do("store", p.ref, A1_SENTINEL.hex())
        freed = t.do("free", p.ref) if wrote.ok else wrote
        if wrote.ok and freed.ok:
            read = t.do("load", p.ref, addr, len(A1_SENTINEL))
            if read.ok and read.text == A1_SENTINEL.hex():
                outcome = Outcome.SUCCEEDS
    return AttackReport("A1", alloc.traits().name, outcome, tuple(t.steps))


def a2_realloc_widening(alloc: Allocator) -> AttackReport:
    """Grow an allocation over a freed neighbor and read its stale bytes.

    Needs bounds narrowing to be meaningful at all.  The probe plants a
    sentinel in an adjacent victim, frees it, grows the first block
    over the victim's range, and reads at the victim's old address
    through the widened capability.
    """
    t = Tape(alloc)
    narrow = t.do("traits", "narrow_bounds")
    if narrow.text != "True":
        return AttackReport(
            "A2", alloc.traits().name, Outcome.NOT_APPLICABLE, tuple(t.steps),
            note="no bounds narrowing",
        )
    p = t.do("malloc", 32)
    if not p.ok:
        return AttackReport("A2", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    p_addr = t.cap(p.ref).address
    victim = None
    for _ in range(A2_MAX_VICTIMS):
        v = t.do("malloc", 32)
        if not v.ok:
            break
        if p_addr < t.cap(v.ref).address <= p_addr + 64:
            victim = v
            break
    if victim is None:
        t.do("note", "no adjacent victim found")
        return AttackReport(
            "A2", alloc.traits().name, Outcome.NOT_APPLICABLE, tuple(t.steps),
            note="no adjacent victim found",
        )
    victim_addr = t.cap(victim.ref).address
    outcome = Outcome.THWARTED
    wrote = t.do("store", victim.ref, A2_SENTINEL.hex())
    freed = t.do("free", victim.ref) if wrote.ok else wrote
    if wrote.ok and freed.ok:
        q = t.do("realloc", p.ref, 128)
        if q.ok:
            read = t.do("load", q.ref, victim_addr, len(A2_SENTINEL))
            if read.ok and read.text == A2_SENTINEL.hex():
                outcome = Outcome.SUCCEEDS
    return AttackReport("A2", alloc.traits().name, outcome, tuple(t.steps))


def a3_free_narrowed(alloc: Allocator) -> AttackReport:
    """Hand free() a capability narrowed below the allocation.

    Succeeds when the tampered capability is accepted silently; engines
    that validate through the capability itself fault instead.
    """
    t = Tape(alloc)
    p = t.do("malloc", 64)
    if not p.ok:
        return AttackReport("A3", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    addr = t.cap(p.ref).address
    narrowed = t.do("set_bounds", p.ref, addr, 16)
    if not narrowed.ok:
        return AttackReport("A3", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    freed = t.do("free", narrowed.ref)
    outcome = Outcome.SUCCEEDS if freed.ok else Outcome.THWARTED
    return AttackReport("A3", alloc.traits().name, outcome, tuple(t.steps))


def a4_double_free(alloc: Allocator) -> AttackReport:
    """Free the same allocation twice.

    Not applicable under deferred deallocation, where the second free's
    effect is unobservable within the probe's synchronous window.
    """
    t = Tape(alloc)
    deferred = t.do("traits", "deferred_free")
    if deferred.text == "True":
        return AttackReport(
            "A4", alloc.traits().name, Outcome.NOT_APPLICABLE, tuple(t.steps),
            note="deferred free",
        )
    p = t.do("malloc", 48)
    if not p.ok:
        return AttackReport("A4", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    first = t.do("free", p.ref)
    if not first.ok:
        return AttackReport("A4", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    second = t.do("free", p.ref)
    outcome = Outcome.SUCCEEDS if second.ok else Outcome.THWARTED
    return AttackReport("A4", alloc.traits().name, outcome, tuple(t.steps))


def a5_excess_permissions(alloc: Allocator) -> AttackReport:
    """Check whether returned capabilities carry execute authority."""
    t = Tape(alloc)
    p = t.do("malloc", 32)
    if not p.ok:
        return AttackReport("A5", alloc.traits().name, Outcome.THWARTED, tuple(t.steps))
    has_exec = bool(t.cap(p.ref).perms & _EXEC)
    outcome = Outcome.SUCCEEDS if has_exec else Outcome.THWARTED
    return AttackReport("A5", alloc.traits().name, outcome, tuple(t.steps))


ATTACKS: dict[str, Callable[[Allocator], AttackReport]] = {
    "A1": a1_use_after_free,
    "A2": a2_realloc_widening,
    "A3": a3_free_narrowed,
    "A4": a4_double_free,
    "A5": a5_excess_permissions,
}

ATTACK_IDS: tuple[str, ...] = tuple(ATTACKS)


def predicted_row(traits: AllocatorTraits) -> tuple[Outcome, ...]:
    """The probes' decision rules evaluated on a trait record alone,
    without running any engine.  Used as an independent cross-check of
    the trait table against the golden matrix."""
    a1 = Outcome.SUCCEEDS  # no modeled allocator revokes freed capabilities
    if not traits.narrow_bounds:
        a2 = Outcome.NOT_APPLICABLE
    elif traits.realloc_grows_in_place:
        a2 = Outcome.SUCCEEDS
    else:
        a2 = Outcome.THWARTED
    a3 = (
        Outcome.THWARTED
        if traits.free_validation is FreeValidation.INLINE_HEADER
        else Outcome.SUCCEEDS
    )
    if traits.deferred_free:
        a4 = Outcome.NOT_APPLICABLE
    elif traits.double_free_detect:
        a4 = Outcome.THWARTED
    else:
        a4 = Outcome.SUCCEEDS
    a5 = Outcome.THWARTED if traits.strips_exec else Outcome.SUCCEEDS
    return (a1, a2, a3, a4, a5)
