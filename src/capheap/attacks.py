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
instance and must reproduce each step.  ``Tape.do`` returns the op's
value (a capability ref, the bytes a load read, a trait's value, or
None), and the probes decide on those values: a load's bytes against
the sentinel, a trait as a bool, a refusal as None or as the tape's
``error``.  The tape is the one interpreter of op names: ``capheap
dump`` scripts run through it too, with a script's result index ``K``
naming the tape's ``rK``.

Each probe is a body in ``PROBES`` that takes a tape and returns
``(outcome, note)``.  ``ATTACKS[k](alloc)`` runs ``PROBES[k]`` on a new
``Tape(alloc)`` and returns ``Tape.report``; a caller that needs only
the outcome, as the conformance grid does, runs the body alone and
builds no report.

Reports and their steps are ``NamedTuple`` records, immutable like
``Capability``.  A step records the op's value, not its text: the text,
``TraceStep.result``, is rendered only when it is read, so a grid that
reads outcomes alone renders none.  Two recorded steps are equal
exactly when their ``(op, args, result)`` are.  A step keeps a
refusal's kind, never the caught exception, so a probe leaves no
reference cycle behind for the cyclic collector.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Callable, NamedTuple

from .allocator_api import AllocError, Allocator, AllocatorTraits, FreeValidation
from .capability import CapFault, Capability, Perm, _tuple_new

__all__ = [
    "ATTACK_IDS",
    "ATTACKS",
    "OP_FIELDS",
    "PROBES",
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
    """One taped op: its name, its arguments and what it gave back.

    ``value`` is ``(ref, capability)`` for an op that returned a new
    capability, the bytes a ``load`` read, a trait's value, None for an
    op that returns nothing, and ``("fault", FaultKind)`` or ``("error",
    AllocErrorKind)`` for an op the allocator refused."""

    op: str
    args: tuple
    value: object

    @property
    def result(self) -> str:
        """The step's trace text: ``rK=cap(...)``, a load's bytes in hex,
        ``ok`` for None, ``fault:Kind`` or ``error:Kind`` for a refusal,
        and ``str(value)`` for anything else."""
        value = self.value
        if isinstance(value, tuple):
            head, tail = value
            if isinstance(tail, Capability):
                return f"{head}={tail.describe()}"
            return f"{head}:{tail.value}"
        if isinstance(value, bytes):
            return value.hex()
        return "ok" if value is None else str(value)


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


class Tape:
    """Executes probe and dump-script operations against one allocator
    while recording (op, args, value) steps.  Capabilities are
    referenced by the ids assigned on creation ("r0", "r1", ...), which
    makes the recording self-contained: replaying the same ops on a
    fresh instance assigns the same ids.

    ``do`` returns the op's value: a new capability's ref, the bytes a
    ``load`` read, or a trait's value; it returns None for an op that
    returns nothing and for one the allocator refuses.  A refusal
    records its kind (``error:Kind`` or ``fault:Kind`` as text) and
    leaves its message in ``error``, which is None after an op that
    succeeds.  A malformed op
    (an unknown op, ref or trait, or the wrong number of arguments)
    raises a ``ValueError`` naming it before any engine call; any other
    exception, such as a ``ValueError`` for an argument the model
    rejects, propagates unchanged.  Neither records a step.

    ``do`` keeps each step as a plain ``(op, args, value)`` tuple, and
    ``steps`` and ``report`` build the ``TraceStep`` records from them
    only when they are called, so a probe whose caller reads only its
    outcome builds none."""

    __slots__ = ("alloc", "error", "_caps", "_steps")

    def __init__(self, alloc: Allocator):
        self.alloc = alloc
        self.error: str | None = None
        self._caps: dict[str, Capability] = {}
        self._steps: list[tuple] = []

    @property
    def steps(self) -> list[TraceStep]:
        """Every step recorded so far, as a new list of ``TraceStep``."""
        return [_tuple_new(TraceStep, step) for step in self._steps]

    def cap(self, ref: str) -> Capability:
        return self._caps[ref]

    def do(self, op: str, *args):
        alloc = self.alloc
        caps = self._caps
        # op names tested in the order of their use by the probes
        try:
            if op == "malloc":
                (size,) = args
                value = alloc.malloc(size)
            elif op == "free":
                (ref,) = args
                value = alloc.free(caps[ref])
            elif op == "traits":
                (name,) = args
                value = _TRAITS[name](alloc.traits())
            elif op == "store":
                ref, data = args
                cap = caps[ref]
                value = alloc.heap.store(cap, cap.address, bytes.fromhex(data))
            elif op == "load":
                ref, addr, length = args
                value = alloc.heap.load(caps[ref], addr, length)
            elif op == "set_bounds":
                ref, base, length = args
                value = caps[ref].set_bounds(base, length)
            elif op == "realloc":
                ref, size = args
                value = alloc.realloc(caps[ref], size)
            elif op == "note":
                (_,) = args
                value = None
            else:
                raise ValueError(f"unknown trace op {op!r}")
        except (AllocError, CapFault) as exc:
            # only the kind and text survive the handler: the exception's
            # traceback refers to this frame, so keeping it would make a cycle
            kind = "fault" if isinstance(exc, CapFault) else "error"
            self._steps.append((op, args, (kind, exc.kind)))
            self.error = str(exc)
            return None
        except (KeyError, TypeError, ValueError):
            # checked only once something raised, so a passing op pays
            # nothing; a malformed op raises before its engine call
            why = self._malformed(op, args)
            if why is None:
                raise
            raise ValueError(why) from None
        self.error = None
        if isinstance(value, Capability):
            ref = f"r{len(caps)}"
            caps[ref] = value
            self._steps.append((op, args, (ref, value)))
            return ref
        self._steps.append((op, args, value))
        return value

    def _malformed(self, op, args) -> str | None:
        """What makes ``op(*args)`` no op the tape can run, or None when
        the op is well formed and the exception is the op's own."""
        fields = OP_FIELDS.get(op) if isinstance(op, str) else None
        if fields is None:
            return None  # an unknown op's ValueError already names it
        if len(args) != len(fields):
            return f"{op} takes {len(fields)} argument{'s' * (len(fields) > 1)}, got {len(args)}"
        first = args[0]
        if fields[0] == "K" and (not isinstance(first, str) or first not in self._caps):
            return f"{op}: unknown ref {first!r}"
        if fields == "T" and (not isinstance(first, str) or first not in _TRAITS):
            return f"unknown trait {first!r}"
        return None

    def report(self, attack: str, outcome: Outcome, note: str = "") -> AttackReport:
        """The probe's report: its allocator, ``outcome`` and every step so far."""
        return _tuple_new(AttackReport, (attack, self.alloc.traits().name, outcome, tuple(self.steps), note))


# each op's arguments: K a capability ref, N a number, H bytes in hex,
# T a trait name and S a note's text
OP_FIELDS = {"malloc": "N", "free": "K", "realloc": "KN", "store": "KH",
             "load": "KNN", "set_bounds": "KNN", "traits": "T", "note": "S"}

# what a traits op reads: the trait record's fields and its derived flag,
# not its methods, whose text would not replay
_TRAITS = {name: attrgetter(name) for name in (*AllocatorTraits._fields, "double_free_detect")}


def replay_trace(report: AttackReport, alloc: Allocator) -> list[TraceStep]:
    """Re-run a report's recorded ops against a fresh allocator and return
    the steps produced; equal step lists mean the trace reproduced."""
    tape = Tape(alloc)
    for step in report.trace:
        tape.do(step.op, *step.args)
    return tape.steps


def _a1(t: Tape) -> tuple[Outcome, str]:
    p = t.do("malloc", 64)
    if p is not None:
        addr = t.cap(p).address
        t.do("store", p, A1_SENTINEL.hex())
        if t.error is None:
            t.do("free", p)
            if t.error is None and t.do("load", p, addr, len(A1_SENTINEL)) == A1_SENTINEL:
                return Outcome.SUCCEEDS, ""
    return Outcome.THWARTED, ""


def _a2(t: Tape) -> tuple[Outcome, str]:
    if not t.do("traits", "narrow_bounds"):
        return Outcome.NOT_APPLICABLE, "no bounds narrowing"
    p = t.do("malloc", 32)
    if p is None:
        return Outcome.THWARTED, ""
    p_addr = t.cap(p).address
    for _ in range(A2_MAX_VICTIMS):
        victim = t.do("malloc", 32)
        if victim is None or p_addr < t.cap(victim).address <= p_addr + 64:
            break
    else:
        victim = None
    if victim is None:
        t.do("note", "no adjacent victim found")
        return Outcome.NOT_APPLICABLE, "no adjacent victim found"
    victim_addr = t.cap(victim).address
    t.do("store", victim, A2_SENTINEL.hex())
    if t.error is None:
        t.do("free", victim)
        q = t.do("realloc", p, 128) if t.error is None else None
        if q is not None and t.do("load", q, victim_addr, len(A2_SENTINEL)) == A2_SENTINEL:
            return Outcome.SUCCEEDS, ""
    return Outcome.THWARTED, ""


def _a3(t: Tape) -> tuple[Outcome, str]:
    p = t.do("malloc", 64)
    narrowed = None if p is None else t.do("set_bounds", p, t.cap(p).address, 16)
    if narrowed is None:
        return Outcome.THWARTED, ""
    t.do("free", narrowed)
    return Outcome.SUCCEEDS if t.error is None else Outcome.THWARTED, ""


def _a4(t: Tape) -> tuple[Outcome, str]:
    if t.do("traits", "deferred_free"):
        return Outcome.NOT_APPLICABLE, "deferred free"
    p = t.do("malloc", 48)
    if p is not None:
        t.do("free", p)
        if t.error is None:
            t.do("free", p)
            if t.error is None:
                return Outcome.SUCCEEDS, ""
    return Outcome.THWARTED, ""


def _a5(t: Tape) -> tuple[Outcome, str]:
    p = t.do("malloc", 32)
    has_exec = p is not None and t.cap(p).perms & _EXEC
    return Outcome.SUCCEEDS if has_exec else Outcome.THWARTED, ""


PROBES: dict[str, Callable[[Tape], tuple[Outcome, str]]] = {
    "A1": _a1,
    "A2": _a2,
    "A3": _a3,
    "A4": _a4,
    "A5": _a5,
}


def _probe(attack: str, alloc: Allocator) -> AttackReport:
    t = Tape(alloc)
    outcome, note = PROBES[attack](t)
    return t.report(attack, outcome, note)


def a1_use_after_free(alloc: Allocator) -> AttackReport:
    """Read back a sentinel through a capability that was freed.

    Succeeds when the stale capability still works and the data is
    intact: nothing revoked or quarantined the allocation.
    """
    return _probe("A1", alloc)


def a2_realloc_widening(alloc: Allocator) -> AttackReport:
    """Grow an allocation over a freed neighbor and read its stale bytes.

    Needs bounds narrowing to be meaningful at all.  The probe plants a
    sentinel in an adjacent victim, frees it, grows the first block
    over the victim's range, and reads at the victim's old address
    through the widened capability.
    """
    return _probe("A2", alloc)


def a3_free_narrowed(alloc: Allocator) -> AttackReport:
    """Hand free() a capability narrowed below the allocation.

    Succeeds when the tampered capability is accepted silently; engines
    that validate through the capability itself fault instead.
    """
    return _probe("A3", alloc)


def a4_double_free(alloc: Allocator) -> AttackReport:
    """Free the same allocation twice.

    Not applicable under deferred deallocation, where the second free's
    effect is unobservable within the probe's synchronous window.
    """
    return _probe("A4", alloc)


def a5_excess_permissions(alloc: Allocator) -> AttackReport:
    """Check whether returned capabilities carry execute authority."""
    return _probe("A5", alloc)


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
