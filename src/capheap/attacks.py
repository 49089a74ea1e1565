"""Five deterministic heap-attack probes.

Each probe drives an allocator in its initial state (fresh, or reset:
the two are the same state) through a short scenario and classifies
the result:

* A1  use-after-free read-back
* A2  stale-data exposure through realloc bounds widening
* A3  free() fed a capability narrowed below the allocation
* A4  double free
* A5  executable permission on returned capabilities

Outcomes: the attack Succeeds, is Thwarted, or is NotApplicable when
its precondition is absent for that allocator.

Each probe is a body in ``ATTACKS`` that takes an op set ``t`` and
returns ``(outcome, note)``.  Its ops are ``t.malloc``, ``t.free``,
``t.realloc``, ``t.store`` (bytes at the capability's cursor),
``t.load``, ``t.set_bounds``, ``t.traits`` and ``t.note``; each returns
its value and raises ``AllocError`` or ``CapFault`` when the allocator
refuses, and the body decides on those values: a load's bytes against
the sentinel, a trait as a bool, a refusal as the exception it caught.
Two op sets run the bodies.  ``Ops(alloc)`` is the allocator's own
callables and records nothing; the conformance grid runs every cell on
one, so a grid builds no step and no report.  ``Tape(alloc)`` is the
one recorder: its ops record each step, and ``run_attack(k, alloc)``
runs ``ATTACKS[k]`` on a new tape and returns its ``AttackReport``,
whose trace can be replayed against a fresh instance and must reproduce
each step.  ``Tape.do`` runs an op by name, as ``replay_trace`` and
``capheap dump`` scripts do: it checks and decodes the arguments by the
kinds ``OP_FIELDS`` gives the op, then calls the ``Ops`` method of that
name.  A script's result index ``K`` names the tape's ``rK``.

Reports and their steps are ``NamedTuple`` records, immutable like
``Capability``.  A step records the op's value, not its text: the text,
``TraceStep.result``, is rendered only when it is read.  Two recorded
steps are equal exactly when their ``(op, args, result)`` are.  A step
keeps a refusal's kind, never the caught exception, so a probe leaves
no reference cycle behind for the cyclic collector.
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
    "AttackReport",
    "Ops",
    "Outcome",
    "TraceStep",
    "Tape",
    "predicted_row",
    "replay_trace",
    "run_attack",
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
        return _GLYPHS[self._value_]

    @property
    def token(self) -> str:
        return _TOKENS[self._value_]

    @classmethod
    def from_token(cls, token: str) -> "Outcome":
        outcome = _BY_TOKEN.get(token) if isinstance(token, str) else None
        if outcome is None:
            raise ValueError(f"unknown outcome token {token!r}")
        return outcome


# Each outcome's text, keyed by its ``_value_``, and the members a function
# body reads, bound once (see ``capability``'s module docstring)
_GLYPHS = {"succeeds": "✓", "thwarted": "×", "not_applicable": "⊘"}
_TOKENS = {"succeeds": "S", "thwarted": "T", "not_applicable": "NA"}
_BY_TOKEN = {_TOKENS[outcome._value_]: outcome for outcome in Outcome}
_SUCCEEDS = Outcome.SUCCEEDS
_THWARTED = Outcome.THWARTED
_NOT_APPLICABLE = Outcome.NOT_APPLICABLE
_INLINE_HEADER = FreeValidation.INLINE_HEADER


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
            return f"{head}:{tail._value_}"
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
        if self.outcome is _SUCCEEDS:
            text = "attack succeeded"
        elif self.outcome is _THWARTED:
            text = "attack thwarted"
        else:
            text = f"not applicable ({self.note})" if self.note else "not applicable"
        return f"{self.outcome.glyph} {text}"


class Ops:
    """The probe ops on one allocator, as its own callables.  ``malloc``,
    ``free``, ``realloc``, the heap's ``load`` and
    ``Capability.set_bounds`` are bound when the set is built, so a
    wrapper set on their class before then is the one called, and so is
    the allocator's trait record; ``store`` (at the capability's
    cursor), ``traits`` (a field of that record) and ``note`` are
    one-line adapters.  Each op returns its value and raises the
    allocator's ``AllocError`` or ``CapFault`` when it refuses.  An op
    set records nothing: ``Tape`` is the one recorder."""

    __slots__ = ("alloc", "malloc", "free", "realloc", "load", "set_bounds", "_traits")

    def __init__(self, alloc: Allocator):
        self.alloc = alloc
        self._traits = alloc._traits  # the record ``alloc.traits()`` returns
        self.malloc = alloc.malloc
        self.free = alloc.free
        self.realloc = alloc.realloc
        self.load = alloc.heap.load
        self.set_bounds = Capability.set_bounds

    def store(self, cap: Capability, data: bytes) -> None:
        return self.alloc.heap.store(cap, cap.address, data)

    def traits(self, name: str):
        return _TRAITS[name](self._traits)

    def note(self, text: str) -> None:
        pass


class Tape:
    """Executes probe and dump-script operations against one allocator
    while recording (op, args, value) steps.  Capabilities are
    referenced by the ids assigned on creation ("r0", "r1", ...), which
    makes the recording self-contained: replaying the same ops on a
    fresh instance assigns the same ids.

    ``do`` runs an op by name through the tape's own ``Ops`` and returns
    its value: a new capability's ref, the bytes a ``load`` read, or a
    trait's value; it returns None for an op that returns nothing and
    for one the allocator refuses.  A refusal records its kind
    (``error:Kind`` or ``fault:Kind`` as text) and leaves its message in
    ``error``, which is None after an op that succeeds.  Before any
    engine call ``do`` checks the op against its ``OP_FIELDS`` row and
    decodes each argument by its kind: a ref becomes the capability it
    names and hex becomes bytes.  A malformed op (an unknown op, ref or
    trait, or the wrong number of arguments) raises a ``ValueError``
    naming it; any other exception, such as ``bytes.fromhex``'s
    ``ValueError`` or one for an argument the model rejects, propagates
    unchanged.  Neither records a step.

    The methods ``malloc`` .. ``note`` are the op set of ``Ops``, taped:
    each names a capability by the ref of the step that returned that
    very object and bytes as hex, records through ``do``, returns what
    the ``Ops`` method would, and raises a refusal ``do`` recorded as the
    allocator raised it (same class, kind and detail).

    ``do`` keeps each step as a plain ``(op, args, value)`` tuple, and
    ``steps`` builds the ``TraceStep`` records from them only when it is
    read."""

    __slots__ = ("alloc", "_ops", "_caps", "_refs", "_refusal", "_steps")

    def __init__(self, alloc: Allocator):
        self.alloc = alloc
        self._ops = Ops(alloc)
        self._caps: dict[str, Capability] = {}
        self._refs: dict[int, str] = {}  # id of each capability in _caps -> its ref
        # the last op's refusal as (class, kind, detail), None if it passed
        self._refusal: tuple | None = None
        self._steps: list[tuple] = []

    @property
    def error(self) -> str | None:
        """The last op's refusal text, or None after an op that succeeds."""
        refusal = self._refusal
        return None if refusal is None else str(refusal[0](*refusal[1:]))

    @property
    def steps(self) -> list[TraceStep]:
        """Every step recorded so far, as a new list of ``TraceStep``."""
        return [_tuple_new(TraceStep, step) for step in self._steps]

    def do(self, op: str, *args):
        fields = OP_FIELDS.get(op) if isinstance(op, str) else None
        if fields is None:
            raise ValueError(f"unknown trace op {op!r}")
        if len(args) != len(fields):
            raise ValueError(f"{op} takes {len(fields)} argument{'s' * (len(fields) > 1)}, got {len(args)}")
        caps = self._caps
        decoded = []
        for kind, arg in zip(fields, args):
            if kind == "K":
                cap = caps.get(arg) if isinstance(arg, str) else None
                if cap is None:
                    raise ValueError(f"{op}: unknown ref {arg!r}")
                arg = cap
            elif kind == "H":
                arg = bytes.fromhex(arg)
            elif kind == "T" and (not isinstance(arg, str) or arg not in _TRAITS):
                raise ValueError(f"unknown trait {arg!r}")
            decoded.append(arg)
        try:
            value = getattr(self._ops, op)(*decoded)
        except (AllocError, CapFault) as exc:
            # only the class, kind and detail survive the handler: the
            # exception's traceback refers to this frame, so keeping it
            # would make a cycle
            kind = "fault" if isinstance(exc, CapFault) else "error"
            self._steps.append((op, args, (kind, exc.kind)))
            self._refusal = (type(exc), exc.kind, exc.detail)
            return None
        self._refusal = None
        if isinstance(value, Capability):
            ref = f"r{len(caps)}"
            caps[ref] = value
            self._refs[id(value)] = ref
            self._steps.append((op, args, (ref, value)))
            return ref
        self._steps.append((op, args, value))
        return value

    def malloc(self, n: int) -> Capability:
        return self._caps[self._checked(self.do("malloc", n))]

    def free(self, cap: Capability) -> None:
        return self._checked(self.do("free", self._ref(cap)))

    def realloc(self, cap: Capability, n: int) -> Capability:
        return self._caps[self._checked(self.do("realloc", self._ref(cap), n))]

    def store(self, cap: Capability, data: bytes) -> None:
        return self._checked(self.do("store", self._ref(cap), data.hex()))

    def load(self, cap: Capability, addr: int, n: int) -> bytes:
        return self._checked(self.do("load", self._ref(cap), addr, n))

    def set_bounds(self, cap: Capability, base: int, n: int) -> Capability:
        return self._caps[self._checked(self.do("set_bounds", self._ref(cap), base, n))]

    def traits(self, name: str):
        return self.do("traits", name)

    def note(self, text: str) -> None:
        return self.do("note", text)

    def _ref(self, cap: Capability) -> str:
        try:
            return self._refs[id(cap)]
        except KeyError:
            raise ValueError(f"no step of this tape returned {cap!r}") from None

    def _checked(self, value):
        """``value``, or the refusal the op just recorded, raised anew."""
        refusal = self._refusal
        if refusal is not None:
            raise refusal[0](*refusal[1:])
        return value


# each op's arguments, which Tape.do checks and decodes and capheap dump
# parses: K a capability ref, N a number, H bytes in hex, T a trait name
# and S a note's text; each op is the Ops method of its name
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


def _a1(t: Ops | Tape) -> tuple[Outcome, str]:
    """Read back a sentinel through a capability that was freed.

    Succeeds when the stale capability still works and the data is
    intact: nothing revoked or quarantined the allocation.
    """
    try:
        p = t.malloc(64)
        t.store(p, A1_SENTINEL)
        t.free(p)
        if t.load(p, p.address, len(A1_SENTINEL)) == A1_SENTINEL:
            return _SUCCEEDS, ""
    except (AllocError, CapFault):
        pass
    return _THWARTED, ""


def _a2(t: Ops | Tape) -> tuple[Outcome, str]:
    """Grow an allocation over a freed neighbor and read its stale bytes.

    Needs bounds narrowing to be meaningful at all.  The probe plants a
    sentinel in an adjacent victim, frees it, grows the first block
    over the victim's range, and reads at the victim's old address
    through the widened capability.
    """
    if not t.traits("narrow_bounds"):
        return _NOT_APPLICABLE, "no bounds narrowing"
    try:
        p = t.malloc(32)
    except (AllocError, CapFault):
        return _THWARTED, ""
    victim = None
    for _ in range(A2_MAX_VICTIMS):
        try:
            cap = t.malloc(32)
        except (AllocError, CapFault):
            break
        if p.address < cap.address <= p.address + 64:
            victim = cap
            break
    if victim is None:
        t.note("no adjacent victim found")
        return _NOT_APPLICABLE, "no adjacent victim found"
    try:
        t.store(victim, A2_SENTINEL)
        t.free(victim)
        q = t.realloc(p, 128)
        if t.load(q, victim.address, len(A2_SENTINEL)) == A2_SENTINEL:
            return _SUCCEEDS, ""
    except (AllocError, CapFault):
        pass
    return _THWARTED, ""


def _a3(t: Ops | Tape) -> tuple[Outcome, str]:
    """Hand free() a capability narrowed below the allocation.

    Succeeds when the tampered capability is accepted silently; engines
    that validate through the capability itself fault instead.
    """
    try:
        p = t.malloc(64)
        t.free(t.set_bounds(p, p.address, 16))
    except (AllocError, CapFault):
        return _THWARTED, ""
    return _SUCCEEDS, ""


def _a4(t: Ops | Tape) -> tuple[Outcome, str]:
    """Free the same allocation twice.

    Not applicable under deferred deallocation, where the second free's
    effect is unobservable within the probe's synchronous window.
    """
    if t.traits("deferred_free"):
        return _NOT_APPLICABLE, "deferred free"
    try:
        p = t.malloc(48)
        t.free(p)
        t.free(p)
    except (AllocError, CapFault):
        return _THWARTED, ""
    return _SUCCEEDS, ""


def _a5(t: Ops | Tape) -> tuple[Outcome, str]:
    """Check whether returned capabilities carry execute authority."""
    try:
        p = t.malloc(32)
    except (AllocError, CapFault):
        return _THWARTED, ""
    return _SUCCEEDS if p.perms & _EXEC else _THWARTED, ""


ATTACKS: dict[str, Callable[[Ops | Tape], tuple[Outcome, str]]] = {
    "A1": _a1,
    "A2": _a2,
    "A3": _a3,
    "A4": _a4,
    "A5": _a5,
}

ATTACK_IDS: tuple[str, ...] = tuple(ATTACKS)


def run_attack(attack: str, alloc: Allocator) -> AttackReport:
    """Run ``ATTACKS[attack]`` on a new tape over ``alloc`` and report its
    allocator, outcome, note and every step it recorded."""
    t = Tape(alloc)
    outcome, note = ATTACKS[attack](t)
    return _tuple_new(AttackReport, (attack, alloc.traits().name, outcome, tuple(t.steps), note))


def predicted_row(traits: AllocatorTraits) -> tuple[Outcome, ...]:
    """The probes' decision rules evaluated on a trait record alone,
    without running any engine.  Used as an independent cross-check of
    the trait table against the golden matrix."""
    a1 = _SUCCEEDS  # no modeled allocator revokes freed capabilities
    if not traits.narrow_bounds:
        a2 = _NOT_APPLICABLE
    elif traits.realloc_grows_in_place:
        a2 = _SUCCEEDS
    else:
        a2 = _THWARTED
    a3 = _THWARTED if traits.free_validation is _INLINE_HEADER else _SUCCEEDS
    if traits.deferred_free:
        a4 = _NOT_APPLICABLE
    elif traits.double_free_detect:
        a4 = _THWARTED
    else:
        a4 = _SUCCEEDS
    a5 = _THWARTED if traits.strips_exec else _SUCCEEDS
    return (a1, a2, a3, a4, a5)
