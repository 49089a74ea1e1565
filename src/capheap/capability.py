"""CHERI-style capability values and their derivation algebra.

A capability is a fat reference carrying bounds, a cursor address, a
permission mask, and a validity tag.  Derivation is monotonic: bounds
and permissions can only shrink, and no operation ever sets the tag of
an untagged value.  Only tagged capabilities authorize memory access;
the access check itself lives here (``check_access``) so that the heap,
the allocators, and the attack probes all share one authority model.

Addresses are unsigned 32-bit byte offsets.  Bounds are exact by
default; an optional rounding mode pads large bounds to a power-of-two
alignment to mimic representability limits of compressed encodings.

Narrowing is the private ``_derive``: it checks and builds a child's
bounds, cursor and permissions in a single construction.  ``set_bounds``
is ``_derive`` with the cursor on the new base and the parent's
permissions, and the allocators call it directly rather than chaining
``set_bounds``, ``set_address`` and ``and_perms`` through two
intermediate values.  Where ``_derive`` could neither round nor fault (a
block inside the heap, and rounding off or the block no longer than
``ROUNDING_THRESHOLD``), an engine builds the capability in line with
``_tuple_new`` instead, the tuple ``_derive`` would return, and calls
``_derive`` only where it can do more.

``Perm`` names the permission bits, but a capability carries its mask
as a plain ``int``: on the access-check path, ``IntFlag`` operators
cost an order of magnitude or more over ``int`` ones.  Every operation
accepts ``Perm`` values and ints alike.

Enum members cost more to read than plain values too.  The package's
enums are ``Perm`` and ``FaultKind`` here, ``AllocErrorKind``,
``FreeValidation`` and ``attacks.Outcome``.  A function body loads a
member from a module constant bound once (``_BOUNDS_VIOLATION`` for
``FaultKind.BOUNDS_VIOLATION``), never from its class: on Python 3.10
and 3.11 the enum metaclass defines ``__getattr__``, which sends every
class attribute load through the slow attribute hook.  An error's
message reads its kind's ``_value_``, a plain instance attribute, and
not ``value``, a Python-level property on every version.  Best of 7 on
a 2-CPU host, against a plain class attribute and ``_value_``:

    Python    member load      ``value``
    3.10.13   174 ns / 43 ns   201 ns / 31 ns
    3.11.7    100 ns / 20 ns   121 ns /  9 ns
    3.12.1     26 ns / 10 ns   106 ns / 11 ns
    3.13.0     26 ns / 10 ns   104 ns / 11 ns

On 3.11.7 a bounds fault raised through ``check_access`` fell from
1.65-1.79 us to 1.31-1.35 us with both rules (a passing check takes
0.15 us).  ``tests/test_source.py`` holds every function body in the
package to the first rule.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "ADDRESS_MAX",
    "CapFault",
    "Capability",
    "FaultKind",
    "PERM_ALL",
    "PERM_NONE",
    "Perm",
    "make_root",
]

ADDRESS_MAX = (1 << 32) - 1

# Bounds rounding (opt-in) only applies above this length; the alignment
# grows with the requested length, leaving 8 bits of mantissa.
ROUNDING_THRESHOLD = 4096
ROUNDING_MANTISSA_BITS = 8


class Perm(enum.IntFlag):
    """Permission bits at fixed positions 0..5."""

    LOAD = 1 << 0
    STORE = 1 << 1
    LOAD_CAP = 1 << 2
    STORE_CAP = 1 << 3
    EXEC = 1 << 4
    GLOBAL = 1 << 5


PERM_ALL = Perm(0x3F)
PERM_NONE = Perm(0)


class FaultKind(enum.Enum):
    TAG_VIOLATION = "TagViolation"
    BOUNDS_VIOLATION = "BoundsViolation"
    PERMISSION_VIOLATION = "PermissionViolation"
    ALIGNMENT_VIOLATION = "AlignmentViolation"
    MONOTONICITY_VIOLATION = "MonotonicityViolation"


# the kinds as module constants, for the raise sites in function bodies
_TAG_VIOLATION = FaultKind.TAG_VIOLATION
_BOUNDS_VIOLATION = FaultKind.BOUNDS_VIOLATION
_PERMISSION_VIOLATION = FaultKind.PERMISSION_VIOLATION
_ALIGNMENT_VIOLATION = FaultKind.ALIGNMENT_VIOLATION
_MONOTONICITY_VIOLATION = FaultKind.MONOTONICITY_VIOLATION


class CapFault(Exception):
    """A failed capability check.  ``kind`` is the machine-checkable part;
    the message is informative only."""

    def __init__(self, kind: FaultKind, detail: str = ""):
        head = kind._value_
        Exception.__init__(self, f"{head}: {detail}" if detail else head)
        self.kind = kind
        self.detail = detail

    def __reduce__(self):
        # ``args`` holds only the message: pickle and copy rebuild from these
        return type(self), (self.kind, self.detail)


class Capability(NamedTuple):
    """An immutable capability value.

    ``address`` is a roaming cursor: it may legally sit outside
    [base, top).  Out-of-bounds access only faults when the capability
    is actually used through ``check_access``.
    """

    tag: bool
    base: int
    top: int
    address: int
    perms: int

    @property
    def length(self) -> int:
        return self.top - self.base

    def set_bounds(self, new_base: int, length: int, *, rounding: bool = False) -> "Capability":
        """Derive a child narrowed to [new_base, new_base + length).

        The child's address starts at ``new_base`` and its permissions
        are inherited.  With ``rounding``, lengths above 4096 get their
        base rounded down and top rounded up to the representable
        alignment; a rounded range escaping the parent still faults.  A
        base or length that is no int faults with ``BOUNDS_VIOLATION``.
        """
        return _derive(self, new_base, length, new_base, self.perms, rounding)

    def set_address(self, address: int) -> "Capability":
        """Copy with the cursor moved; bounds and tag are untouched.  An
        address that is no int faults with ``BOUNDS_VIOLATION``, as a
        heap access at one does."""
        if not isinstance(address, int):
            raise CapFault(_BOUNDS_VIOLATION, f"address {address!r} is not an int")
        if not 0 <= address <= ADDRESS_MAX:
            raise ValueError(f"address {address} outside 32-bit range")
        return Capability(self.tag, self.base, self.top, address, self.perms)

    def and_perms(self, mask: int) -> "Capability":
        """Copy with permissions intersected with ``mask``.  A mask that is
        no int faults with ``PERMISSION_VIOLATION``."""
        if not isinstance(mask, int):
            raise CapFault(_PERMISSION_VIOLATION, f"mask {mask!r} is not an int")
        # int.__and__ directly: a Perm mask would otherwise win the
        # operator dispatch (IntFlag.__rand__) and hand back a Perm
        return Capability(self.tag, self.base, self.top, self.address, int.__and__(self.perms, mask))

    def clear_tag(self) -> "Capability":
        """Invalidated copy; idempotent."""
        return self._replace(tag=False)

    def check_access(self, addr: int, length: int, need: int) -> None:
        """Raise CapFault unless this capability authorizes an access of
        ``length`` bytes at ``addr`` with permissions ``need``.

        Fault priority when several checks fail: tag, then permission,
        then bounds.  Pure: never mutates the capability.
        """
        if length < 1:
            raise ValueError("access length must be at least 1")
        if not self.tag:
            raise CapFault(_TAG_VIOLATION, "access through untagged capability")
        missing = need & ~self.perms
        if missing:
            raise CapFault(_PERMISSION_VIOLATION, f"missing {Perm(missing)!r}")
        if addr < self.base or addr + length > self.top:
            raise CapFault(
                _BOUNDS_VIOLATION,
                f"[{addr}, {addr + length}) outside [{self.base}, {self.top})",
            )

    def describe(self) -> str:
        """Canonical one-line rendering, stable across runs (used by traces)."""
        return "cap(tag=%d,base=%d,top=%d,addr=%d,perms=%#04x)" % self


_tuple_new = tuple.__new__


def _derive(
    parent: Capability, base: int, length: int, address: int, perms: int, rounding: bool
) -> Capability:
    """The derivation path: narrow ``parent`` to [base, base + length)
    (rounded as ``set_bounds`` describes), put the cursor at ``address``
    and the permission mask to ``perms``, in a single construction.  The
    engines build a child in line where this could neither round nor
    fault, and call it where the child's top may pass the parent's or
    rounding applies.

    The checks run in this order, before anything is built: a base or
    length that is no int faults with ``BOUNDS_VIOLATION`` naming it (as
    a heap access at such an address does), then a negative length
    raises ``ValueError``, an untagged parent faults with
    ``TAG_VIOLATION`` and bounds escaping the parent's fault with
    ``MONOTONICITY_VIOLATION``.  All but the first run in the order the
    chained ``set_bounds`` -> ``set_address`` -> ``and_perms`` would run
    them.  ``address`` gets no range check, as no caller can pass one
    ``set_address`` would refuse: ``set_bounds`` and the bump engine pass
    ``base`` itself, and the free list a payload address, which is at
    most the heap's size, below ``2**32`` (``make_root``).  ``perms``
    must already be cut down from the parent's mask.
    """
    if not isinstance(base, int):
        raise CapFault(_BOUNDS_VIOLATION, f"base {base!r} is not an int")
    if not isinstance(length, int):
        raise CapFault(_BOUNDS_VIOLATION, f"length {length!r} is not an int")
    if length < 0:
        raise ValueError("length must be non-negative")
    if not parent.tag:
        raise CapFault(_TAG_VIOLATION, "set_bounds on untagged capability")
    lo = base
    hi = base + length
    if rounding and length > ROUNDING_THRESHOLD:
        align = 1 << ((length - 1).bit_length() - ROUNDING_MANTISSA_BITS)
        lo = (lo // align) * align
        hi = -(-hi // align) * align
    if lo < parent.base or hi > parent.top:
        raise CapFault(
            _MONOTONICITY_VIOLATION,
            f"[{lo}, {hi}) escapes parent [{parent.base}, {parent.top})",
        )
    # tuple.__new__ skips the NamedTuple constructor's extra Python frame
    return _tuple_new(Capability, (True, lo, hi, address, perms))


def _check_heap_size(size: int) -> None:
    """The one rule for a heap's size, which ``TaggedHeap`` applies before
    it maps anything and ``make_root`` before it builds the root: refuse
    with ``ValueError`` a size that is no int (a bool included), is not
    positive, is not a multiple of 16, or is past the 32-bit address
    space."""
    if not isinstance(size, int) or isinstance(size, bool):
        raise ValueError(f"heap size {size!r} is not an int")
    if size <= 0:
        raise ValueError("heap size must be positive")
    if size % 16 != 0:
        raise ValueError("heap size must be a multiple of 16")
    if size > ADDRESS_MAX + 1 - 16:
        raise ValueError("heap size exceeds the 32-bit address space")


def make_root(heap_size: int) -> Capability:
    """The root capability over a heap of ``heap_size`` bytes: full range,
    all permissions, cursor at zero.  Everything else derives from it."""
    _check_heap_size(heap_size)
    return Capability(True, 0, heap_size, 0, int(PERM_ALL))
