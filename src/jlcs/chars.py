"""Additive and multiplicative characters of finite fields, valued in a
cyclotomic ring.

An additive character is determined by a nonzero twist b: it sends x to
zeta_p ** Tr(b*x) with Tr the absolute trace.  A multiplicative character is
determined by an exponent j against the canonical generator g: it sends g**t
to zeta_(q-1) ** (j*t).  Both expose integer exponent() alongside ring-valued
eval() so that summation kernels can stay in integer counting coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from . import ff
from .cyc import CycElem, CycRing
from .errors import DomainError, ValidationError


class AddChar:
    """x -> zeta_p ** Tr(twist * x) on a finite field."""

    __slots__ = ("field", "twist", "ring", "p", "_shift")

    def __init__(self, field: ff.FieldDesc, twist, ring: CycRing):
        if isinstance(twist, int):
            twist = field.elem(twist)
        if twist.field is not field:
            raise ValidationError("twist must live in the field")
        if twist.is_zero():
            raise ValidationError("twist must be nonzero")
        if ring.M % field.p:
            raise ValidationError(
                f"ring Z[zeta_{ring.M}] has no p-th roots of unity")
        self.field = field
        self.twist = twist
        self.ring = ring
        self.p = field.p
        self._shift = ff.dlog(twist)

    def exponent(self, x: ff.FFElem) -> int:
        """Tr(twist * x) as an integer in [0, p)."""
        if x.field is not self.field:
            raise ValidationError("argument must live in the field")
        if x.is_zero():
            return 0
        f = self.field
        return int(f.trace_exp[(self._shift + f.log[x.packed]) % f.order])

    def eval(self, x: ff.FFElem) -> CycElem:
        return self.ring.zeta(self.p, self.exponent(x))

    def dlog_exponent_table(self) -> np.ndarray:
        """Tr(twist * g**t) for every t and the canonical generator g, as a
        numpy array of the field's trace_exp dtype; summation kernels
        index this directly."""
        te, s = self.field.trace_exp, self._shift
        # concatenating the two slices is several times faster than np.roll
        return np.concatenate((te[s:], te[:s]))

    def to_json(self) -> dict:
        return {"kind": "additive", "p": self.p,
                "twist_dlog": self._shift, "field": self.field.to_json()}

    def __repr__(self):
        return f"AddChar(twist dlog {self._shift} on {self.field!r})"


class MultChar:
    """g**t -> zeta_(q-1) ** (j*t) on the units of a finite field."""

    __slots__ = ("field", "j", "ring")

    def __init__(self, field: ff.FieldDesc, j: int, ring: CycRing):
        self.field = field
        self.j = j % field.order if field.order else 0
        self.ring = ring
        if ring.M % self.value_order():
            raise ValidationError(
                f"ring Z[zeta_{ring.M}] lacks order-{self.value_order()} values")

    def value_order(self) -> int:
        """Order of the character in the dual group."""
        n = self.field.order
        return n // math.gcd(self.j, n) if self.j else 1

    def exponent(self, x: ff.FFElem) -> int:
        """Exponent against zeta_(q-1), an integer in [0, q-1)."""
        if x.field is not self.field:
            raise ValidationError("argument must live in the field")
        if x.is_zero():
            raise DomainError("multiplicative character evaluated at zero")
        return (self.j * self.field.log[x.packed]) % self.field.order

    def eval(self, x: ff.FFElem) -> CycElem:
        return self.ring.zeta(self.field.order, self.exponent(x))

    def __eq__(self, other):
        if not isinstance(other, MultChar):
            return NotImplemented
        return self.field is other.field and self.j == other.j

    def __hash__(self):
        return hash((id(self.field), self.j))

    def to_json(self) -> dict:
        return {"kind": "multiplicative", "exponent": self.j,
                "field": self.field.to_json()}

    def __repr__(self):
        return f"MultChar(j={self.j} on {self.field!r})"


def inflate_add(psi: AddChar, ext: ff.FieldDesc) -> AddChar:
    """The composite of psi with the relative trace from ext.

    Trace transitivity turns this into the additive character of ext whose
    twist is the image of psi's twist, so no per-point trace is needed.
    """
    if not ext.has_subfield(psi.field):
        raise ValidationError("inflation requires a declared subfield")
    return AddChar(ext, ff.embed(psi.twist, ext), psi.ring)
