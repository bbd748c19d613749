"""Literal oracles shared by the test modules."""

from jlcs import ff
from jlcs.errors import ValidationError


def rel_norm(x: ff.FFElem, over: ff.FieldDesc) -> ff.FFElem:
    """Norm of x down to a declared subfield, as the product of its
    Frobenius conjugates x * x**q * ... * x**(q**(d-1)), q = |over|."""
    fld = x.field
    if not fld.has_subfield(over):
        raise ValidationError("norm over a field outside the tower")
    d = fld.degree // over.degree
    acc = fld.one()
    y = x
    for _ in range(d):
        acc = acc * y
        y = y ** over.size
    return ff.pullback(acc, over)
