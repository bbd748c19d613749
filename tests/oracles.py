"""Literal oracles and input builders shared by the test modules, each
with the library code it checks:

- rel_norm: ff.norm_fiber_congruence, expsum's norm fibers, csa.make_phi_D
- rel_trace: FieldDesc.trace_exp and trace_packed, chars.inflate_add
- uniformizer, div_pi: w and Pi, inputs to the csa and ssc tests
- w_terms, w_valuation: MatA.radical_valuation and order membership
- scale_base_series: MatA.scale_teich and the scalings of ssc.gu_cosets
- galois, conjugate: CycRing._reduce, and |G|^2 = q for the Gauss sums
- random_group_element: inputs to ssc.decompose and ssc.theta_eval
"""

import math

from jlcs import csa, cyc, ff
from jlcs import locfield as lf
from jlcs.errors import PrecisionError, ValidationError


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


def rel_trace(x: ff.FFElem, over: ff.FieldDesc) -> ff.FFElem:
    """Trace of x down to a declared subfield, as the sum of its Frobenius
    conjugates x + x**q + ... + x**(q**(d-1)), q = |over|."""
    fld = x.field
    if not fld.has_subfield(over):
        raise ValidationError("trace over a field outside the tower")
    acc = fld.zero()
    y = x
    for _ in range(fld.degree // over.degree):
        acc = acc + y
        y = y ** over.size
    return ff.pullback(acc, over)


def uniformizer(field: ff.FieldDesc, prec=lf.INF) -> lf.LaurentTrunc:
    """The series w over field, known to precision prec."""
    return lf.LaurentTrunc(field, 1, (1,), prec)


def div_pi(D: csa.DivAlgebra) -> csa.AlgElem:
    """The uniformizing element Pi of D (w when r = 1)."""
    if D.r == 1:
        return D.from_series(uniformizer(D.kr))
    coeffs = [D.zero_series] * D.r
    coeffs[1] = lf.one(D.kr)
    return D.elem(coeffs)


def w_terms(e: csa.AlgElem):
    """Known term valuations r v(a_i) + i and truncation bounds
    r prec(a_i) + i of a division-algebra element."""
    r = e.parent.r
    known, bounds = [], []
    for i, a in enumerate(e.coeffs):
        v = a.valuation()
        if v is not None:
            known.append(r * v + i)
        elif a.prec != lf.INF:
            bounds.append(r * a.prec + i)
    return known, bounds


def w_valuation(e: csa.AlgElem) -> int | None:
    """Valuation of e in the value group of D (w(Pi) = 1, w(w) = r), the
    least known term of w_terms.  None only for the exact zero; raises
    when a truncation bound falls below every known term, a truncated zero
    included."""
    known, bounds = w_terms(e)
    if bounds and (not known or min(bounds) < min(known)):
        raise PrecisionError("valuation not determined at this precision")
    return min(known) if known else None


def scale_base_series(g: csa.MatA, x: lf.LaurentTrunc) -> csa.MatA:
    """g times the central series x over k, one AlgElem product per entry."""
    d = g.parent.D.from_base_series(x)
    return g.parent.elem([[d * a for a in row] for row in g.entries])


def galois(a: cyc.CycElem, t: int) -> cyc.CycElem:
    """a under zeta_M -> zeta_M**t, t prime to M: the coefficient of
    zeta_M**i moves to zeta_M**(i t mod M), then the ring reduces."""
    ring = a.ring
    if math.gcd(t, ring.M) != 1:
        raise ValidationError("galois exponent must be prime to M")
    vec = [0] * ring.M
    for i, c in enumerate(a.coeffs):
        vec[i * t % ring.M] = c
    return ring._reduce(vec)


def conjugate(a: cyc.CycElem) -> cyc.CycElem:
    """Complex conjugation, zeta_M -> zeta_M**(-1)."""
    return galois(a, a.ring.M - 1) if a.ring.M > 1 else a


def random_group_element(eta, rng, prec: int) -> csa.MatA:
    """A random element phi^v x (1 + phi y) of the domain of theta, at
    finite precision: v in 0..2, x a Teichmuller scalar of k, y in the
    standard order."""
    MA = eta.alg
    v = rng.randrange(3)
    xbar = eta.k.from_dlog(rng.randrange(eta.k.order))
    y = csa.phi_power_mul(eta.zeta, 1, MA.random_in_order(rng, prec))
    unit = y.truncate(prec).plus_identity().scale_teich(xbar)
    return csa.phi_power_mul(eta.zeta, v, unit)
