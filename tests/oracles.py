"""Literal oracles and input builders shared by the test modules, each
with the library code it checks:

- frobenius: the tower's Galois action, x -> x ** (|over| ** j), which the
  library applies as one power map of the coefficients (coeff_map)
- rel_norm: ff.norm_fiber_congruence, expsum's norm fibers, csa.make_phi_D
- rel_trace: FieldDesc.trace_exp and trace_packed, and psi o Tr as the
  character of the embedded twist, which expsum.kloosterman reads
- uniformizer, div_pi: w and Pi, inputs to the csa and ssc tests
- w_terms, w_valuation: MatA.radical_valuation and order membership
- scale_base_series: MatA.scale_teich and the scalings of ssc.gu_cosets
- twist_series: DivAlgebra.twist, the power map of the coefficients
- teich_conjugate: the units argument of csa.phi_power_mul, ssc.decompose
  and ssc.theta_eval, which conjugate inside their row map
- galois, conjugate: CycRing._reduce, and |G|^2 = q for the Gauss sums
- random_group_element: inputs to ssc.decompose and ssc.theta_eval
- round_berkowitz: csa._berkowitz, whose rounds advance in lockstep
"""

import math

from jlcs import csa, cyc, ff
from jlcs import locfield as lf
from jlcs.errors import PrecisionError, ValidationError


def frobenius(x: ff.FFElem, j: int, over: ff.FieldDesc) -> ff.FFElem:
    """x ** (|over| ** j); over must be a declared subfield."""
    if not x.field.has_subfield(over):
        raise ValidationError("frobenius over a field outside the tower")
    return x ** (over.size ** (j % max(x.field.degree // over.degree, 1)))


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
    return csa.AlgElem(D, coeffs)


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


def twist_series(D: csa.DivAlgebra, x: lf.LaurentTrunc,
                 i: int) -> lf.LaurentTrunc:
    """sigma^{s i} on the coefficients of x, one frobenius per
    coefficient."""
    if D.r == 1:
        return x
    return lf.LaurentTrunc(x.field, x.val,
                           [frobenius(x.field.elem(c), D.s * i, D.k).packed
                            for c in x.coeffs], x.prec)


def teich_conjugate(g: csa.MatA, units) -> csa.MatA:
    """x^{-1} g x for the Teichmuller diagonal x = diag(d_1, ..., d_m), the
    d_i units of k_r, step by step: Pi^l d = sigma^{sl}(d) Pi^l, so the
    Pi^l coefficient of entry (i, j) is scaled by d_i^{-1} sigma^{sl}(d_j),
    an FFElem built per coefficient.  Exact zeros are kept as they are."""
    D = g.parent.D

    def conjugate_entry(e, d_inv, d):
        coeffs = list(e.coeffs)
        for l, a in e.live:
            coeffs[l] = a.scale(d_inv * (frobenius(d, D.s * l, D.k) if l
                                         else d))
        return csa.AlgElem(D, coeffs) if e.live else e

    return csa.MatA(g.parent, tuple(
        tuple(conjugate_entry(e, d_i.inverse(), d_j)
              for e, d_j in zip(row, units))
        for row, d_i in zip(g.entries, units)))


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
    unit = (MA.identity() + y.truncate(prec)).scale_teich(xbar)
    return csa.phi_power_mul(eta.zeta, v, unit)


def round_berkowitz(mat, field):
    """csa._berkowitz one round at a time: round k makes its own A^i C
    chain, one ProductSums call per step, then its Toeplitz entries and
    its Toeplitz product, each a call; n(n + 1)/2 - 1 calls in all."""
    n = len(mat)
    one_ = lf.one(field)
    if n == 0:
        return [one_]
    sums = lf.ProductSums(field)
    vec = [one_, -mat[0][0]]
    for k in range(2, n + 1):
        block = [row[:k - 1] for row in mat[:k - 1]]
        cur = [row[k - 1] for row in mat[:k - 1]]
        curs = [cur]
        for _ in range(k - 2):
            cur = sums([zip(r, cur) for r in block])
            curs.append(cur)
        neg_row = [-x for x in mat[k - 1][:k - 1]]
        toep = [one_, -mat[k - 1][k - 1]]
        toep += sums([zip(neg_row, c) for c in curs])
        vec = [one_] + sums([[(toep[i - j], vec[j])
                              for j in range(min(i, k - 1) + 1)]
                             for i in range(1, k + 1)])
    return vec
