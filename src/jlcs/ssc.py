"""Simple supercuspidal parameters and their character values.

A parameter is a triple (zeta, chi, c): a Teichmuller unit, a character of
k^x, and a unit scalar, attached to one inner form M_m(D) with n = m r.
The inducing character theta lives on the group generated by the block
uniformizer, the Teichmuller scalars, and the 1-units of the standard
order.  Character values at the two test families (elliptic g_u and
unipotent-ish 1 + phi_{zeta lambda}) are computed both in closed form
(restricted Gauss and Kloosterman sums) and by independent finite sums
over coset representatives; their agreement, and the sign-twisted
agreement across the transfer to the split form, are the checks this
package exists to run.

The scalar c is a root of unity of declared order, so every value is a
CycElem in the parameter's cyclotomic ring and every comparison is exact.

Both direct sums evaluate theta on conjugates x^{-1} g x by Teichmuller
diagonals, and no conjugate matrix is built: theta_eval and decompose take
g with the diagonal's units, and conjugation by a Teichmuller diagonal is
a per-coefficient scaling that keeps every val, prec and exact zero, so a
sum over the conjugates of one g reads its radical valuation v once.
theta_eval makes no matrix product: h = phi^{-v} x^{-1} g x is one row map
(csa.phi_power_mul).  With xbar the residue of the unit part,
u - 1 = xbar^{-1} (h - xbar) and Trd is K-linear, so h - xbar is formed on
the diagonal alone, Trd(phi^{-1}(h - xbar)) reads only the diagonal of
that product (csa.rtrace_product), and xbar^{-1} scales the one series it
returns: no scaled copy of h is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

from . import csa, expsum, ff
from . import locfield as lf
from ._util import canonical, solve_congruence
from .chars import AddChar, MultChar
from .cyc import CycElem
from .errors import (DecompositionError, DomainError, IdentityFailure,
                     ValidationError)


@dataclass(frozen=True)
class CUnit:
    """The scalar c = zeta_order ** power, a root of unity."""

    order: int
    power: int = 0

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("the declared order must be positive")

    def to_json(self) -> dict:
        return {"order": self.order, "power": self.power % self.order}


@dataclass(frozen=True)
class TameChar:
    """A tamely ramified character of K^x: a character of the Teichmuller
    units together with a unit value at the uniformizer."""

    unit_part: MultChar
    varpi_value: CUnit

    def to_json(self) -> dict:
        return {"unit_j": self.unit_part.j,
                "varpi": self.varpi_value.to_json()}


@dataclass(frozen=True)
class CharTableRow:
    """One comparison row: a test element, two independently computed
    values, and their exact agreement."""

    kind: str
    params: dict
    closed_form: CycElem
    direct_sum: CycElem
    match: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "closed_form": self.closed_form.to_json(),
            "direct_sum": self.direct_sum.to_json(),
            "match": self.match,
        }


class SscParam:
    """The classifying datum (zeta, chi, c) on a fixed inner form."""

    __slots__ = ("zeta", "chi", "c", "psi", "alg", "k", "n")

    def __init__(self, zeta: ff.FFElem, chi: MultChar, c: CUnit,
                 psi: AddChar, alg: csa.MatrixAlgebra):
        k = alg.D.k
        if zeta.field is not k or zeta.packed == 0:
            raise ValidationError("zeta must be a unit of the residue field")
        if chi.field is not k or psi.field is not k:
            raise ValidationError("chi and psi must live on the residue field")
        if chi.ring is not psi.ring:
            raise ValidationError("chi and psi must share a value ring")
        if not isinstance(c, CUnit):
            raise ValidationError("c must be a CUnit")
        if chi.ring.M % c.order:
            raise ValidationError(
                "the value ring does not contain a root of unity of c's order")
        self.zeta = zeta
        self.chi = chi
        self.c = c
        self.psi = psi
        self.alg = alg
        self.k = k
        self.n = alg.n

    @property
    def conductor(self) -> int:
        return self.n + 1

    def phi(self) -> csa.MatA:
        return csa.make_phi_zeta(self.alg.m, self.alg.D, self.zeta)

    def _finish(self, root: CycElem, c_exp: int, sign_odd: int) -> CycElem:
        """root * ((-1)^sign_odd) * c^c_exp."""
        out = root * self.ring_unit(self.c, c_exp)
        return -out if sign_odd % 2 else out

    def ring_unit(self, cu: CUnit, e: int) -> CycElem:
        return self.chi.ring.zeta(cu.order, (cu.power * e) % cu.order)

    def to_json(self) -> dict:
        return {
            "q": self.k.size,
            "side": {"m": self.alg.m, "r": self.alg.D.r, "s": self.alg.D.s},
            "zeta_dlog": ff.dlog(self.zeta),
            "chi_j": self.chi.j,
            "c": self.c.to_json(),
            "psi_twist_dlog": ff.dlog(self.psi.twist),
            "conductor": self.conductor,
        }


def make_param(p: int, f: int, m: int, r: int, s: int | None,
               zeta_dlog: int = 0, chi_j: int = 1,
               c: CUnit | None = None, psi_twist_dlog: int = 0,
               extra_orders: tuple = ()) -> SscParam:
    """Convenience constructor building a consistent value ring."""
    from . import cyc

    k = ff.make_field(p, f)
    D = csa.div_algebra(k, r, s)
    alg = csa.matrix_algebra(D, m)
    if c is None:
        c = CUnit(order=1, power=0)
    ring = cyc.ring_for(p, k.order, c.order, *extra_orders)
    chi = MultChar(k, chi_j, ring)
    psi = AddChar(k, k.from_dlog(psi_twist_dlog), ring)
    return SscParam(k.from_dlog(zeta_dlog), chi, c, psi, alg)


# ---------------------------------------------------------------------------
# the character theta on L^x U^1


def decompose(alg: csa.MatrixAlgebra, zeta: ff.FFElem, g: csa.MatA,
              units=None):
    """Write y^{-1} g y = phi^v * x * u with x a Teichmuller scalar from k
    and u in U^1 of the standard order, for the Teichmuller diagonal y of
    the units of k_r given (y = 1 when units is None); returns
    (v, xbar, h, h - xbar) with xbar the residue of x and h = x u, so that
    u - 1 = xbar^{-1} (h - xbar).

    The valuation v is read off the order's radical filtration of g: the
    conjugation scales every coefficient by a unit, which keeps every val,
    prec and exact zero, so the conjugate has the same filtration.  The
    factorization is then verified piece by piece, so failure at any step
    means the conjugate lies outside the group where theta is defined.
    h is one row map (csa.phi_power_mul), and u is a 1-unit exactly when
    h - xbar, formed on the diagonal, lies in the radical.
    """
    return _decompose(alg, zeta, g, units, _valuation(alg, g))


def _valuation(alg: csa.MatrixAlgebra, g: csa.MatA) -> int:
    """The radical valuation of g, shared by all its conjugates by
    Teichmuller diagonals; raises unless it is a finite certified value."""
    if g.parent is not alg:
        raise ValidationError("element from a different algebra")
    v = g.radical_valuation()
    if v is None:
        raise DecompositionError("the element is not invertible")
    return v


def _decompose(alg, zeta, g, units, v):
    """decompose for the radical valuation v of g, read by the caller."""
    h = csa.phi_power_mul(zeta, -v, g, units)
    if not h.in_order():
        raise DecompositionError(
            "phi^{-v} g does not land in the standard order")
    k = alg.D.k
    lead = h.entries[0][0].coeffs[0].residue()
    try:
        xbar = ff.pullback(lead, k)
    except ValidationError as exc:
        raise DecompositionError(
            "the unit part is not a k-rational scalar") from exc
    if xbar.packed == 0:
        raise DecompositionError("the unit part is not invertible")
    dh = h.minus_scalar(xbar)
    if not dh.in_radical_power(1):
        raise DecompositionError(
            "the remainder is not a 1-unit of the order")
    return v, xbar, h, dh


def theta_eval(eta: SscParam, g: csa.MatA, units=None):
    """theta(phi^v x u) = ((-1)^{m-1} c)^v chi(x) psi_K(Trd(phi^{-1}(u-1)))
    at y^{-1} g y = phi^v x u, y the Teichmuller diagonal of the units given
    (y = 1 when units is None)."""
    return _orbit_sum(eta, g, [units])


def _orbit_sum(eta: SscParam, g: csa.MatA, orbit):
    """theta summed over the conjugates of g by the Teichmuller diagonals
    of the unit tuples in orbit.  They share the radical valuation v of g,
    read once, and so the factor ((-1)^{m-1} c)^v, applied once to the sum
    of chi(x) psi_K(xbar^{-1} Trd(phi^{-1}(h - xbar)))."""
    v = _valuation(eta.alg, g)
    phi_inv = csa.phi_inverse(eta.alg.m, eta.alg.D, eta.zeta)

    def root(units):
        _, xbar, _h, dh = _decompose(eta.alg, eta.zeta, g, units, v)
        t = csa.rtrace_product(phi_inv, dh).scale(xbar.inverse())
        return eta.chi.eval(xbar) * lf.psi_K(eta.psi, t)

    total = reduce(operator.add, map(root, orbit))
    return eta._finish(total, v, (eta.alg.m - 1) * v)


# ---------------------------------------------------------------------------
# character values at g_u = phi(1 + phi u)


def char_at_gu_closed(eta: SscParam, u: csa.MatA):
    """(-1)^{m-1} c G_n(chi, psi, residue(Trd u))."""
    if u.parent is not eta.alg:
        raise ValidationError("u from a different algebra")
    if not u.in_order():
        raise ValidationError("u must lie in the standard order")
    tbar = csa.rtrace(u).residue()
    gsum = expsum.restricted_gauss(eta.n, eta.chi, eta.psi, tbar)
    return eta._finish(gsum, 1, eta.alg.m - 1)


@canonical
def gu_cosets(alg: csa.MatrixAlgebra) -> tuple:
    """Coset representatives (lambda, units) for the g_u trace sum.

    For each lambda in mu_{n_q}(k) there is a scalar d in mu_{q^r-1}(K_r)
    with d^{q^s - 1} = lambda^m, and the Teichmuller diagonal x with the
    units d, d lambda, ..., d lambda^{m-1} of k_r conjugates phi to
    lambda phi for every zeta; lambda outside mu_{n_q} admits no such d
    (checked here once per algebra).  theta_eval takes the units as they
    are.
    """
    D = alg.D
    k = D.k
    kr = D.kr
    n_q = math.gcd(alg.n, k.order)
    reps = []
    for lam in ff.enumerate_mu(k, k.order):
        power = ff.embed(lam, kr) ** alg.m
        if D.r == 1:
            solvable = power == kr.one()
            t_d = 0
        else:
            sol = solve_congruence(
                k.size ** D.s - 1, ff.dlog(power), kr.order)
            solvable = sol is not None
            t_d = sol[0] if sol else 0
        if solvable != ((ff.dlog(lam) * n_q) % k.order == 0):
            raise IdentityFailure("solvable scalars do not cut out mu_{n_q}")
        if not solvable:
            continue
        d = kr.from_dlog(t_d)
        lam_r = ff.embed(lam, kr)
        reps.append((lam, tuple(d * lam_r ** i for i in range(alg.m))))
    if len(reps) != n_q:
        raise IdentityFailure("coset count is not n_q")
    return tuple(reps)


def char_at_gu_direct(eta: SscParam, u: csa.MatA):
    """The coset sum over mu_{n_q}: theta on conjugates of g_u."""
    if u.parent is not eta.alg:
        raise ValidationError("u from a different algebra")
    if not u.in_order():
        raise ValidationError("u must lie in the standard order")
    return _gu_coset_sum(eta, csa.make_g_u(eta.alg.m, eta.alg.D, eta.zeta, u))


def _gu_coset_sum(eta: SscParam, g: csa.MatA):
    """theta summed over the conjugates x^-1 g x, one per coset of
    mu_{n_q}, for a g = g_u already built."""
    return _orbit_sum(eta, g, (units for _lam, units in gu_cosets(eta.alg)))


# ---------------------------------------------------------------------------
# character values at 1 + phi_{zeta lambda}


def char_at_unipotent_closed(eta: SscParam, lam: ff.FFElem,
                             budget: int | None = None):
    """(-1)^{n-m} K_{n,lambda}(psi)."""
    kl = expsum.kloosterman(eta.k, eta.n, lam, eta.psi, budget)
    return eta._finish(kl, 0, eta.n - eta.alg.m)


def char_at_unipotent_direct(eta: SscParam, lam: ff.FFElem,
                             budget: int | None = None):
    """Sum of psi(Tr(z_1 + ... + z_m)) over m-tuples of k_r units whose
    product has norm lambda; equality with the closed form is the
    character identity.  For r > 1 this route never evaluates a Kloosterman
    sum over k; for r = 1 both routes are K_{m,lambda}."""
    total = expsum.kloosterman(eta.alg.D.kr, eta.alg.m, lam, eta.psi, budget)
    return eta._finish(total, 0, 0)


def char_at_unipotent_deep(eta: SscParam, lam: ff.FFElem,
                           budget: int | None = None):
    """The same trace as the tuple sum, but evaluated on honest matrix
    conjugates: diagonal Teichmuller representatives act on
    1 + phi_{zeta lambda} and theta is evaluated each time.  The scalar
    c0 in the corner of phi_D is the norm preimage g^t0 of lambda."""
    if lam.field is not eta.k or lam.packed == 0:
        raise ValidationError("lambda must be a unit of the residue field")
    D = eta.alg.D
    kr, k, m = D.kr, eta.k, eta.alg.m
    Q = kr.order
    t0, _ = ff.norm_fiber_congruence(kr, k, lam)
    head = Q // k.order
    expsum.check_budget(head * Q ** (m - 1), budget)
    expected = eta.alg.scalar_series(lf.teichmuller(lam * eta.zeta).shift(1))
    # the block uniformizer for zeta * Nr(c0), with c0 phi_D in the corner
    c0 = kr.from_dlog(t0)
    phi_lam = csa.block_uniformizer(
        eta.alg, D.teich(c0) * csa.make_phi_D(D, eta.zeta))
    if phi_lam ** eta.n != expected:
        raise IdentityFailure(
            "the scaled uniformizer does not have the right power")
    target = eta.alg.identity() + phi_lam
    return _orbit_sum(eta, target, (
        [kr.from_dlog(t) for t in (t1,) + rest]
        for t1 in range(head)
        for rest in itertools.product(range(Q), repeat=m - 1)))


# ---------------------------------------------------------------------------
# the transfer, the relation, and the local constants


@dataclass(frozen=True)
class TransferResult:
    param: SscParam
    sign: int
    conductor: int

    def to_json(self) -> dict:
        return {"param": self.param.to_json(), "sign": self.sign,
                "conductor": self.conductor}


def jl_transfer(eta: SscParam) -> TransferResult:
    """The same triple on the split form M_n(K), with the character
    relation sign (-1)^{n-m}."""
    split = csa.matrix_algebra(csa.div_algebra(eta.k, 1, None), eta.n)
    out = SscParam(eta.zeta, eta.chi, eta.c, eta.psi, split)
    sign = -1 if (eta.n - eta.alg.m) % 2 else 1
    return TransferResult(out, sign, eta.conductor)


def char_table(eta: SscParam, us=(), lambdas=(), deep: bool = False,
               budget: int | None = None) -> list[CharTableRow]:
    """Closed-form versus direct-sum rows for the two test families."""
    rows = []
    for u in us:
        closed = char_at_gu_closed(eta, u)
        direct = char_at_gu_direct(eta, u)
        tbar = csa.rtrace(u).residue()
        rows.append(CharTableRow(
            kind="g_u",
            params={"trd_residue": tbar.packed},
            closed_form=closed, direct_sum=direct,
            match=closed == direct))
    for lam in lambdas:
        closed = char_at_unipotent_closed(eta, lam, budget)
        direct = char_at_unipotent_direct(eta, lam, budget)
        rows.append(CharTableRow(
            kind="one_plus_phi",
            params={"lambda_dlog": ff.dlog(lam)},
            closed_form=closed, direct_sum=direct,
            match=closed == direct))
        if deep:
            dval = char_at_unipotent_deep(eta, lam, budget=budget)
            rows.append(CharTableRow(
                kind="one_plus_phi",
                params={"lambda_dlog": ff.dlog(lam), "route": "deep"},
                closed_form=closed, direct_sum=dval,
                match=closed == dval))
    return rows


def character_relation_check(eta: SscParam, us=(), lambdas=(),
                             budget: int | None = None) -> list[CharTableRow]:
    """The transfer relation at matched elements, both sides by direct
    sums: the closed_form column holds the (-1)^{n-m}-scaled value on the
    eta side, the direct_sum column the split-side value."""
    transfer = jl_transfer(eta)
    eta2 = transfer.param
    sign = transfer.sign
    rows = []
    for lam in lambdas:
        d_val = char_at_unipotent_direct(eta, lam, budget)
        s_val = char_at_unipotent_direct(eta2, lam, budget)
        scaled = -d_val if sign < 0 else d_val
        rows.append(CharTableRow(
            kind="one_plus_phi",
            params={"lambda_dlog": ff.dlog(lam), "route": "relation"},
            closed_form=scaled, direct_sum=s_val,
            match=scaled == s_val))
    for u in us:
        g = csa.make_g_u(eta.alg.m, eta.alg.D, eta.zeta, u)
        fpoly = csa.red_charpoly(g)
        trd_res = csa.rtrace(u).residue()
        # g_alpha is g_{u_alpha} on the split side, built by the matching
        _u_alpha, g_alpha = csa.matching_element(fpoly, eta.zeta, trd_res)
        d_val = _gu_coset_sum(eta, g)
        s_val = _gu_coset_sum(eta2, g_alpha)
        scaled = -d_val if sign < 0 else d_val
        rows.append(CharTableRow(
            kind="g_u",
            params={"trd_residue": trd_res.packed, "route": "relation"},
            closed_form=scaled, direct_sum=s_val,
            match=scaled == s_val))
    return rows


def epsilon(eta: SscParam):
    """(-1)^{n-1} c."""
    root = eta.chi.ring.one()
    return eta._finish(root, 1, eta.n - 1)


def _tame_at_unit_varpi(eta: SscParam, xi: TameChar, ybar: ff.FFElem):
    """xi(y varpi) = xi.unit(y) * xi(varpi)."""
    if xi.unit_part.field is not eta.k or xi.unit_part.ring is not eta.chi.ring:
        raise ValidationError("the twist must live on the same residue data")
    return xi.unit_part.eval(ybar) * eta.ring_unit(xi.varpi_value, 1)


def epsilon_twisted(eta: SscParam, xi: TameChar):
    """xi((-1)^{n-1} zeta varpi) * epsilon(eta)."""
    sign = eta.k.from_int(-1 if (eta.n - 1) % 2 else 1)
    tame = _tame_at_unit_varpi(eta, xi, sign * eta.zeta)
    return tame * epsilon(eta)


def normalized_tau(eta: SscParam, xi: TameChar):
    """(theta tensor xi_A) dual at phi^{-1}, times psi_A(phi^{-1}); the
    norm-one normalization makes (-1)^{n-m} times this equal the twisted
    epsilon factor, which `jlcs epsilon` reports as one match row."""
    if eta.n == 1:
        raise DomainError(
            "the reduced trace of phi^{-1} has a pole when n = 1")
    phi = eta.phi()
    theta_phi = eta._finish(eta.chi.ring.one(), 1, eta.alg.m - 1)
    nrd = csa.rnorm(phi)
    ybar = nrd.coeff(1)
    tame = _tame_at_unit_varpi(eta, xi, ybar)
    psi_factor = lf.psi_K(eta.psi, csa.rtrace(
        csa.phi_inverse(eta.alg.m, eta.alg.D, eta.zeta)))
    return theta_phi * tame * psi_factor


class CentralChar:
    """The central character: chi on Teichmuller units, trivial on the
    1-units for n >= 2, and an explicit value at the uniformizer."""

    __slots__ = ("eta",)

    def __init__(self, eta: SscParam):
        self.eta = eta

    def varpi_value(self):
        eta = self.eta
        zinv = eta.k.one() / eta.zeta
        root = eta.chi.eval(zinv)
        return eta._finish(root, eta.n, (eta.alg.m - 1) * eta.n)

    def at(self, x: lf.LaurentTrunc):
        eta = self.eta
        if x.field is not eta.k:
            raise ValidationError("central elements are series over k")
        v = x.valuation()
        if v is None:
            raise DomainError("central character of zero")
        if eta.n == 1:
            # conductor 2 on GL_1: theta itself sees the 1-unit part
            return theta_eval(eta, eta.alg.scalar_series(x))
        xbar = x.coeff(v)
        zpow = eta.k.from_dlog((-v * ff.dlog(eta.zeta)) % eta.k.order)
        root = eta.chi.eval(xbar) * eta.chi.eval(zpow)
        return eta._finish(root, eta.n * v, (eta.alg.m - 1) * eta.n * v)


def endoclass_label(eta: SscParam) -> dict:
    """The parameter-level endo-class data: everything the restriction of
    theta to the 1-units remembers.  Ignores chi and c by design."""
    return {
        "kind": "endoclass_label",
        "q": eta.k.size,
        "n": eta.n,
        "zeta_dlog": ff.dlog(eta.zeta),
        "psi_twist_dlog": ff.dlog(eta.psi.twist),
    }
