"""Exponential sums over finite fields: restricted Gauss sums, generalized
Kloosterman sums over k and its extensions, and exact verifiers for the
identities relating them.

Every sum is computed in integer counting coordinates: the kernels only
ever build counts-per-exponent vectors, and the cyclotomic value is
materialized once at the end, or never where sums in Z[zeta_p] are only
compared (separation_witnesses compares count rows directly: every ratio
scans row pairs until two differ, and each row is read at most once per
call, whatever the number of ratios).
Restricted Gauss sums and d716's chi-weighted sums share the one fold
_fold_chi_psi into counts over the powers of zeta_lcm(p, q-1).  Every sum
over unit l-tuples, l >= 2, is a row of one d x p histogram (row: product
dlog mod d; column: exponent of the sum), the l-fold convolution of
single-unit counts on Z/d x Z/p, psi's twist a row offset (g**t has
exponent trace_exp[t + shift]).  d divides q - 1 and p divides q, so the
two are coprime and the CRT makes that group the cyclic Z/(d*p).
_TupleCounts convolves one flat vector up to the (l-1)-fold table, one
contiguous shifted add per nonzero single-unit cell and step; one row of
the l-fold table is then one gather over the single-unit cells, and the
whole table one more step and a gather back to the d x p layout.  A
field's own table (d = q - 1, every unit its own cell of weight 1) takes
its first step, (q-1)**2 * p adds, as one histogram of its (q-1)**2 pair
sums instead.  A sum over one norm fiber (l = 1) reads its own coset of
the unit group: a strided slice of the field's trace_exp array, counted
with no histogram over the other units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ff
from .chars import AddChar, MultChar
from .cyc import CycElem
from .errors import BudgetExceeded, ValidationError

DEFAULT_BUDGET = 10 ** 7


@dataclass
class SumReport:
    """Outcome of one identity check; equal is lhs == rhs exactly."""

    kind: str
    parameters: dict
    lhs: CycElem
    rhs: CycElem
    equal: bool
    witness: ff.FFElem | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "parameters": self.parameters,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "equal": self.equal,
        }
        if self.witness is not None:
            out["witness_dlog"] = (None if self.witness.is_zero()
                                   else ff.dlog(self.witness))
        return out


def check_budget(work: int, budget: int | None):
    """Abort before enumerating work tuples past the budget
    (DEFAULT_BUDGET when None)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise ValidationError(f"the budget must be nonnegative, got {budget}")
    if work > budget:
        raise BudgetExceeded(
            f"enumeration of {work} tuples exceeds the budget {budget}")


# ---------------------------------------------------------------------------
# Gauss sums


def restricted_gauss(n: int, chi: MultChar, psi: AddChar,
                     a: ff.FFElem) -> CycElem:
    """Sum of chi(x) psi(a*x) over the n_q-th roots of unity, n_q = (n, q-1).

    For n a multiple of q-1 and a = 1 this is the classical Gauss sum.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    k = chi.field
    if psi.field is not k or a.field is not k:
        raise ValidationError("character and argument fields must agree")
    # the n_q-th roots of unity are g**t for the multiples t of step, and
    # a*g**t has dlog s = dlog a + t: psi's exponents there are
    # trace_exp[s + shift], paired with t = s - dlog a
    step = k.order // math.gcd(n, k.order)
    ta = 0 if a.is_zero() else ff.dlog(a)
    s = np.arange(ta % step, k.order, step)
    e = 0 if a.is_zero() else k.trace_exp[(s + psi.shift) % k.order]
    return _fold_chi_psi(chi, s - ta, e, 1)


def gauss_sum(chi: MultChar, psi: AddChar) -> CycElem:
    k = chi.field
    return restricted_gauss(k.order, chi, psi, k.one())


def _fold_chi_psi(chi: MultChar, T, e, count) -> CycElem:
    """sum of count * chi(g**T) * zeta_p**e over the broadcast arrays T, e
    and count: chi(g**T) zeta_p**e = zeta_M ** (j*T*M/(q-1) + e*M/p) with
    M = lcm(p, q-1), so one weighted_root_sum lifts all the terms."""
    k = chi.field
    M = math.lcm(k.p, k.order)
    slot = (chi.j * (M // k.order) * T
            + (M // k.p) * np.asarray(e, dtype=np.int64)) % M
    folded = np.zeros(M, dtype=np.asarray(count).dtype)
    np.add.at(folded, slot, count)
    return chi.ring.weighted_root_sum(M, folded.tolist())


# ---------------------------------------------------------------------------
# Kloosterman sums


class _TupleCounts:
    """Counts of unit l-tuples of fld as a d x p table: row T, column e
    counts the tuples whose dlogs sum to T mod d and whose sum has
    exponent e, g**t having exponent trace_exp[t + shift].

    The character is additive, so the exponent of a sum is the sum of the
    exponents, and the l-tuple table is the l-fold convolution of the
    single-unit table on Z/d x Z/p.  d must divide the unit group order,
    so gcd(d, p) = 1, and the CRT index i = T*u + e*v mod N, N = d*p
    (u = 1 mod d, 0 mod p; v = 0 mod d, 1 mod p), makes that group the
    cyclic Z/N.  The twist is a row offset: entry s of trace_exp is the
    unit g**(s - shift), in cell (s - shift)*u + trace_exp[s]*v mod N.
    The object holds the (l-1)-fold table flat on Z/N, written out twice
    as dbl (for l = 1 the 0-fold table, one count at 0).  A convolution
    step adds, per nonzero cell c of weight w of the single-unit table,
    w times the contiguous slice dbl[N - c:2N - c].
    With d = q - 1 every unit is its own cell of weight 1 and a step
    costs d*N = p * d**2 adds, so the 2-fold table is instead one
    histogram of the d**2 cell-pair sums mod N.
    row(T) reads one row of the l-fold table with no step, by one gather:
    column e is the sum over the cells of w * dbl[(T*u - c) mod N + e*v
    mod N].  table() takes the last step (none for l = 1, whose table is
    the single-unit one) and reads the d x p layout back with one gather.
    """

    def __init__(self, fld, shift, l, d):
        p = fld.p
        N = self.N = d * p
        self.d, self.l = d, l
        self.u = p * pow(p, -1, d)
        v = d * pow(d, -1, p)
        # every count is at most order**l; past int64, hold Python integers
        dtype = np.int64 if fld.order ** l < 2 ** 63 else object
        single = np.bincount(((np.arange(fld.order) - shift) * self.u
                              + fld.trace_exp.astype(np.int64) * v) % N,
                             minlength=N).astype(dtype)
        self.single = single
        self.cells = np.flatnonzero(single)
        self.weights = single[self.cells]
        self.columns = np.arange(p) * v % N
        # d = q - 1: every unit its own cell, of weight 1
        self.by_pairs = d == fld.order
        prev = self._fold(l - 1)
        self.dbl = np.concatenate((prev, prev))

    def _fold(self, j) -> np.ndarray:
        """The j-fold table, flat on Z/N."""
        if j == 0:
            prev = np.zeros_like(self.single)
            prev[0] = 1
            return prev
        if j >= 2 and self.by_pairs:
            prev, j = self._pairs(), j - 2
        else:
            prev, j = self.single, j - 1
        for _ in range(j):
            prev = self._step(np.concatenate((prev, prev)))
        return prev

    def _pairs(self) -> np.ndarray:
        """The 2-fold table of a table whose cells all have weight 1: one
        histogram of the d**2 cell-pair sums mod N."""
        sums = np.add.outer(self.cells, self.cells)
        sums %= self.N
        return np.bincount(sums.ravel(), minlength=self.N).astype(
            self.single.dtype)

    def _step(self, dbl) -> np.ndarray:
        """The next convolution power of the table dbl holds twice."""
        N = self.N
        out = np.zeros(N, dtype=dbl.dtype)
        for start, w in zip((N - self.cells).tolist(),
                            self.weights.tolist()):
            # when d = q - 1 every unit has its own cell, of weight 1
            shifted = dbl[start:start + N]
            out += shifted if w == 1 else w * shifted
        return out

    def row(self, T: int) -> np.ndarray:
        """Row T of the l-fold table."""
        starts = (T * self.u - self.cells) % self.N
        return self.weights @ self.dbl[starts[:, None] + self.columns]

    def table(self) -> np.ndarray:
        """The whole d x p table."""
        layout = (np.arange(self.d)[:, None] * self.u
                  + self.columns) % self.N
        flat = self._fold(self.l) if self.l <= 2 else self._step(self.dbl)
        return flat[layout]


def _coset_counts(fld, shift: int, d: int, t0: int) -> np.ndarray:
    """Row t0 of _TupleCounts(fld, shift, 1, d).table(): the units g**t
    with t = t0 mod d counted by exponent trace_exp[t + shift].

    The coset is every d-th entry of trace_exp from (t0 + shift) mod d: a
    strided view, counted without touching the other units.
    """
    return np.bincount(fld.trace_exp[(shift + t0) % d::d], minlength=fld.p)


def kloosterman(ext: ff.FieldDesc, l: int, lam: ff.FFElem, psi: AddChar,
                budget: int | None = None) -> CycElem:
    """Sum of psi(Tr(z_1 + ... + z_l)) over unit l-tuples of ext whose
    product has relative norm lam, with psi and lam on a subfield k of ext.

    Over ext = k this is K_{l,lam}; for l = 1 it is the sum of psi(Tr(y))
    over the norm fiber of lam in ext, the coset g**(t0 + j*(q-1)) of the
    generator g, read as every (q-1)-th entry of ext's trace_exp array.
    By trace transitivity psi o Tr is the character of ext whose twist is
    psi's, embedded in ext, so its shift is that embedded twist's dlog.
    """
    k = psi.field
    if l < 1:
        raise ValidationError("l must be positive")
    if lam.field is not k:
        raise ValidationError("the argument must live on the character's field")
    if lam.is_zero():
        raise ValidationError("Kloosterman sums need a nonzero argument")
    if l == 1 and ext is k:
        return psi.eval(lam)
    t0, fiber = ff.norm_fiber_congruence(ext, k, lam)
    check_budget(ext.order ** (l - 1) * fiber, budget)
    shift = ff.dlog(ff.embed(psi.twist, ext))
    if l == 1:
        row = _coset_counts(ext, shift, k.order, t0)
    else:
        row = _TupleCounts(ext, shift, l, k.order).row(t0)
    return psi.ring.weighted_root_sum(k.p, row.tolist())


def _kloosterman_rows(fld: ff.FieldDesc, l: int, psi: AddChar,
                      budget: int | None) -> _TupleCounts:
    """The (q-1) x p count table of every K_{l,a}, as _TupleCounts: row
    dlog a, column e counts the unit l-tuples with product a whose sum has
    exponent e."""
    if l < 1:
        raise ValidationError("l must be positive")
    if psi.field is not fld:
        raise ValidationError("character must live on the field")
    L = fld.order
    check_budget(max(l - 1, 1) * L * L, budget)
    return _TupleCounts(fld, psi.shift, l, L)


def kloosterman_table(fld: ff.FieldDesc, l: int, psi: AddChar,
                      budget: int | None = None) -> list[CycElem]:
    """All K_{l,a} at once, indexed by dlog a.

    Computed by repeated convolution over (product dlog, exponent) pairs
    instead of enumerating the (q-1)^l tuples: for l >= 2 one histogram
    of the (q-1)^2 unit pairs, then (l-2)*(q-1)^2*p shifted adds.
    """
    counts = _kloosterman_rows(fld, l, psi, budget).table()
    return [psi.ring.weighted_root_sum(fld.p, row) for row in counts.tolist()]


# ---------------------------------------------------------------------------
# identity checks


def check_identity_716(n: int, chi: MultChar, psi: AddChar,
                       budget: int | None = None) -> SumReport:
    """Verify that the chi-weighted sum of K_{n,a} over a equals G(chi,psi)^n."""
    k = chi.field
    if psi.field is not k:
        raise ValidationError("characters must live on the same field")
    if n < 1:
        raise ValidationError("n must be positive")
    check_budget(k.order ** n, budget)
    counts = _TupleCounts(k, psi.shift, n, k.order).table()
    # row T, column e counts chi(g**T) psi(e) terms
    lhs = _fold_chi_psi(chi, *np.indices(counts.shape), counts)
    rhs = gauss_sum(chi, psi) ** n
    return SumReport(
        kind="d716",
        parameters={"q": k.size, "n": n, "chi_exponent": chi.j,
                    "psi_twist_dlog": ff.dlog(psi.twist)},
        lhs=lhs, rhs=rhs, equal=(lhs - rhs).is_zero())


def check_identity_725(m: int, r: int, lam: ff.FFElem, psi: AddChar,
                       budget: int | None = None) -> SumReport:
    """Verify the three-way equality relating Kloosterman sums over k_r on a
    norm fiber, a norm-fiber sum over k_n, and a single K_{n,lam}, n = m*r."""
    k = psi.field
    if lam.field is not k:
        raise ValidationError("lambda must live in the base field")
    if lam.is_zero():
        raise ValidationError("lambda must be nonzero")
    if m < 1 or r < 1:
        raise ValidationError("m and r must be positive")
    n = m * r
    kr = ff.make_extension(k, r)
    kn = ff.make_extension(k, n)
    qm1 = k.order
    work = (kr.order ** max(m - 1, 0)) * (kr.order // qm1)
    work += kn.order // qm1
    work += k.order ** (n - 1)
    check_budget(work, budget)

    # route 1: Kloosterman sums over k_r, summed along the norm fiber
    route1 = kloosterman(kr, m, lam, psi, budget)

    # route 2: sign times the norm-fiber sum over k_n
    route2 = kloosterman(kn, 1, lam, psi, budget)
    if (m - 1) % 2:
        route2 = -route2

    # route 3: sign times a single Kloosterman sum over the base field
    route3 = kloosterman(k, n, lam, psi, budget)
    if (n - m) % 2:
        route3 = -route3

    # equality is transitive: if both pairs agree, route1 equals route3
    pairs = [(route1, route2), (route2, route3)]
    bad = next(((x, y) for x, y in pairs if not (x - y).is_zero()), None)
    lhs, rhs = bad if bad is not None else (route1, route3)
    return SumReport(
        kind="d725",
        parameters={"q": k.size, "m": m, "r": r,
                    "lambda_dlog": ff.dlog(lam),
                    "psi_twist_dlog": ff.dlog(psi.twist)},
        lhs=lhs, rhs=rhs, equal=bad is None)


# ---------------------------------------------------------------------------
# witnesses


def gn_nonzero_witness(n: int, chi: MultChar, psi: AddChar,
                       budget: int | None = None) -> ff.FFElem | None:
    """Least argument a (zero first, then by dlog) with G_n(chi,psi,a) != 0.

    Existence is part of the verified mathematics; None signals a failure to
    the caller rather than raising, so reports can record it.
    """
    k = chi.field
    check_budget(k.size * math.gcd(n, k.order), budget)  # q sums, n_q terms
    if not restricted_gauss(n, chi, psi, k.zero()).is_zero():
        return k.zero()
    for t in range(k.order):
        a = k.from_dlog(t)
        if not restricted_gauss(n, chi, psi, a).is_zero():
            return a
    return None


def fourier_inversion_check(n: int, chi: MultChar, psi: AddChar,
                            budget: int | None = None) -> SumReport:
    """Check, for every x in k, that the psi-transform of a |-> G_n(a)
    recovers q times the indicator-weighted character on the n_q-torsion."""
    k = chi.field
    check_budget(k.size ** 2, budget)  # the transform's (x, a) pairs
    ring = chi.ring
    n_q = math.gcd(n, k.order)
    # the a with G_n(a) != 0, by log (-1 for a = 0), and G_n(a)'s
    # coefficient rows over the powers of zeta_M below deg
    log_a, rows = [], []
    for code in range(k.size):
        g = restricted_gauss(n, chi, psi, k.elem(code))
        if not g.is_zero():
            log_a.append(k.log[code])
            rows.append(g.coeffs)
    log_a = np.array(log_a, dtype=np.int64)
    # each slot of a transform adds at most one coefficient of every row;
    # past int64, hold Python integers
    bound = len(rows) * max((abs(c) for row in rows for c in row), default=0)
    dtype = np.int64 if bound < 2 ** 62 else object
    rows = np.array(rows, dtype=dtype).reshape(len(log_a), ring.deg)
    # psi(-a*x) = zeta_p**-te[log a + log x + shift], so G_n(a) psi(-a*x)
    # is row a moved by -(M/p)*te[log a + log x + shift] powers of zeta_M
    te = k.trace_exp.astype(np.int64)
    slots = np.arange(ring.deg)
    mu_codes = {x.packed for x in ff.enumerate_mu(k, n_q)}
    witness = None
    lhs = rhs = ring.zero()
    equal = True
    for x in k.elements():
        if x.is_zero():
            e = np.zeros_like(log_a)
        else:
            t = k.log[x.packed] + psi.shift
            e = np.where(log_a < 0, 0, -te[(log_a + t) % k.order])
        vec = np.zeros(ring.M, dtype=rows.dtype)
        np.add.at(vec, (slots + (ring.M // k.p) * e[:, None]) % ring.M, rows)
        total = ring.weighted_root_sum(ring.M, vec.tolist())
        if x.packed in mu_codes:
            expect = ring.from_int(k.size) * chi.eval(x)
        else:
            expect = ring.zero()
        if not (total - expect).is_zero():
            equal = False
            witness = x
            lhs, rhs = total, expect
            break
    return SumReport(
        kind="fourier_inversion",
        parameters={"q": k.size, "n": n, "chi_exponent": chi.j,
                    "psi_twist_dlog": ff.dlog(psi.twist)},
        lhs=lhs, rhs=rhs, equal=equal, witness=witness)


def separation_witnesses(n: int, psi: AddChar, aprimes,
                         budget: int | None = None) -> list:
    """For each ratio a' in aprimes, in order, the least a (by dlog) with
    K_{n,a} != K_{n,a*a'}, or None if none exists: all read from the rows
    of one count table of the K_{n,a}, each row read at most once and only
    when a ratio compares it."""
    k = psi.field
    if n < 1:
        raise ValidationError("n must be positive")
    aprimes = list(aprimes)
    for aprime in aprimes:
        if aprime.field is not k:
            raise ValidationError("the ratio must live on the field")
        if aprime.is_zero() or aprime == k.one():
            raise ValidationError("the ratio must differ from zero and one")
    rows = _kloosterman_rows(k, n, psi, budget)
    L = k.order
    read = {}

    def row(t):
        if t not in read:
            read[t] = rows.row(t)
        return read[t]

    # K_{n,a} lies in Z[zeta_p], where the only relation among the powers
    # zeta_p**e is that they sum to zero: two count rows give the same
    # value iff their difference is constant.  Each ratio scans the pairs
    # (T, T + dlog a') from T = 0: a witness usually turns up within the
    # first few, and a row read for one ratio serves the others
    witnesses = []
    for aprime in aprimes:
        shift = ff.dlog(aprime)
        witness = None
        for T in range(L):
            diff = row(T) - row((T + shift) % L)
            if (diff != diff[0]).any():
                witness = k.from_dlog(T)
                break
        witnesses.append(witness)
    return witnesses
