"""Central simple algebras over the local field K = k((w)).

The division algebra of degree r with twist s is presented as K_r{Pi}
with Pi^r = w and Pi a = sigma^s(a) Pi, where K_r/K is the unramified
degree-r extension, sigma its residue Frobenius, and gcd(s, r) = 1 pins
down the isomorphism class.  m x m matrices over it realize the inner
forms of GL_n for n = m r.  Elements carry left coefficients a_0..a_{r-1}
for sum a_i Pi^i, and the regular representation on the right K_r-basis
{1, Pi, ..., Pi^{r-1}} turns reduced trace, norm, and characteristic
polynomial into ordinary matrix computations.  Determinants and
characteristic polynomials are computed division-free so that truncated
series never need to be inverted along the way.

Multiplication by a power of the block uniformizer phi is a row map, not
a product: phi_power_mul permutes the rows of g and multiplies each by a
power of the corner c Pi; phi_inverse is that row map applied to the
identity, and make_g_u is phi^2 u + phi.  Each coefficient the map moves
takes one pass of LaurentTrunc.coeff_map, a -> C a^e w^j: the Frobenius
power e, the unit C (kept as its discrete log) and the shift j hold the
twist, the scaling and the shift at once.  regular_rep and
MatA.scale_teich use the same map.  The matrix product _matmul is the
definition, each entry the sum of its m products: it serves the checks
that phi^n is zeta w, the geometric series of one_plus_inverse and the
self-test.  An AlgElem finds its live
coefficients (those not an exact zero) once, when it is built: its
products run over the live pairs only, adding an exact zero (no live
coefficient) returns the other operand, and the empty slots of a product
share the one exact-zero series of the DivAlgebra.  The sums
of series products in the Berkowitz steps (each mat-vec, the Toeplitz
entries and the Toeplitz convolution) go through locfield.ProductSums,
which skips the exact-zero terms and reads each step's sums back from
packed integers in one numpy pass.  The filtration of the standard order
is read in one pass over the coefficients (MatA._radical_terms): the least
radical valuation of a known term and the least bound left by a truncated
zero give both the radical valuation and membership in every P^v, the
order P^0 included.

Conjugation by a Teichmuller diagonal diag(d_1, ..., d_m) is a
per-coefficient scaling, not a product: Pi^l d = sigma^{sl}(d) Pi^l, so
the Pi^l coefficient of entry (i, j) is multiplied by the constant
d_i^{-1} sigma^{sl}(d_j) of k_r.  phi_power_mul takes the units d_i and
adds the log of that constant to its map's, so phi^e x^{-1} g x is one row
map and no conjugate matrix is built.  MatA.scale_teich scales every
coefficient by one constant of k.  rtrace_product reads the reduced
trace of a product from the Pi^0 terms of its diagonal entries alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce

from . import ff
from . import locfield as lf
from ._util import binary_power, canonical
from .errors import (DomainError, IdentityFailure, PrecisionError,
                     ValidationError)


class DivAlgebra:
    """The division algebra of degree r over K with Hasse twist s.

    r = 1 gives K itself (s is then undefined).  Elements are AlgElem
    instances; the coefficient field for the series entries is k_r.
    """

    __slots__ = ("k", "r", "s", "kr", "zero_series", "frob")

    def __init__(self, k: ff.FieldDesc, r: int, s: int | None):
        self.k = k
        self.r = r
        self.s = s
        self.kr = ff.make_extension(k, r)
        # the exact zero over k_r, shared by every empty slot
        self.zero_series = lf.zero(self.kr)
        # frob[t] = q^(s t mod r): sigma^{st} is the power map a -> a^frob[t]
        self.frob = tuple(k.size ** (s * t % r) if s else 1 for t in range(r))

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgElem":
        return AlgElem(self, (self.zero_series,) * self.r)

    def one(self) -> "AlgElem":
        return self.from_series(lf.one(self.kr))

    def from_series(self, x: lf.LaurentTrunc) -> "AlgElem":
        """The element x * Pi^0 for a series x over k_r."""
        if x.field is not self.kr:
            raise ValidationError("series must live over k_r")
        coeffs = [x] + [self.zero_series] * (self.r - 1)
        return AlgElem(self, tuple(coeffs))

    def from_base_series(self, x: lf.LaurentTrunc) -> "AlgElem":
        """A central element, given as a series over k."""
        return self.from_series(lf.embed_series(x, self.kr))

    def teich(self, c: ff.FFElem) -> "AlgElem":
        """Teichmuller lift of c in k_r."""
        return self.from_series(lf.teichmuller(c))

    def twist(self, x: lf.LaurentTrunc, i: int) -> lf.LaurentTrunc:
        """sigma^{s i} applied to the coefficients of x."""
        return x.coeff_map(0, self.frob[i % self.r], 0)

    def random(self, rng, prec: int, lead_val: int) -> "AlgElem":
        """Random coefficients at precision prec, the Pi^0 one starting at
        w^lead_val and the others at w^0: an element of the maximal order
        O_D for lead_val = 0, of its maximal ideal p_D for lead_val = 1."""
        vals = [lead_val] + [0] * (self.r - 1)
        return AlgElem(self, tuple(
            lf.LaurentTrunc(self.kr, v,
                            [rng.randrange(self.kr.size)
                             for _ in range(prec - v)],
                            prec)
            for v in vals))

    def __repr__(self):
        if self.r == 1:
            return f"K(q={self.k.size})"
        return f"D(q={self.k.size}, r={self.r}, s={self.s})"


def div_algebra(k: ff.FieldDesc, r: int, s: int | None = None) -> DivAlgebra:
    """The shared DivAlgebra of degree r and twist s over k."""
    if r < 1:
        raise ValidationError("the degree r must be positive")
    if r == 1:
        if s not in (None, 0):
            raise ValidationError("r = 1 leaves no twist parameter")
        s = None
    elif s is None or not 1 <= s <= r - 1 or math.gcd(s, r) != 1:
        raise ValidationError(
            "the twist must satisfy 1 <= s <= r-1 and gcd(s, r) = 1")
    return _div_algebra(k, r, s)


_div_algebra = cache(DivAlgebra)


class AlgElem:
    """sum_i a_i Pi^i with left coefficients a_i in K_r, 0 <= i < r.

    live lists the (i, a_i) with a_i not an exact zero, found once here.
    """

    __slots__ = ("parent", "coeffs", "live")

    def __init__(self, parent: DivAlgebra, coeffs):
        self.parent = parent
        self.coeffs = coeffs = tuple(coeffs)
        self.live = [(i, a) for i, a in enumerate(coeffs)
                     if not a.is_exact_zero()]

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgElem) or other.parent is not self.parent:
            raise ValidationError("operands from different algebras")
        return other

    def __add__(self, other):
        o = self._check(other)
        # x + 0 keeps every coefficient of x as it is
        if not o.live:
            return self
        if not self.live:
            return o
        return AlgElem(self.parent,
                       tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return AlgElem(self.parent, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._check(other)
        D = self.parent
        r = D.r
        # exact-zero terms are skipped; a slot no term reaches stays None
        out = [None] * r
        for i, a in self.live:
            for j, b in o.live:
                # a Pi^i * b Pi^j = a sigma^{s i}(b) Pi^{i+j}, Pi^r = w
                term = a * D.twist(b, i)
                carry, rem = divmod(i + j, r)
                if carry:
                    term = term.shift(carry)
                out[rem] = term if out[rem] is None else out[rem] + term
        zero = D.zero_series
        return AlgElem(D, tuple(zero if c is None else c for c in out))

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative powers are not defined here")
        return binary_power(self, e, self.parent.one())

    def truncate(self, prec: int) -> "AlgElem":
        return AlgElem(self.parent,
                       tuple(a.truncate(min(prec, a.prec))
                             for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, AlgElem) or other.parent is not self.parent:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def to_json(self) -> dict:
        return {"coeffs": [a.to_json() for a in self.coeffs]}

    def __repr__(self):
        parts = [f"({a!r})*Pi^{i}" for i, a in enumerate(self.coeffs)
                 if not a.is_zero()]
        return " + ".join(parts) if parts else "0"


class MatrixAlgebra:
    """m x m matrices over a division algebra: the inner form with n = m r."""

    __slots__ = ("D", "m", "n")

    def __init__(self, D: DivAlgebra, m: int):
        self.D = D
        self.m = m
        self.n = m * D.r

    def elem(self, entries) -> "MatA":
        rows = [list(row) for row in entries]
        if len(rows) != self.m or any(len(row) != self.m for row in rows):
            raise ValidationError(f"expected an {self.m} x {self.m} array")
        for row in rows:
            self._check_entries(row)
        return MatA(self, tuple(tuple(row) for row in rows))

    def _check_entries(self, entries):
        for e in entries:
            if not isinstance(e, AlgElem) or e.parent is not self.D:
                raise ValidationError(
                    "entries must come from the underlying algebra")

    def diag(self, entries) -> "MatA":
        """The diagonal matrix with the given entries of D."""
        entries = list(entries)
        if len(entries) != self.m:
            raise ValidationError(
                f"expected {self.m} diagonal entries, got {len(entries)}")
        self._check_entries(entries)
        z = self.D.zero()
        return MatA(self, tuple(tuple(e if i == j else z
                                      for j in range(self.m))
                                for i, e in enumerate(entries)))

    def zero(self) -> "MatA":
        return self.diag([self.D.zero()] * self.m)

    def identity(self) -> "MatA":
        return self.diag([self.D.one()] * self.m)

    def scalar_series(self, x: lf.LaurentTrunc) -> "MatA":
        """The central element x * identity, x a series over k."""
        return self.diag([self.D.from_base_series(x)] * self.m)

    def random_in_order(self, rng, prec: int) -> "MatA":
        """A random element of the standard hereditary order."""
        rows = []
        for i in range(self.m):
            rows.append(tuple(self.D.random(rng, prec, 1 if i > j else 0)
                              for j in range(self.m)))
        return MatA(self, tuple(rows))

    def __repr__(self):
        return f"M_{self.m}({self.D!r})"


@canonical
def matrix_algebra(D: DivAlgebra, m: int) -> MatrixAlgebra:
    """The shared algebra of m x m matrices over D."""
    if m < 1:
        raise ValidationError("the matrix size m must be positive")
    return MatrixAlgebra(D, m)


class MatA:
    """A matrix over a division algebra, with order/radical bookkeeping.

    The standard hereditary order has integral entries above and on the
    diagonal and radical entries strictly below it.  Its filtration is
    read term by term: the Pi^l term a_l of the entry at (i, j) lies in
    P^v when m (r val(a_l) + l) + j - i >= v, and _radical_terms takes
    the two minima that radical_valuation and every membership test use.
    """

    __slots__ = ("parent", "entries")

    def __init__(self, parent: MatrixAlgebra, entries):
        self.parent = parent
        self.entries = entries

    def _check(self, other):
        if not isinstance(other, MatA) or other.parent is not self.parent:
            raise ValidationError("matrices over different algebras")
        return other

    def __add__(self, other):
        o = self._check(other)
        return MatA(self.parent, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, o.entries)))

    def __neg__(self):
        return MatA(self.parent,
                    tuple(tuple(-a for a in row) for row in self.entries))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        o = self._check(other)
        return MatA(self.parent, _matmul(self.entries, o.entries))

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative matrix powers are not defined here")
        if e == 0:
            return self.parent.identity()
        return binary_power(self, e, None)

    def scale_teich(self, c: ff.FFElem) -> "MatA":
        """Multiplication by the central Teichmuller scalar of a unit c of
        k: every coefficient of every entry is scaled by c, exact zeros
        kept, as the entrywise product by from_base_series(teichmuller(c))
        would give it."""
        D = self.parent.D
        if c.field is not D.k or c.packed == 0:
            raise ValidationError("the scalar must be a unit of k")
        lc = D.kr.log[D.kr.embed_packed(D.k, c.packed)]
        return MatA(self.parent, tuple(
            tuple(_corner_power_times(e, 0, 0, lc, 0, 0) for e in row)
            for row in self.entries))

    def minus_identity(self) -> "MatA":
        """self - 1, subtracting on the diagonal only: the entries off it
        are kept as they are, and so are the Pi^l coefficients, l > 0, on
        it."""
        D = self.parent.D
        minus_one = -lf.one(D.kr)
        rows = [list(row) for row in self.entries]
        for i, row in enumerate(rows):
            c = row[i].coeffs
            row[i] = AlgElem(D, (c[0] + minus_one,) + c[1:])
        return MatA(self.parent, tuple(tuple(row) for row in rows))

    def truncate(self, prec: int) -> "MatA":
        return MatA(self.parent, tuple(tuple(a.truncate(prec) for a in row)
                                       for row in self.entries))

    def __eq__(self, other):
        if not isinstance(other, MatA) or other.parent is not self.parent:
            return NotImplemented
        return all(a == b for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def _radical_terms(self):
        """The least radical valuation of a known term and the least bound
        from a truncated zero, in one pass over the live coefficients.

        The Pi^l term a_l of the entry at (i, j) has radical valuation
        m (r val(a_l) + l) + j - i when a_l is nonzero, and at least
        m (r prec(a_l) + l) + j - i when it is a truncated zero.  Each
        minimum is None when there is no such term.
        """
        m, r = self.parent.m, self.parent.D.r
        known, bounds = [], []
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for l, a in e.live:
                    v = a.valuation()
                    t = a.prec if v is None else v
                    (bounds if v is None else known).append(
                        m * (r * t + l) + j - i)
        return min(known, default=None), min(bounds, default=None)

    def radical_valuation(self) -> int | None:
        """Largest v with g in P^v for the standard order's radical P.

        None only for the exact zero matrix; raises when truncation leaves
        the minimum undetermined, a truncated zero included.
        """
        known, bound = self._radical_terms()
        # a bound below every known term hides the minimum
        if bound is not None and (known is None or bound < known):
            raise PrecisionError(
                "radical valuation not determined at this precision")
        return known

    def _in_power(self, v: int):
        """True / False / None for membership in P^v: False when a known
        term lies below v, else None when a truncation bound does."""
        known, bound = self._radical_terms()
        if known is not None and known < v:
            return False
        if bound is not None and bound < v:
            return None
        return True

    def in_order(self) -> bool:
        return lf.certify(self._in_power(0), "order membership")

    def in_radical_power(self, v: int) -> bool:
        """Certified membership in P^v; raises when truncation hides it."""
        return lf.certify(self._in_power(v), "radical membership")

    def to_json(self) -> dict:
        return {"m": self.parent.m,
                "entries": [[e.to_json() for e in row]
                            for row in self.entries]}

    def __repr__(self):
        return f"MatA({self.parent!r})"


def _matmul(a, b):
    """The product of two matrices given as sequences of rows: each entry
    is the sum of its products, added left to right."""
    cols = tuple(zip(*b))
    return tuple(tuple(reduce(operator.add, map(operator.mul, row, col))
                       for col in cols) for row in a)


# ---------------------------------------------------------------------------
# distinguished uniformizers


@canonical
def make_phi_D(Dalg: DivAlgebra, zeta: ff.FFElem) -> AlgElem:
    """The element c Pi with c the Teichmuller lift of least discrete log
    whose norm to k is zeta; then (c Pi)^r = zeta w."""
    k = Dalg.k
    if zeta.field is not k:
        raise ValidationError("zeta must lie in the residue field of K")
    if zeta.packed == 0:
        raise DomainError("zeta must be a unit")
    if Dalg.r == 1:
        phi = Dalg.from_series(lf.teichmuller(zeta).shift(1))
    else:
        kr = Dalg.kr
        t0, _ = ff.norm_fiber_congruence(kr, k, zeta)
        coeffs = [lf.zero(kr)] * Dalg.r
        coeffs[1] = lf.teichmuller(kr.from_dlog(t0))
        phi = AlgElem(Dalg, tuple(coeffs))
    check = phi ** Dalg.r
    if check != Dalg.from_base_series(lf.teichmuller(zeta).shift(1)):
        raise IdentityFailure("uniformizer power check failed")
    return phi


def block_uniformizer(MA: MatrixAlgebra, corner: AlgElem) -> MatA:
    """Identity blocks above the diagonal and corner at the bottom left."""
    z, o = MA.D.zero(), MA.D.one()
    rows = [[z] * MA.m for _ in range(MA.m)]
    for i in range(MA.m - 1):
        rows[i][i + 1] = o
    rows[MA.m - 1][0] = corner
    return MA.elem(rows)


@canonical
def make_phi_zeta(m: int, Dalg: DivAlgebra, zeta: ff.FFElem) -> MatA:
    """The block uniformizer with the division-algebra uniformizer in the
    corner; its n-th power is the central element zeta w."""
    MA = matrix_algebra(Dalg, m)
    phi = block_uniformizer(MA, make_phi_D(Dalg, zeta))
    central = MA.scalar_series(lf.teichmuller(zeta).shift(1))
    if phi ** MA.n != central:
        raise IdentityFailure("block uniformizer power check failed")
    return phi


@canonical
def _corner_logs(MA: MatrixAlgebra, zeta: ff.FFElem) -> tuple:
    """The logs in k_r of the units c_t with (c Pi)^t = c_t Pi^t,
    0 <= t < r, for the corner c Pi of make_phi_zeta(MA.m, MA.D, zeta), and
    the log of zeta in k_r."""
    corner = make_phi_zeta(MA.m, MA.D, zeta).entries[-1][0]
    kr = MA.D.kr
    return (tuple(kr.log[(corner ** t).coeffs[t].residue().packed]
                  for t in range(MA.D.r)),
            kr.log[kr.embed_packed(zeta.field, zeta.packed)])


def phi_power_mul(zeta: ff.FFElem, e: int, g: MatA, units=None) -> MatA:
    """phi^e x^{-1} g x for phi = make_phi_zeta(m, D, zeta), any integer e
    and x the Teichmuller diagonal of the units d_i of k_r given (x = 1
    when units is None), as one row map: no matrix product.

    phi has identity blocks above the diagonal and c Pi in the corner, and
    phi^m is the scalar c Pi.  So for e = a m + b with 0 <= b < m, row i of
    the result is (c Pi)^{a + [i + b >= m]} times row src = (i + b) mod m of
    x^{-1} g x, whose entry (src, j) is d_src^{-1} g_{src j} d_j.  As
    (c Pi)^r = zeta w, (c Pi)^{q r + t} = zeta^q c_t w^q Pi^t for any q, a
    negative one included; _corner_power_times applies it together with
    the conjugation.  With no units, rows whose power is 0 are reused as
    they are; exact zeros always are, and every other coefficient equals
    that of the product route in (val, coeffs, prec).
    """
    MA = g.parent
    D, m = MA.D, MA.m
    logs = [0] * m
    if units is not None:
        units = list(units)
        if len(units) != m:
            raise ValidationError(
                f"expected {m} diagonal units, got {len(units)}")
        if any(d.field is not D.kr or d.packed == 0 for d in units):
            raise ValidationError("the diagonal must hold units of k_r")
        logs = [D.kr.log[d.packed] for d in units]
    corner, lz = _corner_logs(MA, zeta)
    a, b = divmod(e, m)
    rows = []
    for i in range(m):
        wrap, src = divmod(i + b, m)
        row = g.entries[src]
        if a + wrap or units is not None:
            q, t = divmod(a + wrap, D.r)
            lc = corner[t] + q * lz
            row = tuple(_corner_power_times(x, q, t, lc, logs[src], logs[j])
                        for j, x in enumerate(row))
        rows.append(row)
    return MatA(MA, tuple(rows))


def _corner_power_times(x: AlgElem, q: int, t: int, lc: int, src: int,
                        dst: int) -> AlgElem:
    """c w^q Pi^t d_src^{-1} x d_dst for the units c = g^lc and
    d = g^src, g^dst of k_r: each live coefficient a_l of x goes through one
    coefficient map, a -> C a^{q^{st}} w^{q + carry} at Pi^{(l + t) mod r},
    C = c sigma^{st}(d_src^{-1}) sigma^{s(t + l)}(d_dst); x itself when it
    is an exact zero."""
    if not x.live:
        return x
    D = x.parent
    frob, order = D.frob, D.kr.order
    coeffs = [D.zero_series] * D.r
    for l, a in x.live:
        carry, rem = divmod(l + t, D.r)
        coeffs[rem] = a.coeff_map(
            (lc + frob[t] * (frob[l] * dst - src)) % order, frob[t],
            q + carry)
    return AlgElem(D, coeffs)


@canonical
def phi_inverse(m: int, Dalg: DivAlgebra, zeta: ff.FFElem) -> MatA:
    """Inverse of the block uniformizer make_phi_zeta(m, Dalg, zeta), as
    the row map phi^{-1} of the identity."""
    return phi_power_mul(zeta, -1, matrix_algebra(Dalg, m).identity())


def one_plus_inverse(y: MatA) -> MatA:
    """Inverse of 1 + y for y in the radical, by the geometric series,
    computed to the absolute precision the input supports."""
    if not y.in_radical_power(1):
        raise DomainError("geometric inverse needs a radical perturbation")
    finite = [a.prec for row in y.entries for e in row
              for a in e.coeffs if a.prec != lf.INF]
    if not finite:
        raise PrecisionError("an exact perturbation needs a target precision")
    prec = min(finite)
    acc = y.parent.identity()
    term = acc
    while True:
        term = (term * (-y)).truncate(prec)
        if term.is_zero():
            break
        acc = acc + term
    # the tail past the last term is only known to vanish below prec, in
    # every coefficient: the exact identity's own coefficients included
    return acc.truncate(prec)


# ---------------------------------------------------------------------------
# the regular representation and reduced invariants


def regular_rep(d: AlgElem):
    """Left multiplication on the right K_r-basis {1, Pi, ..., Pi^{r-1}},
    as an r x r matrix of series over k_r."""
    D = d.parent
    r = D.r
    M = [[D.zero_series] * r for _ in range(r)]
    for i, a in d.live:
        for j in range(r):
            # a Pi^{i+j} = Pi^{i+j} sigma^{-s(i+j)}(a), and Pi^r = w; each
            # slot (rem, j) is reached from one i only
            carry, rem = divmod(i + j, r)
            M[rem][j] = a.coeff_map(0, D.frob[-(i + j) % r], carry)
    return M


def embed_A(g: MatA):
    """Blockwise regular representation: an n x n matrix over K_r."""
    MA = g.parent
    r, m, n = MA.D.r, MA.m, MA.n
    out = [[None] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            block = regular_rep(g.entries[i][j])
            for a in range(r):
                for b in range(r):
                    out[i * r + a][j * r + b] = block[a][b]
    return out


def _berkowitz(mat, field):
    """Characteristic polynomial of det(x I - mat), division-free, for an
    n x n matrix with n >= 1.

    Returns [1, c_1, ..., c_n] with the polynomial x^n + c_1 x^{n-1} + ... + c_n.
    Round k multiplies the vector by the lower-triangular Toeplitz matrix of
    [1, -a_kk, -R C, -R A C, ..., -R A^{k-2} C], with A the leading
    (k-1) x (k-1) block, R and C the row and column beside it.  The chains
    A^i C depend only on the matrix, so every round advances them together:
    one ProductSums call per chain step, one for the Toeplitz entries of
    every round, then one per round for the Toeplitz product, the only
    steps that wait on the vector.
    """
    n = len(mat)
    one_ = lf.one(field)
    # round 1 needs no sum: the vector is [1 * 1, -a_11 * 1]
    vec = [one_, -mat[0][0]]
    if n == 1:
        return vec
    sums = lf.ProductSums(field)
    # chains[k] = [C, A C, ..., A^(k-2) C] for round k
    chains = {k: [[row[k - 1] for row in mat[:k - 1]]] for k in range(2, n + 1)}
    for i in range(1, n - 1):
        # the rounds k >= i + 2 take a step; each of their k - 1 sums is
        # a row of A against the round's last vector
        live = range(i + 2, n + 1)
        flat = sums([zip(row[:k - 1], chains[k][-1])
                     for k in live for row in mat[:k - 1]])
        at = 0
        for k in live:
            chains[k].append(flat[at:at + k - 1])
            at += k - 1
    negs = {k: [-x for x in mat[k - 1][:k - 1]] for k in range(2, n + 1)}
    flat = sums([zip(negs[k], c) for k in range(2, n + 1) for c in chains[k]])
    at = 0
    for k in range(2, n + 1):
        toep = [one_, -mat[k - 1][k - 1]] + flat[at:at + k - 1]
        at += k - 1
        # vec[0] stays 1 * 1; entry i sums toep[i - j] * vec[j]
        vec = [one_] + sums([[(toep[i - j], vec[j])
                              for j in range(min(i, k - 1) + 1)]
                             for i in range(1, k + 1)])
    return vec


def _det(mat, field) -> lf.LaurentTrunc:
    n = len(mat)
    vec = _berkowitz(mat, field)
    return vec[n] if n % 2 == 0 else -vec[n]


def _descend(x: lf.LaurentTrunc, k: ff.FieldDesc) -> lf.LaurentTrunc:
    if x.field is k:
        return x
    # Frobenius keeps val, prec and the zeros of a normalized series, so x
    # is invariant exactly when its coefficient tuple is
    if lf.galois_series(x, 1, k).coeffs != x.coeffs:
        raise IdentityFailure("reduced invariant left the base field")
    return lf.pullback_series(x, k)


def rtrace(g: MatA) -> lf.LaurentTrunc:
    """Reduced trace, as a series over k."""
    MA = g.parent
    diagonal = (g.entries[i][i].coeffs[0] for i in range(MA.m))
    return lf.series_trace(reduce(operator.add, diagonal), MA.D.k)


def rtrace_product(a: MatA, b: MatA) -> lf.LaurentTrunc:
    """rtrace(a * b) from the Pi^0 coefficients of the m diagonal entries
    of the product alone: the terms a_il b_li of Pi-degrees p + q = 0 or r.
    Equal to rtrace(a * b) in (val, coeffs, prec)."""
    b = a._check(b)
    D = a.parent.D
    r = D.r
    diagonal = []
    for i, row in enumerate(a.entries):
        acc = D.zero_series
        for l, x in enumerate(row):
            for p, s in x.live:
                q = -p % r
                t = b.entries[l][i].coeffs[q]
                if t.is_exact_zero():
                    continue
                # s Pi^p * t Pi^q = s sigma^{sp}(t) Pi^{p+q}, Pi^r = w
                term = s * D.twist(t, p)
                acc = acc + (term.shift(1) if p else term)
        diagonal.append(acc)
    return lf.series_trace(reduce(operator.add, diagonal), D.k)


def rnorm(g: MatA) -> lf.LaurentTrunc:
    """Reduced norm, as a series over k; g must be invertible as far as
    the working precision can certify."""
    MA = g.parent
    det = _det(embed_A(g), MA.D.kr)
    out = _descend(det, MA.D.k)
    if out.is_exact_zero():
        raise DomainError("reduced norm of a singular element")
    if out.is_zero():
        raise PrecisionError(
            "cannot certify invertibility at this precision")
    return out


@dataclass(frozen=True)
class RedCharPoly:
    """Monic reduced characteristic polynomial x^n + a_{n-1} x^{n-1} + ... + a_0
    with coefficients in K, stored as coeffs[i] = a_i."""

    field: ff.FieldDesc
    n: int
    coeffs: tuple

    def derivative(self) -> list:
        k = self.field
        out = []
        for i in range(self.n):
            c = (i + 1) % k.p
            top = lf.one(k) if i + 1 == self.n else self.coeffs[i + 1]
            out.append(top.scale(k.from_int(c)))
        return out

    def taylor_shift(self, t: lf.LaurentTrunc) -> "RedCharPoly":
        """The polynomial f(x + t)."""
        b = _taylor_shift(list(self.coeffs) + [lf.one(self.field)], t)
        return RedCharPoly(self.field, self.n, tuple(b[:self.n]))

    def residue_coeffs(self) -> list:
        """Residues of a_0..a_{n-1}; requires integral coefficients."""
        return [c.residue() for c in self.coeffs]


def _taylor_shift(coeffs, t):
    """Coefficients of f(x + t), both by ascending degree, by repeated
    synthetic division (Horner steps); works over any ring."""
    b = list(coeffs)
    n = len(b) - 1
    for i in range(n + 1):
        for j in range(n - 1, i - 1, -1):
            b[j] = b[j] + t * b[j + 1]
    return b


def red_charpoly(g: MatA) -> RedCharPoly:
    """Reduced characteristic polynomial of g, with coefficients verified
    to be Galois-invariant and written over k."""
    MA = g.parent
    k = MA.D.k
    vec = _berkowitz(embed_A(g), MA.D.kr)
    n = MA.n
    coeffs = tuple(_descend(vec[n - i], k) for i in range(n))
    return RedCharPoly(k, n, coeffs)


# ---------------------------------------------------------------------------
# conjugacy data


def make_g_u(m: int, Dalg: DivAlgebra, zeta: ff.FFElem, u: MatA) -> MatA:
    """The elliptic element phi (1 + phi u) for u in the standard order,
    built as phi^2 u + phi: one row map, then phi's m entries added, the
    identity blocks at (i, i + 1) and the corner at (m - 1, 0)."""
    MA = matrix_algebra(Dalg, m)
    if u.parent is not MA:
        raise ValidationError("u lives in a different matrix algebra")
    if not u.in_order():
        raise ValidationError("u must lie in the standard order")
    phi = make_phi_zeta(m, Dalg, zeta)
    rows = [list(row) for row in phi_power_mul(zeta, 2, u).entries]
    for i, row in enumerate(rows):
        j = (i + 1) % m
        row[j] = row[j] + phi.entries[i][j]
    return MatA(MA, tuple(tuple(row) for row in rows))


def eisenstein_check(f: RedCharPoly, zeta: ff.FFElem) -> dict:
    """Eisenstein shape of f relative to the central value zeta w:
    a_1..a_{n-1} in the maximal ideal and -a_0/(zeta w) a 1-unit."""
    k = f.field
    if zeta.field is not k or zeta.packed == 0:
        raise ValidationError("zeta must be a unit of the residue field")
    tail = [c.val_at_least(1) for c in f.coeffs[1:]]
    if None in tail:
        raise PrecisionError(
            "coefficient precision too low to test the ideal condition")
    tail_ok = all(tail)
    a0 = f.coeffs[0]
    if a0.prec < 2:
        raise PrecisionError(
            "the constant term must be known past the uniformizer")
    zw_inv = lf.teichmuller(zeta).shift(1).inverse()
    unit_part = -(a0 * zw_inv)
    unit_ok = unit_part.in_unit_group_1()
    return {
        "kind": "eisenstein_check",
        "n": f.n,
        "zeta_dlog": ff.dlog(zeta),
        "tail_in_maximal_ideal": tail_ok,
        "unit_part_in_u1": unit_ok,
        "eisenstein": tail_ok and unit_ok,
        "elliptic_quasi_regular": tail_ok and unit_ok,
    }


def _resultant(fc: list, gc: list, field: ff.FieldDesc) -> lf.LaurentTrunc | None:
    """Resultant via the Sylvester determinant; fc and gc hold coefficients
    by ascending degree, fc monic.  None when the degree of gc cannot be
    read off at the available precision."""
    dn = len(fc) - 1
    dg = len(gc) - 1
    while dg >= 0 and gc[dg].is_zero():
        if not gc[dg].is_exact_zero():
            return None
        dg -= 1
    if dg < 0:
        return lf.zero(field)
    size = dn + dg
    z = lf.zero(field)
    rows = []
    for i in range(dg):
        row = [z] * size
        for t in range(dn + 1):
            row[i + t] = fc[dn - t]
        rows.append(row)
    for i in range(dn):
        row = [z] * size
        for t in range(dg + 1):
            row[i + t] = gc[dg - t]
        rows.append(row)
    return _det(rows, field)


def classify_qr(g: MatA) -> str:
    """Conjugacy-type classification through the reduced characteristic
    polynomial: "regular" when the discriminant certificate succeeds,
    "elliptic_quasi_regular" when a shift of f is Eisenstein, else
    "unknown"."""
    f = red_charpoly(g)
    k = f.field
    n = f.n
    full = list(f.coeffs) + [lf.one(k)]
    res = _resultant(full, f.derivative(), k)
    if res is not None and not res.is_zero() and res.valuation() == 0:
        return "regular"
    try:
        rbar = f.residue_coeffs() + [k.one()]
    except (DomainError, PrecisionError):
        return "unknown"
    shift_root = None
    for c in k.elements():
        b = _taylor_shift(rbar, c)
        if all(b[i] == k.zero() for i in range(n)):
            shift_root = c
            break
    if shift_root is None:
        return "unknown"
    fs = f.taylor_shift(lf.teichmuller(shift_root))
    if not all(c.val_at_least(1) for c in fs.coeffs[1:]):
        return "unknown"
    if fs.coeffs[0].valuation() != 1:
        return "unknown"
    return "elliptic_quasi_regular"


def matching_element(f: RedCharPoly, zeta: ff.FFElem,
                     trd_residue: ff.FFElem | None = None):
    """The split-side conjugacy datum with reduced characteristic
    polynomial f: returns (u_alpha, g_alpha) in M_n(K) with
    g_alpha = phi (1 + phi u_alpha) and charpoly(g_alpha) = f.

    When the residue of the other side's reduced trace of u is supplied,
    it is checked against the trace of u_alpha.
    """
    k = f.field
    n = f.n
    D1 = div_algebra(k, 1, None)
    MA = matrix_algebra(D1, n)
    zw = lf.teichmuller(zeta).shift(1)
    zw_inv = zw.inverse()
    alphas = [-(f.coeffs[i] * zw_inv) for i in range(1, n)]
    alphas.append(-((f.coeffs[0] * zw_inv) + lf.one(k)) * zw_inv)
    # u_alpha = sum_i phi^i diag(alpha_i, 0, ..., 0) is phi^{n-1} times the
    # matrix with first column alpha_{n-1}, ..., alpha_0
    z = D1.zero()
    column = [[D1.from_base_series(alpha)] + [z] * (n - 1)
              for alpha in reversed(alphas)]
    u = phi_power_mul(zeta, n - 1, MA.elem(column))
    if not u.in_order():
        raise DomainError("matching datum fell outside the standard order")
    g = make_g_u(n, D1, zeta, u)
    if red_charpoly(g) != f:
        raise IdentityFailure("matching element's charpoly disagrees")
    if trd_residue is not None:
        got = rtrace(u).residue()
        if got != trd_residue:
            raise IdentityFailure(
                "reduced trace residues disagree across the matching")
    return u, g


# ---------------------------------------------------------------------------
# self-test battery (used by the command line interface)


def selftest(p: int, f: int, m: int, r: int, s: int | None,
             prec: int = lf.DEFAULT_PREC, seed: int = 0) -> list[dict]:
    """Check the structural invariants of one algebra: one
    {"kind": "csa_check", "check", "ok"} row per invariant."""
    from ._util import stable_rng

    k = ff.make_field(p, f)
    D = div_algebra(k, r, s)
    MA = matrix_algebra(D, m)
    n = MA.n
    rng = stable_rng(seed, "csa-selftest", p, f, m, r, s or 0)
    rows = []

    def record(name, ok):
        rows.append({"kind": "csa_check", "check": name, "ok": bool(ok)})

    zeta = k.gen() if k.order > 1 else k.one()
    zw = lf.teichmuller(zeta).shift(1)
    phi = make_phi_zeta(m, D, zeta)
    record("phi_power_central", phi ** n == MA.scalar_series(zw))

    x = MA.random_in_order(rng, prec)
    y = MA.random_in_order(rng, prec)
    exy = embed_A(x * y)
    prod = _matmul(embed_A(x), embed_A(y))
    record("embedding_multiplicative",
           all(exy[i][j] == prod[i][j] for i in range(n) for j in range(n)))

    record("rtrace_additive", rtrace(x + y) == rtrace(x) + rtrace(y))

    gx = MA.identity() + (phi * x).truncate(prec)
    gy = MA.identity() + (phi * y).truncate(prec)
    record("rnorm_multiplicative", rnorm(gx * gy) == rnorm(gx) * rnorm(gy))

    record("rnorm_phi",
           rnorm(phi) == (zw if n % 2 else -zw))
    record("rtrace_identity",
           rtrace(MA.identity()) == lf.teichmuller(k.from_int(n)))
    if n >= 2:
        record("rtrace_phi_inverse",
               rtrace(phi_inverse(m, D, zeta)).is_zero())

    u = MA.random_in_order(rng, prec)
    gu = make_g_u(m, D, zeta, u)
    fpoly = red_charpoly(gu)
    rep = eisenstein_check(fpoly, zeta)
    record("g_u_eisenstein", rep["eisenstein"])
    # degree-1 polynomials are separable, so n = 1 certifies as regular
    # before the Eisenstein route is consulted
    record("g_u_classified",
           classify_qr(gu) == ("regular" if n == 1 else
                               "elliptic_quasi_regular"))

    ualpha, galpha = matching_element(fpoly, zeta, rtrace(u).residue())
    record("matching_charpoly", red_charpoly(galpha) == fpoly)

    h = MA.identity() + (phi * MA.random_in_order(rng, prec)).truncate(prec)
    hinv = one_plus_inverse(h - MA.identity())
    record("charpoly_conjugation_invariant",
           red_charpoly(h * gu * hinv) == fpoly)
    return rows
