"""Finite-field towers with explicit embeddings and table-driven arithmetic.

A field is described by (p, f, l): the base field k has q = p**f elements and
the field itself is the degree-l extension k_l of k inside a declared tower
F_p < k < k_l.  Defining polynomials are the lexicographically least monic
irreducible polynomials over F_p (coefficients compared constant-term first),
the generator is the least element of full multiplicative order in the same
coefficient order, and subfield embeddings are constructed once, at extension
time, by locating the least root of the subfield's defining polynomial.

Every build step works on one representation of F_p[x]/(h): the companion
matrix C of h, the matrix of multiplication by x, so that the element
sum c_i x^i multiplies as sum c_i C^i.  Rabin's irreducibility test, the
generator search and the traces of the basis elements are matrix powers,
ranks and traces over F_p.  The walk over generator powers holds one block
of 1024 digit columns at a time: the first is built by doubling, columns
[B, 2B) = M^B columns [0, B) with M the generator's matrix, and each later
block is M^1024 times the one before.  Each block product is one float64
matrix product, exact because every sum of products, at most d (p - 1)^2
for a digit and below p^d for a packed code, stays below 2^40 for fields
under the cap, far from 2^53 (checked once per build).  An embedding of a
subfield is a single discrete log: the subfield's generator goes to g^t,
so embedding and pullback are arithmetic on logs.

Elements are stored packed: an element with coefficients (c_0, ..., c_{d-1})
over F_p is the integer sum(c_i * p**i).  Every field carries full exp/log
tables, so products, inverses and discrete logarithms are O(1) lookups and
the absolute-trace exponent of every generator power is precomputed, held
as a compact read-only numpy array that summation kernels slice directly.  Sums
and negatives are lookups too: p = 2 adds by XOR, and every odd-p field
holds a Zech table of order = size - 1 entries,
zech[t] = log(1 + g^t), so that g^a + g^b = g^(a + zech[b - a]) and
-g^a = g^(a + order/2); prime fields add as (a + b) % p.  The exp, log and
Zech tables are int32 machine arrays (array('i'), 4 bytes an entry, each
allocated once at its final length and filled in place through a numpy view
of its buffer), and each lookup reads back a Python int.  Field sizes are
capped at DEFAULT_FIELD_CAP elements to keep this honest; the build also
checks that codes fit int32.

make_field and make_extension return one shared FieldDesc per field, so
fields compare by identity.
"""

from __future__ import annotations

import itertools
import math
from array import array

import numpy as np

from ._util import canonical, prime_factors
from .errors import BudgetExceeded, InvariantError, ValidationError

DEFAULT_FIELD_CAP = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# F_p[x]/(h) through the companion matrix of h


def _companion(h, p) -> np.ndarray:
    """Matrix of multiplication by x on F_p[x]/(h), h monic of degree d, in
    the basis 1, x, ..., x^(d-1): column j holds x^(j+1) mod h.

    Multiplication by sum c_i x^i is sum c_i C^i, so every element of the
    ring is a matrix and its multiplicative order is the matrix's."""
    d = len(h) - 1
    C = np.eye(d, k=-1, dtype=np.int64)
    C[:, -1] = [-c % p for c in h[:-1]]
    return C


# width of one block of the walk over generator powers
_BLOCK = 1024


def _exact_matmul(A, X) -> np.ndarray:
    """A @ X for nonnegative integer matrices as one float64 (BLAS) product,
    returned as int64; exact while every sum of products is below 2^53."""
    return (A.astype(np.float64) @ X.astype(np.float64)).astype(np.int64)


def _int32_table(n: int, fill: int) -> tuple[array, np.ndarray]:
    """An array('i') of n entries equal to fill, whose items read back as
    Python ints, and a writable np.intc view of its buffer through which
    numpy fills it in place."""
    table = array("i", [fill]) * n
    return table, np.frombuffer(table, dtype=np.intc)


def _matpow_mod(M, e, p):
    out = np.eye(M.shape[0], dtype=np.int64)
    base = M % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


def _rank_mod_p(A, p) -> int:
    """Rank of an integer matrix over F_p, by row reduction."""
    A = A % p
    rank = 0
    for col in range(A.shape[1]):
        nonzero = np.flatnonzero(A[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        below = A[rank + 1:]
        below -= np.outer(below[:, col], A[rank])
        below %= p
        rank += 1
    return rank


def _is_irreducible(h, p) -> bool:
    """Rabin's test for a monic h of degree d over F_p, on its companion
    matrix C: C^(p^d) = C, and C^(p^(d/l)) - C, the multiplication by
    x^(p^(d/l)) - x, is invertible (h is prime to that polynomial) for
    every prime l | d."""
    d = len(h) - 1
    C = _companion(h, p)
    frob = [C]  # frob[j] = C^(p^j)
    for _ in range(d):
        frob.append(_matpow_mod(frob[-1], p, p))
    return (np.array_equal(frob[d], C)
            and all(_rank_mod_p(frob[d // ell] - C, p) == d
                    for ell in prime_factors(d)))


def _least_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree d over F_p.

    Coefficient tuples (c_0, ..., c_{d-1}) are compared left to right.
    """
    if d == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
        h = list(tail) + [1]
        # cheap prefilter: a root in F_p rules out irreducibility at once
        if any(sum(c * pow(a, i, p) for i, c in enumerate(h)) % p == 0
               for a in range(p)):
            continue
        if _is_irreducible(h, p):
            return tuple(h)
    raise InvariantError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldDesc:
    """One member of a tower F_p < k < k_l, with full lookup tables.

    Attributes:
        p, f, l: characteristic, degree of k over F_p, degree over k.
        degree:  f*l, the degree over F_p.
        size:    p**degree.
        order:   size - 1.
        modulus: defining polynomial coefficients (c_0, ..., c_degree), monic.
        base:    the declared subfield (k for an extension, F_p for k itself,
                 None for the prime field).
        exp/log: generator power tables over packed element codes, as
                 int32 arrays (array('i')): exp[t] is the code of g^t,
                 log[c] the dlog of code c, and log[0] = -1.
        zech:    for odd p, zech[t] = log(1 + g^t), and -1 at t = order/2
                 where 1 + g^t = 0, as an int32 array; None for p = 2.
        trace_exp: absolute-trace exponent of each generator power, as a
                 read-only numpy array of the least unsigned dtype that
                 holds p - 1 (one byte per unit for p < 256).

    The tables are built from the companion matrix C of the modulus, by a
    walk over the generator powers in blocks of 1024 digit columns (see
    _build_tables), so no d x order digit matrix is ever held.  _emb maps
    each declared subfield object to (t, u_inv): its generator g_s -> g^t,
    t = step*u with step = order/|sub^x|, so g_s^j embeds as g^(t*j) and
    pullback reads j = (s/step)*u_inv mod |sub^x| off a log s in step*Z.
    """

    __slots__ = (
        "p", "f", "l", "degree", "size", "order", "modulus", "base",
        "gen_packed", "exp", "log", "zech", "trace_exp",
        "_pp", "_emb",
    )

    def __init__(self, p: int, f: int, l: int, base: "FieldDesc | None"):
        if not is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        if f < 1 or l < 1:
            raise ValidationError("field degrees must be positive")
        degree = f * l
        size = p ** degree
        if size > DEFAULT_FIELD_CAP:
            raise BudgetExceeded(f"field of size {p}^{degree} exceeds "
                                 f"the cap {DEFAULT_FIELD_CAP}")
        self.p, self.f, self.l = p, f, l
        self.degree, self.size, self.order = degree, size, size - 1
        self.base = base
        self.modulus = _least_irreducible(p, degree)
        self._pp = tuple(p ** i for i in range(degree + 1))
        self._build_tables()
        self._emb = {}
        if base is not None:
            self._declare_embedding(base)
            if base.base is not None:
                # compose so the whole chain is addressable directly
                self._declare_embedding(base.base)

    # -- construction -----------------------------------------------------

    def _digits(self, packed: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.degree):
            packed, r = divmod(packed, p)
            out.append(r)
        return out

    def _pack(self, digits) -> int:
        total = 0
        for i, c in enumerate(digits):
            total += c * self._pp[i]
        return total

    def _find_generator(self, powers) -> int:
        """Least unit in the coefficient order whose matrix K = sum c_i C^i
        has K^(order/l) != 1 for every prime l | order."""
        p, order = self.p, self.order
        primes = prime_factors(order)
        one = powers[0]
        for tail in itertools.product(range(p), repeat=self.degree):
            if not any(tail):
                continue
            K = np.tensordot(tail, powers, 1) % p
            if not any(np.array_equal(_matpow_mod(K, order // ell, p), one)
                       for ell in primes):
                return self._pack(tail)
        raise InvariantError("no generator found")  # unreachable

    def _build_tables(self):
        """exp, log, trace_exp and Zech tables from a walk over the digit
        columns of the generator powers, one d x _BLOCK block at a time.

        Multiplication by the generator is the F_p-linear map M, so column t
        holds the digits of g^t.  The first block is built by doubling,
        columns [B, 2B) = M^B columns [0, B) for B = 1, 2, 4, ..., and each
        later block is M^_BLOCK times the one before.  One float64 product
        by the rows [M^_BLOCK; p^i; Tr x^i] gives the next block and the
        current block's packed codes and traces.  Every float64 sum of
        products here is at most d (p - 1)^2 for a digit or a trace and
        below p^d for a packed code, so it is exact below 2^53.  The exp,
        log and Zech arrays are allocated once, as int32 arrays of their
        final length (every code is below 2^31, checked once), and filled
        through np.intc views: each block writes its codes into exp and
        its logs into log, and the Zech table is read off exp and log one
        block at a time.  Nothing is copied, no temporary grows with the
        field, and no Python int is kept per element."""
        p, d, size, order = self.p, self.degree, self.size, self.order
        # powers[i] = C^i multiplies by x^i, so sum c_i C^i multiplies by
        # the element with coefficients c
        C = _companion(self.modulus, p)
        powers = [np.eye(d, dtype=np.int64)]
        for _ in range(1, d):
            powers.append(powers[-1] @ C % p)
        powers = np.array(powers)
        self.gen_packed = self._find_generator(powers)
        M = np.tensordot(self._digits(self.gen_packed), powers, 1) % p
        # the absolute trace of x^i is the trace of its matrix C^i
        traces = np.trace(powers, axis1=1, axis2=2) % p
        weights = np.array(self._pp[:d], dtype=np.int64)
        if max(d * (p - 1) ** 2, size) >= 1 << 53:
            raise InvariantError("float64 block products would not be exact")
        if size >= 1 << 31:
            raise InvariantError("packed codes would not fit int32 tables")
        width = min(_BLOCK, order)
        block = np.zeros((d, width), dtype=np.int64)
        block[0, 0] = 1
        MB, filled = M, 1
        while filled < width:
            n = min(filled, width - filled)
            block[:, filled:filled + n] = _exact_matmul(MB, block[:, :n]) % p
            MB = _exact_matmul(MB, MB) % p
            filled += n
        # MB is M^_BLOCK once the walk has more than one block; a one-block
        # field only discards the next block it gives
        rows = np.vstack([MB, weights, traces])
        self.exp, exp = _int32_table(order, 0)
        self.log, log = _int32_table(size, -1)
        trace_exp = np.empty(order, dtype=np.min_scalar_type(p - 1))
        for start in range(0, order, width):
            out = _exact_matmul(rows, block)
            stop = min(start + width, order)
            exp[start:stop] = out[d, :stop - start]
            log[exp[start:stop]] = np.arange(start, stop, dtype=np.intc)
            trace_exp[start:stop] = out[d + 1, :stop - start] % p
            block = out[:d] % p
        # the order powers are nonzero codes, of which there are order, so
        # they repeat exactly when some nonzero code is left without a log
        if log[1:].min() < 0:
            raise InvariantError("generator powers repeat")
        trace_exp.setflags(write=False)
        self.trace_exp = trace_exp
        self.zech = None if p == 2 else self._zech_table(exp, log)

    def _zech_table(self, exp, log) -> array:
        """zech[t] = log(1 + g^t), filled _BLOCK entries at a time from the
        np.intc views of exp and log; 1 + g^t only moves the constant
        digit.  The one t with 1 + g^t = 0 gets log[0] = -1."""
        p = self.p
        table, zech = _int32_table(self.order, 0)
        for start in range(0, self.order, _BLOCK):
            codes = exp[start:start + _BLOCK] + 1
            # adding 1 wraps a constant digit of p - 1 to 0, with no carry
            codes[codes % p == 0] -= p
            # clip leaves every (in-range) code as it is, and unlike the
            # default mode it writes into out without buffering it
            log.take(codes, out=zech[start:start + _BLOCK], mode="clip")
        return table

    def _declare_embedding(self, sub: "FieldDesc"):
        """Send the class of x in sub to the least root alpha of sub.modulus
        (zero first, then by dlog); keep the log t of the generator's image
        and the inverse of u = t/step mod |sub^x|."""
        # roots live in the unique subfield of matching size
        if self.order % sub.order:
            raise ValidationError("subfield size does not divide")
        step = self.order // sub.order
        candidates = [0] if sub.degree == 1 and sub.modulus[0] == 0 else []
        candidates += [self.exp[j * step] for j in range(sub.order)]
        alpha = next((c for c in candidates
                      if self._eval_poly(sub.modulus, c) == 0), None)
        if alpha is None:
            raise InvariantError("no root of subfield polynomial found")
        t = self.log[self._eval_poly(sub._digits(sub.gen_packed), alpha)]
        self._emb[sub] = (t, pow(t // step, -1, sub.order))

    def _eval_poly(self, coeffs, at_packed: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul_packed(acc, at_packed)
            if c:
                acc = self.add_packed(acc, c)  # constants pack as themselves
        return acc

    # -- packed arithmetic --------------------------------------------------

    def add_packed(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.degree == 1:
            return (a + b) % p
        if not a:
            return b
        if not b:
            return a
        # g^la + g^lb = g^la (1 + g^(lb - la))
        log, order = self.log, self.order
        la = log[a]
        z = self.zech[(log[b] - la) % order]
        return 0 if z < 0 else self.exp[(la + z) % order]

    def neg_packed(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        # -1 = g^(order/2) for odd p
        return self.exp[(self.log[a] + (self.order >> 1)) % self.order]

    def mul_packed(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def inv_packed(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % self.order]

    def pow_packed(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.exp[(self.log[a] * e) % self.order]

    # -- tower bookkeeping ---------------------------------------------------

    def has_subfield(self, sub: "FieldDesc") -> bool:
        return sub is self or sub in self._emb

    def _subfield_logs(self, sub: "FieldDesc") -> tuple[int, int]:
        try:
            return self._emb[sub]
        except KeyError:
            raise ValidationError(
                f"{sub!r} is not a declared subfield of {self!r}") from None

    def embed_packed(self, sub: "FieldDesc", code: int) -> int:
        if sub is self:
            return code
        t, _ = self._subfield_logs(sub)
        # the generator's j-th power goes to g^(t*j)
        return self.exp[t * sub.log[code] % self.order] if code else 0

    def pullback_packed(self, sub: "FieldDesc", code: int) -> int:
        if sub is self:
            return code
        _, u_inv = self._subfield_logs(sub)
        if not code:
            return 0
        step = self.order // sub.order
        s = self.log[code]
        if s % step:
            raise ValidationError("element does not lie in the subfield")
        return sub.exp[s // step * u_inv % sub.order]

    def trace_packed(self, sub: "FieldDesc", code: int) -> int:
        """The trace of a packed code down to a declared subfield."""
        q = sub.size
        acc = 0
        for _ in range(self.degree // sub.degree):
            acc = self.add_packed(acc, code)
            code = self.pow_packed(code, q)
        return self.pullback_packed(sub, acc)

    # -- element constructors -------------------------------------------------

    def elem(self, packed: int) -> "FFElem":
        """The element with this packed code; codes index the tables, so
        one outside [0, size) is rejected here."""
        if type(packed) is not int or not 0 <= packed < self.size:
            raise ValidationError(
                f"{packed!r} is not a packed code of {self!r}")
        return FFElem(self, packed)

    def zero(self) -> "FFElem":
        return FFElem(self, 0)

    def one(self) -> "FFElem":
        return FFElem(self, 1)

    def gen(self) -> "FFElem":
        return FFElem(self, self.gen_packed)

    def from_dlog(self, t: int) -> "FFElem":
        return FFElem(self, self.exp[t % self.order])

    def from_int(self, c: int) -> "FFElem":
        """Prime-field constant."""
        return FFElem(self, c % self.p)

    def elements(self):
        for code in range(self.size):
            yield FFElem(self, code)

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"


class FFElem:
    """Element of a FieldDesc, stored packed; hashable and immutable.  Its
    +, * and / take elements of its own field only; an int enters through
    FieldDesc.from_int."""

    __slots__ = ("field", "packed")

    def __init__(self, field: FieldDesc, packed: int):
        self.field = field
        self.packed = packed

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise ValidationError("elements of different fields")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field.add_packed(self.packed, o.packed))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field.mul_packed(self.packed, o.packed))

    def __pow__(self, e: int):
        return FFElem(self.field, self.field.pow_packed(self.packed, e))

    def inverse(self) -> "FFElem":
        return FFElem(self.field, self.field.inv_packed(self.packed))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.field is other.field and self.packed == other.packed
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.packed))

    def is_zero(self) -> bool:
        return self.packed == 0

    def __repr__(self):
        return f"FF({self.packed}@{self.field!r})"


# ---------------------------------------------------------------------------
# module-level operations


@canonical
def make_field(p: int, f: int) -> FieldDesc:
    """The field k with q = p**f elements (with its prime field declared)."""
    return FieldDesc(p, f, 1, make_field(p, 1) if f > 1 else None)


@canonical
def make_extension(base: FieldDesc, l: int) -> FieldDesc:
    """The degree-l extension k_l of k = base, with the embedding declared."""
    if base.l != 1:
        raise ValidationError("extensions are declared over the base field k")
    if l == 1:
        return base
    return FieldDesc(base.p, base.f, l, base)


def embed(x: FFElem, into: FieldDesc) -> FFElem:
    return FFElem(into, into.embed_packed(x.field, x.packed))


def pullback(x: FFElem, onto: FieldDesc) -> FFElem:
    return FFElem(onto, x.field.pullback_packed(onto, x.packed))


def norm_fiber_congruence(ext: FieldDesc, over: FieldDesc,
                          lam: FFElem) -> tuple[int, int]:
    """Solve Nr(g**t) = lam for the generator g of ext as t = t0 + j*(q-1),
    q = |over|; returns (t0, fiber size).  When ext is over, t0 = dlog lam.

    The generator h of over embeds as g**e with e = u * fiber, and
    Nr(g**u) = g**(u*fiber) = h, so t0 = u * dlog lam."""
    if lam.is_zero():
        raise ValidationError("norm fibers over zero are not used")
    qm1 = over.order
    fiber = ext.order // qm1
    u = 1 if ext is over else ext._subfield_logs(over)[0] // fiber
    return u * dlog(lam) % qm1, fiber


def dlog(x: FFElem) -> int:
    """Discrete log with respect to the field's canonical generator."""
    if x.packed == 0:
        raise ValidationError("dlog of zero")
    return x.field.log[x.packed]


def enumerate_mu(field: FieldDesc, d: int) -> list[FFElem]:
    """The d-th roots of unity, sorted by dlog; requires d | |field^x|."""
    if d < 1:
        raise ValidationError("subgroup order must be positive")
    if field.order % d:
        raise ValidationError(f"{d} does not divide the group order {field.order}")
    step = field.order // d
    return [FFElem(field, field.exp[j * step]) for j in range(d)]
