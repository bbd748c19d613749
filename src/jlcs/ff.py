"""Finite-field towers with explicit embeddings and table-driven arithmetic.

A field is described by (p, f, l): the base field k has q = p**f elements and
the field itself is the degree-l extension k_l of k inside a declared tower
F_p < k < k_l.  Defining polynomials are the lexicographically least monic
irreducible polynomials over F_p (coefficients compared constant-term first),
the generator is the least element of full multiplicative order in the same
coefficient order, and subfield embeddings are constructed once, at extension
time, by locating the least root of the subfield's defining polynomial.

Elements are stored packed: an element with coefficients (c_0, ..., c_{d-1})
over F_p is the integer sum(c_i * p**i).  Every field carries full exp/log
tables, so products, inverses and discrete logarithms are O(1) lookups and
the absolute-trace exponent of every generator power is precomputed, held
as a compact read-only numpy array that summation kernels slice directly.  Sums
and negatives are lookups too: p = 2 adds by XOR, and every odd-p field
holds a Zech table of order = size - 1 machine integers,
zech[t] = log(1 + g^t), so that g^a + g^b = g^(a + zech[b - a]) and
-g^a = g^(a + order/2); prime fields add as (a + b) % p.  Field sizes are
capped at DEFAULT_FIELD_CAP elements to keep this honest.

make_field and make_extension return one shared FieldDesc per field, so
fields compare by identity.
"""

from __future__ import annotations

import itertools
import math
from array import array

import numpy as np

from ._util import canonical, prime_factors
from .errors import BudgetExceeded, ValidationError

DEFAULT_FIELD_CAP = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian coefficient lists)

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


def _pmod(a, h, p):
    """a mod h with h monic."""
    a = list(a)
    dh = len(h) - 1
    while len(a) - 1 >= dh:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dh
            for i, hi in enumerate(h):
                a[shift + i] = (a[shift + i] - lead * hi) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _ppowmod(a, e, h, p):
    result = [1]
    base = _pmod(a, h, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), h, p)
        base = _pmod(_pmul(base, base, p), h, p)
        e >>= 1
    return result


def _is_irreducible(h, p) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    d = len(h) - 1
    if d == 1:
        return True
    x = [0, 1]
    frob = {0: x}
    y = x
    for j in range(1, d + 1):
        y = _ppowmod(y, p, h, p)
        frob[j] = y
    if _psub(frob[d], x, p):
        return False
    for ell in prime_factors(d):
        g = _pgcd(list(h), _psub(frob[d // ell], x, p), p)
        if len(g) > 1:
            return False
    return True


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
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
        exp/log: generator power tables over packed element codes.
        zech:    for odd p, zech[t] = log(1 + g^t), and -1 at t = order/2
                 where 1 + g^t = 0; None for p = 2.
        trace_exp: absolute-trace exponent of each generator power, as a
                 read-only numpy array of the least unsigned dtype that
                 holds p - 1 (one byte per unit for p < 256).
    """

    __slots__ = (
        "p", "f", "l", "degree", "size", "order", "modulus", "base",
        "gen_packed", "exp", "log", "zech", "trace_exp",
        "_pp", "_emb_fwd", "_emb_back",
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
        self._emb_fwd = {}
        self._emb_back = {}
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

    def _find_generator(self) -> int:
        order = self.order
        if order == 1:
            return 1
        primes = prime_factors(order)
        h = list(self.modulus)
        for tail in itertools.product(range(self.p), repeat=self.degree):
            if not any(tail):
                continue
            cand = list(tail)
            _ptrim(cand)
            if all(_ppowmod(cand, order // ell, h, self.p) != [1]
                   for ell in primes):
                return self._pack(tail)
        raise AssertionError("no generator found")  # unreachable

    def _build_tables(self):
        p, d, size, order = self.p, self.degree, self.size, self.order
        self.gen_packed = self._find_generator()
        # multiplication by the generator is F_p-linear; walk all powers with
        # numpy block matrix powers so even 5*10^5-element fields build fast.
        gdig = self._digits(self.gen_packed)
        mod_tail = np.array(self.modulus[:-1], dtype=np.int64)
        M = np.zeros((d, d), dtype=np.int64)
        col = np.array(gdig, dtype=np.int64)
        for j in range(d):
            M[:, j] = col
            # multiply current column by x modulo the defining polynomial
            top = col[-1]
            col = np.roll(col, 1)
            col[0] = 0
            if top:
                col = (col - top * mod_tail) % p
        digits = np.zeros((d, order), dtype=np.int64)
        digits[0, 0] = 1
        block = 1024
        first = min(block, order)
        for t in range(1, first):
            digits[:, t] = (M @ digits[:, t - 1]) % p
        if order > block:
            MB = self._matpow_mod(M, block, p)
            t = block
            while t < order:
                hi = min(t + block, order)
                digits[:, t:hi] = (MB @ digits[:, t - block:hi - block]) % p
                t = hi
        weights = np.array(self._pp[:d], dtype=np.int64)
        packed = weights @ digits
        log_arr = np.full(size, -1, dtype=np.int64)
        log_arr[packed] = np.arange(order)
        if int((log_arr >= 0).sum()) != order:
            raise AssertionError("generator powers repeat")
        self.exp = packed.tolist()
        self.log = log_arr.tolist()
        w = self._basis_traces()
        trace_exp = ((w @ digits) % p).astype(np.min_scalar_type(p - 1))
        trace_exp.setflags(write=False)
        self.trace_exp = trace_exp
        del digits  # freed before the Zech table's temporaries
        self.zech = None if p == 2 else self._zech_table(packed, log_arr)

    def _zech_table(self, packed, log_arr) -> array:
        """zech[t] = log(1 + g^t) as machine integers; 1 + g^t only moves
        the constant digit.  The one t with 1 + g^t = 0 gets log[0] = -1."""
        p = self.p
        low = packed % p
        one_plus = packed - low + (low + 1) % p
        return array("l", log_arr[one_plus].astype(np.dtype("l")).tobytes())

    @staticmethod
    def _matpow_mod(M, e, p):
        out = np.eye(M.shape[0], dtype=np.int64)
        base = M % p
        while e:
            if e & 1:
                out = (out @ base) % p
            base = (base @ base) % p
            e >>= 1
        return out

    def _basis_traces(self) -> np.ndarray:
        """Absolute traces Tr(x^j) for j < degree, as an int vector."""
        p, d = self.p, self.degree
        if d == 1:
            return np.array([1], dtype=np.int64)
        t_x = self.log[self.p]  # dlog of the class of x (packed code p)
        w = np.zeros(d, dtype=np.int64)
        for j in range(d):
            acc = [0] * d
            for t in range(d):
                e = (j * t_x * (p ** t)) % self.order
                for i, c in enumerate(self._digits(self.exp[e])):
                    acc[i] = (acc[i] + c) % p
            if any(acc[1:]):
                raise AssertionError("trace left the prime field")
            w[j] = acc[0]
        return w

    def _declare_embedding(self, sub: "FieldDesc"):
        """Locate the least root of sub.modulus here and tabulate both ways."""
        db = sub.degree
        # roots live in the unique subfield of matching size
        if self.order % sub.order:
            raise ValidationError("subfield size does not divide")
        candidates = [0] if db == 1 and sub.modulus[0] == 0 else []
        step = self.order // sub.order
        candidates += [self.exp[j * step] for j in range(sub.order)]
        alpha = None
        for cand in candidates:
            if self._eval_poly(sub.modulus, cand) == 0:
                alpha = cand
                break
        if alpha is None:
            raise AssertionError("no root of subfield polynomial found")
        powers = [self.exp[0]]
        for _ in range(1, db):
            powers.append(self.mul_packed(powers[-1], alpha))
        fwd = []
        for code in range(sub.size):
            digs = sub._digits(code)  # F_p digits pack as themselves
            acc = 0
            for i, c in enumerate(digs):
                if c:
                    acc = self.add_packed(acc, self.mul_packed(c, powers[i]))
            fwd.append(acc)
        self._emb_fwd[(sub.p, sub.f, sub.l)] = fwd
        self._emb_back[(sub.p, sub.f, sub.l)] = {v: i for i, v in enumerate(fwd)}

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

    def subfield_chain(self) -> list["FieldDesc"]:
        chain = [self]
        cur = self.base
        while cur is not None:
            chain.append(cur)
            cur = cur.base
        return chain

    def has_subfield(self, sub: "FieldDesc") -> bool:
        return sub in self.subfield_chain()

    def _emb_key(self, sub: "FieldDesc"):
        return (sub.p, sub.f, sub.l)

    def embed_packed(self, sub: "FieldDesc", code: int) -> int:
        if sub is self:
            return code
        key = self._emb_key(sub)
        if key not in self._emb_fwd:
            raise ValidationError(f"{sub!r} is not a declared subfield of {self!r}")
        return self._emb_fwd[key][code]

    def pullback_packed(self, sub: "FieldDesc", code: int) -> int:
        if sub is self:
            return code
        key = self._emb_key(sub)
        if key not in self._emb_back:
            raise ValidationError(f"{sub!r} is not a declared subfield of {self!r}")
        try:
            return self._emb_back[key][code]
        except KeyError:
            raise ValidationError("element does not lie in the subfield") from None

    # -- element constructors -------------------------------------------------

    def elem(self, packed: int) -> "FFElem":
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

    def to_json(self) -> dict:
        return {
            "p": self.p, "f": self.f, "l": self.l,
            "defining_poly": list(self.modulus),
            "generator": self._digits(self.gen_packed),
        }

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"


class FFElem:
    """Element of a FieldDesc, stored packed; hashable and immutable."""

    __slots__ = ("field", "packed")

    def __init__(self, field: FieldDesc, packed: int):
        self.field = field
        self.packed = packed

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise ValidationError("elements of different fields")
            return other
        if isinstance(other, int):
            return FFElem(self.field, other % self.field.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field.add_packed(self.packed, o.packed))

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, self.field.neg_packed(self.packed))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field.mul_packed(self.packed, o.packed))

    __rmul__ = __mul__

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
        if isinstance(other, int):
            return self.packed == other % self.field.p and self.packed < self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.packed))

    def __bool__(self):
        return self.packed != 0

    def is_zero(self) -> bool:
        return self.packed == 0

    def coeffs(self) -> list[int]:
        return self.field._digits(self.packed)

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


def frobenius(x: FFElem, j: int, over: FieldDesc) -> FFElem:
    """x ** (|over| ** j); over must be a declared subfield."""
    if not x.field.has_subfield(over):
        raise ValidationError("frobenius over a field outside the tower")
    return x ** (over.size ** (j % max(x.field.degree // over.degree, 1)))


def rel_trace(x: FFElem, over: FieldDesc) -> FFElem:
    """Trace of x down to a declared subfield."""
    fld = x.field
    if not fld.has_subfield(over):
        raise ValidationError("trace over a field outside the tower")
    d = fld.degree // over.degree
    acc = fld.zero()
    y = x
    for _ in range(d):
        acc = acc + y
        y = y ** over.size
    return pullback(acc, over)


def rel_norm(x: FFElem, over: FieldDesc) -> FFElem:
    """Norm of x down to a declared subfield."""
    fld = x.field
    if not fld.has_subfield(over):
        raise ValidationError("norm over a field outside the tower")
    d = fld.degree // over.degree
    acc = fld.one()
    y = x
    for _ in range(d):
        acc = acc * y
        y = y ** over.size
    return pullback(acc, over)


def norm_fiber_congruence(ext: FieldDesc, over: FieldDesc,
                          lam: FFElem) -> tuple[int, int]:
    """Solve Nr(g**t) = lam for the generator g of ext as t = t0 + j*(q-1),
    q = |over|; returns (t0, fiber size).  When ext is over, t0 = dlog lam."""
    if lam.is_zero():
        raise ValidationError("norm fibers over zero are not used")
    qm1 = over.order
    fiber = ext.order // qm1
    s0 = dlog(rel_norm(ext.gen(), over))
    # the norm of a generator generates the base units, so s0 is invertible
    t0 = (pow(s0, -1, qm1) * dlog(lam)) % qm1 if qm1 > 1 else 0
    return t0, fiber


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
