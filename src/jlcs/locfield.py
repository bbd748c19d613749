"""Truncated Laurent series over a finite field: the equal-characteristic
local field K = k((w)) and its unramified extensions k_r((w)), with explicit
precision bookkeeping.

An element tracks (val, coeffs, prec): coefficients of w^val, w^(val+1), ...
are known, everything at exponents >= prec is unknown, and exact elements
carry infinite precision.  Constants are their own Teichmuller lifts in equal
characteristic, so residue arithmetic stays exact.  The additive character of
K restricts an additive character of the residue field through residue().

A product x * y runs once over the nonzero coefficients of the shorter
operand.  Each gives one row over the longer operand, exp[log a + log b] per
coefficient, cut at the product's precision; the first row starts the sum
and later rows add into it.  A product by a one-term series is therefore
one map over the other's coefficients, the shape of every product by a
Teichmuller diagonal or a power of the uniformizer.  coeff_map is that map
with a Frobenius power folded in, a -> c a^e w^j in one table pass, which
is how the algebra layer twists, scales and shifts a coefficient.

ProductSums computes sums of series products on packed integers (Kronecker
substitution).  Over k_r = F_p[x]/(P) of absolute degree d, a series becomes
one Python int: the x^j digit of the coefficient of w^(val+e) sits in slot
e*S + j, with S = 2d - 1 slots of B bits per w-row, so a product of two
series is one int product whose slot (e, j) holds the digit sum of x^j at
w^e, for j up to 2d - 2, before reduction.  B is a whole number of bytes
chosen per call from the bound sum min(len x, len y) * d * (p - 1)^2 over
the terms of each sum, so no slot can carry into the next.  Each call adds
its shifted products and reads every sum back with one numpy pass: the
bytes, times the fixed table of x^s mod P and of 256^b mod p, reduced mod
p and weighted into packed field codes.
"""

from __future__ import annotations

import numpy as np

from . import ff
from ._util import canonical
from .chars import AddChar
from .cyc import CycElem
from .errors import DomainError, PrecisionError, ValidationError

INF = float("inf")
DEFAULT_PREC = 8


class LaurentTrunc:
    """Laurent series truncated at absolute precision prec.

    coeffs[i] is the packed residue-field coefficient of w^(val+i); leading
    and trailing zero coefficients are normalized away, and a series with no
    tracked nonzero coefficient keeps val = prec as its canonical zero form.
    """

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field: ff.FieldDesc, val: int, coeffs, prec=INF):
        if prec != INF and not isinstance(prec, int):
            raise ValidationError("precision must be an integer or infinite")
        coeffs = [c.packed if isinstance(c, ff.FFElem) else int(c)
                  for c in coeffs]
        if prec != INF:
            coeffs = coeffs[:max(prec - val, 0)]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec if prec != INF else 0
        self.field = field
        self.val = val
        self.coeffs = tuple(coeffs)
        self.prec = prec

    # -- queries -----------------------------------------------------------

    def valuation(self) -> int | None:
        """Valuation, or None when the element is 0 within known precision."""
        return self.val if self.coeffs else None

    def is_zero(self) -> bool:
        """Zero as far as the tracked precision can tell."""
        return not self.coeffs

    def is_exact_zero(self) -> bool:
        """Zero at infinite precision: x * 0 is 0 and 0 + x is x exactly."""
        return not self.coeffs and self.prec == INF

    def val_at_least(self, v: int) -> bool | None:
        """True / False for 'valuation >= v'; None when the series is zero
        only up to a precision below v."""
        if self.coeffs:
            return self.val >= v
        return True if self.prec >= v else None

    def in_unit_group_1(self) -> bool:
        """Membership in U^1 = 1 + p: distance from 1 has valuation >= 1."""
        return certify((self - one(self.field, self.prec)).val_at_least(1),
                       "1-unit membership")

    def coeff(self, v: int) -> ff.FFElem:
        """Coefficient of w^v; unknown positions raise."""
        if v >= self.prec:
            raise PrecisionError(
                f"coefficient of w^{v} is beyond precision {self.prec}")
        i = v - self.val
        code = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return self.field.elem(code)

    def residue(self) -> ff.FFElem:
        """Image in the residue field; requires valuation >= 0."""
        if self.coeffs and self.val < 0:
            raise DomainError("residue of an element with a pole")
        if self.prec < 1:
            raise PrecisionError("precision too low to read the residue")
        return self.coeff(0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentTrunc):
            raise ValidationError("expected a Laurent series operand")
        if other.field is not self.field:
            raise ValidationError("series over different coefficient fields")
        return other

    def __add__(self, other):
        o = self._check(other)
        f = self.field
        prec = min(self.prec, o.prec)
        # an empty operand leaves the other one as it is, unless its
        # precision lowers the sum's
        if not self.coeffs:
            if o.prec == prec:
                return o
            return LaurentTrunc(f, o.val, o.coeffs, prec)
        if not o.coeffs:
            if self.prec == prec:
                return self
            return LaurentTrunc(f, self.val, self.coeffs, prec)
        lo = min(self.val, o.val)
        hi = max(self.val + len(self.coeffs), o.val + len(o.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.val - lo + i] = c
        for i, c in enumerate(o.coeffs):
            j = o.val - lo + i
            out[j] = f.add_packed(out[j], c)
        return LaurentTrunc(f, lo, out, prec)

    def __neg__(self):
        f = self.field
        if f.p == 2:
            return self
        return _normalized(f, self.val,
                           tuple([f.neg_packed(c) for c in self.coeffs]),
                           self.prec)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        o = self._check(other)
        f = self.field
        if not self.coeffs or not o.coeffs:
            if self.is_exact_zero() or o.is_exact_zero():
                return LaurentTrunc(f, 0, (), INF)
            # 0 * x is 0, but only to the precision the zero was known to;
            # an empty series acts as if its valuation were its precision
            v1 = self.val if self.coeffs else self.prec
            v2 = o.val if o.coeffs else o.prec
            return LaurentTrunc(f, 0, (), min(self.prec + v2, o.prec + v1))
        prec = min(self.prec + o.val, o.prec + self.val)
        val = self.val + o.val
        short, longer = self.coeffs, o.coeffs
        if len(short) > len(longer):
            short, longer = longer, short
        n_terms = len(short) + len(longer) - 1
        # both operands have val < prec, so the cut keeps at least one term
        if prec != INF:
            n_terms = min(n_terms, prec - val)
        # one row over the longer operand per nonzero coefficient of the
        # shorter, in the log domain and cut at the precision; the first
        # row starts the sum
        exp, log, order = f.exp, f.log, f.order
        la = log[short[0]]
        out = [exp[(la + log[b]) % order] if b else 0
               for b in longer[:n_terms]]
        out.extend([0] * (n_terms - len(out)))
        add = f.add_packed
        for i in range(1, min(len(short), n_terms)):
            a = short[i]
            if not a:
                continue
            la = log[a]
            for j, b in enumerate(longer[:n_terms - i], i):
                if b:
                    out[j] = add(out[j], exp[(la + log[b]) % order])
        # out[0] is the product of two leading coefficients, so only the
        # end can be zero: a cancellation, or a cut at an interior zero
        while not out[-1]:
            out.pop()
        return _normalized(f, val, tuple(out), prec)

    def scale(self, c: ff.FFElem) -> "LaurentTrunc":
        """Multiply by a residue-field constant (exact)."""
        if c.field is not self.field:
            raise ValidationError("constant from a different field")
        if not c.packed:
            return LaurentTrunc(self.field, self.val, (), self.prec)
        return self.coeff_map(self.field.log[c.packed], 1, 0)

    def coeff_map(self, lc: int, e: int, j: int) -> "LaurentTrunc":
        """c a^e w^j for every coefficient a, c = g^lc a unit (exact): the
        codes exp[(log a * e + lc) % order], zeros kept, val and prec moved
        by j.  A power map sends no unit to 0, so the normal form is kept;
        the series itself comes back when the map is the identity."""
        if e == 1 and not lc and not j:
            return self
        f = self.field
        prec = self.prec if self.prec == INF else self.prec + j
        if not self.coeffs:
            return _normalized(f, 0 if prec == INF else prec, (), prec)
        exp, log, order = f.exp, f.log, f.order
        return _normalized(f, self.val + j,
                           tuple([exp[(log[a] * e + lc) % order] if a else 0
                                  for a in self.coeffs]), prec)

    def shift(self, j: int) -> "LaurentTrunc":
        """Multiply by w^j (exact)."""
        prec = self.prec if self.prec == INF else self.prec + j
        if not self.coeffs:
            return LaurentTrunc(self.field, self.val + j, (), prec)
        return _normalized(self.field, self.val + j, self.coeffs, prec)

    def inverse(self) -> "LaurentTrunc":
        """Inverse of a monomial c w^v: c^-1 w^-v, exact when the monomial
        is, and otherwise known to precision prec - 2v.

        Monomials only: the one element the library inverts is zeta w.
        Any other series raises DomainError, as zero does.
        """
        if not self.coeffs:
            raise DomainError("inverse of zero (within known precision)")
        if len(self.coeffs) > 1:
            raise DomainError("inverse of a series that is not a monomial")
        v = self.val
        prec = INF if self.prec == INF else self.prec - 2 * v
        return LaurentTrunc(self.field, -v,
                            (self.field.inv_packed(self.coeffs[0]),), prec)

    def truncate(self, new_prec: int) -> "LaurentTrunc":
        """Forget coefficients at exponents >= new_prec."""
        if new_prec > self.prec:
            raise PrecisionError("cannot increase precision by truncation")
        return LaurentTrunc(self.field, self.val, self.coeffs, new_prec)

    def __eq__(self, other):
        """Agreement on the common known precision."""
        if not isinstance(other, LaurentTrunc):
            return NotImplemented
        if other.field is not self.field:
            return False
        d = self - other
        return d.is_zero()

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "val": self.val if self.coeffs else None,
            "prec": None if self.prec == INF else self.prec,
            "coeffs": list(self.coeffs),
        }

    def __repr__(self):
        if not self.coeffs:
            return f"O(w^{self.prec})"
        parts = [f"{c}*w^{self.val + i}"
                 for i, c in enumerate(self.coeffs) if c]
        tail = "" if self.prec == INF else f" + O(w^{self.prec})"
        return " + ".join(parts) + tail


def _normalized(field: ff.FieldDesc, val: int, coeffs: tuple,
                prec) -> LaurentTrunc:
    """The series with these parts, which are already in normal form: coeffs
    a tuple with nonzero first and last entries and val < prec, or coeffs
    empty and val = prec (val = 0 at infinite precision).  Skips the
    normalization of LaurentTrunc.__init__."""
    x = object.__new__(LaurentTrunc)
    x.field = field
    x.val = val
    x.coeffs = coeffs
    x.prec = prec
    return x


def certify(verdict: bool | None, what: str) -> bool:
    """A True / False verdict; None means truncation hid it, and raises."""
    if verdict is None:
        raise PrecisionError(f"{what} not determined at this precision")
    return verdict


# ---------------------------------------------------------------------------
# constructors


def zero(field: ff.FieldDesc, prec=INF) -> LaurentTrunc:
    return LaurentTrunc(field, 0, (), prec)


def one(field: ff.FieldDesc, prec=INF) -> LaurentTrunc:
    return LaurentTrunc(field, 0, (1,), prec)


def teichmuller(c: ff.FFElem, prec=INF) -> LaurentTrunc:
    """The constant-series lift of c (exact in equal characteristic)."""
    return LaurentTrunc(c.field, 0, (c.packed,), prec)


def from_coeffs(field: ff.FieldDesc, val: int, coeffs, prec=INF) -> LaurentTrunc:
    return LaurentTrunc(field, val, coeffs, prec)


# ---------------------------------------------------------------------------
# tower maps (the extension k_r((w))/k((w)) is unramified, so Galois acts on
# coefficients and fixes w)


def embed_series(x: LaurentTrunc, ext: ff.FieldDesc) -> LaurentTrunc:
    if not ext.has_subfield(x.field):
        raise ValidationError("target is not an extension of the series field")
    # embeddings are injective, so the normal form is kept
    return _normalized(ext, x.val,
                       tuple([ext.embed_packed(x.field, c) for c in x.coeffs]),
                       x.prec)


def pullback_series(x: LaurentTrunc, onto: ff.FieldDesc) -> LaurentTrunc:
    """Rewrite a series whose coefficients lie in a subfield over that
    subfield; raises when a coefficient is not rational over it."""
    coeffs = [x.field.pullback_packed(onto, c) for c in x.coeffs]
    return LaurentTrunc(onto, x.val, coeffs, x.prec)


def galois_series(x: LaurentTrunc, j: int, over: ff.FieldDesc) -> LaurentTrunc:
    """Coefficientwise power of the residue Frobenius over a subfield."""
    if not x.field.has_subfield(over):
        raise ValidationError("series field does not extend the base")
    return x.coeff_map(
        0, over.size ** (j % max(x.field.degree // over.degree, 1)), 0)


def series_trace(x: LaurentTrunc, over: ff.FieldDesc) -> LaurentTrunc:
    """Trace of the unramified extension, coefficient by coefficient."""
    if not x.field.has_subfield(over):
        raise ValidationError("series field does not extend the base")
    coeffs = [x.field.trace_packed(over, c) for c in x.coeffs]
    return LaurentTrunc(over, x.val, coeffs, x.prec)


# ---------------------------------------------------------------------------


def psi_K(psi: AddChar, x: LaurentTrunc) -> CycElem:
    """The additive character of K induced by psi on the residue field.

    Defined on integral elements only: the value is psi of the residue, and
    elements of positive valuation give 1.
    """
    if x.field is not psi.field:
        raise ValidationError("series and character fields must agree")
    v = x.valuation()
    if v is not None and v < 0:
        raise DomainError("character of K evaluated outside the integers")
    return psi.eval(x.residue())


# ---------------------------------------------------------------------------
# sums of series products on packed integers


class _Layout:
    """How ProductSums lays out series over one field of absolute degree d.

    A coefficient is a row of S = 2d - 1 slots, digit j of its x-adic
    expansion in slot j; the slots past d - 1 only fill up in products.
    Packing reads a code's low half digits and high half digits from two
    tables of p^ceil(d/2) and p^floor(d/2) ints, one pair per slot width,
    so no table grows with the field.  Unpacking multiplies the slot bytes
    by a fixed table: row s * nb + b holds 256^b times x^s mod P, digit by
    digit mod p, for slots of nb bytes.
    """

    __slots__ = ("p", "d", "S", "half", "weights", "_powers", "_spread",
                 "_reduce")

    def __init__(self, field: ff.FieldDesc):
        p, d = field.p, field.degree
        self.p, self.d, self.S = p, d, 2 * d - 1
        self.half = p ** ((d + 1) // 2)
        self.weights = np.array([p ** j for j in range(d)], dtype=np.int64)
        # x^s mod P for s < S, from x^(s+1) = x * x^s and x^d = -sum c_j x^j
        modulus = field.modulus
        row = [1] + [0] * (d - 1)
        powers = []
        for _ in range(self.S):
            powers.append(row)
            top = row[-1]
            row = [0] + row[:-1]
            row = [(c - top * m) % p for c, m in zip(row, modulus)]
        self._powers = np.array(powers, dtype=np.int64)
        self._spread = {}
        self._reduce = {}

    def spread(self, nb: int):
        """The low and high digit-spread tables for slots of nb bytes."""
        tables = self._spread.get(nb)
        if tables is None:
            p, d, bits = self.p, self.d, 8 * nb
            h = (d + 1) // 2

            def table(ndigits, first):
                out = []
                for code in range(p ** ndigits):
                    acc = 0
                    for j in range(first, first + ndigits):
                        code, digit = divmod(code, p)
                        acc |= digit << (bits * j)
                    out.append(acc)
                return out

            tables = self._spread[nb] = (table(h, 0), table(d - h, h))
        return tables

    def reduction(self, nb: int) -> np.ndarray:
        """The (S * nb) x d unpacking table for slots of nb bytes."""
        table = self._reduce.get(nb)
        if table is None:
            p = self.p
            byte = np.array([pow(256, b, p) for b in range(nb)], dtype=np.int64)
            table = (byte[None, :, None] * self._powers[:, None, :]) % p
            table = self._reduce[nb] = table.reshape(self.S * nb, self.d)
        return table


@canonical
def _layout(field: ff.FieldDesc) -> _Layout:
    return _Layout(field)


class ProductSums:
    """Sums of series products over one field, on packed integers.

    Calling it with a list of sums, each an iterable of (x, y) pairs of
    series over the field, returns the list of the series sum x * y, equal
    in (val, coeffs, prec) to the entrywise sum of the products added one
    by one: a pair with an exact-zero factor is skipped (a sum of none is
    the exact zero), each pair bounds the precision by
    min(x.prec + v(y), y.prec + v(x)), where an empty series' v is its
    precision, and the sum keeps the least bound.  All sums of one call are
    read back in one numpy pass.  Each operand is packed once per slot
    width over the life of the object, so reuse one object for the steps of
    one computation.
    """

    __slots__ = ("field", "layout", "_packed")

    def __init__(self, field: ff.FieldDesc):
        self.field = field
        self.layout = _layout(field)
        self._packed = {}

    def __call__(self, sums) -> list:
        field, lay = self.field, self.layout
        plans = []
        load = 0
        for pairs in sums:
            prec = low = INF
            top = -INF
            terms = []
            size = 0
            for x, y in pairs:
                xc, yc = x.coeffs, y.coeffs
                if xc:
                    vx = x.val
                elif x.prec == INF:
                    continue
                else:
                    vx = x.prec
                if yc:
                    vy = y.val
                elif y.prec == INF:
                    continue
                else:
                    vy = y.prec
                bound = x.prec + vy
                if y.prec + vx < bound:
                    bound = y.prec + vx
                if bound < prec:
                    prec = bound
                if xc and yc:
                    # the product's exponents run from v to end - 1
                    v = vx + vy
                    nx, ny = len(xc), len(yc)
                    if v < low:
                        low = v
                    if v + nx + ny - 1 > top:
                        top = v + nx + ny - 1
                    size += nx if nx < ny else ny
                    terms.append((x, y, v))
            if size > load:
                load = size
            rows = 0
            if terms:
                rows = (top if top < prec else prec) - low
            plans.append((prec, terms, low, top, rows))
        # no slot of any sum exceeds load * d * (p - 1)^2
        nb = max(1, ((load * lay.d * (lay.p - 1) ** 2).bit_length() + 7) // 8)
        row_bytes = nb * lay.S
        row_bits = 8 * row_bytes
        lo_table, hi_table = lay.spread(nb)
        half = lay.half
        packed = self._packed.setdefault(nb, {})

        def pack(z):
            acc = 0
            for c in reversed(z.coeffs):
                acc = acc << row_bits | lo_table[c % half] | hi_table[c // half]
            # the series is held so that its id stays its own
            packed[id(z)] = (z, acc)
            return acc

        chunks = []
        for prec, terms, low, top, rows in plans:
            if rows <= 0:
                continue
            total = 0
            for x, y, v in terms:
                hit = packed.get(id(x))
                px = pack(x) if hit is None else hit[1]
                hit = packed.get(id(y))
                py = pack(y) if hit is None else hit[1]
                total += px * py << (v - low) * row_bits
            # total fits below its top row, which may lie past the precision
            chunks.append(total.to_bytes((top - low) * row_bytes, "little")
                          [:rows * row_bytes])
        codes = []
        if chunks:
            slots = np.frombuffer(b"".join(chunks), dtype=np.uint8)
            digits = slots.reshape(-1, row_bytes) @ lay.reduction(nb) % lay.p
            codes = (digits @ lay.weights).tolist()
        out = []
        start = 0
        for prec, terms, low, top, rows in plans:
            seg = codes[start:start + rows] if rows > 0 else ()
            start += len(seg)
            a, b = 0, len(seg)
            while a < b and not seg[a]:
                a += 1
            while a < b and not seg[b - 1]:
                b -= 1
            if a == b:
                # no term, or every coefficient below the precision is 0
                out.append(_normalized(field, 0 if prec == INF else prec, (),
                                       prec))
            else:
                out.append(_normalized(field, low + a, tuple(seg[a:b]), prec))
        return out
