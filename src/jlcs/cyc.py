"""Exact arithmetic in Z[zeta_M], the ring of integers extended by a root of
unity, presented as Z[x]/(Phi_M) with Phi_M the M-th cyclotomic polynomial.

Sums of character values live here.  A ring instance fixes M once; character
code asks for a ring large enough for every root-of-unity order it needs via
ring_for(...), which takes the lcm of the declared orders.  Elements are
integer coefficient tuples of length deg(Phi_M), so equality of two character
sums is literal tuple equality; complex_value computes the complex embedding
on demand, for floating-point cross-checks.  Products, root sums and the
roots of unity past deg all reduce a vector indexed by powers of zeta_M
through the one CycRing._reduce: fold the exponents by x^M = 1 (by
x^(M/2) = -1 when M is even, which halves the vector), then divide by the
monic Phi_M from the top, reading only its nonzero coefficients below deg.
The ring keeps no table that grows with M beyond those coefficients.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import cache

from ._util import binary_power, prime_factors
from .errors import InvariantError, ValidationError


def _cyclotomic(M: int) -> list[int]:
    """Coefficients of Phi_M as the Moebius product of (x^(M/d) - 1)^mu(d)
    over the squarefree divisors d of M: multiply by the binomials with
    mu(d) = 1, then divide exactly by those with mu(d) = -1."""
    poly, divide_by = [1], []
    primes = prime_factors(M)
    for size in range(len(primes) + 1):
        for ps in itertools.combinations(primes, size):
            e = M // math.prod(ps)
            if size % 2:
                divide_by.append(e)
            else:
                poly = _times_binomial(poly, e)
    for e in divide_by:
        poly = _div_binomial(poly, e)
    return poly


def _times_binomial(poly: list[int], e: int) -> list[int]:
    """poly * (x^e - 1)."""
    out = [-c for c in poly] + [0] * e
    out[e:] = [a + b for a, b in zip(out[e:], poly)]
    return out


def _div_binomial(poly: list[int], e: int) -> list[int]:
    """poly // (x^e - 1), with exact remainder zero."""
    # poly = quo * (x^e - 1) gives quo[j] = poly[j + e] + quo[j + e]
    quo = poly[e:]
    for j in range(len(quo) - e - 1, -1, -1):
        quo[j] += quo[j + e]
    low = quo[:e] + [0] * (e - len(quo))
    if any(c + q for c, q in zip(poly, low)):
        raise InvariantError("division was not exact")
    return quo


class CycRing:
    """Z[zeta_M] with zeta_M the class of x in Z[x]/(Phi_M)."""

    def __init__(self, M: int):
        if M < 1:
            raise ValidationError("root-of-unity order must be positive")
        self.M = M
        phi = _cyclotomic(M)
        if phi[-1] != 1:
            raise InvariantError(f"Phi_{M} is not monic")
        self.deg = len(phi) - 1
        # x^deg = -sum phi[i] x^i: the nonzero terms of that sum
        self._phi_low = tuple((i, a) for i, a in enumerate(phi[:-1]) if a)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "CycElem":
        return CycElem(self, (0,) * self.deg)

    def one(self) -> "CycElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "CycElem":
        return CycElem(self, (n,) + (0,) * (self.deg - 1))

    def from_coeffs(self, coeffs) -> "CycElem":
        coeffs = list(coeffs)
        if len(coeffs) > self.deg:
            raise ValidationError("coefficient vector too long for the ring")
        coeffs += [0] * (self.deg - len(coeffs))
        return CycElem(self, tuple(coeffs))

    def zeta(self, order: int, power: int = 1) -> "CycElem":
        """The root of unity zeta_order ** power; order must divide M."""
        if order < 1 or self.M % order:
            raise ValidationError(
                f"order {order} does not divide the ring order {self.M}")
        # zeta_M^(M/2) = -1 for even M; below deg, zeta is a basis vector
        e, sign = (power % order) * (self.M // order), 1
        if self.M % 2 == 0 and e >= self.M // 2:
            e, sign = e - self.M // 2, -1
        vec = [0] * max(e + 1, self.deg)
        vec[e] = sign
        return CycElem(self, tuple(vec)) if e < self.deg else self._reduce(vec)

    def weighted_root_sum(self, order: int, counts) -> "CycElem":
        """sum_j counts[j] * zeta_order**j, for a counts vector of length order.

        This is the bridge from integer counting kernels to ring elements:
        exponential sums are accumulated as per-exponent counts and
        materialized here once.
        """
        if order < 1 or self.M % order:
            raise ValidationError(
                f"order {order} does not divide the ring order {self.M}")
        if len(counts) != order:
            raise ValidationError("counts vector length must equal the order")
        vec = [0] * self.M
        vec[::self.M // order] = counts
        return self._reduce(vec)

    def _reduce(self, vec) -> "CycElem":
        """sum_e vec[e] * zeta_M**e, for a coefficient vector vec indexed
        by exponent e: fold e by x^M = 1, and by x^(M/2) = -1 when M is
        even, then divide by Phi_M from the top."""
        deg, M = self.deg, self.M
        half, sign = (M // 2, -1) if M % 2 == 0 else (M, 1)
        acc = list(vec[:half]) + [0] * (deg - min(len(vec), half))
        for start in range(half, len(vec), half):
            s = sign ** (start // half)
            for e, c in enumerate(vec[start:start + half]):
                acc[e] += s * c
        for e in range(len(acc) - 1, deg - 1, -1):
            c = acc[e]
            if c:
                base = e - deg
                for i, a in self._phi_low:
                    acc[base + i] -= c * a
        return CycElem(self, tuple(acc[:deg]))

    def __repr__(self):
        return f"Z[zeta_{self.M}]"


class CycElem:
    """Immutable element of a CycRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CycElem):
            if other.ring.M != self.ring.M:
                raise ValidationError("elements of different cyclotomic rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElem(self.ring,
                       tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElem(self.ring,
                       tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        conv = [0] * (2 * self.ring.deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return self.ring._reduce(conv)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative powers are not defined here")
        return binary_power(self, e, self.ring.one())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def complex_value(self) -> complex:
        """Embedding zeta_M -> exp(2*pi*i/M), for floating cross-checks."""
        M = self.ring.M
        return sum(c * cmath.exp(2j * cmath.pi * i / M)
                   for i, c in enumerate(self.coeffs) if c)

    def to_json(self) -> dict:
        z = self.complex_value()
        return {"ring": self.ring.M, "coeffs": list(self.coeffs),
                "approx": [z.real, z.imag]}

    def __repr__(self):
        if not any(self.coeffs):
            return "Cyc(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else f"{c}*z^{i}")
        return f"Cyc({' + '.join(parts)} @ M={self.ring.M})"


_ring_cached = cache(CycRing)


def ring_for(*orders: int) -> CycRing:
    """The smallest ring containing roots of unity of all the given orders."""
    M = 1
    for d in orders:
        if d < 1:
            raise ValidationError("root-of-unity order must be positive")
        M = M * d // math.gcd(M, d)
    return _ring_cached(M)
