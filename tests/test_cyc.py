import cmath
import math
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from jlcs import cyc
from jlcs.errors import InvariantError, ValidationError

from oracles import conjugate, galois


@cache
def recursive_cyclotomic(M):
    """The oracle for cyc._cyclotomic: x^M - 1 divided exactly by Phi_d for
    every proper divisor d of M, each Phi_d found the same way."""
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            poly = exact_div(poly, recursive_cyclotomic(d))
    return poly


def exact_div(num, den):
    """num // den for integer polynomials, den monic, remainder zero."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
    assert not any(num), "division was not exact"
    return out


@cache
def dense_powers(M):
    """x^t mod Phi_M for every t < M, as deg-tuples, by the recurrence
    x^(t+1) = x * x^t mod Phi_M: the dense table of reduced powers."""
    phi = recursive_cyclotomic(M)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(M):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            nxt = [a - top * b for a, b in zip(nxt, phi)]
        cur = nxt
    return rows


# The oracles for CycRing._reduce: the three reduction loops that
# weighted_root_sum, CycElem.__mul__ and CycElem.galois each ran over the
# dense table before they shared the one reducer.

def oracle_weighted_root_sum(R, order, counts):
    step = R.M // order
    acc = [0] * R.deg
    for j, c in enumerate(counts):
        if c:
            zp = dense_powers(R.M)[j * step % R.M]
            for i, z in enumerate(zp):
                if z:
                    acc[i] += c * z
    return tuple(acc)


def oracle_mul(a, b):
    R = a.ring
    deg, M = R.deg, R.M
    conv = [0] * (2 * deg - 1 if deg else 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
    head = conv[:deg] + [0] * (deg - min(len(conv), deg))
    for e in range(deg, len(conv)):
        c = conv[e]
        if c:
            zp = dense_powers(M)[e % M]
            for i, z in enumerate(zp):
                if z:
                    head[i] += c * z
    return tuple(head)


def oracle_galois(a, t):
    R = a.ring
    acc = [0] * R.deg
    for i, c in enumerate(a.coeffs):
        if c:
            zp = dense_powers(R.M)[(i * t) % R.M]
            for j, z in enumerate(zp):
                if z:
                    acc[j] += c * z
    return tuple(acc)


def oracle_reduce(R, vec):
    """sum_e vec[e] * zeta_M**e over the dense table, for any length."""
    acc = [0] * R.deg
    for e, c in enumerate(vec):
        if c:
            for i, z in enumerate(dense_powers(R.M)[e % R.M]):
                if z:
                    acc[i] += c * z
    return tuple(acc)


class TestCyclotomicPolynomials:
    def test_small_known_coefficients(self):
        assert cyc._cyclotomic(1) == [-1, 1]
        assert cyc._cyclotomic(2) == [1, 1]
        assert cyc._cyclotomic(3) == [1, 1, 1]
        assert cyc._cyclotomic(4) == [1, 0, 1]
        assert cyc._cyclotomic(6) == [1, -1, 1]
        assert cyc._cyclotomic(8) == [1, 0, 0, 0, 1]
        assert cyc._cyclotomic(12) == [1, 0, -1, 0, 1]

    def test_degrees_are_euler_phi(self):
        for M in range(1, 40):
            phi = sum(1 for t in range(1, M + 1) if math.gcd(t, M) == 1)
            assert len(cyc._cyclotomic(M)) - 1 == phi

    def test_product_over_divisors_reconstructs_xM_minus_1(self):
        for M in (6, 12, 24):
            prod = [1]
            for d in range(1, M + 1):
                if M % d == 0:
                    phi_d = cyc._cyclotomic(d)
                    new = [0] * (len(prod) + len(phi_d) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi_d):
                            new[i + j] += a * b
                    prod = new
            expect = [-1] + [0] * (M - 1) + [1]
            assert prod == expect

    @pytest.mark.parametrize("Ms", [range(1, 401), (2162, 2520, 3660)],
                             ids=["M<=400", "big"])
    def test_moebius_product_matches_recursive_division(self, Ms):
        for M in Ms:
            assert cyc._cyclotomic(M) == recursive_cyclotomic(M), M

    def test_inexact_binomial_division_raises(self):
        # 1 + x + x^2 is not a multiple of x^2 - 1
        with pytest.raises(InvariantError, match="not exact"):
            cyc._div_binomial([1, 1, 1], 2)
        assert cyc._div_binomial([1, 0, 0, 0, -1], 2) == [-1, 0, -1]


class TestRingStructure:
    def test_zeta_power_relations(self):
        R = cyc.ring_for(12)
        z = R.zeta(12)
        assert z ** 12 == R.one()
        assert z ** 6 == R.from_int(-1)
        assert R.zeta(12, 3) == R.zeta(4, 1)
        assert R.zeta(12, 4) == R.zeta(3, 1)
        assert R.zeta(12, -1) == R.zeta(12, 11)

    def test_cube_roots_sum_to_zero(self):
        R = cyc.ring_for(3)
        total = R.zero()
        for j in range(3):
            total = total + R.zeta(3, j)
        assert total.is_zero()

    def test_order_must_divide(self):
        R = cyc.ring_for(12)
        with pytest.raises(ValidationError):
            R.zeta(5)

    def test_ring_for_takes_lcm(self):
        assert cyc.ring_for(3, 8, 12).M == 24
        assert cyc.ring_for(2, 7, 12).M == 84
        assert cyc.ring_for(1).M == 1

    def test_int_coercion(self):
        R = cyc.ring_for(4)
        assert R.from_int(3) == 3
        assert R.zeta(4) * 2 + 1 == R.from_int(1) + R.zeta(4) + R.zeta(4)
        with pytest.raises(TypeError):
            5 - R.from_int(2)
        with pytest.raises(TypeError):
            hash(R.from_int(2))

    def test_weighted_root_sum(self):
        R = cyc.ring_for(3)
        # 2 + zeta_3 + zeta_3^2 = 1
        assert R.weighted_root_sum(3, [2, 1, 1]) == R.one()
        with pytest.raises(ValidationError):
            R.weighted_root_sum(3, [1, 2])

    def test_ring_holds_no_power_table(self):
        R = cyc.CycRing(3660)
        assert R.deg == 960
        assert R.zeta(3660).coeffs == (0, 1) + (0,) * 958
        assert R.zeta(3660, 3659).coeffs == dense_powers(3660)[3659]
        # the only per-ring data past M and deg: Phi_M's nonzero
        # coefficients below deg
        low = [(i, c) for i, c in enumerate(recursive_cyclotomic(3660)[:-1])
               if c]
        assert vars(R) == {"M": 3660, "deg": 960, "_phi_low": tuple(low)}

    def test_mixed_ring_arithmetic_rejected(self):
        a = cyc.ring_for(3).one()
        b = cyc.ring_for(4).one()
        with pytest.raises(ValidationError):
            a + b


coeff_vectors = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


class TestAxioms:
    @given(coeff_vectors, coeff_vectors, coeff_vectors)
    def test_ring_axioms_in_z_zeta12(self, u, v, w):
        R = cyc.ring_for(12)
        a, b, c = R.from_coeffs(u), R.from_coeffs(v), R.from_coeffs(w)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == R.zero()
        assert a * R.one() == a

    @given(coeff_vectors, coeff_vectors)
    def test_complex_embedding_is_a_homomorphism(self, u, v):
        R = cyc.ring_for(12)
        a, b = R.from_coeffs(u), R.from_coeffs(v)
        assert cmath.isclose((a * b).complex_value(),
                             a.complex_value() * b.complex_value(),
                             abs_tol=1e-9)
        assert cmath.isclose((a + b).complex_value(),
                             a.complex_value() + b.complex_value(),
                             abs_tol=1e-9)

    def test_complex_value_of_zeta(self):
        for M in (3, 8, 12):
            R = cyc.ring_for(M)
            got = R.zeta(M).complex_value()
            assert cmath.isclose(got, cmath.exp(2j * cmath.pi / M),
                                 abs_tol=1e-12)


class TestOneReducer:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_products_galois_and_root_sums_match_the_oracle(self, data):
        # M = 5 and 9 have 2*deg - 1 > M: the product's tail wraps past M
        M = data.draw(st.sampled_from([1, 2, 5, 9, 12, 15, 105]), label="M")
        R = cyc.ring_for(M)
        vec = st.lists(st.integers(-9, 9), min_size=R.deg, max_size=R.deg)
        a = R.from_coeffs(data.draw(vec, label="a"))
        b = R.from_coeffs(data.draw(vec, label="b"))
        assert (a * b).coeffs == oracle_mul(a, b)
        t = data.draw(st.sampled_from(
            [t for t in range(1, M + 1) if math.gcd(t, M) == 1]), label="t")
        assert galois(a, t).coeffs == oracle_galois(a, t)
        for d in (d for d in range(1, M + 1) if M % d == 0):
            counts = data.draw(st.lists(st.integers(-9, 9), min_size=d,
                                        max_size=d), label=f"counts{d}")
            assert R.weighted_root_sum(d, counts).coeffs == \
                oracle_weighted_root_sum(R, d, counts)


def sparse_vector(size, coeffs, max_terms=8):
    """A list of length size with at most max_terms nonzero entries."""
    return st.dictionaries(st.integers(0, size - 1), coeffs,
                           max_size=max_terms).map(
        lambda d: [d.get(i, 0) for i in range(size)])


class TestReducerAgainstTheDenseTable:
    # coefficients past 2**63, so no fixed-width shortcut can pass
    coeffs = st.integers(-2 ** 70, 2 ** 70)

    @pytest.mark.parametrize("M", [1, 2, 12, 60, 2162, 2520, 3660])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_zeta_products_galois_and_root_sums(self, M, data):
        R = cyc.CycRing(M)
        a = R.from_coeffs(data.draw(sparse_vector(R.deg, self.coeffs),
                                    label="a"))
        b = R.from_coeffs(data.draw(sparse_vector(R.deg, self.coeffs),
                                    label="b"))
        assert (a * b).coeffs == oracle_mul(a, b)
        t = data.draw(st.integers(1, M).filter(lambda t: math.gcd(t, M) == 1),
                      label="t")
        assert galois(a, t).coeffs == oracle_galois(a, t)
        order = data.draw(st.sampled_from(
            [d for d in range(1, M + 1) if M % d == 0]), label="order")
        power = data.draw(st.integers(-2 * M, 2 * M), label="power")
        assert R.zeta(order, power).coeffs == \
            dense_powers(M)[power % order * (M // order)]
        counts = data.draw(sparse_vector(order, self.coeffs), label="counts")
        assert R.weighted_root_sum(order, counts).coeffs == \
            oracle_weighted_root_sum(R, order, counts)
        # past M, whatever its parity: the reducer folds any length
        vec = data.draw(sparse_vector(3 * M, self.coeffs), label="vec")
        assert R._reduce(vec).coeffs == oracle_reduce(R, vec)

    @pytest.mark.parametrize("M", [1, 2, 12, 60, 84, 3660])
    def test_every_root_of_unity(self, M):
        # every exponent class of every order dividing M, on both sides of
        # M/2 and of deg, and once more as a negative power
        R, table = cyc.CycRing(M), dense_powers(M)
        for order in (d for d in range(1, M + 1) if M % d == 0):
            for power in range(order):
                want = table[power * (M // order)]
                assert R.zeta(order, power).coeffs == want
                assert R.zeta(order, power - order).coeffs == want


class TestGalois:
    @given(coeff_vectors, coeff_vectors,
           st.sampled_from([1, 5, 7, 11]))
    @settings(max_examples=40)
    def test_galois_is_a_ring_automorphism(self, u, v, t):
        R = cyc.ring_for(12)
        a, b = R.from_coeffs(u), R.from_coeffs(v)
        assert galois(a * b, t) == galois(a, t) * galois(b, t)
        assert galois(a + b, t) == galois(a, t) + galois(b, t)

    def test_galois_on_zeta_is_power_map(self):
        R = cyc.ring_for(12)
        for t in (1, 5, 7, 11):
            assert galois(R.zeta(12), t) == R.zeta(12, t)

    def test_galois_requires_coprime_exponent(self):
        with pytest.raises(ValidationError):
            galois(cyc.ring_for(12).zeta(12), 4)

    def test_conjugate_inverts_roots_of_unity(self):
        R = cyc.ring_for(8)
        z = R.zeta(8, 3)
        assert z * conjugate(z) == R.one()

    @given(coeff_vectors)
    def test_conjugation_matches_complex_conjugate(self, u):
        R = cyc.ring_for(12)
        a = R.from_coeffs(u)
        assert cmath.isclose(conjugate(a).complex_value(),
                             a.complex_value().conjugate(), abs_tol=1e-9)
