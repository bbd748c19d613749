import hashlib
import itertools
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jlcs import ff
from jlcs._util import prime_factors
from jlcs.errors import BudgetExceeded, ValidationError

from oracles import rel_norm, rel_trace


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# ---------------------------------------------------------------------------
# the polynomial-arithmetic build that the companion-matrix build replaced,
# kept as the oracle: dense polynomials over F_p as little-endian lists


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return poly_trim(out)


def poly_mod(a, h, p):
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
    return poly_trim(a)


def poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, poly_mod(a, bm, p)
    return a


def poly_powmod(a, e, h, p):
    result = [1]
    base = poly_mod(a, h, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), h, p)
        base = poly_mod(poly_mul(base, base, p), h, p)
        e >>= 1
    return result


def oracle_is_irreducible(h, p):
    """Rabin's test on polynomials: x^(p^d) = x mod h, and h is prime to
    x^(p^(d/l)) - x for every prime l | d."""
    d = len(h) - 1
    if d == 1:
        return True
    x = [0, 1]
    frob = {0: x}
    y = x
    for j in range(1, d + 1):
        y = poly_powmod(y, p, h, p)
        frob[j] = y
    if poly_sub(frob[d], x, p):
        return False
    for ell in prime_factors(d):
        g = poly_gcd(list(h), poly_sub(frob[d // ell], x, p), p)
        if len(g) > 1:
            return False
    return True


def oracle_generator(k):
    """Least unit, in coefficient order, whose (order/l)-th powers are not
    1 for any prime l | order."""
    if k.order == 1:
        return 1
    primes = prime_factors(k.order)
    h = list(k.modulus)
    for tail in itertools.product(range(k.p), repeat=k.degree):
        if not any(tail):
            continue
        cand = poly_trim(list(tail))
        if all(poly_powmod(cand, k.order // ell, h, k.p) != [1]
               for ell in primes):
            return sum(c * k.p ** i for i, c in enumerate(tail))
    raise AssertionError("no generator found")


def oracle_basis_traces(k):
    """Tr(x^j), j < degree, as sums of Frobenius conjugates' digits."""
    p, d = k.p, k.degree
    if d == 1:
        return [1]
    t_x = k.log[p]  # dlog of the class of x (packed code p)
    w = []
    for j in range(d):
        acc = [0] * d
        for t in range(d):
            e = (j * t_x * (p ** t)) % k.order
            for i, c in enumerate(k._digits(k.exp[e])):
                acc[i] = (acc[i] + c) % p
        if any(acc[1:]):
            raise AssertionError("trace left the prime field")
        w.append(acc[0])
    return w


def oracle_embedding(k, sub):
    """The image of every code of sub: x goes to the least root alpha (in
    dlog order, zero first) of sub.modulus, and sum c_i x^i to
    sum c_i alpha^i, one code at a time."""
    step = k.order // sub.order
    candidates = [0] if sub.degree == 1 and sub.modulus[0] == 0 else []
    candidates += [k.exp[j * step] for j in range(sub.order)]

    def value(coeffs, at):
        acc = 0
        for c in reversed(coeffs):
            acc = k.add_packed(k.mul_packed(acc, at), c)
        return acc

    alpha = next(c for c in candidates if value(sub.modulus, c) == 0)
    powers = [1]
    for _ in range(1, sub.degree):
        powers.append(k.mul_packed(powers[-1], alpha))
    image = []
    for code in range(sub.size):
        acc = 0
        for c, power in zip(sub._digits(code), powers):
            if c:
                acc = k.add_packed(acc, k.mul_packed(c, power))
        image.append(acc)
    return image


def brute_irreducible(h, p):
    """Check irreducibility by trial division over all lower-degree monics."""
    d = len(h) - 1
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            g = list(tail) + [1]
            r = poly_mod(list(h), g, p)
            if not r:
                return False
    return True


class TestModulus:
    def test_least_irreducible_matches_brute_force(self):
        for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
            h = ff._least_irreducible(p, d)
            assert h[-1] == 1
            assert brute_irreducible(h, p)
            # nothing lexicographically smaller is irreducible
            for tail in itertools.product(range(p), repeat=d):
                if tail >= tuple(h[:-1]):
                    break
                assert not brute_irreducible(list(tail) + [1], p)

    def test_gf9_modulus_is_x2_plus_1(self):
        k = ff.make_field(3, 2)
        assert k.modulus == (1, 0, 1)

    def test_gf4_modulus(self):
        k = ff.make_field(2, 2)
        assert k.modulus == (1, 1, 1)

    def test_gf8_modulus(self):
        # (1, 0, 1) precedes (1, 1, 0) in the coefficient order, so the
        # defining cubic is 1 + x^2 + x^3 rather than the more common 1+x+x^3
        k = ff.make_field(2, 3)
        assert k.modulus == (1, 0, 1, 1)


class TestTables:
    @pytest.mark.parametrize("p,f", SMALL_FIELDS)
    def test_exp_log_are_inverse_bijections(self, p, f):
        k = ff.make_field(p, f)
        assert sorted(k.exp) == sorted(set(k.exp))
        assert len(k.exp) == k.order
        for t, code in enumerate(k.exp):
            assert k.log[code] == t
        assert k.log[0] == -1

    @pytest.mark.parametrize("p,f", SMALL_FIELDS)
    def test_generator_has_full_order(self, p, f):
        k = ff.make_field(p, f)
        g = k.gen()
        seen = set()
        x = k.one()
        for _ in range(k.order):
            assert x.packed not in seen
            seen.add(x.packed)
            x = x * g
        assert x == k.one()

    def test_gf9_generator_is_one_plus_x(self):
        k = ff.make_field(3, 2)
        assert k.gen_packed == 4  # coefficients (1, 1)

    def test_gf9_trace_values(self):
        # Tr(1) = 2 and Tr(x) = 0 for the x^2 + 1 presentation
        k = ff.make_field(3, 2)
        kp = ff.make_field(3, 1)
        assert rel_trace(k.one(), kp) == kp.elem(2)
        assert rel_trace(k.elem(3), kp) == kp.zero()

    @pytest.mark.parametrize("p,f,l", [
        *(pytest.param(p, f, 1, id=f"{p}-{f}") for p, f in SMALL_FIELDS),
        # tower fields up to 729 elements: k_3/F_9, k_2/F_8, k_4/F_4, k_3/F_5
        pytest.param(3, 2, 3, id="3-2-l3"), pytest.param(2, 3, 2, id="2-3-l2"),
        pytest.param(2, 2, 4, id="2-2-l4"), pytest.param(5, 1, 3, id="5-1-l3"),
    ])
    def test_trace_exp_table_matches_rel_trace(self, p, f, l):
        k = ff.make_extension(ff.make_field(p, f), l)
        kp = ff.make_field(p, 1)
        for t in range(k.order):
            expect = rel_trace(k.from_dlog(t), kp)
            assert k.trace_exp[t] == expect.packed

    @pytest.mark.parametrize("p,f,l", [(2, 1, 3), (3, 1, 2), (2, 2, 4),
                                       (3, 2, 3), (5, 1, 3)])
    def test_packed_trace_sums_the_conjugates(self, p, f, l):
        # over the base and over the prime field, zero included
        base = ff.make_field(p, f)
        k = ff.make_extension(base, l)
        for over in {base, ff.make_field(p, 1)}:
            for code in range(k.size):
                x = k.elem(code)
                total = k.zero()
                for j in range(k.degree // over.degree):
                    total = total + ff.frobenius(x, j, over)
                assert k.trace_packed(over, code) == \
                    ff.pullback(total, over).packed
                assert rel_trace(x, over).packed == \
                    k.trace_packed(over, code)

    @pytest.mark.parametrize("p,f", SMALL_FIELDS + [(61, 1), (251, 1),
                                                    (257, 1)])
    def test_trace_exp_is_a_compact_read_only_array(self, p, f):
        k = ff.make_field(p, f)
        te = k.trace_exp
        assert isinstance(te, np.ndarray) and te.shape == (k.order,)
        assert np.iinfo(te.dtype).max >= p - 1
        assert te.itemsize == (1 if p < 256 else 2)
        with pytest.raises(ValueError):
            te[0] = 0

    def test_field_cap_enforced(self):
        with pytest.raises(BudgetExceeded):
            ff.FieldDesc(2, 21, 1, None)

    def test_cache_returns_identical_objects(self):
        assert ff.make_field(3, 2) is ff.make_field(3, 2)
        k = ff.make_field(3, 1)
        assert ff.make_extension(k, 2) is ff.make_extension(k, 2)
        # keyword and positional calls share one object
        assert ff.make_field(p=3, f=1) is ff.make_field(3, 1)
        assert ff.make_extension(k, l=2) is ff.make_extension(k, 2)


class TestArithmetic:
    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (5, 1)])
    def test_field_axioms_exhaustive(self, p, f):
        k = ff.make_field(p, f)
        els = list(k.elements())
        for a in els:
            assert a + k.zero() == a
            assert a * k.one() == a
            assert a + (-a) == k.zero()
            if not a.is_zero():
                assert a * a.inverse() == k.one()
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els[:4]:
                    assert (a + b) * c == a * c + b * c

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_gf9_associativity(self, i, j, m):
        k = ff.make_field(3, 2)
        a, b, c = k.elem(i), k.elem(j), k.elem(m)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(st.integers(0, 7), st.integers(min_value=-20, max_value=40))
    def test_gf8_pow_matches_repeated_product(self, i, e):
        k = ff.make_field(2, 3)
        a = k.elem(i)
        if a.is_zero() and e < 0:
            with pytest.raises(ZeroDivisionError):
                a ** e
            return
        expected = k.one()
        if e >= 0:
            for _ in range(e):
                expected = expected * a
        else:
            inv = a.inverse()
            for _ in range(-e):
                expected = expected * inv
        assert a ** e == expected

    def test_int_coercion(self):
        k = ff.make_field(5, 1)
        assert k.elem(3) + 4 == k.elem(2)
        assert 2 * k.elem(4) == k.elem(3)
        assert k.elem(1) - 3 == k.elem(3)

    def test_cross_field_arithmetic_rejected(self):
        a = ff.make_field(3, 1).elem(1)
        b = ff.make_field(5, 1).elem(1)
        with pytest.raises(ValidationError):
            a + b

    @pytest.mark.parametrize("code", [100, 9, -1, True, 1.0])
    def test_elem_rejects_codes_outside_the_field(self, code):
        k = ff.make_extension(ff.make_field(3, 1), 2)
        with pytest.raises(ValidationError):
            k.elem(code)

    def test_elem_accepts_every_code_of_the_field(self):
        k = ff.make_extension(ff.make_field(3, 1), 2)
        assert [k.elem(code).packed for code in range(k.size)] == \
            list(range(9))


def oracle_add_packed(field, a, b):
    """The digit-loop sum that add_packed replaced, kept as the oracle."""
    p = field.p
    if p == 2:
        return a ^ b
    out = 0
    mult = 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += ((da + db) % p) * mult
        mult *= p
    return out


def oracle_neg_packed(field, a):
    """The digit-loop negative that neg_packed replaced, kept as the oracle."""
    p = field.p
    if p == 2:
        return a
    out = 0
    mult = 1
    while a:
        a, da = divmod(a, p)
        if da:
            out += (p - da) * mult
        mult *= p
    return out


# every odd-p residue field of the acceptance grid (q <= 9) with its k_r,
# r <= 6, so GF(3^12) among them; then the odd prime fields up to 61
ODD_TOWER = [(p, f, r) for (p, f) in [(3, 1), (5, 1), (7, 1), (3, 2)]
             for r in range(1, 7)]
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61]
ODD_FIELDS = ODD_TOWER + [(p, 1, 1) for p in ODD_PRIMES[3:]]


def odd_field(p, f, r):
    return ff.make_extension(ff.make_field(p, f), r)


@st.composite
def odd_pairs(draw):
    """A field of ODD_FIELDS and two packed codes: zeros, a random pair, a
    code beside its own negative (the Zech sentinel) or beside itself."""
    k = odd_field(*draw(st.sampled_from(ODD_FIELDS)))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, k.size - 1))
    a = draw(code)
    kind = draw(st.sampled_from(("random", "negative", "same")))
    if kind == "random":
        b = draw(code)
    elif kind == "negative":
        b = oracle_neg_packed(k, a)
    else:
        b = a
    return k, a, b


class TestZechAddition:
    @given(odd_pairs())
    @settings(max_examples=400, deadline=None)
    def test_add_and_neg_match_digit_loops(self, case):
        k, a, b = case
        assert k.add_packed(a, b) == oracle_add_packed(k, a, b)
        assert k.add_packed(b, a) == oracle_add_packed(k, a, b)
        assert k.neg_packed(a) == oracle_neg_packed(k, a)
        assert k.add_packed(a, k.neg_packed(a)) == 0

    @pytest.mark.parametrize("p,f,r", ODD_FIELDS)
    def test_zeros_sentinel_and_sampled_pairs(self, p, f, r):
        k = odd_field(p, f, r)
        half = k.order // 2
        assert k.add_packed(0, 0) == 0 and k.neg_packed(0) == 0
        rng = random.Random(f"zech-{p}-{f}-{r}")
        for _ in range(200):
            a, b = rng.randrange(k.size), rng.randrange(k.size)
            assert k.add_packed(a, b) == oracle_add_packed(k, a, b)
            assert k.add_packed(a, 0) == a == k.add_packed(0, a)
            assert k.neg_packed(a) == oracle_neg_packed(k, a)
            t = rng.randrange(k.order)
            # g^t + g^(t + order/2) = g^t (1 + (-1)) = 0
            assert k.add_packed(k.exp[t], k.exp[(t + half) % k.order]) == 0

    @pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2),
                                     (3, 3), (5, 2), (3, 4)])
    def test_exhaustive_on_small_fields(self, p, f):
        k = ff.make_field(p, f)
        for a in range(k.size):
            assert k.neg_packed(a) == oracle_neg_packed(k, a)
            for b in range(k.size):
                assert k.add_packed(a, b) == oracle_add_packed(k, a, b)

    @pytest.mark.parametrize("p,f,r", ODD_TOWER)
    def test_zech_table_layout(self, p, f, r):
        k = odd_field(p, f, r)
        zech = k.zech
        assert isinstance(zech, array) and zech.typecode == "l"
        assert len(zech) == k.order
        assert zech[k.order // 2] == -1
        for t in range(0, k.order, max(1, k.order // 50)):
            if t != k.order // 2:
                assert k.exp[zech[t]] == oracle_add_packed(k, 1, k.exp[t])

    def test_characteristic_two_has_no_zech_table(self):
        assert ff.make_field(2, 3).zech is None
        assert ff.make_extension(ff.make_field(2, 2), 3).zech is None


class TestTower:
    def test_embedding_is_ring_homomorphism(self):
        k = ff.make_field(3, 2)
        k2 = ff.make_extension(k, 2)
        for a in k.elements():
            for b in list(k.elements())[:5]:
                assert ff.embed(a + b, k2) == ff.embed(a, k2) + ff.embed(b, k2)
                assert ff.embed(a * b, k2) == ff.embed(a, k2) * ff.embed(b, k2)
        assert ff.embed(k.one(), k2) == k2.one()

    def test_embed_then_pullback_roundtrip(self):
        k = ff.make_field(2, 2)
        k3 = ff.make_extension(k, 3)
        for a in k.elements():
            assert ff.pullback(ff.embed(a, k3), k) == a

    def test_pullback_outside_subfield_rejected(self):
        k = ff.make_field(2, 2)
        k3 = ff.make_extension(k, 3)
        image = {ff.embed(a, k3).packed for a in k.elements()}
        outside = next(x for x in k3.elements() if x.packed not in image)
        with pytest.raises(ValidationError):
            ff.pullback(outside, k)

    def test_frobenius_fixed_field_is_the_subfield(self):
        k = ff.make_field(3, 1)
        k2 = ff.make_extension(k, 2)
        fixed = {x.packed for x in k2.elements() if ff.frobenius(x, 1, k) == x}
        image = {ff.embed(a, k2).packed for a in k.elements()}
        assert fixed == image

    def test_prime_field_embeds_as_constants(self):
        k = ff.make_field(3, 2)
        kp = ff.make_field(3, 1)
        for c in range(3):
            assert ff.embed(kp.elem(c), k) == k.elem(c)

    def test_gf9_norm_of_generator(self):
        # Nr(g) = g^(1+3) = g^4 and the 4th power of the generator is 2
        k = ff.make_field(3, 2)
        kp = ff.make_field(3, 1)
        assert rel_norm(k.gen(), kp) == kp.elem(2)

    def test_norm_is_multiplicative_and_surjective(self):
        k = ff.make_field(2, 2)
        k2 = ff.make_extension(k, 2)
        els = [x for x in k2.elements() if not x.is_zero()]
        norms = {rel_norm(x, k).packed for x in els}
        assert norms == {x.packed for x in k.elements() if not x.is_zero()}
        for a in els[:8]:
            for b in els[:8]:
                assert rel_norm(a * b, k) == rel_norm(a, k) * rel_norm(b, k)

    def test_trace_is_additive_and_k_linear(self):
        k = ff.make_field(3, 2)
        k3 = ff.make_extension(k, 3)
        els = list(k3.elements())[:20]
        for a in els:
            for b in els[:6]:
                assert rel_trace(a + b, k) == rel_trace(a, k) + rel_trace(b, k)
        for c in k.elements():
            ce = ff.embed(c, k3)
            for a in els[:6]:
                assert rel_trace(ce * a, k) == c * rel_trace(a, k)

    def test_trace_transitivity(self):
        kp = ff.make_field(2, 1)
        k = ff.make_field(2, 2)
        k2 = ff.make_extension(k, 2)
        for x in k2.elements():
            via_k = rel_trace(rel_trace(x, k), kp)
            # k2 declares the prime field too, so the direct route exists
            direct = rel_trace(x, kp)
            assert via_k == direct

    def test_norm_fiber_congruence_solves_the_norm_equation(self):
        # t0 is read off the embedding; rel_norm multiplies it out
        for p, f in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
            k = ff.make_field(p, f)
            for l in (1, 2, 3):
                ext = ff.make_extension(k, l)
                for lam in ff.enumerate_mu(k, k.order):
                    t0, fiber = ff.norm_fiber_congruence(ext, k, lam)
                    # q = 2 leaves the one residue t0 = 0
                    assert 0 <= t0 < k.order
                    assert fiber == ext.order // k.order
                    assert rel_norm(ext.from_dlog(t0), k) == lam
                    if l == 1:
                        assert t0 == ff.dlog(lam)
        with pytest.raises(ValidationError):
            ff.norm_fiber_congruence(ext, k, k.zero())


class TestDlogAndMu:
    def test_dlog_of_zero_rejected(self):
        with pytest.raises(ValidationError):
            ff.dlog(ff.make_field(3, 1).zero())

    @pytest.mark.parametrize("p,f", SMALL_FIELDS)
    def test_dlog_inverts_from_dlog(self, p, f):
        k = ff.make_field(p, f)
        for t in range(k.order):
            assert ff.dlog(k.from_dlog(t)) == t

    def test_enumerate_mu_orders_and_membership(self):
        k = ff.make_field(3, 2)
        for d in (1, 2, 4, 8):
            mu = ff.enumerate_mu(k, d)
            assert len(mu) == d
            assert all((x ** d) == k.one() for x in mu)
            dlogs = [ff.dlog(x) for x in mu]
            assert dlogs == sorted(dlogs)

    def test_enumerate_mu_bad_divisor_rejected(self):
        with pytest.raises(ValidationError):
            ff.enumerate_mu(ff.make_field(3, 2), 3)


@settings(max_examples=30)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_frobenius_is_additive_and_multiplicative(pf, data):
    p, f = pf
    k = ff.make_field(p, f)
    ext = ff.make_extension(k, 2)
    i = data.draw(st.integers(0, ext.size - 1))
    j = data.draw(st.integers(0, ext.size - 1))
    a, b = ext.elem(i), ext.elem(j)
    fa = ff.frobenius(a, 1, k)
    fb = ff.frobenius(b, 1, k)
    assert ff.frobenius(a + b, 1, k) == fa + fb
    assert ff.frobenius(a * b, 1, k) == fa * fb


# ---------------------------------------------------------------------------
# every table a field build produces, pinned by SHA-256: the sums/algebra
# towers k_l (q <= 9, l <= 6), the five bigring fields, GF(2^20) as F_2 <
# F_16 < F_16^5 and F_257


def _tower(p, f, l):
    return ff.make_extension(ff.make_field(p, f), l)


PINNED_FIELDS = ([(p, f, l) for (p, f) in [(2, 1), (3, 1), (2, 2), (5, 1),
                                           (7, 1), (2, 3), (3, 2)]
                  for l in range(1, 7)]
                 + [(47, 1, 1), (7, 2, 1), (61, 1, 1), (2, 6, 1), (3, 4, 1),
                    (2, 4, 5), (257, 1, 1)])


def field_table_digest(k):
    """SHA-256 over the modulus, generator, exp, trace_exp and Zech tables,
    the map of every declared embedding and the pullback of every code of
    the field (every code up to 4096 elements, else the subfield's image
    and 4096 seeded codes), a code outside the subfield read as -1."""
    h = hashlib.sha256()

    def put(tag, values):
        h.update(tag.encode() + b"\0")
        h.update(np.asarray(values, dtype=np.int64).tobytes())

    put("modulus", k.modulus)
    put("gen", [k.gen_packed])
    put("exp", k.exp)
    put("trace_exp", k.trace_exp)
    put("zech", [] if k.zech is None else k.zech)
    rng = random.Random(f"pin-{k.p}-{k.f}-{k.l}")
    for sub in k.subfield_chain()[1:]:
        image = [k.embed_packed(sub, c) for c in range(sub.size)]
        put(f"embed-{sub.f}-{sub.l}", image)
        codes = (range(k.size) if k.size <= 4096 else
                 image + [rng.randrange(k.size) for _ in range(4096)])
        back = []
        for c in codes:
            try:
                back.append(k.pullback_packed(sub, c))
            except ValidationError:
                back.append(-1)
        put(f"pullback-{sub.f}-{sub.l}", back)
    return h.hexdigest()


# digests of the tables as the polynomial-arithmetic build produced them
PINNED_DIGESTS = {
    (2, 1, 1): "eb9dbb45b0e36c42d99ae4b15b19624da28ccb9bbe2d92af718537e13e279641",
    (2, 1, 2): "ad3c178734d8afd4c0aa038f0df71a8b7bc013fabe9e3000841f0377ca510026",
    (2, 1, 3): "d9eeca711de983e4f437598af848b6cc92f5870e389083734c07e4bd8c7e7ab7",
    (2, 1, 4): "f7be6151b854218f11553e2598222cb17fffeb2eb5be68d3644f3e654a7d2e3c",
    (2, 1, 5): "0dab296061d9b39146c36c634d40d6edfde296903d58c91117dcf3d7cb4b022a",
    (2, 1, 6): "63efbb133bd483e12e4dceaa521fdaca5a93a562be3352ec62783c74b4504fd8",
    (3, 1, 1): "e829cf89430d6edc799ca94fbf338c7500f9be5b51edfcdf98a7e60cc4c3c93b",
    (3, 1, 2): "053428d92c0469bd2407cedd34c74eadaf7cbeefb45a3b638d1ef5ecd61b5189",
    (3, 1, 3): "5f1e21e194f789d605f22b7ffcce2585b8ea50da1dfd46dbf25106c96a1138d4",
    (3, 1, 4): "1aaeb98c1ae0cd5bb09f06c312e191372c048a990b980fae05222041699f308f",
    (3, 1, 5): "aeaad5d4875846e1b2b3d47952e2f233a12c2b0030a991a69f67c9585389404c",
    (3, 1, 6): "d8cf8b547b33eb538c6b026f8cbc97d9e61f323fbeb705d66c7ca5f8c959eb57",
    (2, 2, 1): "ad3c178734d8afd4c0aa038f0df71a8b7bc013fabe9e3000841f0377ca510026",
    (2, 2, 2): "d79be4f8a87c2b9f33c27badd48539bcebb90801c9689b524feb26f38664b8e1",
    (2, 2, 3): "ca3d8dd7e37f4ef1b63bc82513a56a54b86ef32668723c7a0c7a0bf54dc550fd",
    (2, 2, 4): "0b6b0aafdea0f5b73e62102cbdf353e8f74a6c5d647f1ac967b3dcc325ed5763",
    (2, 2, 5): "80cc78488a53912bc2d2caafbae626e9530d139e06ec8b2408d059041a31d0ac",
    (2, 2, 6): "17de9c72b91d0e83a7ced780563bc3b4619dabe237c25e0a8a42e23de2472515",
    (5, 1, 1): "933d1efe46497d3592a182f61e523aa4e0b1dcf3522c67291573dcec76b3f731",
    (5, 1, 2): "85c00ae9407700dd47e3276bf015baaee3ee65666726ce9a9e3917809aef4255",
    (5, 1, 3): "f44ce47b5683d6a27e009f5a13819fbf89a6b0357df8c02c0144be4cdce6c21b",
    (5, 1, 4): "8e6deba3cbf7acb5eecf5d664ec9b4604e5016d199013a66dd7eaf989b18ea5e",
    (5, 1, 5): "f7736f78f746f7586b2fc305f97c6b63dc639e8ddfbd0e2861e2340ff6ec6e81",
    (5, 1, 6): "b3b9b5351c7696e7b74ee890a54871d4278d3eda6ecc3b67791f88bedb769d55",
    (7, 1, 1): "8cdc610663c5957d203689e4a2c0202ae16361b9361a93c827939a9edabf44bb",
    (7, 1, 2): "43f68b7e801321f4e3de08de8c3838eb9b94e50bb3830b1a630cde7b5393dc69",
    (7, 1, 3): "a1e1d4691e61ab3b68afe512e0ca71eeb21a8d58b2c344b73ecb80a538dc6ba2",
    (7, 1, 4): "6af9d0c2acc8004f5a8b65ab50442c6634f18e69ffce8e0a15829d8c77a59831",
    (7, 1, 5): "7e5cb41087afd1bbc5482854901635bedc9927334bdffba3eafe1001a0ce2176",
    (7, 1, 6): "4fd2cd1ec8d1bac6f2dd5a35ded3204a0c9703606e68b03824cca02eac5166ec",
    (2, 3, 1): "d9eeca711de983e4f437598af848b6cc92f5870e389083734c07e4bd8c7e7ab7",
    (2, 3, 2): "eebc67694b2293b11033ff7c9f1e9e19f46dd1b836a4c8ab861555594c071127",
    (2, 3, 3): "933d04c82933b8d4fef87a64793e67bad4b278fd202602cbb26088d9bcf7e4d0",
    (2, 3, 4): "d03b51425ac1f7564b2894f29474229cb709f35de3ea7262046474632c17279d",
    (2, 3, 5): "d8d336a22dc3530d0e687b066fa710b111e1e70c078885b1c11839c26dda1371",
    (2, 3, 6): "9a1a14c0daddc019310671f12df60324f266ab1f79bc9b28cc084544b10fd75e",
    (3, 2, 1): "053428d92c0469bd2407cedd34c74eadaf7cbeefb45a3b638d1ef5ecd61b5189",
    (3, 2, 2): "94174fa0f589e07f59ea48001fe7687560baad8d3e2ba5d3e65a17f90aa269e4",
    (3, 2, 3): "cd8f205484982275e3f3301edc0e51d775d0efa7e6808e4b5b4b4e0442ca1bbc",
    (3, 2, 4): "2be4d541b69d724f0062b0ede8a695d97047ceb9a88b78b950a0c3502545dfa9",
    (3, 2, 5): "171d5fc22ce815c232b1646b943f8651ef3749d25659a6d9cbc125013ddb2eb2",
    (3, 2, 6): "b004926686b68b96c3b53164ebd88a2df71ca863fcc61083f4d102d3492d3177",
    (47, 1, 1): "5baaef58d1d4cf549972591bab9176b1dfae7b88226a018b1f59810259558bb2",
    (7, 2, 1): "43f68b7e801321f4e3de08de8c3838eb9b94e50bb3830b1a630cde7b5393dc69",
    (61, 1, 1): "59b590a7aec0060e9774908571bf680c6556cb47b6ed034b75444de3fdee7882",
    (2, 6, 1): "63efbb133bd483e12e4dceaa521fdaca5a93a562be3352ec62783c74b4504fd8",
    (3, 4, 1): "1aaeb98c1ae0cd5bb09f06c312e191372c048a990b980fae05222041699f308f",
    (2, 4, 5): "e4d7d42d5d68d3aaff7c557ae2ebf7faa098f250e44d90e95747fe839bb131f2",
    (257, 1, 1): "649dacfbeb8ae2464d1bb65f7ab099f72b0966587a1f55d1307058778031f70c",
}


@pytest.mark.parametrize("p,f,l", PINNED_FIELDS,
                         ids=[f"{p}^{f}-l{l}" for p, f, l in PINNED_FIELDS])
def test_field_tables_are_pinned(p, f, l):
    assert field_table_digest(_tower(p, f, l)) == PINNED_DIGESTS[(p, f, l)]


# ---------------------------------------------------------------------------
# the companion-matrix build against the polynomial oracle


def _least_of_degree(p, d):
    """Least monic irreducible of degree d over F_p in the coefficient
    order, skipping the polynomials with a root in F_p."""
    if d == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
        h = list(tail) + [1]
        if all(sum(c * pow(a, i, p) for i, c in enumerate(h)) % p
               for a in range(p)) and oracle_is_irreducible(h, p):
            return tuple(h)
    raise AssertionError("no irreducible polynomial found")


def _product(factors, p):
    out = [1]
    for h in factors:
        out = poly_mul(out, list(h), p)
    return out


@st.composite
def monic_polys(draw):
    """A monic polynomial over F_p, p <= 11, of degree d <= 8: random, or a
    product of distinct irreducibles whose degrees divide d and sum to d
    (such a product passes x^(p^d) = x mod h but is reducible)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        return p, tail + [1]
    parts = [e for e in range(1, d) if d % e == 0]
    degrees = []
    while parts and sum(degrees) < d:
        e = draw(st.sampled_from([e for e in parts
                                  if sum(degrees) + e <= d]))
        degrees.append(e)
    if sum(degrees) != d:
        return p, [0] * d + [1]  # d = 1: x itself
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    factors = []
    for e in degrees:
        # a few hundred draws find any irreducible of degree e that is left;
        # none left (both linears over F_2 taken) gives x^d instead
        draws = (tuple(rng.randrange(p) for _ in range(e)) + (1,)
                 for _ in range(400))
        h = next((h for h in draws if h not in factors
                  and oracle_is_irreducible(list(h), p)), None)
        if h is None:
            return p, [0] * d + [1]
        factors.append(h)
    return p, _product(factors, p)


TOWER_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (7, 1, 1),
                (2, 3, 1), (3, 2, 1), (2, 2, 3), (3, 2, 3), (2, 3, 2),
                (5, 1, 3), (2, 1, 8), (3, 1, 5), (2, 4, 2), (2, 6, 1),
                (3, 4, 1), (7, 2, 1), (47, 1, 1), (61, 1, 1), (257, 1, 1),
                (3, 2, 6)]


class TestCompanionBuild:
    @given(monic_polys())
    @settings(max_examples=300, deadline=None)
    def test_matrix_rabin_matches_polynomial_rabin(self, case):
        p, h = case
        assert ff._is_irreducible(h, p) == oracle_is_irreducible(h, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_products_of_degrees_dividing_d_are_rejected(self, p):
        # degrees 3, 2 and 1: x^(p^6) = x mod h, while x^(p^3) - x and
        # x^(p^2) - x both differ from 0 mod h yet share a factor with h
        h = _product([_least_of_degree(p, e) for e in (3, 2, 1)], p)
        x6 = poly_powmod([0, 1], p ** 6, h, p)
        assert not poly_sub(x6, [0, 1], p)
        assert not oracle_is_irreducible(h, p)
        assert not ff._is_irreducible(h, p)

    @pytest.mark.parametrize("p,d", [(2, 5), (2, 6), (2, 8), (3, 4), (3, 6),
                                     (5, 3), (7, 4), (11, 2), (2, 20)])
    def test_least_irreducible_matches_polynomial_search(self, p, d):
        assert ff._least_irreducible(p, d) == _least_of_degree(p, d)

    @pytest.mark.parametrize("p,f,l", TOWER_FIELDS,
                             ids=[f"{p}^{f}-l{l}" for p, f, l in TOWER_FIELDS])
    def test_generator_traces_and_embeddings_match_polynomial_build(
            self, p, f, l):
        k = _tower(p, f, l)
        assert k.gen_packed == oracle_generator(k)
        # trace_exp[t] = sum_j digit_j(g^t) Tr(x^j)
        codes = np.asarray(k.exp, dtype=np.int64)
        digits = np.stack([codes // p ** j % p for j in range(k.degree)])
        want = np.asarray(oracle_basis_traces(k), dtype=np.int64) @ digits
        assert np.array_equal(k.trace_exp, want % p)
        for sub in k.subfield_chain()[1:]:
            image = oracle_embedding(k, sub)
            assert [k.embed_packed(sub, c) for c in range(sub.size)] == image
            assert [k.pullback_packed(sub, c) for c in image] == list(
                range(sub.size))

    @pytest.mark.parametrize("code", [0, 1])
    def test_undeclared_subfield_rejected_at_every_code(self, code):
        k9 = ff.make_field(3, 2)
        k3 = ff.make_extension(ff.make_field(3, 1), 3)
        with pytest.raises(ValidationError):
            k3.embed_packed(k9, code)
        with pytest.raises(ValidationError):
            k3.pullback_packed(k9, code)
