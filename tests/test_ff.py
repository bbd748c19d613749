import itertools
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jlcs import ff
from jlcs.errors import BudgetExceeded, ValidationError


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def brute_irreducible(h, p):
    """Check irreducibility by trial division over all lower-degree monics."""
    d = len(h) - 1
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            g = list(tail) + [1]
            r = ff._pmod(list(h), g, p)
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
        assert ff.rel_trace(k.one(), kp) == kp.elem(2)
        assert ff.rel_trace(k.elem(3), kp) == kp.zero()

    @pytest.mark.parametrize("p,f", SMALL_FIELDS)
    def test_trace_exp_table_matches_rel_trace(self, p, f):
        k = ff.make_field(p, f)
        kp = ff.make_field(p, 1)
        for t in range(k.order):
            expect = ff.rel_trace(k.from_dlog(t), kp)
            assert k.trace_exp[t] == expect.packed

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
        outside = next(x for x in k3.elements()
                       if x.packed not in k3._emb_back[(2, 2, 1)])
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
        assert ff.rel_norm(k.gen(), kp) == kp.elem(2)

    def test_norm_is_multiplicative_and_surjective(self):
        k = ff.make_field(2, 2)
        k2 = ff.make_extension(k, 2)
        els = [x for x in k2.elements() if not x.is_zero()]
        norms = {ff.rel_norm(x, k).packed for x in els}
        assert norms == {x.packed for x in k.elements() if not x.is_zero()}
        for a in els[:8]:
            for b in els[:8]:
                assert ff.rel_norm(a * b, k) == ff.rel_norm(a, k) * ff.rel_norm(b, k)

    def test_trace_is_additive_and_k_linear(self):
        k = ff.make_field(3, 2)
        k3 = ff.make_extension(k, 3)
        els = list(k3.elements())[:20]
        for a in els:
            for b in els[:6]:
                assert ff.rel_trace(a + b, k) == ff.rel_trace(a, k) + ff.rel_trace(b, k)
        for c in k.elements():
            ce = ff.embed(c, k3)
            for a in els[:6]:
                assert ff.rel_trace(ce * a, k) == c * ff.rel_trace(a, k)

    def test_trace_transitivity(self):
        kp = ff.make_field(2, 1)
        k = ff.make_field(2, 2)
        k2 = ff.make_extension(k, 2)
        for x in k2.elements():
            via_k = ff.rel_trace(ff.rel_trace(x, k), kp)
            # k2 declares the prime field too, so the direct route exists
            direct = ff.rel_trace(x, kp)
            assert via_k == direct

    def test_norm_fiber_congruence_solves_the_norm_equation(self):
        k = ff.make_field(2, 2)
        for l in (1, 2, 3):
            ext = ff.make_extension(k, l)
            for lam in ff.enumerate_mu(k, k.order):
                t0, fiber = ff.norm_fiber_congruence(ext, k, lam)
                assert 0 <= t0 < k.order and fiber == ext.order // k.order
                assert ff.rel_norm(ext.from_dlog(t0), k) == lam
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
