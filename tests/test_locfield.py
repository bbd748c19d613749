import pytest
from hypothesis import given, settings, strategies as st

from jlcs import chars, cyc, ff, locfield as lf
from jlcs._util import binary_power
from jlcs.errors import DomainError, PrecisionError, ValidationError

from oracles import uniformizer


def series_strategy(field, max_len=4):
    return st.builds(
        lambda v, cs, extra: lf.LaurentTrunc(field, v, cs, v + len(cs) + extra),
        st.integers(-3, 3),
        st.lists(st.integers(0, field.size - 1), max_size=max_len),
        st.integers(0, 2),
    )


class TestNormalization:
    def test_leading_zeros_raise_valuation(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, -1, [0, 0, 2, 1], 8)
        assert x.val == 1
        assert x.coeffs == (2, 1)

    def test_zero_canonical_form(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, 2, [0, 0], 5)
        assert x.is_zero()
        assert x.valuation() is None
        assert x.val == 5

    def test_coeffs_beyond_precision_dropped(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, 0, [1, 2, 1, 2], 2)
        assert x.coeffs == (1, 2)

    def test_exact_elements_keep_everything(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, -2, [1, 0, 0, 0, 0, 0, 0, 0, 0, 2])
        assert x.prec == lf.INF
        assert len(x.coeffs) == 10


class TestValuationResidue:
    def test_uniformizer_powers(self):
        k = ff.make_field(3, 1)
        w = uniformizer(k)
        assert w.valuation() == 1
        w3 = binary_power(w, 3, lf.one(k))
        assert w3.valuation() == 3
        u = lf.one(k) + w
        assert (w3 * u).valuation() == 3

    def test_teichmuller_is_exact_root_of_unity(self):
        k = ff.make_field(3, 2)
        for t in range(k.order):
            c = k.from_dlog(t)
            x = lf.teichmuller(c)
            assert binary_power(x, k.order, lf.one(k)) == lf.one(k)
            assert x.residue() == c

    def test_residue_of_one_plus_w(self):
        k = ff.make_field(3, 1)
        x = lf.one(k) + uniformizer(k)
        assert x.residue() == k.one()

    def test_residue_requires_integrality(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, -1, [1], 8)
        with pytest.raises(DomainError):
            x.residue()

    def test_residue_requires_precision(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, 0, [], 0)
        with pytest.raises(PrecisionError):
            x.residue()

    def test_residue_is_ring_homomorphism(self):
        k = ff.make_field(5, 1)
        w = uniformizer(k)
        a = lf.teichmuller(k.elem(2)) + w
        b = lf.teichmuller(k.elem(4)) + w * w
        assert (a * b).residue() == a.residue() * b.residue()
        assert (a + b).residue() == a.residue() + b.residue()

    @pytest.mark.parametrize("val, coeffs, prec, v, expected", [
        # a visible leading term decides at every threshold
        (2, [1], lf.INF, 2, True),
        (2, [1], lf.INF, 3, False),
        (-1, [2, 1], 4, -1, True),
        (-1, [2, 1], 4, 0, False),
        (1, [1], 3, 5, False),
        # the exact zero lies in every ideal
        (0, [], lf.INF, 10 ** 6, True),
        (0, [], lf.INF, -3, True),
        # a truncated zero decides only up to its precision
        (0, [], 2, 2, True),
        (0, [], 2, -5, True),
        (0, [], 2, 3, None),
        (0, [], -1, -1, True),
        (0, [], -1, 0, None),
        # coefficients past the precision are dropped, leaving a zero
        (0, [2], 0, 0, True),
        (0, [2], 0, 1, None),
    ])
    def test_val_at_least_truth_table(self, val, coeffs, prec, v, expected):
        k = ff.make_field(3, 1)
        assert lf.LaurentTrunc(k, val, coeffs, prec).val_at_least(v) is expected

    def test_unit_group_1_membership(self):
        k = ff.make_field(3, 1)
        assert lf.one(k, 1).in_unit_group_1()
        assert lf.LaurentTrunc(k, 0, [1, 2], 3).in_unit_group_1()
        assert lf.one(k).in_unit_group_1()
        assert not lf.LaurentTrunc(k, 0, [2], 1).in_unit_group_1()
        assert not lf.zero(k, 1).in_unit_group_1()
        assert not uniformizer(k).inverse().in_unit_group_1()

    def test_unit_group_1_needs_the_residue(self):
        # at precision 0 nothing about the residue is known, so neither
        # answer is certified
        k = ff.make_field(3, 1)
        for x in (lf.zero(k, 0), lf.LaurentTrunc(k, 0, [2], 0)):
            with pytest.raises(PrecisionError):
                x.in_unit_group_1()


class TestArithmetic:
    def test_addition_tracks_min_precision(self):
        k = ff.make_field(3, 1)
        a = lf.LaurentTrunc(k, 0, [1, 1, 1, 1], 4)
        b = lf.LaurentTrunc(k, 0, [2, 2], 2)
        assert (a + b).prec == 2

    def test_multiplication_precision_rule(self):
        k = ff.make_field(3, 1)
        a = lf.LaurentTrunc(k, 1, [1, 1], 4)   # prec 4, val 1
        b = lf.LaurentTrunc(k, 2, [2], 5)      # prec 5, val 2
        # min(4 + 2, 5 + 1) = 6
        assert (a * b).prec == 6
        assert (a * b).val == 3

    def test_mul_matches_convolution(self):
        k = ff.make_field(3, 1)
        a = lf.LaurentTrunc(k, 0, [1, 2])
        b = lf.LaurentTrunc(k, 0, [2, 1])
        c = a * b
        # (1 + 2w)(2 + w) = 2 + 5w + 2w^2 = 2 + 2w + 2w^2 over F_3
        assert c.coeffs == (2, 2, 2)

    def test_exact_zero_multiplication(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, -5, [1], 3)
        z = lf.zero(k)
        assert (z * x).prec == lf.INF
        truncated_zero = lf.zero(k, 2)
        assert (truncated_zero * x).prec == -3

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_associativity_on_common_precision(self, data):
        k = ff.make_field(3, 1)
        s = series_strategy(k)
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs == rhs
        assert lhs.prec == rhs.prec
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, data):
        k = ff.make_field(2, 2)
        s = series_strategy(k)
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        assert a * (b + c) == a * b + a * c

    def test_scale_and_shift_are_exact(self):
        k = ff.make_field(3, 2)
        x = lf.LaurentTrunc(k, 0, [1, 4, 7], 3)
        assert x.scale(k.gen()).prec == 3
        assert x.shift(2).prec == 5
        assert x.shift(2).val == 2

    def test_cross_field_rejected(self):
        a = lf.one(ff.make_field(3, 1))
        b = lf.one(ff.make_field(5, 1))
        with pytest.raises(ValidationError):
            a + b


@st.composite
def any_series(draw, field):
    """Exact zeros, truncated zeros (precision -3..3) and series with
    valuations down to -3, given with zero ends that the constructor
    strips, exact or truncated."""
    kind = draw(st.sampled_from(("exact_zero", "truncated_zero", "series")))
    if kind == "exact_zero":
        return lf.zero(field)
    if kind == "truncated_zero":
        return lf.zero(field, draw(st.integers(-3, 3)))
    val = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.integers(0, field.size - 1), max_size=5))
    extra = draw(st.one_of(st.none(), st.integers(-1, 2)))
    return lf.LaurentTrunc(field, val, coeffs,
                           lf.INF if extra is None else val + len(coeffs) + extra)


def normal_key(y):
    return (y.val, y.coeffs, y.prec, type(y.coeffs))


class TestNormalForm:
    """Every result built without the constructor's normalization is
    already in the normal form the constructor would give it."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_results_are_already_normalized(self, data):
        p, r = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]))
        k = ff.make_field(p, 1)
        kr = ff.make_extension(k, r)
        x, y = data.draw(any_series(kr)), data.draw(any_series(kr))
        z = data.draw(st.sampled_from((lf.zero(kr), lf.zero(kr, -1),
                                       lf.zero(kr, 2))))
        c = kr.elem(data.draw(st.integers(0, kr.size - 1)))
        base = data.draw(any_series(k))
        pairs = [(data.draw(any_series(kr)), data.draw(any_series(kr)))
                 for _ in range(data.draw(st.integers(0, 3)))]
        results = [-x, x.shift(data.draw(st.integers(-3, 3))),
                   lf.galois_series(x, data.draw(st.integers(0, r)), k),
                   lf.embed_series(base, kr), x.scale(c), x + z, z + x,
                   x + y, x * y, lf.ProductSums(kr)([pairs])[0]]
        for res in results:
            rebuilt = lf.LaurentTrunc(kr, res.val, res.coeffs, res.prec)
            assert normal_key(rebuilt) == normal_key(res)

    def test_adding_an_empty_operand_keeps_the_other(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, -1, [1, 2], 4)
        assert x + lf.zero(k) is x and lf.zero(k) + x is x
        assert x + lf.zero(k, 4) is x and lf.zero(k, 5) + x is x
        # a truncated zero below x's precision lowers it
        assert (x + lf.zero(k, 1)).prec == 1
        assert (lf.zero(k, 1) + x).coeffs == (1, 2)


def chain_oracle(x, c, e, j):
    """c a^e w^j for every coefficient a of x, by FFElem arithmetic, then
    the constructor's normalization: the twist, scale and shift chain that
    LaurentTrunc.coeff_map fuses."""
    f = x.field
    coeffs = [(c * f.elem(a) ** e).packed if a else 0 for a in x.coeffs]
    prec = x.prec if x.prec == lf.INF else x.prec + j
    return lf.LaurentTrunc(f, x.val + j, coeffs, prec)


class TestCoeffMap:
    """x.coeff_map(lc, e, j) against the chain it replaces, for every
    Frobenius power e = q^t of k_r over k, in (val, coeffs, prec)."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_map_is_the_twist_scale_shift_chain(self, data):
        p, f, r = data.draw(st.sampled_from([(2, 1, 3), (3, 1, 2), (2, 2, 2),
                                             (3, 1, 4), (5, 1, 3)]))
        k = ff.make_field(p, f)
        kr = ff.make_extension(k, r)
        x = data.draw(any_series(kr))
        t = data.draw(st.integers(0, r - 1))
        lc = data.draw(st.integers(0, kr.order - 1))
        j = data.draw(st.integers(-4, 4))
        c = kr.from_dlog(lc)
        got = x.coeff_map(lc, k.size ** t, j)
        assert normal_key(got) == normal_key(chain_oracle(x, c, k.size ** t, j))
        assert normal_key(got) == normal_key(
            lf.galois_series(x, t, k).scale(c).shift(j))

    def test_every_power_and_constant_on_every_code(self):
        for p, f, r in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
            k = ff.make_field(p, f)
            kr = ff.make_extension(k, r)
            # every code once, an interior zero and a truncated tail
            x = lf.LaurentTrunc(kr, -2, [1, 0] + list(range(kr.size)),
                                kr.size + 3)
            for t in range(r):
                for lc in range(kr.order):
                    for j in (-3, 0, 2):
                        want = chain_oracle(x, kr.from_dlog(lc), k.size ** t, j)
                        got = x.coeff_map(lc, k.size ** t, j)
                        assert normal_key(got) == normal_key(want)

    def test_zeros_and_the_identity(self):
        kr = ff.make_extension(ff.make_field(3, 1), 2)
        x = lf.LaurentTrunc(kr, 1, [2, 5], 6)
        assert x.coeff_map(0, 1, 0) is x
        exact, cut = lf.zero(kr), lf.zero(kr, 2)
        for j in (-2, 0, 3):
            assert normal_key(exact.coeff_map(4, 3, j)) == (0, (), lf.INF, tuple)
            assert normal_key(cut.coeff_map(4, 3, j)) == (2 + j, (), 2 + j, tuple)


class TestInverse:
    def test_monomial_inverse_exact(self):
        k = ff.make_field(3, 2)
        x = lf.teichmuller(k.gen()).shift(3)
        xi = x.inverse()
        assert xi.prec == lf.INF
        assert x * xi == lf.one(k)

    def test_unit_inverse_to_available_precision(self):
        # the unit 2 + O(w^5): its inverse 2 is known to w^5 as well
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, 0, [2], 5)
        xi = x.inverse()
        assert xi.prec == 5
        prod = x * xi
        assert prod == lf.one(k)
        assert prod.prec == 5

    def test_inverse_with_valuation(self):
        # a truncated monomial 3 w^2 + O(w^7): its inverse is known to
        # w^(7 - 4), where the inverse of every completion starts to differ
        k = ff.make_field(5, 1)
        x = lf.LaurentTrunc(k, 2, [3], 7)
        xi = x.inverse()
        assert xi.val == -2
        assert xi.coeffs == (k.inv_packed(3),)
        assert xi.prec == 7 - 4
        assert x * xi == lf.one(k)

    def test_nonmonomial_inverse_rejected(self):
        k = ff.make_field(3, 1)
        for x in (lf.one(k) + uniformizer(k),
                  lf.LaurentTrunc(k, 0, [1, 1, 0, 2, 1], 5)):
            with pytest.raises(DomainError):
                x.inverse()

    def test_inverse_of_zero_rejected(self):
        k = ff.make_field(3, 1)
        with pytest.raises(DomainError):
            lf.zero(k, 4).inverse()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_unit_group_closure(self, data):
        k = ff.make_field(3, 1)
        s = series_strategy(k)
        a, b = data.draw(s), data.draw(s)
        one = lf.one(k)
        ua, ub = one + a.shift(max(1 - a.val, 1)), one + b.shift(max(1 - b.val, 1))
        assert ua.in_unit_group_1() and ub.in_unit_group_1()
        assert (ua * ub).in_unit_group_1()


class TestTowerMaps:
    def test_embed_then_trace(self):
        k = ff.make_field(3, 1)
        k2 = ff.make_extension(k, 2)
        x = lf.LaurentTrunc(k, 0, [1, 2, 1], 3)
        up = lf.embed_series(x, k2)
        down = lf.series_trace(up, k)
        assert down == x.scale(k.elem(2))  # trace multiplies by the degree

    def test_galois_fixes_base_series(self):
        k = ff.make_field(2, 2)
        k3 = ff.make_extension(k, 3)
        x = lf.embed_series(lf.LaurentTrunc(k, -1, [2, 3, 1], 4), k3)
        assert lf.galois_series(x, 1, k) == x

    def test_trace_of_uniformizer_scales_by_degree(self):
        k = ff.make_field(2, 1)
        k3 = ff.make_extension(k, 3)
        w = uniformizer(k3)
        tr = lf.series_trace(w, k)
        # 3 = 1 in characteristic 2
        assert tr == uniformizer(k)


class TestPsiK:
    def test_values(self):
        k = ff.make_field(3, 1)
        R = cyc.ring_for(3, 2)
        psi = chars.AddChar(k, k.one(), R)
        w = uniformizer(k)
        assert lf.psi_K(psi, w) == R.one()
        assert lf.psi_K(psi, lf.zero(k)) == R.one()
        two_plus_w = lf.teichmuller(k.elem(2)) + w
        assert lf.psi_K(psi, two_plus_w) == R.zeta(3, 2)

    def test_constant_on_p_cosets(self):
        k = ff.make_field(5, 1)
        R = cyc.ring_for(5, 4)
        psi = chars.AddChar(k, k.one(), R)
        x = lf.teichmuller(k.elem(3))
        for j in range(1, 4):
            shifted = x + uniformizer(k).shift(j - 1)
            assert lf.psi_K(psi, shifted) == lf.psi_K(psi, x)

    def test_pole_rejected(self):
        k = ff.make_field(3, 1)
        R = cyc.ring_for(3, 2)
        psi = chars.AddChar(k, k.one(), R)
        x = lf.LaurentTrunc(k, -1, [1], 4)
        with pytest.raises(DomainError):
            lf.psi_K(psi, x)
