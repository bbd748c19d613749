import pytest
from hypothesis import given, settings, strategies as st

from jlcs import chars, cyc, ff, locfield as lf
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
        assert (w ** 3).valuation() == 3
        u = lf.one(k) + w
        assert (w ** 3 * u).valuation() == 3

    def test_teichmuller_is_exact_root_of_unity(self):
        k = ff.make_field(3, 2)
        for t in range(k.order):
            c = k.from_dlog(t)
            x = lf.teichmuller(c)
            assert (x ** k.order) == lf.one(k)
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


class TestInverse:
    def test_monomial_inverse_exact(self):
        k = ff.make_field(3, 2)
        x = lf.teichmuller(k.gen()).shift(3)
        xi = x.inverse()
        assert xi.prec == lf.INF
        assert x * xi == lf.one(k)

    def test_unit_inverse_to_available_precision(self):
        k = ff.make_field(3, 1)
        x = lf.LaurentTrunc(k, 0, [1, 1, 0, 2, 1], 5)
        xi = x.inverse()
        assert xi.prec == 5
        prod = x * xi
        assert prod == lf.one(k)
        assert prod.prec == 5

    def test_inverse_with_valuation(self):
        k = ff.make_field(5, 1)
        x = lf.LaurentTrunc(k, 2, [3, 1, 4], 7)
        xi = x.inverse()
        assert xi.val == -2
        assert xi.prec == 7 - 4
        assert x * xi == lf.one(k)

    def test_exact_nonmonomial_needs_target(self):
        k = ff.make_field(3, 1)
        x = lf.one(k) + uniformizer(k)
        with pytest.raises(PrecisionError):
            x.inverse()
        xi = x.inverse(rel_prec=6)
        assert x * xi == lf.one(k)
        assert xi.prec == 6

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
        if ua.prec > ua.val + 1:
            assert ua.inverse().in_unit_group_1()


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
        psi = chars.AddChar(k, 1, R)
        w = uniformizer(k)
        assert lf.psi_K(psi, w) == R.one()
        assert lf.psi_K(psi, lf.zero(k)) == R.one()
        two_plus_w = lf.teichmuller(k.elem(2)) + w
        assert lf.psi_K(psi, two_plus_w) == R.zeta(3, 2)

    def test_constant_on_p_cosets(self):
        k = ff.make_field(5, 1)
        R = cyc.ring_for(5, 4)
        psi = chars.AddChar(k, 1, R)
        x = lf.teichmuller(k.elem(3))
        for j in range(1, 4):
            shifted = x + uniformizer(k).shift(j - 1)
            assert lf.psi_K(psi, shifted) == lf.psi_K(psi, x)

    def test_pole_rejected(self):
        k = ff.make_field(3, 1)
        R = cyc.ring_for(3, 2)
        psi = chars.AddChar(k, 1, R)
        x = lf.LaurentTrunc(k, -1, [1], 4)
        with pytest.raises(DomainError):
            lf.psi_K(psi, x)
