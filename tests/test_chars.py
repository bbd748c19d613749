import numpy as np
import pytest
from hypothesis import given, strategies as st

from jlcs import chars, cyc, ff
from jlcs.errors import DomainError, ValidationError

from oracles import rel_trace


def standard_ring(p, f):
    return cyc.ring_for(p, p ** f - 1)


class TestAddChar:
    def test_values_on_prime_field(self):
        k = ff.make_field(3, 1)
        R = standard_ring(3, 1)
        psi = chars.AddChar(k, 1, R)
        assert psi.eval(k.zero()) == R.one()
        assert psi.eval(k.elem(1)) == R.zeta(3, 1)
        assert psi.eval(k.elem(2)) == R.zeta(3, 2)

    def test_gf9_exponents_follow_the_trace(self):
        k = ff.make_field(3, 2)
        R = standard_ring(3, 2)
        psi = chars.AddChar(k, 1, R)
        # Tr(1) = 2 and Tr(x) = 0 in the x^2 + 1 presentation
        assert psi.exponent(k.one()) == 2
        assert psi.exponent(k.elem(3)) == 0

    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (5, 1)])
    def test_additivity_exhaustive(self, p, f):
        k = ff.make_field(p, f)
        R = standard_ring(p, f)
        psi = chars.AddChar(k, k.gen(), R)
        els = list(k.elements())
        for x in els:
            for y in els:
                assert psi.eval(x + y) == psi.eval(x) * psi.eval(y)

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (3, 2), (7, 1)])
    def test_full_sum_vanishes(self, p, f):
        k = ff.make_field(p, f)
        R = standard_ring(p, f)
        for twist in [k.one(), k.gen()]:
            psi = chars.AddChar(k, twist, R)
            total = R.zero()
            for x in k.elements():
                total = total + psi.eval(x)
            assert total.is_zero()

    def test_twist_is_a_translate(self):
        k = ff.make_field(3, 2)
        R = standard_ring(3, 2)
        psi1 = chars.AddChar(k, 1, R)
        b = k.gen()
        psib = chars.AddChar(k, b, R)
        for x in k.elements():
            assert psib.eval(x) == psi1.eval(b * x)

    def test_zero_twist_rejected(self):
        k = ff.make_field(3, 1)
        with pytest.raises(ValidationError):
            chars.AddChar(k, 0, standard_ring(3, 1))

    @pytest.mark.parametrize("twist", [100, -1])
    def test_twist_code_outside_the_field_rejected(self, twist):
        k = ff.make_field(3, 1)
        with pytest.raises(ValidationError):
            chars.AddChar(k, twist, standard_ring(3, 1))

    @pytest.mark.parametrize("p,f,l", [(2, 1, 1), (2, 2, 3), (3, 1, 1),
                                       (3, 2, 2), (7, 1, 2), (61, 1, 1)])
    def test_exponent_table_is_the_list_rotation(self, p, f, l):
        # the oracle is the plain list rotation of trace_exp by dlog twist
        k = ff.make_extension(ff.make_field(p, f), l)
        R = cyc.ring_for(p)
        te = k.trace_exp.tolist()
        for s in range(k.order):
            psi = chars.AddChar(k, k.from_dlog(s), R)
            table = psi.dlog_exponent_table()
            assert isinstance(table, np.ndarray)
            assert table.tolist() == te[s:] + te[:s]

    def test_exponents_are_python_ints(self):
        # numpy scalars must not reach JSON reports
        k = ff.make_field(3, 2)
        psi = chars.AddChar(k, k.gen(), standard_ring(3, 2))
        assert type(psi.exponent(k.gen())) is int
        assert type(psi.exponent(k.zero())) is int

    def test_ring_must_contain_pth_roots(self):
        k = ff.make_field(3, 1)
        with pytest.raises(ValidationError):
            chars.AddChar(k, 1, cyc.ring_for(4))


class TestMultChar:
    @pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (5, 1)])
    def test_multiplicativity_exhaustive(self, p, f):
        k = ff.make_field(p, f)
        R = standard_ring(p, f)
        chi = chars.MultChar(k, 1, R)
        units = [x for x in k.elements() if not x.is_zero()]
        for x in units:
            for y in units:
                assert chi.eval(x * y) == chi.eval(x) * chi.eval(y)

    def test_orthogonality(self):
        k = ff.make_field(7, 1)
        R = standard_ring(7, 1)
        for j in range(k.order):
            chi = chars.MultChar(k, j, R)
            total = R.zero()
            for x in k.elements():
                if not x.is_zero():
                    total = total + chi.eval(x)
            if chi.j == 0:
                assert total == R.from_int(k.order)
            else:
                assert total.is_zero()

    def test_value_order(self):
        k = ff.make_field(3, 2)  # order 8 unit group
        R = standard_ring(3, 2)
        assert chars.MultChar(k, 0, R).value_order() == 1
        assert chars.MultChar(k, 1, R).value_order() == 8
        assert chars.MultChar(k, 2, R).value_order() == 4
        assert chars.MultChar(k, 4, R).value_order() == 2

    def test_eval_at_zero_rejected(self):
        k = ff.make_field(3, 1)
        chi = chars.MultChar(k, 1, standard_ring(3, 1))
        with pytest.raises(DomainError):
            chi.eval(k.zero())

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_exponent_matches_eval(self, j, t):
        k = ff.make_field(3, 2)
        R = standard_ring(3, 2)
        chi = chars.MultChar(k, j, R)
        x = k.from_dlog(t)
        assert chi.eval(x) == R.zeta(k.order, chi.exponent(x))

    def test_all_mult_chars_are_distinct_and_complete(self):
        k = ff.make_field(2, 2)
        R = standard_ring(2, 2)
        cs = [chars.MultChar(k, j, R) for j in range(k.order)]
        assert len(cs) == k.order
        tables = {tuple(c.exponent(x) for x in k.elements() if not x.is_zero())
                  for c in cs}
        assert len(tables) == k.order


class TestInflation:
    def test_inflation_agrees_with_trace_composition(self):
        k = ff.make_field(3, 2)
        ext = ff.make_extension(k, 2)
        R = standard_ring(3, 2)
        psi = chars.AddChar(k, k.gen(), R)
        lifted = chars.inflate_add(psi, ext)
        for x in ext.elements():
            assert lifted.eval(x) == psi.eval(rel_trace(x, k))

    def test_inflation_outside_tower_rejected(self):
        k5 = ff.make_field(5, 1)
        k3 = ff.make_field(3, 1)
        psi = chars.AddChar(k3, 1, standard_ring(3, 1))
        with pytest.raises(ValidationError):
            chars.inflate_add(psi, k5)
