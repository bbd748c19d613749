import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jlcs import csa, expsum, ff, ssc
from jlcs import locfield as lf
from jlcs.chars import MultChar
from jlcs.errors import (BudgetExceeded, DecompositionError, DomainError,
                         PrecisionError, ValidationError)

from oracles import random_group_element, scale_base_series, uniformizer


def param_q3_21(**kw):
    """(m, r) = (2, 1) over F_3 with zeta = 1 and chi of exponent 1."""
    kw.setdefault("zeta_dlog", 0)
    kw.setdefault("chi_j", 1)
    return ssc.make_param(3, 1, 2, 1, None, **kw)


def param_q3_12(**kw):
    kw.setdefault("zeta_dlog", 0)
    kw.setdefault("chi_j", 1)
    return ssc.make_param(3, 1, 1, 2, 1, **kw)


SMALL_CONFIGS = [
    (3, 1, 2, 1, None),
    (3, 1, 1, 2, 1),
    (3, 1, 2, 2, 1),
    (3, 1, 3, 1, None),
    (2, 1, 1, 3, 2),
    (2, 2, 1, 2, 1),
    (5, 1, 1, 2, 1),
]


class TestScalarUnit:
    def test_unit_is_an_order_and_a_power(self):
        assert [f.name for f in dataclasses.fields(ssc.CUnit)] == \
            ["order", "power"]
        assert ssc.CUnit(4).power == 0

    def test_json_reduces_the_power(self):
        assert ssc.CUnit(order=4, power=3).to_json() == \
            {"order": 4, "power": 3}
        assert ssc.CUnit(order=4, power=-1).to_json() == \
            {"order": 4, "power": 3}
        assert ssc.CUnit(order=3, power=7).to_json() == \
            {"order": 3, "power": 1}

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ValidationError):
            ssc.CUnit(order=order)


class TestParamValidation:
    def test_zeta_must_be_a_unit_of_k(self):
        eta = param_q3_21()
        with pytest.raises(ValidationError):
            ssc.SscParam(eta.k.zero(), eta.chi, eta.c, eta.psi, eta.alg)
        k9 = ff.make_field(3, 2)
        with pytest.raises(ValidationError):
            ssc.SscParam(k9.one(), eta.chi, eta.c, eta.psi, eta.alg)

    def test_value_ring_must_contain_c(self):
        eta = param_q3_21()
        with pytest.raises(ValidationError):
            ssc.SscParam(eta.zeta, eta.chi, ssc.CUnit(order=5), eta.psi,
                         eta.alg)

    def test_characters_share_a_ring(self):
        from jlcs import cyc
        eta = param_q3_21()
        other = MultChar(eta.k, 1, cyc.ring_for(3, 2, 4))
        with pytest.raises(ValidationError):
            ssc.SscParam(eta.zeta, other, eta.c, eta.psi, eta.alg)

    def test_conductor_and_json(self):
        eta = param_q3_12()
        assert eta.conductor == 3
        blob = eta.to_json()
        assert blob["q"] == 3 and blob["side"] == {"m": 1, "r": 2, "s": 1}
        json.dumps(blob)


class TestDecomposition:
    def test_roundtrip_against_factors(self):
        eta = param_q3_21()
        rng = random.Random(11)
        phi = eta.phi()
        for _ in range(8):
            g = random_group_element(eta, rng, 6)
            v, xbar, u, du = ssc.decompose(eta.alg, eta.zeta, g)
            back = (phi ** v) * eta.alg.scalar_series(lf.teichmuller(xbar)) * u
            assert back == g
            assert du == u - eta.alg.identity()

    def test_random_group_element_is_the_product_route(self):
        # phi^v x (1 + phi y) by matrix products, from the same draws
        for p, f, m, r, s in SMALL_CONFIGS:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1)
            MA, phi = eta.alg, eta.phi()
            for seed in range(4):
                got = random_group_element(eta, random.Random(seed), 5)
                rng = random.Random(seed)
                v = rng.randrange(3)
                xbar = eta.k.from_dlog(rng.randrange(eta.k.order))
                y = (phi * MA.random_in_order(rng, 5)).truncate(5)
                g = (phi ** v) * MA.scalar_series(lf.teichmuller(xbar))
                assert key(got) == key(g * (MA.identity() + y))

    def test_unit_part_equal_to_one_at_precision_decomposes(self):
        # the 1-unit factor may be indistinguishable from 1 at the working
        # precision; the decomposition is still certified and theta sees 1
        eta = param_q3_21()
        phi = eta.phi()
        g = phi * (eta.alg.identity() + (phi * eta.alg.zero()).truncate(4))
        v, xbar, _, _ = ssc.decompose(eta.alg, eta.zeta, g)
        assert (v, xbar) == (1, eta.k.one())
        assert ssc.theta_eval(eta, g) == ssc.theta_eval(eta, phi)

    def test_valuation_is_read_off_phi_power(self):
        eta = param_q3_12()
        phi = eta.phi()
        for v in range(4):
            got, xbar, u, _ = ssc.decompose(eta.alg, eta.zeta, phi ** v)
            assert got == v and xbar == eta.k.one()
            assert u == eta.alg.identity()

    def test_singular_element_is_rejected(self):
        eta = param_q3_21()
        with pytest.raises(DecompositionError):
            ssc.decompose(eta.alg, eta.zeta, eta.alg.zero())

    def test_non_scalar_unit_part_is_rejected(self):
        # diag(1, g) is invertible but phi^0-reduction is not a k-scalar
        # times a 1-unit, so it lies outside the domain of theta
        eta = param_q3_21()
        D = eta.alg.D
        z = D.zero()
        g = eta.alg.elem([[D.one(), z], [z, D.teich(eta.k.gen())]])
        with pytest.raises(DecompositionError):
            ssc.decompose(eta.alg, eta.zeta, g)

    def test_nontrivial_residue_extension_unit_is_rejected(self):
        eta = param_q3_12()
        g = eta.alg.elem([[eta.alg.D.teich(eta.alg.D.kr.gen())]])
        with pytest.raises(DecompositionError):
            ssc.decompose(eta.alg, eta.zeta, g)


class TestThetaOracles:
    def test_theta_at_phi_is_signed_c(self):
        # theta(phi) = (-1)^{m-1} c across forms of the same degree
        for m, r, s in [(2, 1, None), (1, 2, 1)]:
            eta = ssc.make_param(3, 1, m, r, s, zeta_dlog=1, chi_j=1,
                                 c=ssc.CUnit(order=4, power=1))
            got = ssc.theta_eval(eta, eta.phi())
            want = eta.chi.ring.zeta(4, 1)
            if (m - 1) % 2:
                want = -want
            assert got == want

    def test_theta_on_teichmuller_scalars_is_chi(self):
        for eta in (param_q3_21(chi_j=2), param_q3_12(chi_j=1)):
            for x in ff.enumerate_mu(eta.k, eta.k.order):
                g = eta.alg.scalar_series(lf.teichmuller(x))
                assert ssc.theta_eval(eta, g) == eta.chi.eval(x)

    def test_theta_on_one_units_frozen(self):
        # theta(1 + w E_11) = 1 and theta(1 + w E_21) = psi(1/zeta):
        # only the entry that phi^{-1} moves onto the diagonal survives
        eta = param_q3_21(zeta_dlog=1)
        D = eta.alg.D
        z = D.zero()
        w = D.from_base_series(uniformizer(eta.k))
        I = eta.alg.identity()
        g11 = I + eta.alg.elem([[w, z], [z, z]])
        g21 = I + eta.alg.elem([[z, z], [w, z]])
        assert ssc.theta_eval(eta, g11) == eta.chi.ring.one()
        assert ssc.theta_eval(eta, g21) == eta.psi.eval(
            eta.k.one() / eta.zeta)

    def test_theta_is_multiplicative(self):
        rng = random.Random(5)
        for p, f, m, r, s in SMALL_CONFIGS[:4]:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1)
            for _ in range(4):
                g1 = random_group_element(eta, rng, 6)
                g2 = random_group_element(eta, rng, 6)
                assert ssc.theta_eval(eta, g1 * g2) == \
                    ssc.theta_eval(eta, g1) * ssc.theta_eval(eta, g2)

    def test_theta_is_trivial_past_the_first_congruence_level(self):
        # theta factors through U^1/U^2: the reduced trace of phi^{-1} x
        # lands in the maximal ideal once x is in the square of the radical
        rng = random.Random(17)
        for eta in (param_q3_21(zeta_dlog=1), param_q3_12(zeta_dlog=1)):
            phi = eta.phi()
            one = eta.chi.ring.one()
            for _ in range(5):
                y = (phi * phi * eta.alg.random_in_order(rng, 6)).truncate(6)
                assert ssc.theta_eval(eta, eta.alg.identity() + y) == one


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_CONFIGS), st.integers(0, 10 ** 6))
def test_rnorm_valuation_matches_radical_valuation(cfg, seed):
    # on the group where theta lives, the w-valuation of the reduced norm
    # computes the radical valuation, which decompose() relies on
    p, f, m, r, s = cfg
    eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1)
    rng = random.Random(seed)
    g = random_group_element(eta, rng, 6)
    assert csa.rnorm(g).valuation() == g.radical_valuation()


class TestEllipticFamily:
    def test_closed_value_at_traceless_u(self):
        # chi is nontrivial on mu_2, so the restricted Gauss sum at 0 dies
        eta = param_q3_21(chi_j=1)
        got = ssc.char_at_gu_closed(eta, eta.alg.zero())
        assert got == eta.chi.ring.zero()

    def test_closed_value_at_trivial_chi_counts_cosets(self):
        # chi of exponent 2 restricts trivially to mu_2: the sum counts
        # n_q cosets with the uniform sign (-1)^{m-1}
        eta = param_q3_21(chi_j=2)
        got = ssc.char_at_gu_closed(eta, eta.alg.zero())
        assert got == -eta.chi.ring.from_int(2)

    def test_closed_value_frozen_at_unit_trace(self):
        # -(psi(1) - psi(-1)) = zeta_3^2 - zeta_3
        eta = param_q3_21(chi_j=1)
        D = eta.alg.D
        z = D.zero()
        u = eta.alg.elem([[D.one(), z], [z, z]])
        got = ssc.char_at_gu_closed(eta, u)
        ring = eta.chi.ring
        assert got == ring.zeta(3, 2) - ring.zeta(3, 1)

    def test_direct_sum_agrees_with_closed_form(self):
        rng = random.Random(23)
        for p, f, m, r, s in SMALL_CONFIGS:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1)
            us = [eta.alg.zero(), eta.alg.random_in_order(rng, 5)]
            us += [eta.alg.scalar_series(lf.teichmuller(x))
                   for x in (eta.k.one(), eta.k.gen())]
            for u in us:
                closed = ssc.char_at_gu_closed(eta, u)
                direct = ssc.char_at_gu_direct(eta, u)
                assert closed == direct, (p, f, m, r, s)

    def test_value_depends_only_on_trace_residue(self):
        # a Frobenius conjugate has the same relative trace, hence the
        # same character value, without being the same element
        eta = param_q3_12(zeta_dlog=1)
        D = eta.alg.D
        w = D.kr.gen()
        u1 = eta.alg.elem([[D.teich(w)]])
        u2 = eta.alg.elem([[D.teich(ff.frobenius(w, 1, eta.k))]])
        assert u1 != u2
        assert csa.rtrace(u1).residue() == csa.rtrace(u2).residue()
        assert ssc.char_at_gu_direct(eta, u1) == \
            ssc.char_at_gu_direct(eta, u2)

    def test_membership_is_enforced(self):
        eta = param_q3_21()
        with pytest.raises(ValidationError):
            ssc.char_at_gu_closed(eta, param_q3_12().alg.zero())
        bad = eta.alg.scalar_series(uniformizer(eta.k).shift(-2))
        with pytest.raises(ValidationError):
            ssc.char_at_gu_closed(eta, bad)


def teich_diagonals(alg, units):
    """The Teichmuller diagonal x with the given units of k_r, and x^{-1},
    as matrices for the product route."""
    D = alg.D
    return (alg.diag([D.teich(d) for d in units]),
            alg.diag([D.teich(d.inverse()) for d in units]))


class TestGuCosets:
    def test_cosets_are_built_once_as_a_tuple(self):
        k = ff.make_field(3, 1)
        alg = csa.matrix_algebra(csa.div_algebra(k, 2, 1), 1)
        reps = ssc.gu_cosets(alg)
        assert isinstance(reps, tuple)
        assert ssc.gu_cosets(alg) is reps

    def test_cosets_enumerate_mu_nq(self):
        import math
        for p, f, m, r, s in SMALL_CONFIGS:
            k = ff.make_field(p, f)
            alg = csa.matrix_algebra(csa.div_algebra(k, r, s), m)
            reps = ssc.gu_cosets(alg)
            n_q = math.gcd(alg.n, k.order)
            assert [lam for lam, _ in reps] == ff.enumerate_mu(k, n_q)

    def test_representatives_scale_phi(self):
        for p, f, m, r, s in SMALL_CONFIGS:
            k = ff.make_field(p, f)
            alg = csa.matrix_algebra(csa.div_algebra(k, r, s), m)
            for zeta in (k.one(), k.gen()):
                phi = csa.make_phi_zeta(m, alg.D, zeta)
                for lam, units in ssc.gu_cosets(alg):
                    x, x_inv = teich_diagonals(alg, units)
                    scaled = scale_base_series(phi, lf.teichmuller(lam))
                    assert x_inv * phi * x == scaled

    def test_every_scalar_choice_gives_the_same_conjugate_value(self):
        # solutions d of d^{q^s - 1} = lambda^m differ by elements of k,
        # which are central, so the summand cannot depend on the choice
        eta = ssc.make_param(3, 1, 1, 2, 1, zeta_dlog=1, chi_j=1)
        k, kr = eta.k, eta.alg.D.kr
        g = csa.make_g_u(1, eta.alg.D, eta.zeta,
                         eta.alg.scalar_series(lf.one(k)))
        for lam in ff.enumerate_mu(k, 2):
            target = ff.dlog(ff.embed(lam, kr)) if lam != k.one() else 0
            vals = set()
            for t in range(kr.order):
                if ((k.size ** 1 - 1) * t - target) % kr.order:
                    continue
                d = kr.from_dlog(t)
                x = eta.alg.elem([[eta.alg.D.teich(d)]])
                x_inv = eta.alg.elem([[eta.alg.D.teich(kr.one() / d)]])
                vals.add(str(ssc.theta_eval(eta, x_inv * g * x)))
            assert len(vals) == 1


class TestUnipotentFamily:
    def test_frozen_values_q3(self):
        # K_{2,1} = psi(2) + psi(1) = -1; the split form keeps it, the
        # quaternionic form flips the sign
        k = ff.make_field(3, 1)
        eta21 = param_q3_21()
        eta12 = param_q3_12()
        m_one = -eta21.chi.ring.one()
        assert ssc.char_at_unipotent_closed(eta21, k.one()) == m_one
        assert ssc.char_at_unipotent_direct(eta21, k.one()) == m_one
        assert ssc.char_at_unipotent_closed(eta12, k.one()) == -m_one
        assert ssc.char_at_unipotent_direct(eta12, k.one()) == -m_one

    def test_direct_sum_agrees_with_closed_form(self):
        for p, f, m, r, s in SMALL_CONFIGS:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1)
            for lam in ff.enumerate_mu(eta.k, eta.k.order):
                closed = ssc.char_at_unipotent_closed(eta, lam)
                direct = ssc.char_at_unipotent_direct(eta, lam)
                assert closed == direct, (p, f, m, r, s, ff.dlog(lam))

    def test_deep_route_agrees_for_every_norm_preimage(self):
        for pf, m, r, s in [((3, 1), 2, 1, None), ((3, 1), 1, 2, 1)]:
            eta = ssc.make_param(*pf, m, r, s, zeta_dlog=1, chi_j=1)
            for lam in ff.enumerate_mu(eta.k, eta.k.order):
                closed = ssc.char_at_unipotent_closed(eta, lam)
                deep = ssc.char_at_unipotent_deep(eta, lam, all_c0=True)
                assert closed == deep

    def test_deep_route_medium_config(self):
        eta = ssc.make_param(3, 1, 2, 2, 1, zeta_dlog=1, chi_j=2,
                             c=ssc.CUnit(order=4, power=1))
        lam = eta.k.gen()
        assert ssc.char_at_unipotent_deep(eta, lam) == \
            ssc.char_at_unipotent_closed(eta, lam)

    def test_lambda_must_be_a_unit(self):
        eta = param_q3_21()
        with pytest.raises(ValidationError):
            ssc.char_at_unipotent_closed(eta, eta.k.zero())
        with pytest.raises(ValidationError):
            ssc.char_at_unipotent_direct(eta, eta.k.zero())

    def test_budget_aborts_enumeration(self):
        eta = ssc.make_param(3, 1, 2, 2, 1, zeta_dlog=0, chi_j=1)
        with pytest.raises(BudgetExceeded):
            ssc.char_at_unipotent_direct(eta, eta.k.one(), budget=3)
        with pytest.raises(BudgetExceeded):
            ssc.char_at_unipotent_deep(eta, eta.k.one(), budget=3)


class TestCharTable:
    def test_rows_carry_both_routes(self):
        eta = param_q3_21(zeta_dlog=1)
        us = [eta.alg.zero()]
        lambdas = [eta.k.one(), eta.k.gen()]
        rows = ssc.char_table(eta, us=us, lambdas=lambdas, deep=True)
        kinds = [row.kind for row in rows]
        assert kinds == ["g_u", "one_plus_phi", "one_plus_phi",
                         "one_plus_phi", "one_plus_phi"]
        assert all(row.match for row in rows)
        deep_rows = [row for row in rows
                     if row.params.get("route") == "deep"]
        assert len(deep_rows) == 2
        json.dumps([row.to_json() for row in rows])


# every identity is homogeneous in c: g_u values, epsilon and tau carry c^1,
# values at 1 + phi_{zeta lambda} carry c^0
C_EXPONENT = {"g_u": 1, "one_plus_phi": 0}
HOMOGENEITY_CONFIGS = [(p, f, m, r, None if r == 1 else 1)
                       for p, f in [(2, 1), (3, 1), (2, 2)]
                       for m, r in [(1, 2), (2, 1), (1, 3)]]


@pytest.mark.parametrize("p,f,m,r,s", HOMOGENEITY_CONFIGS)
def test_values_scale_by_the_power_of_c_they_carry(p, f, m, r, s):
    """c = zeta_4 against c = 1 in one ring: each value is zeta_4^e times
    the c = 1 value, e as in C_EXPONENT."""
    one, i4 = (ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1, c=c,
                              extra_orders=(4,))
               for c in (ssc.CUnit(order=1), ssc.CUnit(order=4, power=1)))
    ring = one.chi.ring
    assert i4.chi.ring is ring
    z4 = ring.zeta(4, 1)
    rng = random.Random(7)
    us = [one.alg.zero()] + [one.alg.random_in_order(rng, 5)
                             for _ in range(2)]
    lambdas = ff.enumerate_mu(one.k, one.k.order)

    for check, kw in [(ssc.char_table, {"deep": True}),
                      (ssc.character_relation_check, {})]:
        rows1 = check(one, us=us, lambdas=lambdas, **kw)
        rows4 = check(i4, us=us, lambdas=lambdas, **kw)
        assert [(row.kind, row.params) for row in rows1] == \
            [(row.kind, row.params) for row in rows4]
        for r1, r4 in zip(rows1, rows4):
            e = C_EXPONENT[r1.kind]
            assert r1.match and r4.match
            assert r4.closed_form == z4 ** e * r1.closed_form
            assert r4.direct_sum == z4 ** e * r1.direct_sum
        # the c^1 family is not vacuously zero
        assert any(not row.closed_form.is_zero() for row in rows1
                   if row.kind == "g_u")
    assert ssc.epsilon(i4) == z4 * ssc.epsilon(one)
    xi = ssc.TameChar(MultChar(one.k, 1, ring), ssc.CUnit(order=4, power=1))
    assert ssc.epsilon_twisted(i4, xi) == z4 * ssc.epsilon_twisted(one, xi)
    assert ssc.normalized_tau(i4, xi) == z4 * ssc.normalized_tau(one, xi)


class TestTransferRelation:
    def test_transfer_lands_on_the_split_form(self):
        eta = ssc.make_param(2, 1, 1, 3, 2, zeta_dlog=0, chi_j=1)
        out = ssc.jl_transfer(eta)
        assert out.param.alg.D.r == 1 and out.param.alg.m == eta.n
        assert out.sign == (-1) ** (eta.n - eta.alg.m)
        assert out.conductor == eta.n + 1
        assert out.param.zeta == eta.zeta and out.param.chi == eta.chi
        json.dumps(out.to_json())

    def test_relation_holds_on_both_families(self):
        rng = random.Random(31)
        for p, f, m, r, s in [(3, 1, 1, 2, 1), (2, 1, 1, 3, 2),
                              (3, 1, 2, 2, 1), (2, 2, 1, 2, 1)]:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1)
            us = [eta.alg.zero(), eta.alg.random_in_order(rng, 5)]
            lambdas = ff.enumerate_mu(eta.k, eta.k.order)
            rows = ssc.character_relation_check(eta, us=us, lambdas=lambdas)
            assert len(rows) == len(lambdas) + len(us)
            assert all(row.match for row in rows), (p, f, m, r, s)
            assert all(row.params["route"] == "relation" for row in rows)

    def test_relation_on_the_split_form_is_trivial_sign(self):
        eta = param_q3_21(zeta_dlog=1)
        rows = ssc.character_relation_check(eta, lambdas=[eta.k.one()])
        assert rows[0].match
        assert ssc.jl_transfer(eta).sign == 1


class TestLocalConstants:
    def test_epsilon_frozen(self):
        eta = param_q3_21(c=ssc.CUnit(order=4, power=1))
        # (-1)^{n-1} c = -i
        assert ssc.epsilon(eta) == -eta.chi.ring.zeta(4, 1)

    def test_trivial_twist_fixes_epsilon(self):
        eta = param_q3_12(zeta_dlog=1)
        xi = ssc.TameChar(MultChar(eta.k, 0, eta.chi.ring),
                          ssc.CUnit(order=1))
        assert ssc.epsilon_twisted(eta, xi) == ssc.epsilon(eta)

    def test_unramified_quadratic_twist_flips_even_degree(self):
        # xi unramified with xi(w) = -1 scales by xi((-1)^{n-1} zeta w),
        # which for even n and zeta = 1 is exactly -1
        eta = param_q3_21(zeta_dlog=0)
        xi = ssc.TameChar(MultChar(eta.k, 0, eta.chi.ring),
                          ssc.CUnit(order=2, power=1))
        assert ssc.epsilon_twisted(eta, xi) == -ssc.epsilon(eta)

    def test_twist_value_tracks_zeta_and_sign(self):
        eta = param_q3_21(zeta_dlog=1)
        xi = ssc.TameChar(MultChar(eta.k, 1, eta.chi.ring),
                          ssc.CUnit(order=1))
        ybar = -eta.zeta
        assert ssc.epsilon_twisted(eta, xi) == \
            xi.unit_part.eval(ybar) * ssc.epsilon(eta)

    def test_normalized_tau_reproduces_twisted_epsilon(self):
        for p, f, m, r, s in SMALL_CONFIGS:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1,
                                 c=ssc.CUnit(order=4, power=3))
            for j in range(eta.k.order):
                for w_pow in range(3):
                    xi = ssc.TameChar(MultChar(eta.k, j, eta.chi.ring),
                                      ssc.CUnit(order=4, power=w_pow))
                    tau = ssc.normalized_tau(eta, xi)
                    want = ssc.epsilon_twisted(eta, xi)
                    if (eta.n - eta.alg.m) % 2:
                        tau = -tau
                    assert tau == want

    def test_normalized_tau_rejects_degree_one(self):
        eta = ssc.make_param(3, 1, 1, 1, None, zeta_dlog=1)
        xi = ssc.TameChar(MultChar(eta.k, 0, eta.chi.ring),
                          ssc.CUnit(order=1))
        with pytest.raises(DomainError):
            ssc.normalized_tau(eta, xi)

    def test_twist_order_must_divide_the_ring(self):
        eta = param_q3_21()
        xi = ssc.TameChar(MultChar(eta.k, 0, eta.chi.ring),
                          ssc.CUnit(order=5, power=1))
        with pytest.raises(ValidationError):
            ssc.epsilon_twisted(eta, xi)


class TestCentralCharacter:
    def test_agrees_with_theta_on_scalars(self):
        for p, f, m, r, s in [(3, 1, 2, 1, None), (3, 1, 1, 2, 1),
                              (2, 2, 1, 2, 1)]:
            eta = ssc.make_param(p, f, m, r, s, zeta_dlog=1, chi_j=1,
                                 c=ssc.CUnit(order=4, power=1))
            omega = ssc.central_char(eta)
            for t in range(eta.k.order):
                for v in (-2, -1, 0, 1, 2):
                    x = lf.teichmuller(eta.k.from_dlog(t)).shift(v)
                    assert omega.at(x) == ssc.theta_eval(
                        eta, eta.alg.scalar_series(x))

    def test_uniformizer_value_closed_form(self):
        eta = param_q3_12(zeta_dlog=1, c=ssc.CUnit(order=4, power=1))
        omega = ssc.central_char(eta)
        assert omega.varpi_value() == omega.at(uniformizer(eta.k))

    def test_one_units_matter_only_for_degree_one(self):
        eta = param_q3_21(zeta_dlog=1)
        omega = ssc.central_char(eta)
        x = lf.one(eta.k) + uniformizer(eta.k, prec=6)
        assert omega.at(x) == eta.chi.ring.one()

        eta1 = ssc.make_param(3, 1, 1, 1, None, zeta_dlog=1, chi_j=1)
        omega1 = ssc.central_char(eta1)
        got = omega1.at(lf.one(eta1.k) + uniformizer(eta1.k, prec=6))
        assert got == eta1.psi.eval(eta1.k.one() / eta1.zeta)

    def test_zero_is_rejected(self):
        eta = param_q3_21()
        with pytest.raises(DomainError):
            ssc.central_char(eta).at(lf.zero(eta.k))


class TestEndoclass:
    def test_label_is_transfer_invariant_and_ignores_chi_and_c(self):
        eta = ssc.make_param(2, 1, 1, 3, 2, zeta_dlog=0, chi_j=0)
        other = ssc.make_param(2, 1, 3, 1, None, zeta_dlog=0, chi_j=1,
                               c=ssc.CUnit(order=2, power=1))
        assert ssc.endoclass_label(eta) == ssc.endoclass_label(other)
        assert ssc.endoclass_label(eta) == \
            ssc.endoclass_label(ssc.jl_transfer(eta).param)

    def test_label_separates_zeta(self):
        a = ssc.make_param(3, 1, 2, 1, None, zeta_dlog=0)
        b = ssc.make_param(3, 1, 2, 1, None, zeta_dlog=1)
        assert ssc.endoclass_label(a) != ssc.endoclass_label(b)


# ---------------------------------------------------------------------------
# theta on coset conjugates, against the product route


def key(x):
    """(val, coeffs, prec) of a series, nested through AlgElem, MatA and
    tuples."""
    if isinstance(x, lf.LaurentTrunc):
        return (x.val, x.coeffs, x.prec)
    if isinstance(x, csa.AlgElem):
        return tuple(key(a) for a in x.coeffs)
    if isinstance(x, csa.MatA):
        return key(x.entries)
    return tuple(key(e) for e in x)


def outcome(fn, *args):
    """fn(*args), or the type of the DecompositionError or PrecisionError
    it raised."""
    try:
        return fn(*args)
    except (DecompositionError, PrecisionError) as exc:
        return type(exc)


def oracle_decompose(alg, zeta, g):
    """decompose by matrix products: phi^{-v} g, the central scaling
    through scale_base_series, and u - identity for the 1-unit check."""
    v = g.radical_valuation()
    if v is None:
        raise DecompositionError("the element is not invertible")
    if v >= 0:
        h = (csa.phi_inverse(alg.m, alg.D, zeta) ** v) * g
    else:
        h = (csa.make_phi_zeta(alg.m, alg.D, zeta) ** (-v)) * g
    if not h.in_order():
        raise DecompositionError("not in the standard order")
    k = alg.D.k
    lead = h.entries[0][0].coeffs[0].residue()
    try:
        xbar = ff.pullback(lead, k)
    except ValidationError as exc:
        raise DecompositionError("not k-rational") from exc
    if xbar.packed == 0:
        raise DecompositionError("not invertible")
    u = scale_base_series(h, lf.teichmuller(k.one() / xbar))
    if not (u - alg.identity()).in_radical_power(1):
        raise DecompositionError("not a 1-unit")
    return v, xbar, u


def oracle_theta_on_conjugate(eta, g, x, x_inv):
    """theta(x^-1 g x) by matrix products: the conjugate x_inv * g * x,
    oracle_decompose, then rtrace(phi_inv * (u - 1)).  Returns the
    conjugate, the decomposition (or the error type) and the value."""
    conj = x_inv * g * x
    dec = outcome(oracle_decompose, eta.alg, eta.zeta, conj)
    if isinstance(dec, type):
        return conj, dec, dec

    def value():
        v, xbar, u = dec
        phi_inv = csa.phi_inverse(eta.alg.m, eta.alg.D, eta.zeta)
        t = csa.rtrace(phi_inv * (u - eta.alg.identity()))
        root = eta.chi.eval(xbar) * lf.psi_K(eta.psi, t)
        return eta._finish(root, v, (eta.alg.m - 1) * v)

    return conj, dec, outcome(value)


@st.composite
def order_coeffs(draw, field, low):
    """An exact zero, a truncated zero at precision low..4, or a series
    from w^low on of up to 4 terms, exact or truncated."""
    kind = draw(st.sampled_from(("exact_zero", "truncated_zero", "series")))
    if kind == "exact_zero":
        return lf.zero(field)
    if kind == "truncated_zero":
        return lf.zero(field, draw(st.integers(low, 4)))
    val = draw(st.integers(low, low + 2))
    terms = draw(st.lists(st.integers(0, field.size - 1),
                          min_size=1, max_size=4))
    terms[0] = draw(st.integers(1, field.size - 1))
    extra = draw(st.one_of(st.none(), st.integers(0, 2)))
    prec = lf.INF if extra is None else val + len(terms) + extra
    return lf.LaurentTrunc(field, val, terms, prec)


@st.composite
def order_elements(draw, alg):
    """alg.zero(), or an element of the standard order entry by entry:
    below the diagonal the Pi^0 coefficient starts at w^1."""
    if draw(st.integers(0, 5)) == 0:
        return alg.zero()
    D = alg.D
    return alg.elem([[D.elem([draw(order_coeffs(D.kr, int(i > j and l == 0)))
                              for l in range(D.r)])
                      for j in range(alg.m)] for i in range(alg.m)])


ORACLE_CONFIGS = [(p, f, m, r, s)
                  for p, f in [(2, 1), (3, 1), (2, 2), (3, 2)]
                  for m, r in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2),
                               (2, 2), (1, 3), (1, 4)]
                  for s in ([None] if r == 1 else
                            [t for t in range(1, r) if math.gcd(t, r) == 1])]


@st.composite
def oracle_params(draw):
    p, f, m, r, s = draw(st.sampled_from(ORACLE_CONFIGS))
    units = p ** f - 1
    return ssc.make_param(
        p, f, m, r, s, zeta_dlog=draw(st.integers(0, units - 1)),
        chi_j=draw(st.integers(0, units - 1)),
        c=ssc.CUnit(order=4, power=draw(st.integers(0, 3))))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_theta_on_conjugates_matches_the_product_route(data):
    """Every conjugate of g_u, its (v, xbar, u), its theta value and the
    coset sum equal the product route's, conjugate entries and u in
    (val, coeffs, prec)."""
    eta = data.draw(oracle_params())
    u = data.draw(order_elements(eta.alg))
    g = csa.make_g_u(eta.alg.m, eta.alg.D, eta.zeta, u)
    want = []
    for _lam, units in ssc.gu_cosets(eta.alg):
        want_conj, want_dec, want_theta = oracle_theta_on_conjugate(
            eta, g, *teich_diagonals(eta.alg, units))
        conj = csa.teich_conjugate(g, units)
        assert key(conj) == key(want_conj)
        got = outcome(ssc.decompose, eta.alg, eta.zeta, conj)
        if isinstance(want_dec, type):
            assert got is want_dec
        else:
            assert got[:2] == want_dec[:2]
            assert key(got[2]) == key(want_dec[2])
        # an error type equals only itself
        assert outcome(ssc.theta_eval, eta, conj) == want_theta
        want.append(want_theta)
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        with pytest.raises(errors[0]):
            ssc.char_at_gu_direct(eta, u)
    else:
        total = want[0]
        for w in want[1:]:
            total = total + w
        assert ssc.char_at_gu_direct(eta, u) == total


def lift(x):
    """The exact series with x's coefficients (a truncated zero lifts to
    the exact zero)."""
    return lf.LaurentTrunc(x.field, x.val, x.coeffs)


def exact_matrix(g):
    D = g.parent.D
    return g.parent.elem([[D.elem([lift(a) for a in e.coeffs]) for e in row]
                          for row in g.entries])


def min_plus_prec(a, b, i, j, t):
    """The precision the min-plus rule gives the Pi^t coefficient of entry
    (i, j) of a * b: the least, over the terms x Pi^p * y Pi^q with no
    exact-zero factor and p + q = t mod r, of min(x.prec + v(y), y.prec +
    v(x)) + (p + q) // r, an empty series' v being its precision."""
    r = a.parent.D.r
    best = lf.INF
    for l in range(a.parent.m):
        for p, x in enumerate(a.entries[i][l].coeffs):
            for q, y in enumerate(b.entries[l][j].coeffs):
                if x.is_exact_zero() or y.is_exact_zero() or (p + q) % r != t:
                    continue
                vx = x.val if x.coeffs else x.prec
                vy = y.val if y.coeffs else y.prec
                best = min(best, min(x.prec + vy, y.prec + vx) + (p + q) // r)
    return best


@st.composite
def theta_domain_elements(draw, eta):
    """phi^v x (1 + phi u) with v in -1..2, x a Teichmuller unit of k and u
    from order_elements, or phi^v u, which is mostly outside the domain of
    theta."""
    alg = eta.alg
    v = draw(st.integers(-1, 2))
    phi = (eta.phi() if v >= 0 else
           csa.phi_inverse(alg.m, alg.D, eta.zeta)) ** abs(v)
    u = draw(order_elements(alg))
    if draw(st.integers(0, 3)) == 0:
        return phi * u
    xbar = eta.k.from_dlog(draw(st.integers(0, eta.k.order - 1)))
    unit = alg.scalar_series(lf.teichmuller(xbar))
    return phi * unit * (alg.identity() + eta.phi() * u)


class TestDecomposePrecision:
    """decompose on a truncated input against the same input lifted to
    exact series: the truncated run may only claim what the exact run
    confirms, and u carries the min-plus precision of phi^{-v} g."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_agrees_with_the_exact_lift(self, data):
        eta = data.draw(oracle_params())
        alg = eta.alg
        g = data.draw(theta_domain_elements(eta))
        got = outcome(ssc.decompose, alg, eta.zeta, g)
        if got is PrecisionError:
            return
        exact = outcome(ssc.decompose, alg, eta.zeta, exact_matrix(g))
        if got is DecompositionError:
            assert exact is DecompositionError
            return
        v, xbar, u, _ = got
        assert exact[:2] == (v, xbar)
        phi_v = (csa.phi_inverse(alg.m, alg.D, eta.zeta) ** v if v >= 0
                 else eta.phi() ** -v)
        for i, (row, exact_row) in enumerate(zip(u.entries,
                                                 exact[2].entries)):
            for j, (e, exact_e) in enumerate(zip(row, exact_row)):
                for t, (a, b) in enumerate(zip(e.coeffs, exact_e.coeffs)):
                    assert b.prec == lf.INF
                    cut = b if a.prec == lf.INF else b.truncate(a.prec)
                    assert key(a) == key(cut)
                    assert a.prec == min_plus_prec(phi_v, g, i, j, t)

    def test_hidden_valuation_raises_precision_error(self):
        # truncated zeros that hide the radical valuation of g, or the
        # 1-unit membership of u, raise rather than decide
        eta = param_q3_21(zeta_dlog=1)
        alg = eta.alg
        D = alg.D
        z = D.zero()
        blur = D.from_series(lf.zero(D.kr, 0))
        one_plus = [alg.identity() + alg.elem(y)
                    for y in ([[z, z], [blur, z]], [[z, z], [z, blur]])]
        hidden = [(alg.zero().truncate(3), "radical valuation"),
                  (eta.phi() * one_plus[0], "radical valuation"),
                  (eta.phi() * one_plus[1], "radical membership")]
        for g, what in hidden:
            with pytest.raises(PrecisionError, match=what):
                ssc.decompose(alg, eta.zeta, g)
            with pytest.raises(PrecisionError, match=what):
                ssc.theta_eval(eta, g)
