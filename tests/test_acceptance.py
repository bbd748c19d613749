"""Grid acceptance suite.

One test per release criterion, run over every inner form with n = mr <= 6
over the residue fields of size 2..9.  All identities are exact statements
about cyclotomic integers or truncated series; a single mismatch anywhere
on the grid fails the criterion.  Every exact equality asserted here also
feeds a complex-embedding deviation log, consumed by the redundancy
criterion near the end.
"""

import json
import math
import time

from jlcs import cli, csa, expsum, ff, ssc
from jlcs import locfield as lf
from jlcs._util import stable_rng
from jlcs.chars import AddChar, MultChar
from jlcs.cyc import ring_for

PRIME_POWERS_9 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
PRIME_POWERS_64 = PRIME_POWERS_9 + [
    (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3),
    (29, 1), (31, 1), (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
    (53, 1), (59, 1), (61, 1), (2, 6)]
MR_PAIRS = [(m, r) for m in range(1, 7) for r in range(1, 7) if m * r <= 6]


def twist_choices(r):
    if r == 1:
        return [None]
    return [s for s in range(1, r) if math.gcd(s, r) == 1]


GRID = [(p, f, m, r, s)
        for (p, f) in PRIME_POWERS_9
        for (m, r) in MR_PAIRS
        for s in twist_choices(r)
        if (p ** f) ** (m * r) <= 10 ** 6]

# complex-embedding deviation of every exact equality asserted on the grid
DEVIATIONS = []

# direct unipotent character values, keyed (p, f, m, r, s, lambda dlog);
# filled by the first criterion, shared with the relation criterion
UNIP = {}


def assert_exact(lhs, rhs, label):
    __tracebackhide__ = True
    assert lhs == rhs, f"{label}: {lhs.coeffs} != {rhs.coeffs}"
    DEVIATIONS.append(abs(lhs.complex_value() - rhs.complex_value()))


def unip_direct(p, f, m, r, s, t):
    key = (p, f, m, r, s, t)
    if key not in UNIP:
        eta = ssc.make_param(p, f, m, r, s)
        UNIP[key] = ssc.char_at_unipotent_direct(eta, eta.k.from_dlog(t))
    return UNIP[key]


def kl_tables(p, f, n, cache={}):
    if (p, f, n) not in cache:
        k = ff.make_field(p, f)
        psi = AddChar(k, k.one(), ring_for(p, k.order))
        cache[(p, f, n)] = expsum.kloosterman_table(k, n, psi)
    return cache[(p, f, n)]


def test_criterion_01_unipotent_character_matches_kloosterman():
    started = time.perf_counter()
    for (p, f, m, r, s) in GRID:
        n = m * r
        sign = -1 if (n - m) % 2 else 1
        table = kl_tables(p, f, n)
        q = p ** f
        for t in range(q - 1):
            direct = unip_direct(p, f, m, r, s, t)
            expected = table[t] if sign == 1 else -table[t]
            assert_exact(direct, expected,
                         f"unipotent q={q} m={m} r={r} s={s} lam={t}")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"grid sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({elapsed:.1f}s)")


def test_criterion_02_gu_character_matches_restricted_gauss():
    for (p, f, m, r, s) in GRID:
        eta = ssc.make_param(p, f, m, r, s, c=ssc.CUnit(order=12, power=1))
        k, ring, n = eta.k, eta.chi.ring, eta.n
        q = k.size
        alg = eta.alg
        phi_inv = csa.phi_inverse(m, alg.D, eta.zeta)
        diagonals = [(alg.diag([alg.D.teich(d) for d in units]),
                      alg.diag([alg.D.teich(d.inverse()) for d in units]))
                     for _lam, units in ssc.gu_cosets(alg)]
        ident = alg.identity()
        sign = ring.from_int(-1 if (m - 1) % 2 else 1)
        units = [sign * ring.zeta(12, w) for w in range(12)]
        rng = stable_rng(0, "acceptance-gu", p, f, m, r, s or 0)
        us = [alg.zero()] + [alg.random_in_order(rng, 4) for _ in range(20)]
        gauss_cache = {}
        label = f"g_u q={q} m={m} r={r} s={s}"
        for u in us:
            g = csa.make_g_u(m, alg.D, eta.zeta, u)
            parts = []
            for x, x_inv in diagonals:
                v, xbar, u1, _ = ssc.decompose(alg, eta.zeta, x_inv * g * x)
                assert v == 1, f"{label}: conjugate left the coset phi U^1"
                tr = csa.rtrace(phi_inv * (u1 - ident))
                parts.append((ff.dlog(xbar), lf.psi_K(eta.psi, tr)))
            tbar = csa.rtrace(u).residue()
            for j in range(q - 1):
                inner = ring.zero()
                for dl, base in parts:
                    inner = inner + ring.zeta(q - 1, (j * dl) % (q - 1)) * base
                gkey = (tbar.packed, j)
                if gkey not in gauss_cache:
                    gauss_cache[gkey] = expsum.restricted_gauss(
                        n, MultChar(k, j, ring), eta.psi, tbar)
                gsum = gauss_cache[gkey]
                for w, unit in enumerate(units):
                    assert_exact(unit * inner, unit * gsum,
                                 f"{label} chi={j} c12^{w}")
        # the packaged dual route, end to end, on a spot sample
        eta4 = ssc.make_param(p, f, m, r, s, c=ssc.CUnit(order=4, power=1))
        for u in (eta4.alg.zero(), eta4.alg.random_in_order(rng, 4)):
            assert_exact(ssc.char_at_gu_direct(eta4, u),
                         ssc.char_at_gu_closed(eta4, u), f"{label} spot")
    print("criterion 2: PASS")


def test_criterion_03_transfer_character_relation():
    for (p, f, m, r, s) in GRID:
        n = m * r
        q = p ** f
        sign = -1 if (n - m) % 2 else 1
        label = f"relation q={q} m={m} r={r} s={s}"
        for t in range(q - 1):
            d_side = unip_direct(p, f, m, r, s, t)
            split = unip_direct(p, f, n, 1, None, t)
            assert_exact(d_side, split if sign == 1 else -split,
                         f"{label} lam={t}")
        eta = ssc.make_param(p, f, m, r, s)
        rng = stable_rng(0, "acceptance-relation", p, f, m, r, s or 0)
        u = eta.alg.random_in_order(rng, lf.DEFAULT_PREC)
        rows = ssc.character_relation_check(eta, us=(eta.alg.zero(), u))
        for row in rows:
            assert row.match, f"{label}: {row.to_json()}"
            assert_exact(row.closed_form, row.direct_sum,
                         f"{label} {row.kind}")
        fpoly = csa.red_charpoly(csa.make_g_u(m, eta.alg.D, eta.zeta, u))
        _, g_alpha = csa.matching_element(fpoly, eta.zeta,
                                          csa.rtrace(u).residue())
        assert csa.red_charpoly(g_alpha) == fpoly, f"{label}: charpoly"
    print("criterion 3: PASS")


def test_criterion_04_chi_weighted_kloosterman_is_gauss_power():
    reports = 0
    for (p, f) in PRIME_POWERS_9:
        k = ff.make_field(p, f)
        ring = ring_for(p, k.order)
        for n in range(1, 5):
            for tw in range(k.order):
                psi = AddChar(k, k.from_dlog(tw), ring)
                for j in range(k.order):
                    rep = expsum.check_identity_716(
                        n, MultChar(k, j, ring), psi)
                    assert rep.equal, rep.to_json()
                    assert_exact(rep.lhs, rep.rhs,
                                 f"d716 q={k.size} n={n} chi={j} tw={tw}")
                    reports += 1
    assert reports == sum((q - 1) ** 2 for q in (2, 3, 4, 5, 7, 8, 9)) * 4
    print(f"criterion 4: PASS ({reports} checks)")


def test_criterion_05_norm_fiber_three_way():
    for (p, f) in PRIME_POWERS_9:
        k = ff.make_field(p, f)
        psi = AddChar(k, k.one(), ring_for(p, k.order))
        for (m, r) in MR_PAIRS:
            for t in range(k.order):
                rep = expsum.check_identity_725(m, r, k.from_dlog(t), psi)
                assert rep.equal, rep.to_json()
                assert_exact(rep.lhs, rep.rhs,
                             f"d725 q={k.size} m={m} r={r} lam={t}")
    print("criterion 5: PASS")


def test_criterion_06_restricted_gauss_nonvanishing_and_inversion():
    for (p, f) in PRIME_POWERS_9:
        k = ff.make_field(p, f)
        ring = ring_for(p, k.order)
        for n in range(1, 5):
            for tw in range(k.order):
                psi = AddChar(k, k.from_dlog(tw), ring)
                for j in range(k.order):
                    chi = MultChar(k, j, ring)
                    label = f"fourier q={k.size} n={n} chi={j} tw={tw}"
                    assert expsum.gn_nonzero_witness(n, chi, psi) is not None, label
                    rep = expsum.fourier_inversion_check(n, chi, psi)
                    assert rep.equal, rep.to_json()
                    assert_exact(rep.lhs, rep.rhs, label)
    print("criterion 6: PASS")


def test_criterion_07_kloosterman_ratio_separation():
    for (p, f) in PRIME_POWERS_64:
        k = ff.make_field(p, f)
        psi = AddChar(k, k.one(), ring_for(p, k.order))
        for n in range(1, 5):
            for t in range(1, k.order):
                (witness,) = expsum.separation_witnesses(
                    n, psi, [k.from_dlog(t)])
                assert witness is not None, \
                    f"separation q={k.size} n={n} aprime={t}"
    print("criterion 7: PASS")


def test_criterion_08_matched_charpolys_are_eisenstein():
    for (p, f, m, r, s) in GRID:
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        alg = csa.matrix_algebra(D, m)
        zetas = [k.one(), k.gen()]
        rng = stable_rng(0, "acceptance-eisenstein", p, f, m, r, s or 0)
        for i in range(100):
            zeta = zetas[i % 2]
            u = alg.random_in_order(rng, 3)
            fpoly = csa.red_charpoly(csa.make_g_u(m, D, zeta, u))
            rep = csa.eisenstein_check(fpoly, zeta)
            assert rep["eisenstein"], \
                f"q={k.size} m={m} r={r} s={s} sample={i}: {rep}"
    print("criterion 8: PASS")


def test_criterion_09_phi_norm_and_inverse_trace():
    for (p, f, m, r, s) in GRID:
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        n = m * r
        for zeta in (k.one(), k.gen()):
            phi = csa.make_phi_zeta(m, D, zeta)
            zw = lf.teichmuller(zeta).shift(1)
            expected = zw if n % 2 else -zw
            assert csa.rnorm(phi) == expected, \
                f"rnorm q={k.size} m={m} r={r} s={s} zeta={ff.dlog(zeta)}"
            if n >= 2:
                assert csa.rtrace(csa.phi_inverse(m, D, zeta)).is_zero(), \
                    f"rtrace q={k.size} m={m} r={r} s={s}"
    print("criterion 9: PASS")


def test_criterion_10_local_constants_and_invariants():
    for (p, f, m, r, s) in GRID:
        n = m * r
        eta = ssc.make_param(p, f, m, r, s, c=ssc.CUnit(order=4, power=1),
                             extra_orders=(12,))
        k, ring = eta.k, eta.chi.ring
        label = f"constants q={k.size} m={m} r={r} s={s}"
        eps = ssc.epsilon(eta)
        expected = eta.ring_unit(eta.c, 1)
        assert_exact(eps, expected if n % 2 else -expected, label)

        sgn = k.from_int(-1 if (n - 1) % 2 else 1)
        ybar = sgn * eta.zeta
        rng = stable_rng(0, "acceptance-constants", p, f, m, r, s or 0)
        for _ in range(8):
            j = rng.randrange(k.order)
            o = rng.choice([1, 2, 3, 4, 6, 12])
            w = rng.randrange(o)
            xi = ssc.TameChar(MultChar(k, j, ring),
                              ssc.CUnit(order=o, power=w))
            tame = ring.zeta(k.order, (j * ff.dlog(ybar)) % k.order) \
                * ring.zeta(o, w)
            twisted = ssc.epsilon_twisted(eta, xi)
            assert_exact(twisted, tame * eps, f"{label} xi=({j},{o},{w})")
            if n > 1:
                tau = ssc.normalized_tau(eta, xi)
                signed = tau if (n - m) % 2 == 0 else -tau
                assert_exact(signed, twisted, f"{label} tau xi=({j},{o},{w})")

        split = ssc.jl_transfer(eta).param
        assert_exact(ssc.epsilon(split), eps, f"{label} transfer epsilon")
        omega_d, omega_s = ssc.central_char(eta), ssc.central_char(split)
        assert_exact(omega_d.varpi_value(), omega_s.varpi_value(),
                     f"{label} central varpi")
        for t, v in ((0, 0), (0, 1), (1, -1), (1, 2)):
            if k.order == 1 and t:
                continue
            x = lf.teichmuller(k.from_dlog(t)).shift(v)
            assert_exact(omega_d.at(x), omega_s.at(x),
                         f"{label} central t={t} v={v}")
        assert ssc.endoclass_label(eta) == ssc.endoclass_label(split), label
    print("criterion 10: PASS")


def test_criterion_11_complex_embedding_redundancy():
    assert DEVIATIONS, "no exact equalities were recorded before this test"
    worst = max(DEVIATIONS)
    assert worst <= 1e-9, f"worst embedding deviation {worst}"
    for (p, f) in PRIME_POWERS_9:
        k = ff.make_field(p, f)
        ring = ring_for(p, k.order)
        for tw in range(k.order):
            psi = AddChar(k, k.from_dlog(tw), ring)
            for j in range(1, k.order):
                g = expsum.gauss_sum(MultChar(k, j, ring), psi)
                assert abs(abs(g.complex_value()) ** 2 - k.size) <= 1e-9, \
                    f"|G|^2 q={k.size} chi={j} tw={tw}"
    print(f"criterion 11: PASS ({len(DEVIATIONS)} equalities, "
          f"worst deviation {worst:.2e})")


def test_criterion_12_cli_byte_determinism(capsys, tmp_path):
    commands = [
        ["jl", "verify", "--p", "3", "--f", "1", "--m", "1", "--r", "2",
         "--s", "1", "--all-lambda", "--samples", "3"],
        ["char", "--p", "2", "--f", "2", "--m", "2", "--r", "1",
         "--all-lambda", "--samples", "2", "--seed", "11"],
        ["verify", "d716", "--p", "5", "--f", "1", "--n", "3"],
        ["epsilon", "--p", "3", "--f", "1", "--m", "1", "--r", "2",
         "--s", "1", "--twist-unit", "1", "--twist-varpi-order", "4",
         "--twist-varpi-power", "3"],
    ]
    for argv in commands:
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == first, argv
        for line in first.splitlines():
            json.loads(line)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = commands[0][:-2]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("criterion 12: PASS")
