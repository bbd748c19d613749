import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jlcs import chars, cyc, expsum, ff, ssc
from jlcs._util import prime_factors
from jlcs.errors import BudgetExceeded, ValidationError

from oracles import conjugate, galois, rel_norm, rel_trace


def setup_k(p, f):
    k = ff.make_field(p, f)
    R = cyc.ring_for(p, max(k.order, 1))
    psi = chars.AddChar(k, k.one(), R)
    return k, R, psi


def unit_tuples(fld, l):
    """Every unit l-tuple of fld with its product and its sum, computed
    with field multiplication and addition only."""
    units = [x for x in fld.elements() if not x.is_zero()]
    for tup in itertools.product(units, repeat=l):
        prod, tot = fld.one(), fld.zero()
        for z in tup:
            prod, tot = prod * z, tot + z
        yield prod, tot


def literal_counts(fld, l, d, exponent):
    """The oracle for expsum._TupleCounts: unit l-tuples counted by (dlog
    of the product mod d, exponent of the sum), by enumeration."""
    counts = np.zeros((d, fld.p), dtype=np.int64)
    for prod, tot in unit_tuples(fld, l):
        counts[ff.dlog(prod) % d, exponent(tot)] += 1
    return counts


def literal_norm_sum(psi, kr, m, lam):
    """Sum of psi(Tr(z_1 + ... + z_m)) over unit m-tuples of kr whose
    product has relative norm lam, by enumeration."""
    k = psi.field
    total = psi.ring.zero()
    for prod, tot in unit_tuples(kr, m):
        if rel_norm(prod, k) == lam:
            total = total + psi.eval(rel_trace(tot, k))
    return total


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def tuple_counts(psi, l, d):
    """The d x p table of the kernel on psi's field, at psi's shift."""
    return expsum._TupleCounts(psi.field, psi.shift, l, d).table()


def inflated(psi, kr):
    """psi o Tr from kr down to psi's field, as the character of kr whose
    twist is psi's embedded (trace transitivity)."""
    return chars.AddChar(kr, ff.embed(psi.twist, kr), psi.ring)


class TestRestrictedGauss:
    def test_trivial_chi_full_gauss_sum_is_minus_one(self):
        for p, f in [(3, 1), (5, 1), (3, 2)]:
            k, R, psi = setup_k(p, f)
            chi0 = chars.MultChar(k, 0, R)
            assert expsum.gauss_sum(chi0, psi) == R.from_int(-1)

    def test_q3_nontrivial_gauss_sum(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 1, R)
        assert expsum.gauss_sum(chi, psi) == R.zeta(3, 1) - R.zeta(3, 2)

    def test_zero_argument_collapses_to_character_sum(self):
        k, R, psi = setup_k(3, 2)
        for n in (1, 2, 4, 8):
            n_q = n  # all divide q - 1 = 8
            for j in range(8):
                chi = chars.MultChar(k, j, R)
                got = expsum.restricted_gauss(n, chi, psi, k.zero())
                trivial_on_mu = j % n_q == 0
                if trivial_on_mu:
                    assert got == R.from_int(n_q)
                else:
                    assert got.is_zero()

    def test_gauss_sum_modulus_squared_is_q(self):
        for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 3)]:
            k, R, psi = setup_k(p, f)
            chi = chars.MultChar(k, 1, R)
            g = expsum.gauss_sum(chi, psi)
            assert abs(abs(g.complex_value()) ** 2 - k.size) < 1e-9

    def test_gauss_sum_times_conjugate_under_inversion(self):
        # G(chi,psi) * conj over both chi and zeta_p gives q exactly
        k, R, psi = setup_k(5, 1)
        chi = chars.MultChar(k, 1, R)
        g = expsum.gauss_sum(chi, psi)
        assert g * conjugate(g) == R.from_int(5)

    @pytest.mark.parametrize("p,f", [(3, 2), (2, 3), (7, 1)])
    def test_matches_brute_force_definition(self, p, f):
        # the oracle: chi(x) psi(a*x) summed term by term over the x with
        # x**n_q = 1, every a in the field
        k, R, psi = setup_k(p, f)
        for n in (1, 2, 3, 6, 7):
            n_q = math.gcd(n, k.order)
            for j in (0, 1, 3):
                chi = chars.MultChar(k, j, R)
                for a in k.elements():
                    brute = R.zero()
                    for x in k.elements():
                        if x.is_zero() or x ** n_q != k.one():
                            continue
                        term = chi.eval(x) * psi.eval(a * x)
                        brute = brute + term
                    assert expsum.restricted_gauss(n, chi, psi, a) == brute

    @pytest.mark.parametrize("p,f", [(3, 2), (7, 1), (2, 3)])
    def test_every_twist_matches_brute_force(self, p, f):
        # psi's twist enters as an offset of the dlog: every twist against
        # chi(x) psi(a*x) summed term by term
        k, R, _ = setup_k(p, f)
        chi = chars.MultChar(k, 1, R)
        for tw in range(k.order):
            psi = chars.AddChar(k, k.from_dlog(tw), R)
            for n in (2, k.order):
                n_q = math.gcd(n, k.order)
                mu = [x for x in k.elements()
                      if not x.is_zero() and x ** n_q == k.one()]
                for a in k.elements():
                    brute = R.zero()
                    for x in mu:
                        brute = brute + chi.eval(x) * psi.eval(a * x)
                    assert expsum.restricted_gauss(n, chi, psi, a) == brute

    def test_gauss_sum_makes_one_ring_call(self, monkeypatch):
        # F_61 in Z[zeta_3660], degree 960: no ring product per term
        k, R, psi = setup_k(61, 1)
        chi = chars.MultChar(k, 7, R)
        want = expsum.gauss_sum(chi, psi)
        mul, wrs = cyc.CycElem.__mul__, cyc.CycRing.weighted_root_sum
        products, orders = [], []

        def counted_mul(a, b):
            products.append(1)
            return mul(a, b)

        def counted_wrs(ring, order, vec):
            orders.append(order)
            return wrs(ring, order, vec)

        monkeypatch.setattr(cyc.CycElem, "__mul__", counted_mul)
        monkeypatch.setattr(cyc.CycElem, "__rmul__", counted_mul)
        monkeypatch.setattr(cyc.CycRing, "weighted_root_sum", counted_wrs)
        got = expsum.gauss_sum(chi, psi)
        monkeypatch.undo()
        assert got == want
        assert products == [] and orders == [3660]
        assert got * conjugate(got) == R.from_int(61)


class TestKloosterman:
    def test_l1_is_psi(self):
        k, R, psi = setup_k(3, 1)
        for a in [k.one(), k.elem(2)]:
            assert expsum.kloosterman(k, 1, a, psi) == psi.eval(a)

    def test_q3_l2_frozen_values(self):
        k, R, psi = setup_k(3, 1)
        # pairs with product 1: (1,1),(2,2) -> psi(2)+psi(1) = -1
        assert expsum.kloosterman(k, 2, k.one(), psi) == R.from_int(-1)
        # pairs with product 2: (1,2),(2,1) -> 2*psi(0) = 2
        assert expsum.kloosterman(k, 2, k.elem(2), psi) == R.from_int(2)

    def test_zero_argument_rejected(self):
        k, R, psi = setup_k(3, 1)
        with pytest.raises(ValidationError):
            expsum.kloosterman(k, 2, k.zero(), psi)

    def test_budget_enforced(self):
        k, R, psi = setup_k(7, 1)
        with pytest.raises(BudgetExceeded):
            expsum.kloosterman(k, 4, k.one(), psi, budget=10)

    @pytest.mark.parametrize("p,f,l", [(2, 2, 3), (3, 1, 3), (5, 1, 2),
                                       (3, 2, 2), (2, 3, 2)])
    def test_matches_brute_force(self, p, f, l):
        k, R, psi = setup_k(p, f)
        brute = {}
        for prod, tot in unit_tuples(k, l):
            key = prod.packed
            brute[key] = brute.get(key, R.zero()) + psi.eval(tot)
        for t in range(k.order):
            a = k.from_dlog(t)
            assert expsum.kloosterman(k, l, a, psi) == brute[a.packed]

    @pytest.mark.parametrize("p,f,l", [(3, 1, 2), (3, 1, 3), (2, 2, 3),
                                       (5, 1, 3), (7, 1, 2)])
    def test_table_matches_direct(self, p, f, l):
        k, R, psi = setup_k(p, f)
        table = expsum.kloosterman_table(k, l, psi)
        assert len(table) == k.order
        for t in range(k.order):
            assert table[t] == expsum.kloosterman(k, l, k.from_dlog(t), psi)

    def test_values_lie_in_zp_span(self):
        # Kloosterman sums have no multiplicative-root components
        k, R, psi = setup_k(5, 1)
        v = expsum.kloosterman(k, 3, k.gen(), psi)
        for t in (1 + 5, 1 + 10, 1 + 15):  # fix zeta_5, move zeta_4
            if t < R.M and math.gcd(t, R.M) == 1:
                assert galois(v, t) == v


class TestTupleCounts:
    """The counting kernel against the literal enumerator."""

    @pytest.mark.parametrize("p,f,l,d,twist", [
        (2, 1, 3, 1, 0), (3, 1, 1, 2, 1), (3, 1, 3, 2, 1), (2, 2, 2, 1, 2),
        (2, 2, 3, 3, 1), (5, 1, 2, 2, 3), (5, 1, 3, 4, 2), (7, 1, 2, 3, 4),
        (2, 3, 3, 7, 3), (3, 2, 2, 8, 5), (3, 2, 3, 4, 1)])
    def test_matches_enumeration(self, p, f, l, d, twist):
        k, R, _ = setup_k(p, f)
        psi = chars.AddChar(k, k.from_dlog(twist), R)
        got = tuple_counts(psi, l, d)
        assert got.shape == (d, p)
        assert np.array_equal(got, literal_counts(k, l, d, psi.exponent))

    @pytest.mark.parametrize("p,f,m,r", [(2, 1, 2, 2), (2, 1, 3, 2),
                                         (2, 1, 2, 3), (3, 1, 2, 2),
                                         (3, 1, 3, 2), (2, 2, 2, 2)])
    def test_route1_over_extension_matches_enumeration(self, p, f, m, r):
        # counts over k_r by the character psi o Tr, rows mod q - 1
        k, R, psi = setup_k(p, f)
        kr = ff.make_extension(k, r)
        got = tuple_counts(inflated(psi, kr), m, k.order)
        want = literal_counts(
            kr, m, k.order, lambda y: psi.exponent(rel_trace(y, k)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p,f,m,r", [(2, 1, 2, 2), (2, 1, 3, 2),
                                         (3, 1, 2, 2), (3, 1, 3, 1),
                                         (5, 1, 2, 1), (2, 2, 2, 2),
                                         (3, 1, 1, 2), (2, 2, 1, 3),
                                         (5, 1, 1, 1), (3, 2, 1, 1)])
    def test_d725_route1_is_the_norm_fiber_sum(self, p, f, m, r):
        k, R, psi = setup_k(p, f)
        kr = ff.make_extension(k, r)
        for t in range(k.order):
            lam = k.from_dlog(t)
            rep = expsum.check_identity_725(m, r, lam, psi)
            want = literal_norm_sum(psi, kr, m, lam)
            assert rep.equal
            assert rep.lhs == want
            assert expsum.kloosterman(kr, m, lam, psi) == want

    @pytest.mark.parametrize("p,f,m,r,s", [(3, 1, 2, 1, None),
                                           (2, 1, 2, 2, 1),
                                           (3, 1, 2, 2, 1),
                                           (2, 1, 3, 1, None)])
    def test_unipotent_direct_matches_enumeration(self, p, f, m, r, s):
        eta = ssc.make_param(p, f, m, r, s, zeta_dlog=0, chi_j=1)
        kr = eta.alg.D.kr
        for t in range(eta.k.order):
            lam = eta.k.from_dlog(t)
            assert ssc.char_at_unipotent_direct(eta, lam) == \
                literal_norm_sum(eta.psi, kr, m, lam)

    def test_counts_past_int64_stay_exact(self):
        # 6**27 unit 27-tuples of F_7: more than an int64 holds
        k, R, psi = setup_k(7, 1)
        counts = tuple_counts(psi, 27, 6)
        assert counts.sum() == 6 ** 27
        assert all(sum(row) == 6 ** 26 for row in counts.tolist())

    def test_negative_budget_rejected(self):
        k, R, psi = setup_k(3, 1)
        with pytest.raises(ValidationError):
            expsum.kloosterman(k, 2, k.one(), psi, budget=-1)
        with pytest.raises(ValidationError):
            expsum.check_budget(0, -1)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                        (3, 2)]), st.integers(1, 3), st.data())
def test_tuple_counts_match_enumeration_random(pf, l, data):
    p, f = pf
    k, R, _ = setup_k(p, f)
    psi = chars.AddChar(
        k, k.from_dlog(data.draw(st.integers(0, k.order - 1))), R)
    d = data.draw(st.sampled_from(divisors(k.order)))
    got = tuple_counts(psi, l, d)
    assert np.array_equal(got, literal_counts(k, l, d, psi.exponent))


def oracle_tuple_counts(psi, l, d):
    """The earlier tuple-count kernel, kept as the oracle for the CRT
    kernel: the l-fold convolution on Z/d x Z/p, one strided 2-D slice of
    the tiled table per nonzero cell of the single-unit table.  It reads
    psi's exponents from the rotated table tau[t] = trace_exp[t + shift],
    not from the row offset the kernel takes."""
    fld, tau, p = psi.field, psi.dlog_exponent_table(), psi.p
    dtype = np.int64 if fld.order ** l < 2 ** 63 else object
    single = np.bincount(np.arange(fld.order) % d * p + tau,
                         minlength=d * p).reshape(d, p).astype(dtype)
    cells = [(a, b, int(single[a, b])) for a, b in zip(*single.nonzero())]
    counts = single
    for _ in range(l - 1):
        # wrap[d - a:, p - b:] is counts rolled by (a, b)
        wrap = np.tile(counts, (2, 2))
        counts = np.zeros_like(single)
        for a, b, w in cells:
            counts += w * wrap[d - a:2 * d - a, p - b:2 * p - b]
    return counts


def assert_same_counts(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


# the fields of the perfbench `bigring` and `sums` workloads
BIGRING_FIELDS = [(47, 1), (7, 2), (61, 1), (2, 6), (3, 4)]
SUMS_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BIGRING_FIELDS + SUMS_FIELDS), st.integers(1, 4),
       st.data())
def test_tuple_counts_match_the_tile_loop(pf, l, data):
    # every divisor d of the unit order, so cells of weight > 1 too
    k, R, _ = setup_k(*pf)
    psi = chars.AddChar(k, k.from_dlog(data.draw(
        st.integers(0, k.order - 1), label="twist dlog")), R)
    d = data.draw(st.sampled_from(divisors(k.order)), label="d")
    assert_same_counts(tuple_counts(psi, l, d),
                       oracle_tuple_counts(psi, l, d))


@pytest.mark.parametrize("p,f,r", [(p, f, r) for p, f in SUMS_FIELDS
                                   for r in range(2, 7)])
def test_extension_counts_match_the_tile_loop(p, f, r):
    # route 1 of d725: units of k_r by psi o Tr, rows mod |k^x|
    k, R, psi = setup_k(p, f)
    psi_r = inflated(psi, ff.make_extension(k, r))
    for l in range(1, 5):
        assert_same_counts(tuple_counts(psi_r, l, k.order),
                           oracle_tuple_counts(psi_r, l, k.order))


@pytest.mark.parametrize("l,dtype", [(10, np.int64), (11, object)])
@pytest.mark.parametrize("pf,d", [
    pytest.param((2, 6), 1, id="1"), pytest.param((2, 6), 7, id="7"),
    pytest.param((2, 6), 63, id="63"), pytest.param((61, 1), 60, id="q61")])
def test_dtype_switch_matches_the_tile_loop(l, dtype, pf, d):
    # 63**10 < 2**63 < 63**11 and 60**10 < 2**63 < 60**11: the last int64
    # and the first object table; with d = q - 1 the pair histogram is
    # cast to the table's dtype before the later steps
    k, R, psi = setup_k(*pf)
    got = tuple_counts(psi, l, d)
    assert got.dtype == dtype
    assert_same_counts(got, oracle_tuple_counts(psi, l, d))
    assert sum(got.ravel().tolist()) == k.order ** l


@pytest.mark.parametrize("l", [3, 4])
@pytest.mark.parametrize("p", [47, 61, 101, 257])
def test_prime_field_pair_counts_match_the_tile_loop(p, l):
    # d = p - 1: the 2-fold table is the histogram of the unit pairs
    k, R, psi = setup_k(p, 1)
    assert_rows_match(psi, l, k.order)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_pair_counts_match_enumeration(p, l):
    k, R, _ = setup_k(p, 1)
    psi = chars.AddChar(k, k.from_dlog(k.order // 2), R)
    got = tuple_counts(psi, l, k.order)
    assert np.array_equal(got, literal_counts(k, l, k.order, psi.exponent))


@pytest.mark.parametrize("p,f,d,l,built,finished", [
    (61, 1, 60, 3, 0, 1),   # d = q - 1: the pair histogram
    (61, 1, 60, 4, 1, 2),
    (47, 1, 46, 2, 0, 0),
    (7, 2, 48, 3, 0, 1),
    (2, 6, 63, 3, 0, 1),
    (3, 4, 80, 2, 0, 0),
    (61, 1, 30, 3, 1, 2),   # cells of weight 2: shifted adds
    (3, 4, 40, 2, 0, 1)])
def test_step_routing(p, f, d, l, built, finished, monkeypatch):
    # the shifted-add steps taken to build the reader and read every row,
    # then in all once the table is finished
    calls = []
    step = expsum._TupleCounts._step

    def counted(self, dbl):
        calls.append(len(dbl))
        return step(self, dbl)

    monkeypatch.setattr(expsum._TupleCounts, "_step", counted)
    k, R, psi = setup_k(p, f)
    reader = expsum._TupleCounts(k, psi.shift, l, d)
    for T in range(d):
        reader.row(T)
    assert len(calls) == built
    reader.table()
    assert len(calls) == finished


def assert_rows_match(psi, l, d):
    """Every row the reader on psi's field returns against the finished
    table and the tile-loop oracle, dtype included."""
    reader = expsum._TupleCounts(psi.field, psi.shift, l, d)
    table = tuple_counts(psi, l, d)
    oracle = oracle_tuple_counts(psi, l, d)
    assert_same_counts(table, oracle)
    for T in range(d):
        got = reader.row(T)
        assert got.dtype == oracle.dtype, T
        assert got.tolist() == oracle[T].tolist(), T


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BIGRING_FIELDS + SUMS_FIELDS), st.integers(1, 4),
       st.data())
def test_rows_match_the_table(pf, l, data):
    # every divisor d of the unit order, so cells of weight > 1 too
    k, R, _ = setup_k(*pf)
    psi = chars.AddChar(k, k.from_dlog(data.draw(
        st.integers(0, k.order - 1), label="twist dlog")), R)
    d = data.draw(st.sampled_from(divisors(k.order)), label="d")
    assert_rows_match(psi, l, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(p, f, r) for p, f in SUMS_FIELDS
                        for r in range(2, 7)]), st.integers(1, 4),
       st.data())
def test_extension_rows_match_the_table(pfr, l, data):
    # units of k_r by psi o Tr, rows mod |k^x|: cells of weight > 1
    p, f, r = pfr
    k, R, _ = setup_k(p, f)
    psi = chars.AddChar(k, k.from_dlog(data.draw(
        st.integers(0, k.order - 1), label="twist dlog")), R)
    assert_rows_match(inflated(psi, ff.make_extension(k, r)), l, k.order)


@pytest.mark.parametrize("l", [25, 27])
def test_object_dtype_rows_match_the_table(l):
    # 6**25 > 2**63: the rows hold Python integers
    k, R, psi = setup_k(7, 1)
    for d in divisors(k.order):
        assert_rows_match(psi, l, d)


# every field of the perfbench `sums` set-up, k_l over k with q <= 9 and
# l <= 6, and the odd prime fields up to 61
SUMS_EXTENSIONS = [(p, f, l) for p, f in SUMS_FIELDS for l in range(1, 7)]
ODD_PRIMES = [(p, 1, 1) for p in range(3, 62) if prime_factors(p) == [p]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUMS_EXTENSIONS + ODD_PRIMES), st.data())
def test_coset_counts_match_tuple_counts_row(pfl, data):
    # the coset read against the full histogram row, for every t0
    p, f, l = pfl
    k = ff.make_field(p, f)
    ext = ff.make_extension(k, l)
    psi = chars.AddChar(ext, ext.from_dlog(data.draw(
        st.integers(0, ext.order - 1), label="twist dlog")), cyc.ring_for(p))
    d = data.draw(st.sampled_from(divisors(k.order)), label="d")
    table = tuple_counts(psi, 1, d)
    literal = (literal_counts(ext, 1, d, psi.exponent)
               if ext.size <= 729 else None)
    for t0 in range(d):
        got = expsum._coset_counts(ext, psi.shift, d, t0)
        assert got.tolist() == table[t0].tolist(), t0
        if literal is not None:
            assert got.tolist() == literal[t0].tolist(), t0


@pytest.mark.parametrize("p,f,r", [(3, 1, 2), (2, 2, 2), (2, 2, 3),
                                   (5, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_extension_sums_at_every_twist_match_enumeration(p, f, r):
    # over k_r psi o Tr is read at the dlog of psi's embedded twist: the
    # coset (l = 1) and the count rows (l = 2) at every twist and lambda,
    # against the literal sums, tallied once by (norm, trace) of the tuple
    k, R, _ = setup_k(p, f)
    kr = ff.make_extension(k, r)
    for l in (1, 2):
        tally = {}
        for prod, tot in unit_tuples(kr, l):
            key = (rel_norm(prod, k), rel_trace(tot, k))
            tally[key] = tally.get(key, 0) + 1
        for tw in range(k.order):
            psi = chars.AddChar(k, k.from_dlog(tw), R)
            for t in range(k.order):
                lam = k.from_dlog(t)
                want = R.zero()
                for (nm, tr), c in tally.items():
                    if nm == lam:
                        want = want + R.from_int(c) * psi.eval(tr)
                assert expsum.kloosterman(kr, l, lam, psi) == want, (tw, t)


class TestNormFiberSum:
    """kloosterman with l = 1: psi(Tr(y)) summed over a norm fiber."""

    def test_degree_one_is_psi(self):
        k, R, psi = setup_k(3, 1)
        assert expsum.kloosterman(k, 1, k.elem(2), psi) == psi.eval(k.elem(2))

    def test_q3_degree2_frozen_values(self):
        k, R, psi = setup_k(3, 1)
        k2 = ff.make_extension(k, 2)
        # fiber over 1 has traces {2,1,0,0}: zeta^2 + zeta + 2 = 1
        assert expsum.kloosterman(k2, 1, k.one(), psi) == R.one()
        # fiber over 2 has traces {1,1,2,2}: 2*zeta + 2*zeta^2 = -2
        assert expsum.kloosterman(k2, 1, k.elem(2), psi) == R.from_int(-2)

    def test_matches_brute_force(self):
        for (p, f, d) in [(3, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 2)]:
            k, R, psi = setup_k(p, f)
            ext = ff.make_extension(k, d)
            for lam in [x for x in k.elements() if not x.is_zero()]:
                brute = R.zero()
                count = 0
                for y in ext.elements():
                    if y.is_zero() or rel_norm(y, k) != lam:
                        continue
                    count += 1
                    brute = brute + psi.eval(rel_trace(y, k))
                assert count == ext.order // k.order
                assert expsum.kloosterman(ext, 1, lam, psi) == brute

    def test_zero_rejected(self):
        k, R, psi = setup_k(3, 1)
        k2 = ff.make_extension(k, 2)
        for ext in (k, k2):
            with pytest.raises(ValidationError):
                expsum.kloosterman(ext, 1, k.zero(), psi)

    def test_builds_no_histogram(self, monkeypatch):
        # l = 1 reads its coset and never calls the tuple-count kernel
        expect = {}
        for p, f, d in [(3, 1, 2), (2, 2, 3), (3, 2, 2)]:
            k, R, psi = setup_k(p, f)
            ext = ff.make_extension(k, d)
            for t in range(k.order):
                expect[p, f, d, t] = literal_norm_sum(psi, ext, 1,
                                                      k.from_dlog(t))

        def refuse(*args):
            raise AssertionError("an l = 1 sum built a tuple histogram")

        monkeypatch.setattr(expsum, "_TupleCounts", refuse)
        for (p, f, d, t), want in expect.items():
            k, R, psi = setup_k(p, f)
            ext = ff.make_extension(k, d)
            assert expsum.kloosterman(ext, 1, k.from_dlog(t), psi) == want

    def test_budget_edges(self):
        k, R, psi = setup_k(3, 1)
        lam = k.elem(2)
        # over k itself the sum is one character value: nothing to enumerate
        assert expsum.kloosterman(k, 1, lam, psi, budget=0) == psi.eval(lam)
        k2 = ff.make_extension(k, 2)
        fiber = k2.order // k.order
        with pytest.raises(BudgetExceeded):
            expsum.kloosterman(k2, 1, lam, psi, budget=fiber - 1)
        assert expsum.kloosterman(k2, 1, lam, psi, budget=fiber) == \
            R.from_int(-2)


class TestIdentity716:
    def test_q3_n2_nontrivial_frozen(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 1, R)
        rep = expsum.check_identity_716(2, chi, psi)
        assert rep.equal
        assert rep.lhs == R.from_int(-3)
        assert rep.rhs == (R.zeta(3, 1) - R.zeta(3, 2)) ** 2

    def test_q3_n2_trivial_frozen(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 0, R)
        rep = expsum.check_identity_716(2, chi, psi)
        assert rep.equal
        assert rep.lhs == R.one()

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_all_characters_small_fields(self, p, f):
        k, R, psi = setup_k(p, f)
        for n in (1, 2, 3):
            for j in range(k.order):
                chi = chars.MultChar(k, j, R)
                assert expsum.check_identity_716(n, chi, psi).equal

    @pytest.mark.parametrize("p,f,n", [(2, 1, 2), (3, 1, 3), (2, 2, 2),
                                       (5, 1, 3), (2, 3, 2), (3, 2, 3),
                                       (7, 1, 25)])
    def test_one_ring_call_matches_row_by_row(self, p, f, n, monkeypatch):
        # the oracle lifts each count row into the ring and multiplies it
        # by chi(g**T); n = 25 over F_7 holds its counts as Python integers
        k, R, psi = setup_k(p, f)
        counts = tuple_counts(psi, n, k.order)
        wrs = cyc.CycRing.weighted_root_sum
        calls = []

        def counted(ring, order, vec):
            calls.append(order)
            return wrs(ring, order, vec)

        for j in range(k.order):
            chi = chars.MultChar(k, j, R)
            want = R.zero()
            for T, row in enumerate(counts.tolist()):
                want = want + R.zeta(k.order, j * T) * wrs(R, k.p, row)
            monkeypatch.setattr(cyc.CycRing, "weighted_root_sum", counted)
            calls.clear()
            rep = expsum.check_identity_716(n, chi, psi, budget=6 ** 25)
            monkeypatch.undo()
            assert rep.equal and rep.lhs == want
            # the Kloosterman side, then the Gauss sum on the right side
            assert calls == [math.lcm(p, k.order)] * 2

    def test_report_shape(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 1, R)
        rep = expsum.check_identity_716(2, chi, psi)
        js = rep.to_json()
        assert js["kind"] == "d716"
        assert js["equal"] is True
        assert set(js) == {"kind", "parameters", "lhs", "rhs", "equal"}


class TestIdentity725:
    def test_m1_r1_trivial(self):
        k, R, psi = setup_k(3, 1)
        rep = expsum.check_identity_725(1, 1, k.elem(2), psi)
        assert rep.equal
        assert rep.lhs == psi.eval(k.elem(2))

    def test_q3_frozen_values(self):
        k, R, psi = setup_k(3, 1)
        rep = expsum.check_identity_725(2, 1, k.one(), psi)
        assert rep.equal and rep.lhs == R.from_int(-1)
        rep = expsum.check_identity_725(1, 2, k.elem(2), psi)
        assert rep.equal and rep.lhs == R.from_int(-2)

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_small_grid(self, p, f):
        k, R, psi = setup_k(p, f)
        lam_list = [k.one()] if k.order == 1 else [k.one(), k.gen()]
        for (m, r) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
            for lam in lam_list:
                rep = expsum.check_identity_725(m, r, lam, psi)
                assert rep.equal, (p, f, m, r)

    def test_signs_make_no_ring_product(self, monkeypatch):
        # (m, r) = (2, 1) negates route 2 and (1, 2) route 3: each sign is
        # a negation, and the routes still meet the literal norm-fiber sum
        k, R, psi = setup_k(3, 1)
        kr = {r: ff.make_extension(k, r) for r in (1, 2)}
        want = {(m, r, t): literal_norm_sum(psi, kr[r], m, k.from_dlog(t))
                for m, r in [(2, 1), (1, 2)] for t in range(k.order)}

        def refuse(*args):
            raise AssertionError("ring product")

        monkeypatch.setattr(cyc.CycElem, "__mul__", refuse)
        for (m, r, t), value in want.items():
            rep = expsum.check_identity_725(m, r, k.from_dlog(t), psi)
            assert rep.equal and rep.lhs == value, (m, r, t)

    @pytest.mark.parametrize("broken", [0, 1, 2])
    @pytest.mark.parametrize("m,r", [(2, 1), (1, 2), (2, 2)])
    def test_a_broken_route_is_reported_with_its_neighbour(self, m, r,
                                                           broken,
                                                           monkeypatch):
        # routes 1, 2 and 3 call kloosterman in that order; one of them,
        # moved by 1, must fail the check, reported as the first pair of
        # (route1, route2), (route2, route3) that differs
        k, R, psi = setup_k(3, 1)
        lam = k.from_dlog(1)
        kloosterman = expsum.kloosterman
        values = []

        def moved(*args, **kwargs):
            value = kloosterman(*args, **kwargs)
            if len(values) == broken:
                value = value + R.one()
            values.append(value)
            return value

        monkeypatch.setattr(expsum, "kloosterman", moved)
        rep = expsum.check_identity_725(m, r, lam, psi)
        n = m * r
        signs = [1, -1 if (m - 1) % 2 else 1, -1 if (n - m) % 2 else 1]
        routes = [v if s == 1 else -v for v, s in zip(values, signs)]
        assert not rep.equal
        pair = (0, 1) if broken < 2 else (1, 2)
        assert (rep.lhs, rep.rhs) == tuple(routes[i] for i in pair)


class TestWitnesses:
    def test_gn_witness_trivial_chi_is_zero_elem(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 0, R)
        w = expsum.gn_nonzero_witness(2, chi, psi)
        assert w is not None and w.is_zero()

    def test_gn_witness_q3_nontrivial(self):
        k, R, psi = setup_k(3, 1)
        chi = chars.MultChar(k, 1, R)
        w = expsum.gn_nonzero_witness(2, chi, psi)
        assert w == k.one()

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_gn_witness_always_exists(self, p, f):
        k, R, psi = setup_k(p, f)
        for n in (1, 2, 3, 4):
            for j in range(k.order):
                chi = chars.MultChar(k, j, R)
                assert expsum.gn_nonzero_witness(n, chi, psi) is not None

    @pytest.mark.parametrize("p,f,n,work", [(3, 2, 2, 9 * 2), (2, 3, 7, 8 * 7),
                                            (7, 1, 4, 7 * 2)])
    def test_gn_witness_budget_edge(self, p, f, n, work):
        # q sums of n_q terms each
        k, R, psi = setup_k(p, f)
        chi = chars.MultChar(k, 1, R)
        assert expsum.gn_nonzero_witness(n, chi, psi, budget=work) is not None
        with pytest.raises(BudgetExceeded):
            expsum.gn_nonzero_witness(n, chi, psi, budget=work - 1)

    @pytest.mark.parametrize("p,f", [(3, 2), (2, 3), (7, 1)])
    def test_fourier_budget_edge(self, p, f):
        # q**2 pairs (x, a) in the transform
        k, R, psi = setup_k(p, f)
        chi = chars.MultChar(k, 1, R)
        work = k.size ** 2
        assert expsum.fourier_inversion_check(2, chi, psi, budget=work).equal
        with pytest.raises(BudgetExceeded):
            expsum.fourier_inversion_check(2, chi, psi, budget=work - 1)

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_fourier_inversion(self, p, f):
        k, R, psi = setup_k(p, f)
        for n in (1, 2, 3):
            for j in range(k.order):
                chi = chars.MultChar(k, j, R)
                rep = expsum.fourier_inversion_check(n, chi, psi)
                assert rep.equal, (p, f, n, j)

    @pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1), (3, 2)])
    def test_fourier_inversion_at_every_twist(self, p, f):
        # the transform reads psi at the offset of its twist: a wrong
        # offset transforms by another character and the inversion fails
        k, R, _ = setup_k(p, f)
        for tw in range(k.order):
            psi = chars.AddChar(k, k.from_dlog(tw), R)
            for n in (1, 2):
                chi = chars.MultChar(k, 1, R)
                rep = expsum.fourier_inversion_check(n, chi, psi)
                assert rep.equal, (p, f, tw, n)

    @pytest.mark.parametrize("p,f,n,j", [(3, 2, 2, 1), (3, 2, 4, 3),
                                         (2, 3, 7, 2), (7, 1, 3, 4),
                                         (5, 1, 1, 0)])
    def test_fourier_transform_matches_ring_products(self, p, f, n, j,
                                                     monkeypatch):
        # the transform of a -> G_n(a) at each x, against the loop of ring
        # products sum_a G_n(a) * psi(-a*x) it replaced
        k, R, psi = setup_k(p, f)
        chi = chars.MultChar(k, j, R)
        seen = []
        wrs = cyc.CycRing.weighted_root_sum

        def recorded(ring, order, counts):
            seen.append(wrs(ring, order, counts))
            return seen[-1]

        monkeypatch.setattr(cyc.CycRing, "weighted_root_sum", recorded)
        assert expsum.fourier_inversion_check(n, chi, psi).equal
        monkeypatch.undo()
        gvals = [expsum.restricted_gauss(n, chi, psi, a)
                 for a in k.elements()]
        minus_one = k.from_int(-1)
        for x, got in zip(k.elements(), seen[-k.size:]):
            want = R.zero()
            for a, g in zip(k.elements(), gvals):
                want = want + g * psi.eval(minus_one * a * x)
            assert got == want

    @pytest.mark.parametrize("p,f,n,j", [(3, 2, 2, 1), (2, 3, 7, 2),
                                         (7, 1, 3, 4)])
    def test_fourier_rows_past_int64_hold_python_ints(self, p, f, n, j,
                                                      monkeypatch):
        # every G_n(a) times c = 2^62 + 1 puts rows x max|coefficient| past
        # 2^62, so the rows are Python integers, and each transform read
        # before the first failing x must be exactly c times the sum of
        # ring products
        k, R, psi = setup_k(p, f)
        chi = chars.MultChar(k, j, R)
        c = R.from_int(2 ** 62 + 1)
        gauss = expsum.restricted_gauss
        seen = []
        wrs = cyc.CycRing.weighted_root_sum

        def recorded(ring, order, counts):
            seen.append(wrs(ring, order, counts))
            return seen[-1]

        monkeypatch.setattr(expsum, "restricted_gauss",
                            lambda *args: gauss(*args) * c)
        monkeypatch.setattr(cyc.CycRing, "weighted_root_sum", recorded)
        rep = expsum.fourier_inversion_check(n, chi, psi)
        monkeypatch.undo()
        # x = 1 is an n_q-th root of unity, where the scaled transform is
        # c * q * chi(1), not q * chi(1)
        assert not rep.equal
        assert rep.lhs == c * rep.rhs and not rep.rhs.is_zero()
        gvals = [gauss(n, chi, psi, a) for a in k.elements()]
        # elements() runs through the codes in order
        transforms = seen[-rep.witness.packed - 1:]
        minus_one = k.from_int(-1)
        for x, got in zip(k.elements(), transforms):
            want = R.zero()
            for a, g in zip(k.elements(), gvals):
                want = want + g * psi.eval(minus_one * a * x)
            assert got == c * want

    @pytest.mark.parametrize("j", [0, 1, 5, 21])
    def test_fourier_makes_no_product_per_pair(self, j, monkeypatch):
        # over F_64 with n = 3: the transform side is one weighted_root_sum
        # per x; the only ring products are q * chi(x) on the n_q = 3
        # roots of unity
        k, R, psi = setup_k(2, 6)
        chi = chars.MultChar(k, j, R)
        calls = []
        mul = cyc.CycElem.__mul__

        def counted_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(cyc.CycElem, "__mul__", counted_mul)
        monkeypatch.setattr(cyc.CycElem, "__rmul__", counted_mul)
        rep = expsum.fourier_inversion_check(3, chi, psi)
        monkeypatch.undo()
        assert rep.equal
        assert len(calls) <= math.gcd(3, k.order)

    def test_separation_q3_frozen(self):
        k, R, psi = setup_k(3, 1)
        w = expsum.separation_witnesses(2, psi, [k.elem(2)])[0]
        assert w == k.one()
        w = expsum.separation_witnesses(1, psi, [k.elem(2)])[0]
        assert w == k.one()

    def test_separation_rejects_degenerate_ratio(self):
        k, R, psi = setup_k(3, 1)
        with pytest.raises(ValidationError):
            expsum.separation_witnesses(2, psi, [k.one()])
        with pytest.raises(ValidationError):
            expsum.separation_witnesses(2, psi, [k.zero()])

    def test_separation_rejects_nonpositive_degree(self):
        k, R, psi = setup_k(5, 1)
        for n in (0, -1):
            with pytest.raises(ValidationError, match="n must be positive"):
                expsum.separation_witnesses(n, psi, [k.gen()])

    @pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
    def test_separation_exists_small(self, p, f):
        k, R, psi = setup_k(p, f)
        for n in (1, 2, 3, 4):
            for tprime in range(1, k.order):
                ap = k.from_dlog(tprime)
                assert expsum.separation_witnesses(n, psi, [ap])[0] is not None


def table_separation(n, psi, aprime, table=None):
    """The oracle for separation_witnesses: the least a (by dlog) whose
    values K_{n,a} and K_{n,a*aprime} differ in kloosterman_table (or in
    table, that list computed once)."""
    k = psi.field
    if table is None:
        table = expsum.kloosterman_table(k, n, psi)
    shift, L = ff.dlog(aprime), k.order
    for t in range(L):
        if table[t] != table[(t + shift) % L]:
            return k.from_dlog(t)
    return None


class TestSeparationCounts:
    """separation_witnesses on count rows, with the ring values as oracle."""

    @pytest.mark.parametrize("twist", [0, 1])
    @pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                     (3, 2), (11, 1)])
    def test_matches_ring_values(self, p, f, twist):
        k, R, _ = setup_k(p, f)
        psi = chars.AddChar(k, k.from_dlog(twist), R)
        for n in (1, 2, 3, 4):
            for t in range(1, k.order):
                ap = k.from_dlog(t)
                assert expsum.separation_witnesses(n, psi, [ap])[0] == \
                    table_separation(n, psi, ap), (n, t)

    @pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (7, 1), (3, 2)])
    def test_one_table_serves_every_ratio(self, p, f, monkeypatch):
        k, R, psi = setup_k(p, f)
        ratios = [k.from_dlog(t) for t in range(1, k.order)]
        for n in (1, 2, 3):
            want = [table_separation(n, psi, ap) for ap in ratios]
            built = []
            rows = expsum._kloosterman_rows

            def counted(*args):
                built.append(args)
                return rows(*args)

            monkeypatch.setattr(expsum, "_kloosterman_rows", counted)
            assert expsum.separation_witnesses(n, psi, ratios) == want
            assert expsum.separation_witnesses(n, psi, ratios[::-1]) == \
                want[::-1]
            for ap, w in zip(ratios, want):
                assert expsum.separation_witnesses(n, psi, [ap]) == [w]
            monkeypatch.undo()
            assert len(built) == 2 + len(ratios)

    def test_every_ratio_is_checked_before_the_table(self, monkeypatch):
        k, R, psi = setup_k(5, 1)

        def refuse(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(expsum, "_kloosterman_rows", refuse)
        # the refusal is reached once every ratio is valid
        with pytest.raises(AssertionError, match="the table was built"):
            expsum.separation_witnesses(2, psi, [k.gen(), k.gen() ** 2])
        for ratios in ([k.gen()], [k.gen(), k.gen() ** 2]):
            for bad in (k.one(), k.zero(), ff.make_field(7, 1).gen()):
                with pytest.raises(ValidationError):
                    expsum.separation_witnesses(2, psi, ratios + [bad])
                with pytest.raises(ValidationError):
                    expsum.separation_witnesses(2, psi, [bad] + ratios)

    @pytest.mark.parametrize("twist", [0, 1])
    @pytest.mark.parametrize("p,f", BIGRING_FIELDS + [(3, 1), (5, 1)])
    def test_one_ratio_matches_the_table(self, p, f, twist):
        # one ratio reads only its rows; the oracle compares ring values
        k, R, _ = setup_k(p, f)
        psi = chars.AddChar(k, k.from_dlog(twist), R)
        for n in (2, 3):
            table = expsum.kloosterman_table(k, n, psi)
            ratios = [k.from_dlog(t) for t in range(1, k.order)]
            want = [table_separation(n, psi, ap, table) for ap in ratios]
            assert expsum.separation_witnesses(n, psi, ratios) == want
            for ap, w in zip(ratios, want):
                assert expsum.separation_witnesses(n, psi, [ap]) == [w]

    def test_object_dtype_table(self):
        # 6**25 > 2**63, so the counts are Python integers
        k, R, psi = setup_k(7, 1)
        assert expsum._kloosterman_rows(k, 25, psi, None).dbl.dtype == object
        for t in range(1, k.order):
            ap = k.from_dlog(t)
            assert expsum.separation_witnesses(25, psi, [ap])[0] == \
                table_separation(25, psi, ap), t

    def test_builds_no_ring_value(self, monkeypatch):
        k, R, psi = setup_k(5, 1)
        ratios = [k.from_dlog(t) for t in range(1, k.order)]
        expect = [table_separation(3, psi, ap) for ap in ratios]

        def refuse(*args):
            raise AssertionError("separation built a ring value")

        monkeypatch.setattr(cyc.CycRing, "weighted_root_sum", refuse)
        monkeypatch.setattr(cyc.CycRing, "_reduce", refuse)
        got = [expsum.separation_witnesses(3, psi, [ap])[0] for ap in ratios]
        assert got == expect
        assert expsum.separation_witnesses(3, psi, ratios) == expect

    def test_every_ratio_reads_each_row_at_most_once(self, monkeypatch):
        k, R, psi = setup_k(61, 1)
        ratios = [k.from_dlog(t) for t in range(1, k.order)]
        expect = [expsum.separation_witnesses(3, psi, [ap])[0]
                  for ap in ratios]
        reads = []
        row = expsum._TupleCounts.row

        def counted(self, T):
            reads.append(T)
            return row(self, T)

        def refuse(self):
            raise AssertionError("the sweep finished the table")

        monkeypatch.setattr(expsum._TupleCounts, "row", counted)
        monkeypatch.setattr(expsum._TupleCounts, "table", refuse)
        assert expsum.separation_witnesses(3, psi, ratios) == expect
        assert len(reads) == len(set(reads)) <= k.order


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 1), (2, 2), (5, 1)]), st.integers(1, 3),
       st.data())
def test_kloosterman_twist_covariance(pf, l, data):
    # replacing psi by its b-twist rescales the argument: K_{l,a}(psi_b)
    # equals K_{l, a*b^l}(psi) after substituting z_i -> b*z_i
    p, f = pf
    k, R, psi = setup_k(p, f)
    tb = data.draw(st.integers(0, k.order - 1))
    ta = data.draw(st.integers(0, k.order - 1))
    b, a = k.from_dlog(tb), k.from_dlog(ta)
    psib = chars.AddChar(k, b, R)
    assert expsum.kloosterman(k, l, a, psib) == \
        expsum.kloosterman(k, l, a * b ** l, psi)
