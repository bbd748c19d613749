import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from jlcs import csa, ff, locfield as lf
from jlcs._util import binary_power, stable_rng
from jlcs.errors import (DomainError, IdentityFailure, PrecisionError,
                         ValidationError)

from oracles import (div_pi, rel_norm, round_berkowitz, scale_base_series,
                     teich_conjugate, twist_series, uniformizer, w_terms,
                     w_valuation)


def zeta_w(k, zeta):
    return lf.teichmuller(zeta).shift(1)


def mat_mul(a, b, field):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for t in range(n):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def det_cofactor(mat, field):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * det_cofactor(minor, field)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class TestDiagonal:
    def test_diag_builds_the_named_matrices(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 3)
        z, o = D.zero(), D.one()
        rows = [[o if i == j else z for j in range(3)] for i in range(3)]
        assert MA.diag([o] * 3) == MA.elem(rows) == MA.identity()
        assert MA.diag([z] * 3) == MA.zero()
        x = div_pi(D)
        d = MA.diag([x, o, z])
        assert d.entries[0][0] is x and d.entries[2][2] is z
        assert all(d.entries[i][j].is_zero()
                   for i in range(3) for j in range(3) if i != j)

    def test_diag_rejects_wrong_length(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        for entries in ([D.one()], [D.one()] * 3):
            with pytest.raises(ValidationError):
                MA.diag(entries)

    def test_diag_rejects_foreign_entries(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        other = csa.div_algebra(k, 3, 1)
        with pytest.raises(ValidationError):
            MA.diag([D.one(), other.one()])
        with pytest.raises(ValidationError):
            MA.diag([D.one(), lf.one(D.kr)])


class TestAlgebraConstruction:
    def test_split_form_rejects_twist(self):
        k = ff.make_field(3, 1)
        with pytest.raises(ValidationError):
            csa.div_algebra(k, 1, 1)

    def test_twist_must_be_coprime(self):
        k = ff.make_field(3, 1)
        with pytest.raises(ValidationError):
            csa.div_algebra(k, 4, 2)
        with pytest.raises(ValidationError):
            csa.div_algebra(k, 3, None)
        with pytest.raises(ValidationError):
            csa.div_algebra(k, 3, 3)

    def test_instances_are_cached(self):
        k = ff.make_field(3, 1)
        assert csa.div_algebra(k, 2, 1) is csa.div_algebra(k, 2, 1)
        D = csa.div_algebra(k, 2, 1)
        assert csa.matrix_algebra(D, 2) is csa.matrix_algebra(D, 2)
        # every spelling of the same arguments shares one object
        assert csa.div_algebra(k, r=2, s=1) is D
        assert csa.div_algebra(k, 1, 0) is csa.div_algebra(k, 1, None)
        assert csa.div_algebra(k, 1) is csa.div_algebra(k, 1, None)
        assert csa.matrix_algebra(D, m=2) is csa.matrix_algebra(D, 2)


class TestDivisionAlgebraArithmetic:
    def test_pi_conjugation_twists_constants(self):
        # Pi a = sigma^s(a) Pi for every constant a of k_r
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        pi = div_pi(D)
        for a in D.kr.elements():
            lhs = pi * D.teich(a)
            rhs = D.teich(a ** (k.size ** D.s)) * pi
            assert lhs == rhs

    def test_pi_power_is_uniformizer(self):
        k = ff.make_field(3, 1)
        for r, s in [(2, 1), (3, 1), (3, 2), (4, 3)]:
            D = csa.div_algebra(k, r, s)
            assert div_pi(D) ** r == D.from_base_series(uniformizer(k))

    def test_associativity_sampled(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 3, 2)
        rng = stable_rng(11, "assoc")
        for _ in range(20):
            x = D.random(rng, 5, 0)
            y = D.random(rng, 5, 0)
            z = D.random(rng, 5, 0)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_teich_lifts_constants_of_k_r_only(self):
        # a constant of k is embedded into k_r first; teich rejects it as is
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        c = k.from_int(2)
        with pytest.raises(ValidationError):
            D.teich(c)
        assert D.teich(ff.embed(c, D.kr)) == \
            D.from_base_series(lf.teichmuller(c))

    def test_noncommutative(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        g = D.teich(D.kr.gen())
        pi = div_pi(D)
        assert pi * g != g * pi


class TestValuation:
    def test_w_of_basic_elements(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 3, 1)
        assert w_valuation(div_pi(D)) == 1
        assert w_valuation(D.from_base_series(uniformizer(k))) == 3
        assert w_valuation(D.teich(D.kr.gen())) == 0
        assert w_valuation(div_pi(D) ** 5) == 5
        assert w_valuation(D.zero()) is None

    def test_w_respects_truncation(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        kr = D.kr
        # a_0 unknown below w^2, a_1 visibly a unit: the minimum is w(Pi) = 1
        x = csa.AlgElem(D, [lf.zero(kr, 2), lf.one(kr)])
        assert w_valuation(x) == 1
        # both coefficients zero at low precision: a truncated zero has no
        # determined valuation, though w >= 1 is still certain
        y = csa.AlgElem(D, [lf.zero(kr, 1), lf.zero(kr, 1)])
        with pytest.raises(PrecisionError):
            w_valuation(y)
        y1 = csa.matrix_algebra(D, 1).elem([[y]])
        with pytest.raises(PrecisionError):
            y1.in_radical_power(3)
        assert y1.in_radical_power(1) is True

    def test_w_and_radical_valuation_share_one_rule(self):
        # None only for the exact zero; a truncated zero raises in both
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 1)
        y = csa.AlgElem(D, [lf.zero(D.kr, 1), lf.zero(D.kr, 1)])
        assert w_valuation(D.zero()) is None
        assert MA.zero().radical_valuation() is None
        for raises in (lambda: w_valuation(y),
                       MA.zero().truncate(1).radical_valuation):
            with pytest.raises(PrecisionError):
                raises()
        # a term known below every truncation bound decides the minimum
        x = csa.AlgElem(D, [lf.zero(D.kr, 2), lf.one(D.kr)])
        assert w_valuation(x) == 1
        assert MA.elem([[x]]).radical_valuation() == 1

    def test_order_membership(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        # a 1 x 1 matrix lies in P^v exactly when its entry has w >= v
        MA = csa.matrix_algebra(D, 1)
        assert MA.elem([[D.one()]]).in_order()
        assert MA.elem([[div_pi(D)]]).in_radical_power(1)
        bad = D.from_series(uniformizer(D.kr).inverse())
        assert not MA.elem([[bad]]).in_order()

    def test_radical_valuation_of_phi(self):
        k = ff.make_field(3, 1)
        for m, r, s in [(1, 2, 1), (2, 1, None), (2, 2, 1), (3, 1, None)]:
            D = csa.div_algebra(k, r, s)
            phi = csa.make_phi_zeta(m, D, k.gen())
            assert phi.radical_valuation() == 1
            MA = csa.matrix_algebra(D, m)
            assert MA.identity().radical_valuation() == 0
            assert (phi ** MA.n).radical_valuation() == MA.n

    def test_radical_membership_certified_on_truncated_zero(self):
        # a matrix that vanishes to finite precision has no exact radical
        # valuation, but membership below the frontier is still decidable
        k = ff.make_field(3, 1)
        MA = csa.matrix_algebra(csa.div_algebra(k, 2, 1), 2)
        z = MA.zero().truncate(2)
        with pytest.raises(PrecisionError):
            z.radical_valuation()
        assert z.in_radical_power(1)
        assert z.in_radical_power(2)
        assert not (MA.identity() + z).in_radical_power(1)
        with pytest.raises(PrecisionError):
            z.in_radical_power(2 * MA.n * 2)


def oracle_in_order(g):
    """Order membership read off the term lists, entry by entry."""
    undetermined = False
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            known, bounds = w_terms(e)
            v = 1 if i > j else 0
            if known and min(known) < v:
                return False
            if bounds and min(bounds) < v:
                undetermined = True
    if undetermined:
        raise PrecisionError(
            "order membership not determined at this precision")
    return True


def oracle_in_radical_power(g, v):
    """Membership in P^v from every term m w + j - i of every entry."""
    m = g.parent.m
    undetermined = False
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            known, bounds = w_terms(e)
            if any(m * t + j - i < v for t in known):
                return False
            if any(m * t + j - i < v for t in bounds):
                undetermined = True
    if undetermined:
        raise PrecisionError(
            "radical membership not determined at this precision")
    return True


def oracle_radical_valuation(g):
    """The least term m w + j - i over every entry; raises when a
    truncation bound falls below it, or when only bounds are known."""
    m = g.parent.m
    known, bounds = [], []
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            kt, bt = w_terms(e)
            known += [m * t + j - i for t in kt]
            bounds += [m * t + j - i for t in bt]
    if bounds and (not known or min(bounds) < min(known)):
        raise PrecisionError(
            "radical valuation not determined at this precision")
    return min(known) if known else None


def with_tied_bound(g, low):
    """g with its first zero coefficient that can carry the bound low made
    a truncated zero with bound m (r prec + l) + j - i = low exactly; g
    itself when no zero coefficient can."""
    m, D = g.parent.m, g.parent.D
    rows = [list(row) for row in g.entries]
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for l, a in enumerate(e.coeffs):
                prec, rest = divmod(low - m * l - j + i, m * D.r)
                if a.is_zero() and not rest:
                    coeffs = list(e.coeffs)
                    coeffs[l] = lf.zero(D.kr, prec)
                    row[j] = csa.AlgElem(D, coeffs)
                    return g.parent.elem(rows)
    return g


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


MEMBERSHIP_SHAPES = [(1, 2, 1), (2, 1, None), (2, 2, 1), (1, 3, 2),
                     (3, 1, None)]


@st.composite
def series_entries(draw, field):
    """Exact zeros, truncated zeros at precision -2..3, and series with
    valuations down to -2, exact or truncated."""
    kind = draw(st.sampled_from(("exact_zero", "truncated_zero", "series")))
    if kind == "exact_zero":
        return lf.zero(field)
    if kind == "truncated_zero":
        return lf.zero(field, draw(st.integers(-2, 3)))
    val = draw(st.integers(-2, 2))
    coeffs = draw(st.lists(st.integers(0, field.size - 1),
                           min_size=1, max_size=3))
    coeffs[0] = draw(st.integers(1, field.size - 1))
    extra = draw(st.one_of(st.none(), st.integers(0, 2)))
    prec = lf.INF if extra is None else val + len(coeffs) + extra
    return lf.LaurentTrunc(field, val, coeffs, prec)


@st.composite
def matrices(draw):
    m, r, s = draw(st.sampled_from(MEMBERSHIP_SHAPES))
    k = ff.make_field(2, 1)
    D = csa.div_algebra(k, r, s)
    MA = csa.matrix_algebra(D, m)
    rows = [[csa.AlgElem(D, [draw(series_entries(D.kr)) for _ in range(r)])
             for _ in range(m)] for _ in range(m)]
    return MA.elem(rows)


class TestMembershipAgainstTermLists:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_membership_matches_term_lists(self, data):
        g = data.draw(matrices())
        n = g.parent.n
        assert outcome(g.in_order) == outcome(oracle_in_order, g)
        v = data.draw(st.integers(-2 * n, 2 * n + 1))
        assert (outcome(g.in_radical_power, v)
                == outcome(oracle_in_radical_power, g, v))
        low = outcome(oracle_radical_valuation, g)
        assert outcome(g.radical_valuation) == low
        if isinstance(low, int):
            # a truncation bound equal to the least known term leaves that
            # term the minimum: P^low holds and P^(low + 1) fails
            tied = with_tied_bound(g, low)
            assert tied.radical_valuation() == low
            assert tied.in_radical_power(low)
            assert not tied.in_radical_power(low + 1)


def oracle_series_mul(x, y):
    """LaurentTrunc.__mul__ as the double loop over every coefficient pair,
    adding one product at a time and normalizing through the constructor."""
    o = x._check(y)
    f = x.field
    if not x.coeffs or not o.coeffs:
        if x.is_exact_zero() or o.is_exact_zero():
            return lf.LaurentTrunc(f, 0, (), lf.INF)
        # 0 * x is 0, but only to the precision the zero was known to;
        # an empty series acts as if its valuation were its precision
        v1 = x.val if x.coeffs else x.prec
        v2 = o.val if o.coeffs else o.prec
        return lf.LaurentTrunc(f, 0, (), min(x.prec + v2, o.prec + v1))
    prec = min(x.prec + o.val, o.prec + x.val)
    val = x.val + o.val
    n_terms = len(x.coeffs) + len(o.coeffs) - 1
    if prec != lf.INF:
        n_terms = min(n_terms, prec - val)
    out = [0] * max(n_terms, 0)
    for i, a in enumerate(x.coeffs):
        if a == 0 or i >= len(out):
            continue
        for j, b in enumerate(o.coeffs):
            if b and i + j < len(out):
                out[i + j] = f.add_packed(out[i + j], f.mul_packed(a, b))
    return lf.LaurentTrunc(f, val, out, prec)


def oracle_mul(x, y):
    """x * y by oracle_alg_mul for algebra elements, by oracle_series_mul
    for series."""
    if isinstance(x, csa.AlgElem):
        return oracle_alg_mul(x, y)
    return oracle_series_mul(x, y)


def oracle_dot(xs, ys):
    """sum x * y over the paired terms, added left to right starting from
    the first product rather than from a zero; None when there are none."""
    acc = None
    for x, y in zip(xs, ys):
        t = oracle_mul(x, y)
        acc = t if acc is None else acc + t
    return acc


def kernel_dot(field, xs, ys):
    """sum x * y over the paired terms by the packed kernel's one-entry
    call."""
    return lf.ProductSums(field)([tuple(zip(xs, ys))])[0]


def oracle_matmul(a, b):
    """Every one of the n^3 terms, folded by oracle_dot."""
    cols = tuple(zip(*b))
    return tuple(tuple(oracle_dot(row, col) for col in cols) for row in a)


def oracle_berkowitz(mat, field):
    """csa._berkowitz with every sum folded by oracle_dot."""
    n = len(mat)
    one_ = lf.one(field)
    vec = [one_]
    for k in range(1, n + 1):
        a = mat[k - 1][k - 1]
        row = mat[k - 1][:k - 1]
        col = [mat[i][k - 1] for i in range(k - 1)]
        toep = [one_, -a]
        cur = col
        for i in range(k - 1):
            if i:
                cur = [oracle_dot(mat[x][:k - 1], cur) for x in range(k - 1)]
            toep.append(-oracle_dot(row, cur))
        vec = [oracle_dot(toep[i::-1], vec) for i in range(k + 1)]
    return vec


def oracle_alg_mul(x, y):
    """The AlgElem product that forms a term for every exact zero of y."""
    D = x.parent
    r = D.r
    out = [lf.zero(D.kr) for _ in range(r)]
    for i, a in enumerate(x.coeffs):
        if a.is_zero() and a.prec == lf.INF:
            continue
        for j, b in enumerate(y.coeffs):
            term = oracle_series_mul(a, twist_series(D, b, i))
            carry, rem = divmod(i + j, r)
            if carry:
                term = term.shift(carry)
            out[rem] = out[rem] + term
    return csa.AlgElem(D, tuple(out))


def oracle_regular_rep(d):
    """The regular representation summed from exact zeros."""
    D = d.parent
    r = D.r
    M = [[lf.zero(D.kr) for _ in range(r)] for _ in range(r)]
    for i, a in enumerate(d.coeffs):
        if a.is_zero() and a.prec == lf.INF:
            continue
        for j in range(r):
            carry, rem = divmod(i + j, r)
            img = twist_series(D, a, -(i + j))
            if carry:
                img = img.shift(carry)
            M[rem][j] = M[rem][j] + img
    return M


def exact_key(x):
    """(val, coeffs, prec) of a series, nested through AlgElem and rows."""
    if isinstance(x, lf.LaurentTrunc):
        return (x.val, x.coeffs, x.prec)
    if isinstance(x, csa.AlgElem):
        return tuple(exact_key(a) for a in x.coeffs)
    return tuple(exact_key(e) for e in x)


@st.composite
def sparse_square(draw, n, entries, zero):
    """An n x n array of entries, with some rows and columns exact zeros."""
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = [zero] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = zero
    return rows


@st.composite
def alg_entries(draw, D):
    """Zero, one, Pi, or coefficients from series_entries."""
    kind = draw(st.sampled_from(("zero", "one", "pi", "general")))
    if kind == "zero":
        return D.zero()
    if kind == "one":
        return D.one()
    if kind == "pi":
        return div_pi(D)
    return csa.AlgElem(D, [draw(series_entries(D.kr)) for _ in range(D.r)])


SKIP_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
SKIP_ALGEBRAS = [(1, None), (2, 1), (3, 1), (3, 2)]
# fields of absolute degree d >= 3 reduce the product slots x^d..x^(2d-2)
KERNEL_FIELDS = SKIP_FIELDS + [(2, 4), (3, 3), (5, 2), (7, 2)]


class TestExactZeroSkipping:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_series_products_match_the_full_fold(self, data):
        k = ff.make_field(*data.draw(st.sampled_from(KERNEL_FIELDS)))
        n = data.draw(st.integers(1, 6))
        a = data.draw(sparse_square(n, series_entries(k), lf.zero(k)))
        b = data.draw(sparse_square(n, series_entries(k), lf.zero(k)))
        assert exact_key(csa._matmul(a, b)) == exact_key(oracle_matmul(a, b))
        assert (exact_key(csa._berkowitz(a, k))
                == exact_key(oracle_berkowitz(a, k)))
        for i in range(n):
            col = [row[i] for row in b]
            assert (exact_key(kernel_dot(k, a[i], col))
                    == exact_key(oracle_dot(a[i], col)))
        # a row against itself negated: every coefficient cancels, and only
        # the precision is left
        neg = [-x for x in a[0]]
        assert (exact_key(kernel_dot(k, a[0] + neg, b[0] + b[0]))
                == exact_key(oracle_dot(a[0] + neg, b[0] + b[0])))

    def test_slots_wider_than_two_bytes(self):
        # long exact series over GF(7^6): the per-sum slot bound passes 2^16
        k = ff.make_field(7, 6)
        rng = stable_rng(3, "wide-slots")

        def series(length):
            coeffs = [rng.randrange(1, k.size) for _ in range(length)]
            return lf.LaurentTrunc(k, rng.randrange(-3, 3), coeffs)

        xs = [series(80 + i) for i in range(4)]
        ys = [series(90 - i) for i in range(4)]
        load = sum(min(len(x.coeffs), len(y.coeffs)) for x, y in zip(xs, ys))
        assert load * k.degree * (k.p - 1) ** 2 >= 2 ** 16
        assert exact_key(kernel_dot(k, xs, ys)) == exact_key(oracle_dot(xs, ys))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_algebra_products_match_the_full_fold(self, data):
        k = ff.make_field(*data.draw(st.sampled_from(SKIP_FIELDS[:2])))
        r, s = data.draw(st.sampled_from(SKIP_ALGEBRAS))
        m = data.draw(st.integers(1, 6 // r if r > 1 else 3))
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        g = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        h = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        assert (exact_key((g * h).entries)
                == exact_key(oracle_matmul(g.entries, h.entries)))
        for x in (e for row in g.entries for e in row):
            assert (exact_key(csa.regular_rep(x))
                    == exact_key(oracle_regular_rep(x)))
            for y in h.entries[0]:
                assert exact_key(x * y) == exact_key(oracle_alg_mul(x, y))
        emb = csa.embed_A(g)
        assert (exact_key(csa._berkowitz(emb, D.kr))
                == exact_key(oracle_berkowitz(emb, D.kr)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_lockstep_rounds_match_round_by_round(self, data):
        # every sum keeps its pairs in the same order, so each coefficient
        # of the charpoly is the same series, precision included
        k = ff.make_field(*data.draw(st.sampled_from(KERNEL_FIELDS)))
        n = data.draw(st.integers(1, 7))
        a = data.draw(sparse_square(n, series_entries(k), lf.zero(k)))
        assert (exact_key(csa._berkowitz(a, k))
                == exact_key(round_berkowitz(a, k)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lockstep_makes_2n_minus_2_calls(self, monkeypatch, n):
        k = ff.make_field(3, 1)
        rng = stable_rng(5, "lockstep-calls", n)
        a = [[lf.LaurentTrunc(k, rng.randrange(-1, 2), (1, rng.randrange(3)),
                              4) for _ in range(n)] for _ in range(n)]
        calls = []
        call = lf.ProductSums.__call__

        def counted(self, sums):
            calls.append(1)
            return call(self, sums)

        monkeypatch.setattr(lf.ProductSums, "__call__", counted)
        got = csa._berkowitz(a, k)
        assert len(calls) == 2 * n - 2
        calls.clear()
        assert exact_key(got) == exact_key(round_berkowitz(a, k))
        assert len(calls) == n * (n + 1) // 2 - 1

    def test_all_zero_products_are_exact_zeros(self):
        k = ff.make_field(3, 1)
        z, t = lf.zero(k), lf.zero(k, 2)
        assert kernel_dot(k, [z, t], [t, z]).is_exact_zero()
        assert not kernel_dot(k, [t, t], [t, z]).is_exact_zero()
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        prod = MA.diag([D.one(), D.zero()]) * MA.diag([D.zero(), div_pi(D)])
        assert all(not e.live for row in prod.entries for e in row)
        assert isinstance(prod.entries[0][1], csa.AlgElem)


@st.composite
def product_operands(draw, field):
    """Exact zeros, truncated zeros at precision -3..3, one-term series, and
    series of up to 8 terms with interior zeros, valuations -3..3, exact or
    truncated (an operand's own cut may fall inside or before its terms)."""
    kind = draw(st.sampled_from(("exact_zero", "truncated_zero", "one_term",
                                 "series")))
    if kind == "exact_zero":
        return lf.zero(field)
    if kind == "truncated_zero":
        return lf.zero(field, draw(st.integers(-3, 3)))
    nonzero = st.integers(1, field.size - 1)
    val = draw(st.integers(-3, 3))
    coeffs = [draw(nonzero)]
    if kind == "series":
        coeffs += draw(st.lists(st.one_of(st.just(0), nonzero), max_size=7))
    extra = draw(st.one_of(st.none(), st.integers(-2, 4)))
    prec = lf.INF if extra is None else val + len(coeffs) + extra
    return lf.LaurentTrunc(field, val, coeffs, prec)


def rescan(x):
    """AlgElem.live as a fresh scan of x's coefficients."""
    return [(i, id(a)) for i, a in enumerate(x.coeffs)
            if not a.is_exact_zero()]


# (p, f, r, s): p = 2 and odd p, and k_r of absolute degree 3 and 4
ROW_ALGEBRAS = [(2, 1, 1, None), (3, 1, 1, None), (5, 1, 1, None),
                (2, 1, 2, 1), (7, 1, 2, 1), (2, 1, 3, 1), (3, 1, 3, 2),
                (2, 2, 2, 1)]


class TestRowProducts:
    """Series products by rows over the longer operand, and algebra
    elements that keep their live coefficients, against the double loop."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_rows_match_the_double_loop(self, data):
        p, f, r, s = data.draw(st.sampled_from(ROW_ALGEBRAS))
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        x = data.draw(product_operands(D.kr))
        y = data.draw(product_operands(D.kr))
        for a, b in ((x, y), (y, x)):
            got = a * b
            assert exact_key(got) == exact_key(oracle_series_mul(a, b))
            assert type(got.coeffs) is tuple
        # sigma^0 and sigma^r are the identity
        for j in (0, r, -2 * r):
            assert exact_key(lf.galois_series(x, j, k)) == exact_key(x)
        u = csa.AlgElem(D, [data.draw(product_operands(D.kr))
                            for _ in range(r)])
        v = csa.AlgElem(D, [data.draw(product_operands(D.kr))
                            for _ in range(r)])
        uv = u * v
        assert exact_key(uv) == exact_key(oracle_alg_mul(u, v))
        assert exact_key(u + v) == tuple(
            exact_key(a + b) for a, b in zip(u.coeffs, v.coeffs))
        zero = D.zero()
        assert exact_key(u + zero) == exact_key(zero + u) == exact_key(u)
        for e in (u, v, uv, u + v, u + zero, zero + u, zero, D.one(),
                  div_pi(D), D.from_series(x), D.teich(D.kr.gen()), uv * u):
            assert [(i, id(a)) for i, a in e.live] == rescan(e)


def lift(x):
    """The exact series with x's coefficients (a truncated zero lifts to
    the exact zero)."""
    return lf.LaurentTrunc(x.field, x.val, x.coeffs)


def exact_matrix(g):
    """g with every coefficient lifted to an exact series."""
    D = g.parent.D
    return g.parent.elem([[csa.AlgElem(D, [lift(a) for a in e.coeffs])
                           for e in row] for row in g.entries])


def known_part(exact, prec):
    """(val, coeffs, prec) of an exact series cut at prec."""
    return exact_key(exact if prec == lf.INF else exact.truncate(prec))


def reduced_norm_outcome(g):
    try:
        return csa.rnorm(g)
    except (DomainError, PrecisionError) as exc:
        return type(exc)


class TestPrecisionSoundness:
    """A truncated input and its exact lift, or any exact completion of
    it, must agree below every precision a result reports: the truncated
    run may only claim what the exact run confirms."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_charpoly_and_det_agree_with_the_exact_lift(self, data):
        p, d = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1),
                                          (3, 2), (3, 3)]))
        k = ff.make_field(p, d)
        n = data.draw(st.integers(1, 4))
        a = data.draw(sparse_square(n, series_entries(k), lf.zero(k)))
        exact = [[lift(x) for x in row] for row in a]
        for got, want in zip(csa._berkowitz(a, k), csa._berkowitz(exact, k)):
            assert exact_key(got) == known_part(want, got.prec)
        got = csa._det(a, k)
        assert exact_key(got) == known_part(csa._det(exact, k), got.prec)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_series_products_and_sums_agree_with_the_exact_lift(self, data):
        p, d = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2)]))
        k = ff.make_field(p, d)
        x = data.draw(product_operands(k))
        y = data.draw(product_operands(k))
        got = x * y
        assert exact_key(got) == known_part(lift(x) * lift(y), got.prec)
        got = x + y
        assert exact_key(got) == known_part(lift(x) + lift(y), got.prec)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matrix_products_agree_with_the_exact_lift(self, data):
        k = ff.make_field(*data.draw(st.sampled_from([(2, 1), (3, 1)])))
        r, s = data.draw(st.sampled_from([(1, None), (2, 1), (3, 1), (3, 2)]))
        m = data.draw(st.integers(1, 4 // r))
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        g = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        h = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        want = exact_matrix(g) * exact_matrix(h)
        for got_row, want_row in zip((g * h).entries, want.entries):
            for got, wanted in zip(got_row, want_row):
                for a, b in zip(got.coeffs, wanted.coeffs):
                    assert exact_key(a) == known_part(b, a.prec)

    # (x, y, the precision of x * y): min(x.prec + v(y), y.prec + v(x)),
    # an empty series' v being its precision
    PRODUCT_PRECISIONS = [
        ((0, [1, 1], 4), (2, [2], 5), 5),
        ((1, [1, 1], 4), (2, [2], 5), 6),
        ((-2, [1, 0, 1], 3), (1, [1], lf.INF), 4),
        ((-2, [1, 0, 1], lf.INF), (-1, [1, 2], lf.INF), lf.INF),
        ((0, [], 2), (-3, [1], 1), -1),
        ((0, [], 2), (0, [], -1), 1),
        ((0, [], lf.INF), (-3, [1], 1), lf.INF),
        ((0, [], -2), (0, [], lf.INF), lf.INF),
        ((3, [1], 4), (-3, [1, 0, 0, 2], lf.INF), 1),
        ((0, [1], 2), (0, [1, 0, 1, 1], 7), 2),
        ((-1, [1, 1], 0), (-1, [2], 0), -1),
    ]

    @pytest.mark.parametrize("xs,ys,prec", PRODUCT_PRECISIONS)
    def test_product_precision_is_the_min_plus_rule(self, xs, ys, prec):
        k = ff.make_field(3, 1)
        x, y = lf.LaurentTrunc(k, *xs), lf.LaurentTrunc(k, *ys)
        assert (x * y).prec == (y * x).prec == prec

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduced_norm_agrees_with_the_exact_lift(self, data):
        k = ff.make_field(*data.draw(st.sampled_from([(2, 1), (3, 1)])))
        r, s = data.draw(st.sampled_from([(1, None), (2, 1), (3, 1), (3, 2)]))
        m = data.draw(st.integers(1, 4 // r))
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        g = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        exact = exact_matrix(g)
        got = reduced_norm_outcome(g)
        if isinstance(got, lf.LaurentTrunc):
            assert exact_key(got) == known_part(csa.rnorm(exact), got.prec)
        elif got is DomainError:
            # only an exact zero determinant is called singular
            assert reduced_norm_outcome(exact) is DomainError


    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_series_inverse_agrees_with_the_exact_lift(self, data):
        p, d = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2)]))
        k = ff.make_field(p, d)
        x = data.draw(product_operands(k))
        if len(x.coeffs) != 1:
            # monomials only: zero and every longer series raise
            with pytest.raises(DomainError):
                x.inverse()
            return
        got = x.inverse()
        # every exact completion of x times got is 1 below the product's
        # precision, so got agrees with the completion's inverse below
        # got.prec; a precision claimed one step too far fails for a tail
        # with a nonzero first coefficient
        exact = completion(x, data.draw(tails(k)))
        assert got * exact == lf.one(k)
        assert (got.val, got.coeffs) == (-x.val, (k.inv_packed(x.coeffs[0]),))
        assert got.prec == (lf.INF if x.prec == lf.INF
                            else x.prec - 2 * x.val)

    # (x, the precision of x.inverse()): x.prec - 2 v(x) for a monomial
    INVERSE_PRECISIONS = [
        ((1, [2], 4), 2),
        ((-1, [1], 3), 5),
        ((1, [2], lf.INF), lf.INF),
    ]

    @pytest.mark.parametrize("xs,prec", INVERSE_PRECISIONS)
    def test_inverse_precision_is_what_the_input_supports(self, xs, prec):
        k = ff.make_field(3, 1)
        assert lf.LaurentTrunc(k, *xs).inverse().prec == prec

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_series_powers_agree_with_the_exact_lift(self, data):
        p, d = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2)]))
        k = ff.make_field(p, d)
        x = data.draw(product_operands(k))
        e = data.draw(st.integers(0, 4))
        got = binary_power(x, e, lf.one(k))
        exact = completion(x, data.draw(tails(k)))
        want = binary_power(exact, e, lf.one(k))
        assert exact_key(got) == known_part(want, got.prec)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_plus_inverse_agrees_with_the_exact_lift(self, data):
        k = ff.make_field(*data.draw(st.sampled_from([(2, 1), (3, 1)])))
        r, s = data.draw(st.sampled_from([(1, None), (2, 1), (3, 1), (3, 2)]))
        m = data.draw(st.integers(1, 4 // r))
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        # y = phi a with a in the standard order is in the radical
        a = MA.elem([[data.draw(order_entries(D, 1 if i > j else 0))
                      for j in range(m)] for i in range(m)])
        phi = csa.make_phi_zeta(m, D, k.gen())
        try:
            got = csa.one_plus_inverse(phi * a)
        except PrecisionError:
            # an exact y, or a truncation that hides radical membership
            assume(False)
        # completing a's coefficients keeps it in the order, so phi times
        # the completion is an exact radical y that agrees with phi * a
        exact_a = MA.elem([
            [csa.AlgElem(D, [completion(c, data.draw(tails(D.kr)))
                             for c in e.coeffs]) for e in row]
            for row in a.entries])
        cut = 1 + max(c.prec for row in got.entries for e in row
                      for c in e.coeffs if c.prec != lf.INF)
        want = exact_geometric_inverse(phi * exact_a, cut)
        for got_row, want_row in zip(got.entries, want.entries):
            for got_e, want_e in zip(got_row, want_row):
                for c, w in zip(got_e.coeffs, want_e.coeffs):
                    # y is truncated, so no coefficient can be exact
                    assert c.prec != lf.INF
                    assert exact_key(c) == known_part(w, c.prec)


def tails(field):
    """Up to three coefficients for the exponents a truncated series does
    not know."""
    return st.lists(st.integers(0, field.size - 1), max_size=3)


def completion(x, tail):
    """An exact series that agrees with x below x.prec and has the tail's
    coefficients from there on (x itself when exact).  A claim that holds
    for the zero tail only is caught by some other tail."""
    if x.prec == lf.INF:
        return x
    if not x.coeffs:
        return lf.LaurentTrunc(x.field, x.prec, tail)
    known = list(x.coeffs) + [0] * (x.prec - x.val - len(x.coeffs))
    return lf.LaurentTrunc(x.field, x.val, known + tail)


@st.composite
def order_entries(draw, D, lead):
    """Elements of O_D (lead 0) or of its maximal ideal (lead 1): exact
    zeros, truncated zeros, and series with the Pi^0 coefficient from
    w^lead and the others from w^0, exact or truncated."""
    coeffs = []
    for i in range(D.r):
        low = lead if i == 0 else 0
        kind = draw(st.sampled_from(("exact_zero", "truncated_zero",
                                     "series")))
        if kind == "exact_zero":
            coeffs.append(lf.zero(D.kr))
        elif kind == "truncated_zero":
            coeffs.append(lf.zero(D.kr, draw(st.integers(low, low + 3))))
        else:
            val = draw(st.integers(low, low + 2))
            terms = draw(st.lists(st.integers(0, D.kr.size - 1),
                                  min_size=1, max_size=3))
            terms[0] = draw(st.integers(1, D.kr.size - 1))
            extra = draw(st.one_of(st.none(), st.integers(0, 2)))
            prec = lf.INF if extra is None else val + len(terms) + extra
            coeffs.append(lf.LaurentTrunc(D.kr, val, terms, prec))
    return csa.AlgElem(D, coeffs)


def exact_geometric_inverse(y, cut):
    """(1 + y)^-1 for an exact radical y, by the geometric series in exact
    arithmetic: every coefficient is right below w^cut.  Each power of -y
    is cut to its terms below w^cut, which loses nothing there since the
    coefficients of an order element have no negative valuation."""
    acc = term = y.parent.identity()
    # y^n lies in w times the order, so a term vanishes below w^cut
    # after at most n * cut steps
    for _ in range(y.parent.n * cut + 1):
        term = exact_matrix((term * (-y)).truncate(cut))
        if term.is_zero():
            return acc
        acc = acc + term
    raise AssertionError("the geometric series did not vanish below the cut")


class TestUniformizers:
    def test_phi_d_picks_least_dlog_norm_preimage(self):
        # q = 3, r = 2, zeta = 2: Nr(g) = g^4 = 2, so c is the generator
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        phi_d = csa.make_phi_D(D, k.from_int(2))
        assert phi_d.coeffs[0].is_zero()
        assert phi_d.coeffs[1] == lf.teichmuller(D.kr.gen())
        assert phi_d ** 2 == D.from_base_series(zeta_w(k, k.from_int(2)))

    def test_phi_d_independent_of_norm_preimage_choice(self):
        # any Teichmuller c with Nr(c) = zeta squares to zeta w
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        for zeta in [k.one(), k.from_int(2)]:
            target = D.from_base_series(zeta_w(k, zeta))
            seen = 0
            for t in range(D.kr.order):
                c = D.kr.from_dlog(t)
                if rel_norm(c, k) != zeta:
                    continue
                cand = csa.AlgElem(D, [lf.zero(D.kr), lf.teichmuller(c)])
                assert cand ** 2 == target
                seen += 1
            assert seen == 4

    def test_phi_zeta_power_is_central(self):
        grid = [(3, 1, 1, 2, 1), (3, 1, 2, 1, None), (3, 1, 2, 2, 1),
                (2, 1, 1, 3, 2), (2, 2, 3, 1, None), (5, 1, 1, 4, 1)]
        for p, f, m, r, s in grid:
            k = ff.make_field(p, f)
            D = csa.div_algebra(k, r, s)
            MA = csa.matrix_algebra(D, m)
            zeta = k.gen()
            phi = csa.make_phi_zeta(m, D, zeta)
            assert phi ** MA.n == MA.scalar_series(zeta_w(k, zeta))

    def test_phi_zeta_requires_unit(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        with pytest.raises(DomainError):
            csa.make_phi_D(D, k.zero())

    def test_uniformizers_are_built_once(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        phi = csa.make_phi_zeta(2, D, k.gen())
        assert csa.make_phi_zeta(2, D, k.gen()) is phi
        assert csa.make_phi_zeta(2, Dalg=D, zeta=k.gen()) is phi
        phi_inv = csa.phi_inverse(2, D, k.gen())
        assert csa.phi_inverse(m=2, Dalg=D, zeta=k.gen()) is phi_inv

    def test_phi_inverse(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.from_int(2)
        phi = csa.make_phi_zeta(2, D, zeta)
        assert phi * csa.phi_inverse(2, D, zeta) == MA.identity()
        assert csa.phi_inverse(2, D, zeta) * phi == MA.identity()

    def test_phi_normalizes_order(self):
        # phi A phi^{-1} stays in the order, and P = phi A by left division
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.gen()
        phi = csa.make_phi_zeta(2, D, zeta)
        phi_inv = csa.phi_inverse(2, D, zeta)
        rng = stable_rng(3, "normalize")
        for _ in range(8):
            a = MA.random_in_order(rng, 6)
            assert (phi * a * phi_inv).in_order()
            x = phi * a
            assert x.radical_valuation() >= 1 or x.radical_valuation() is None
            back = phi_inv * x
            assert back == a
            assert back.in_order()


class TestCenter:
    def test_center_is_base_field(self):
        # an element commuting with Pi and the Teichmuller generator must
        # be a constant coefficient from k on Pi^0
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        pi = div_pi(D)
        g = D.teich(D.kr.gen())
        for i in range(D.r):
            for t in range(D.kr.order):
                c = D.kr.from_dlog(t)
                coeffs = [lf.zero(D.kr)] * D.r
                coeffs[i] = lf.teichmuller(c)
                x = csa.AlgElem(D, coeffs)
                central = (x * pi == pi * x) and (x * g == g * x)
                expected = i == 0 and rel_norm(c, k) == c ** 2
                # c in k is equivalent to c^q = c
                expected = i == 0 and c ** k.size == c
                assert central == expected


class TestRegularRepresentation:
    def test_rep_of_pi(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 3, 1)
        M = csa.regular_rep(div_pi(D))
        w = uniformizer(D.kr)
        one = lf.one(D.kr)
        assert M[0][2] == w
        assert M[1][0] == one and M[2][1] == one
        assert M[0][0].is_zero() and M[1][1].is_zero()
        assert csa._det(M, D.kr) == w
        # det of the rep of Pi carries the sign (-1)^{r-1}
        D2 = csa.div_algebra(k, 2, 1)
        assert csa._det(csa.regular_rep(div_pi(D2)), D2.kr) == -uniformizer(D2.kr)

    def test_rep_of_constant_is_conjugate_diagonal(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        a = D.kr.gen()
        M = csa.regular_rep(D.teich(a))
        assert M[0][0] == lf.teichmuller(a)
        assert M[1][1] == lf.teichmuller(a ** k.size)
        assert M[0][1].is_zero() and M[1][0].is_zero()

    def test_rep_is_multiplicative(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 3, 2)
        rng = stable_rng(5, "rep")
        for _ in range(10):
            x = D.random(rng, 5, 0)
            y = D.random(rng, 5, 0)
            lhs = csa.regular_rep(x * y)
            rhs = mat_mul(csa.regular_rep(x), csa.regular_rep(y), D.kr)
            assert all(lhs[i][j] == rhs[i][j] for i in range(3) for j in range(3))

    def test_embedding_is_multiplicative(self):
        k = ff.make_field(2, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        rng = stable_rng(7, "embed")
        for _ in range(6):
            x = MA.random_in_order(rng, 5)
            y = MA.random_in_order(rng, 5)
            lhs = csa.embed_A(x * y)
            rhs = mat_mul(csa.embed_A(x), csa.embed_A(y), D.kr)
            n = MA.n
            assert all(lhs[i][j] == rhs[i][j] for i in range(n) for j in range(n))


class TestReducedInvariants:
    def test_berkowitz_matches_cofactor_determinant(self):
        k = ff.make_field(3, 1)
        kr = ff.make_extension(k, 2)
        rng = stable_rng(13, "det")
        for size in [1, 2, 3, 4]:
            for _ in range(4):
                mat = [[lf.LaurentTrunc(kr, 0,
                                        [rng.randrange(9) for _ in range(4)], 4)
                        for _ in range(size)] for _ in range(size)]
                assert csa._det(mat, kr) == det_cofactor(mat, kr)

    def test_rtrace_against_embedding(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        rng = stable_rng(17, "trace")
        for _ in range(6):
            g = MA.random_in_order(rng, 5)
            emb = csa.embed_A(g)
            acc = None
            for i in range(MA.n):
                acc = emb[i][i] if acc is None else acc + emb[i][i]
            assert csa.rtrace(g) == lf.pullback_series(acc, k)

    def test_rtrace_values(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 3)
        assert csa.rtrace(MA.identity()) == lf.from_coeffs(k, 0, [6 % 3])
        zeta = k.from_int(2)
        phi = csa.make_phi_zeta(3, D, zeta)
        assert csa.rtrace(csa.phi_inverse(3, D, zeta)).is_zero()
        assert csa.rtrace(phi).is_zero()

    def test_descend_pulls_back_only_frobenius_invariant_series(self):
        # a series over k_r whose coefficients lie in k comes back over k
        # unchanged in (val, coeffs, prec); one that holds the generator of
        # k_r is not Frobenius-invariant, and descending it is a failed
        # identity
        k = ff.make_field(3, 2)
        kr = ff.make_extension(k, 3)
        for x in (lf.from_coeffs(k, -1, [k.gen().packed, 0, 1], 5),
                  lf.from_coeffs(k, 2, [1]), lf.zero(k, 3)):
            down = csa._descend(lf.embed_series(x, kr), k)
            assert down.field is k
            assert (down.val, down.coeffs, down.prec) == \
                (x.val, x.coeffs, x.prec)
            assert csa._descend(x, k) is x
        for coeffs in ([kr.gen().packed], [1, 0, kr.gen().packed]):
            with pytest.raises(IdentityFailure):
                csa._descend(lf.from_coeffs(kr, 0, coeffs, 4), k)

    def test_rnorm_of_phi(self):
        # Nrd(phi_zeta) = (-1)^{n-1} zeta w
        grid = [(3, 1, 1, 2, 1), (3, 1, 2, 1, None), (3, 1, 2, 2, 1),
                (2, 1, 3, 1, None), (5, 1, 1, 3, 2)]
        for p, f, m, r, s in grid:
            k = ff.make_field(p, f)
            D = csa.div_algebra(k, r, s)
            zeta = k.gen()
            phi = csa.make_phi_zeta(m, D, zeta)
            n = m * r
            want = zeta_w(k, zeta)
            if n % 2 == 0:
                want = -want
            assert csa.rnorm(phi) == want

    def test_rnorm_multiplicative(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.one()
        phi = csa.make_phi_zeta(2, D, zeta)
        rng = stable_rng(19, "norm")
        for _ in range(5):
            x = MA.identity() + (phi * MA.random_in_order(rng, 6)).truncate(6)
            y = MA.identity() + (phi * MA.random_in_order(rng, 6)).truncate(6)
            assert csa.rnorm(x * y) == csa.rnorm(x) * csa.rnorm(y)

    def test_rnorm_rejects_singular_input(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 1, None)
        MA = csa.matrix_algebra(D, 2)
        with pytest.raises(DomainError):
            csa.rnorm(MA.zero())

    def test_rnorm_flags_uncertifiable_precision(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 1, None)
        MA = csa.matrix_algebra(D, 2)
        g = MA.identity() - MA.scalar_series(lf.one(k, 3))
        with pytest.raises(PrecisionError):
            csa.rnorm(g)


class TestCharacteristicPolynomial:
    def test_charpoly_of_phi_is_eisenstein_binomial(self):
        # x^n - zeta w, for the split algebra and a genuinely twisted one
        k = ff.make_field(3, 1)
        zeta = k.from_int(2)
        for m, r, s in [(2, 1, None), (1, 2, 1), (2, 2, 1)]:
            D = csa.div_algebra(k, r, s)
            phi = csa.make_phi_zeta(m, D, zeta)
            f = csa.red_charpoly(phi)
            assert f.n == m * r
            assert f.coeffs[0] == -zeta_w(k, zeta)
            assert all(c.is_zero() for c in f.coeffs[1:])

    def test_charpoly_conjugation_invariant(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.gen()
        phi = csa.make_phi_zeta(2, D, zeta)
        rng = stable_rng(23, "conj")
        u = MA.random_in_order(rng, 8)
        g = csa.make_g_u(2, D, zeta, u)
        f = csa.red_charpoly(g)
        for _ in range(4):
            y = (phi * MA.random_in_order(rng, 8)).truncate(8)
            h = MA.identity() + y
            hg = h * g * csa.one_plus_inverse(y)
            assert csa.red_charpoly(hg) == f

    def test_taylor_shift(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 1, None)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.one()
        phi = csa.make_phi_zeta(2, D, zeta)
        f = csa.red_charpoly(phi)
        w = uniformizer(k)
        shifted = f.taylor_shift(lf.one(k))
        # f(x + 1) = x^2 + 2x + 1 - w
        assert shifted.coeffs[1] == lf.from_coeffs(k, 0, [2])
        assert shifted.coeffs[0] == lf.one(k) - w
        back = shifted.taylor_shift(-lf.one(k))
        assert back == f


class TestConjugacyData:
    def test_g_u_requires_order_membership(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        bad = MA.scalar_series(uniformizer(k).inverse())
        with pytest.raises(ValidationError):
            csa.make_g_u(2, D, k.one(), bad)

    def test_g_u_charpoly_is_eisenstein(self):
        grid = [(3, 1, 1, 2, 1), (3, 1, 2, 1, None), (3, 1, 2, 2, 1),
                (2, 1, 1, 3, 1), (2, 2, 2, 1, None), (5, 1, 1, 2, 1)]
        rng = stable_rng(29, "eis")
        for p, f_, m, r, s in grid:
            k = ff.make_field(p, f_)
            D = csa.div_algebra(k, r, s)
            MA = csa.matrix_algebra(D, m)
            zeta = k.gen()
            for _ in range(3):
                u = MA.random_in_order(rng, 6)
                g = csa.make_g_u(m, D, zeta, u)
                rep = csa.eisenstein_check(csa.red_charpoly(g), zeta)
                assert rep["eisenstein"]
                assert rep["elliptic_quasi_regular"]

    def test_eisenstein_check_rejects_low_precision(self):
        k = ff.make_field(3, 1)
        f = csa.RedCharPoly(k, 2, (lf.zero(k, 1), lf.zero(k, 1)))
        with pytest.raises(PrecisionError):
            csa.eisenstein_check(f, k.one())

    def test_eisenstein_check_flags_failures(self):
        k = ff.make_field(3, 1)
        w = uniformizer(k)
        # constant term w against zeta = 1: unit part is -1 = 2, not in U^1
        f = csa.RedCharPoly(k, 2, (w, w))
        rep = csa.eisenstein_check(f, k.one())
        assert not rep["eisenstein"]
        assert rep["tail_in_maximal_ideal"] and not rep["unit_part_in_u1"]
        # a unit linear coefficient breaks the ideal condition
        f2 = csa.RedCharPoly(k, 2, (-w, lf.one(k)))
        rep2 = csa.eisenstein_check(f2, k.one())
        assert not rep2["tail_in_maximal_ideal"]

    def test_classification(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 1, None)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.one()
        assert csa.classify_qr(MA.identity()) == "unknown"
        # distinct Teichmuller eigenvalues: separable, certified regular
        g = MA.elem([[D.teich(k.one()), D.zero()],
                     [D.zero(), D.teich(k.from_int(2))]])
        assert csa.classify_qr(g) == "regular"
        rng = stable_rng(31, "cls")
        u = MA.random_in_order(rng, 6)
        gu = csa.make_g_u(2, D, zeta, u)
        assert csa.classify_qr(gu) == "elliptic_quasi_regular"
        # 1 + phi is elliptic quasi-regular through the shift x -> x - 1
        phi = csa.make_phi_zeta(2, D, zeta)
        assert csa.classify_qr(MA.identity() + phi) == "elliptic_quasi_regular"

    def test_matching_element_round_trip(self):
        grid = [(1, 2, 1), (2, 1, None), (1, 3, 1), (3, 1, None), (2, 2, 1)]
        k = ff.make_field(3, 1)
        rng = stable_rng(37, "match")
        for m, r, s in grid:
            D = csa.div_algebra(k, r, s)
            MA = csa.matrix_algebra(D, m)
            zeta = k.gen()
            u = MA.random_in_order(rng, 8)
            g = csa.make_g_u(m, D, zeta, u)
            f = csa.red_charpoly(g)
            u_a, g_a = csa.matching_element(f, zeta, csa.rtrace(u).residue())
            assert u_a.in_order()
            assert csa.red_charpoly(g_a) == f
            assert g_a.parent.D.r == 1

    def test_matching_element_detects_trace_mismatch(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 1)
        zeta = k.gen()
        rng = stable_rng(41, "mismatch")
        u = MA.random_in_order(rng, 8)
        g = csa.make_g_u(1, D, zeta, u)
        f = csa.red_charpoly(g)
        right = csa.rtrace(u).residue()
        wrong = right + k.one()
        with pytest.raises(IdentityFailure, match="reduced trace"):
            csa.matching_element(f, zeta, wrong)

    def test_matching_element_same_side_fixed_point(self):
        # matching a split-side datum reproduces its own trace residue
        k = ff.make_field(2, 2)
        D = csa.div_algebra(k, 1, None)
        MA = csa.matrix_algebra(D, 2)
        zeta = k.gen()
        rng = stable_rng(43, "fixed")
        u = MA.random_in_order(rng, 8)
        g = csa.make_g_u(2, D, zeta, u)
        f = csa.red_charpoly(g)
        u_a, g_a = csa.matching_element(f, zeta, csa.rtrace(u).residue())
        assert csa.rtrace(u_a).residue() == csa.rtrace(u).residue()


class TestSelfTest:
    def test_selftest_passes(self):
        rows = csa.selftest(3, 1, 2, 2, 1)
        assert {row["kind"] for row in rows} == {"csa_check"}
        # n = 4 >= 2, so the reduced trace of phi^{-1} is checked
        assert "rtrace_phi_inverse" in [row["check"] for row in rows]
        assert all(row["ok"] is True for row in rows)

    def test_selftest_split_case(self):
        rows = csa.selftest(2, 1, 3, 1, None)
        assert rows and all(row["ok"] is True for row in rows)

    def test_degree_one_skips_the_phi_inverse_check(self):
        checks = [row["check"] for row in csa.selftest(3, 1, 1, 1, None)]
        assert len(checks) == len(set(checks)) == 10
        assert "rtrace_phi_inverse" not in checks


SCALING_ALGEBRAS = [(p, f, r, s) for p, f in ((2, 1), (3, 1), (2, 2))
                    for r, s in ((1, None), (2, 1), (3, 1), (3, 2), (4, 3))]


class TestTeichmullerScalings:
    """Conjugation by a Teichmuller diagonal, the central Teichmuller
    scaling, u - 1 and the trace of a product, each against the product
    route it replaces, in (val, coeffs, prec)."""

    @staticmethod
    def draw_algebra(data):
        p, f, r, s = data.draw(st.sampled_from(SCALING_ALGEBRAS))
        D = csa.div_algebra(ff.make_field(p, f), r, s)
        m = data.draw(st.integers(1, max(4 // r, 1)))
        return csa.matrix_algebra(D, m)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_conjugation_is_the_product(self, data):
        MA = self.draw_algebra(data)
        D = MA.D
        g = MA.elem(data.draw(sparse_square(MA.m, alg_entries(D), D.zero())))
        units = [D.kr.from_dlog(data.draw(st.integers(0, D.kr.order - 1)))
                 for _ in range(MA.m)]
        x = MA.diag([D.teich(d) for d in units])
        x_inv = MA.diag([D.teich(d.inverse()) for d in units])
        want = exact_key((x_inv * g * x).entries)
        # the oracle conjugate, and the row map of phi^0 given the units
        oracle = teich_conjugate(g, units)
        for got in (oracle, csa.phi_power_mul(D.k.one(), 0, g, units)):
            assert exact_key(got.entries) == want
            # exact zeros stay exact zeros, in the oracle the same objects
            for row, got_row in zip(g.entries, got.entries):
                for e, c in zip(row, got_row):
                    for a, b in zip(e.coeffs, c.coeffs):
                        if a.is_exact_zero():
                            assert b is a if got is oracle else \
                                b.is_exact_zero()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_central_scaling_and_minus_one_are_the_product_route(self, data):
        MA = self.draw_algebra(data)
        D = MA.D
        g = MA.elem(data.draw(sparse_square(MA.m, alg_entries(D), D.zero())))
        c = D.k.from_dlog(data.draw(st.integers(0, D.k.order - 1)))
        assert exact_key(g.scale_teich(c).entries) == \
            exact_key(scale_base_series(g, lf.teichmuller(c)).entries)
        assert exact_key(g.minus_identity().entries) == \
            exact_key((g - MA.identity()).entries)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_diagonal_trace_is_the_trace_of_the_product(self, data):
        MA = self.draw_algebra(data)
        D = MA.D
        a = MA.elem(data.draw(sparse_square(MA.m, alg_entries(D), D.zero())))
        b = MA.elem(data.draw(sparse_square(MA.m, alg_entries(D), D.zero())))
        assert exact_key(csa.rtrace_product(a, b)) == \
            exact_key(csa.rtrace(a * b))

    def test_trace_of_phi_inverse_products(self):
        # the shape theta evaluates: phi^{-1} times a radical element
        for p, f, r, s in SCALING_ALGEBRAS:
            D = csa.div_algebra(ff.make_field(p, f), r, s)
            MA = csa.matrix_algebra(D, max(4 // r, 1))
            zeta = D.k.gen()
            phi_inv = csa.phi_inverse(MA.m, D, zeta)
            rng = stable_rng(7, "trace", p, f, r, s or 0)
            y = csa.make_phi_zeta(MA.m, D, zeta) * MA.random_in_order(rng, 5)
            assert exact_key(csa.rtrace_product(phi_inv, y)) == \
                exact_key(csa.rtrace(phi_inv * y))

    def test_units_are_validated(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        MA = csa.matrix_algebra(D, 2)
        g = MA.identity()
        one = D.kr.one()
        for units in ([one], [one, D.kr.zero()], [one, k.one()]):
            with pytest.raises(ValidationError):
                csa.phi_power_mul(k.one(), 0, g, units)
        for c in (k.zero(), D.kr.gen()):
            with pytest.raises(ValidationError):
                g.scale_teich(c)


# the acceptance grid: q <= 9, n = m r <= 6, every twist s, and q^n <= 10^6
ACCEPTANCE_GRID = [(p, f, m, r, s)
                   for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                (3, 2)]
                   for m in range(1, 7) for r in range(1, 6 // m + 1)
                   for s in ([None] if r == 1 else
                             [s for s in range(1, r) if math.gcd(s, r) == 1])
                   if (p ** f) ** (m * r) <= 10 ** 6]

PHI_ALGEBRAS = [(p, f, m, r, s) for p in (2, 3) for f in (1, 2)
                for r in range(1, 7) for m in range(1, 6 // r + 1)
                for s in ([None] if r == 1 else
                          [s for s in range(1, r) if math.gcd(s, r) == 1])]


def product_phi_inverse(m, D, zeta):
    """phi^{-1} by matrix products: (zeta w)^{-1} phi^{n-1}."""
    phi = csa.make_phi_zeta(m, D, zeta)
    return scale_base_series(phi ** (phi.parent.n - 1),
                             zeta_w(D.k, zeta).inverse())


class TestPhiPowerRows:
    """phi^e g as a row map against the matrix products it replaces, in
    (val, coeffs, prec)."""

    def test_phi_inverse_is_the_product_route(self):
        for p, f, m, r, s in PHI_ALGEBRAS:
            if p ** f > 4:
                continue
            k = ff.make_field(p, f)
            D = csa.div_algebra(k, r, s)
            for zeta in (k.one(), k.gen()):
                assert exact_key(csa.phi_inverse(m, D, zeta).entries) == \
                    exact_key(product_phi_inverse(m, D, zeta).entries)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_map_is_the_product(self, data):
        p, f, m, r, s = data.draw(st.sampled_from(PHI_ALGEBRAS))
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        zeta = data.draw(st.sampled_from((k.one(), k.gen())))
        e = data.draw(st.integers(-2 * MA.n, 2 * MA.n))
        g = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        got = csa.phi_power_mul(zeta, e, g)
        if e >= 0:
            phi = csa.make_phi_zeta(m, D, zeta)
            assert exact_key(got.entries) == exact_key(((phi ** e) * g).entries)
        if e <= 0:
            phi_inv = product_phi_inverse(m, D, zeta)
            assert exact_key(got.entries) == \
                exact_key(((phi_inv ** -e) * g).entries)
        # rows that no power of the corner reaches are g's own rows
        a, b = divmod(e, m)
        for i, row in enumerate(got.entries):
            wrap, src = divmod(i + b, m)
            if a + wrap == 0:
                assert row is g.entries[src]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_map_with_units_is_the_product(self, data):
        # phi^e x^{-1} g x, x the Teichmuller diagonal of the units
        p, f, m, r, s = data.draw(st.sampled_from(PHI_ALGEBRAS))
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        zeta = data.draw(st.sampled_from((k.one(), k.gen())))
        e = data.draw(st.integers(-2 * MA.n, 2 * MA.n))
        g = MA.elem(data.draw(sparse_square(m, alg_entries(D), D.zero())))
        units = [D.kr.from_dlog(data.draw(st.integers(0, D.kr.order - 1)))
                 for _ in range(m)]
        conj = (MA.diag([D.teich(d.inverse()) for d in units]) * g
                * MA.diag([D.teich(d) for d in units]))
        phi_e = (csa.make_phi_zeta(m, D, zeta) ** e if e >= 0
                 else product_phi_inverse(m, D, zeta) ** -e)
        assert exact_key(csa.phi_power_mul(zeta, e, g, units).entries) == \
            exact_key((phi_e * conj).entries)

    def test_row_map_with_units_on_the_acceptance_grid(self):
        # every e in [-2m, 2m], against the row map of the oracle conjugate
        assert len(ACCEPTANCE_GRID) == 147
        for p, f, m, r, s in ACCEPTANCE_GRID:
            k = ff.make_field(p, f)
            D = csa.div_algebra(k, r, s)
            MA = csa.matrix_algebra(D, m)
            rng = stable_rng(11, "unit-rows", p, f, m, r, s or 0)
            g = MA.random_in_order(rng, 3)
            units = [D.kr.from_dlog(rng.randrange(D.kr.order))
                     for _ in range(m)]
            zeta = k.from_dlog(rng.randrange(k.order))
            conj = teich_conjugate(g, units)
            for e in range(-2 * m, 2 * m + 1):
                assert exact_key(
                    csa.phi_power_mul(zeta, e, g, units).entries) == \
                    exact_key(csa.phi_power_mul(zeta, e, conj).entries), \
                    (p, f, m, r, s, e)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_g_u_is_phi_times_one_plus_phi_u(self, data):
        p, f, m, r, s = data.draw(st.sampled_from(PHI_ALGEBRAS))
        k = ff.make_field(p, f)
        D = csa.div_algebra(k, r, s)
        MA = csa.matrix_algebra(D, m)
        zeta = data.draw(st.sampled_from((k.one(), k.gen())))
        u = MA.elem([[data.draw(order_entries(D, int(i > j)))
                      for j in range(m)] for i in range(m)])
        phi = csa.make_phi_zeta(m, D, zeta)
        want = csa._matmul(
            phi.entries,
            (MA.identity() + csa.MatA(MA, csa._matmul(phi.entries,
                                                      u.entries))).entries)
        assert exact_key(csa.make_g_u(m, D, zeta, u).entries) == \
            exact_key(want)

    def test_g_u_and_matching_are_the_product_route(self):
        for p, f, m, r, s in [(2, 1, 3, 1, None), (3, 1, 2, 2, 1),
                              (2, 2, 1, 3, 2), (3, 1, 1, 4, 3)]:
            k = ff.make_field(p, f)
            D = csa.div_algebra(k, r, s)
            MA = csa.matrix_algebra(D, m)
            rng = stable_rng(5, "phi-rows", p, f, m, r, s or 0)
            for zeta in (k.one(), k.gen()):
                phi = csa.make_phi_zeta(m, D, zeta)
                u = MA.random_in_order(rng, 4)
                g = csa.make_g_u(m, D, zeta, u)
                assert exact_key(g.entries) == \
                    exact_key((phi * (MA.identity() + phi * u)).entries)
                fpoly = csa.red_charpoly(g)
                ualpha, _ = csa.matching_element(fpoly, zeta)
                n = MA.n
                D1 = csa.div_algebra(k, 1)
                MA1 = csa.matrix_algebra(D1, n)
                phi1 = csa.make_phi_zeta(n, D1, zeta)
                zw_inv = zeta_w(k, zeta).inverse()
                alphas = [-(fpoly.coeffs[i] * zw_inv) for i in range(1, n)]
                alphas.append(
                    -((fpoly.coeffs[0] * zw_inv) + lf.one(k)) * zw_inv)
                expected = MA1.zero()
                for i, alpha in enumerate(alphas):
                    corner = [D1.from_base_series(alpha)] + [D1.zero()] * (n - 1)
                    expected = expected + (phi1 ** i) * MA1.diag(corner)
                assert exact_key(ualpha.entries) == exact_key(expected.entries)

    def test_zeta_is_validated(self):
        k = ff.make_field(3, 1)
        D = csa.div_algebra(k, 2, 1)
        g = csa.matrix_algebra(D, 2).identity()
        with pytest.raises(DomainError):
            csa.phi_power_mul(k.zero(), 1, g)
        with pytest.raises(ValidationError):
            csa.phi_power_mul(D.kr.gen(), 1, g)
