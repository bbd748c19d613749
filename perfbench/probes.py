"""Layer probes: fixed-input micro-timings of one operation per layer.

Each probe is warmed with one call, then timed ``repeats`` times over a
fixed number of inner iterations, and reported as the median per-iteration
time.  Inputs never depend on the workload or the seed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _probes():
    """(name, unit, inner iterations, loop(n)) for every probe."""
    from jlcs import chars, csa, cyc, expsum, ff, ssc
    from jlcs import locfield as lf
    from workloads import run_cli

    out = []

    def probe(name, unit, inner, loop):
        out.append((name, unit, inner, loop))

    for label, p, f in (("gf2_6", 2, 6), ("gf3_6", 3, 6)):
        k = ff.make_field(p, f)
        a, b = k.exp[5], k.exp[k.order // 3]

        def add_loop(n, add=k.add_packed, a=a, b=b):
            for _ in range(n):
                add(a, b)
        probe(f"ff.add_ns.{label}", "ns", 20000, add_loop)
    k36 = ff.make_field(3, 6)

    def mul_loop(n, mul=k36.mul_packed, a=k36.exp[5], b=k36.exp[400]):
        for _ in range(n):
            mul(a, b)
    probe("ff.mul_ns.gf3_6", "ns", 20000, mul_loop)

    k3 = ff.make_field(3, 1)

    def build_loop(n):
        for _ in range(n):
            ff.FieldDesc(3, 1, 12, k3)
    probe("ff.build_ms.gf3_12", "ms", 1, build_loop)

    r8 = cyc.ring_for(3, 8)
    x8 = r8.from_coeffs([3, -1, 4, 1, -5, 9, 2, -6])
    y8 = r8.from_coeffs([2, 7, -1, 8, 2, -8, 1, 8])

    def mul8_loop(n):
        for _ in range(n):
            x8 * y8
    probe("cyc.mul_us.deg8", "us", 2000, mul8_loop)

    r960 = cyc.ring_for(61, 60)
    x960 = r960.zeta(61, 1) + r960.zeta(60, 7)
    y960 = r960.zeta(61, 5) + 3

    def mul960_loop(n):
        for _ in range(n):
            x960 * y960
    probe("cyc.mul_us.deg960", "us", 200, mul960_loop)
    counts = [(7 * j) % 5 for j in range(61)]

    def wrs_loop(n):
        for _ in range(n):
            r960.weighted_root_sum(61, counts)
    probe("cyc.wrs_us.deg960", "us", 20, wrs_loop)

    def ring_loop(n):
        for _ in range(n):
            cyc.CycRing(3660)
    probe("cyc.ring_ms.deg960", "ms", 1, ring_loop)

    k312 = ff.make_extension(k3, 12)
    psi312 = chars.AddChar(k312, k312.one(), cyc.ring_for(3))

    def table_loop(n):
        for _ in range(n):
            psi312.dlog_exponent_table()
    probe("chars.exp_table_ms.gf3_12", "ms", 1, table_loop)

    k9 = ff.make_field(3, 2)
    s1 = lf.from_coeffs(k9, 0, [k9.from_dlog(i) for i in range(8)], prec=8)
    s2 = lf.from_coeffs(k9, 0, [k9.from_dlog(2 * i + 1) for i in range(8)],
                        prec=8)

    def series_loop(n):
        for _ in range(n):
            s1 * s2
    probe("locfield.mul_us.prec8", "us", 500, series_loop)

    eta = ssc.make_param(3, 1, 2, 3, 1)
    rng = random.Random("perfbench-probes")
    u1 = eta.alg.random_in_order(rng, 8)
    u2 = eta.alg.random_in_order(rng, 8)

    def matmul_loop(n):
        for _ in range(n):
            u1 * u2
    probe("csa.matmul_ms.m2r3", "ms", 5, matmul_loop)
    g = csa.make_g_u(2, eta.alg.D, eta.zeta, eta.alg.random_in_order(rng, 8))

    def charpoly_loop(n):
        for _ in range(n):
            csa.red_charpoly(g)
    probe("csa.charpoly_ms.n6", "ms", 5, charpoly_loop)

    def decompose_loop(n):
        for _ in range(n):
            ssc.decompose(eta.alg, eta.zeta, g)
    probe("ssc.decompose_ms.n6", "ms", 10, decompose_loop)

    def theta_loop(n):
        for _ in range(n):
            ssc.theta_eval(eta, g)
    probe("ssc.theta_ms.n6", "ms", 10, theta_loop)

    psi9 = chars.AddChar(k9, k9.one(), cyc.ring_for(3, 8))
    lam9 = k9.from_dlog(1)

    def kloosterman_loop(n):
        for _ in range(n):
            expsum.kloosterman(k9, 6, lam9, psi9)
    probe("expsum.kloosterman_ms.q9l6", "ms", 2, kloosterman_loop)

    def d725_loop(n):
        for _ in range(n):
            expsum.check_identity_725(2, 3, lam9, psi9)
    probe("expsum.d725_ms.q9m2r3", "ms", 1, d725_loop)

    k61 = ff.make_field(61, 1)
    psi61 = chars.AddChar(k61, k61.one(), r960)

    def table61_loop(n):
        for _ in range(n):
            expsum.kloosterman_table(k61, 4, psi61)
    probe("expsum.kl_table_ms.q61n4", "ms", 1, table61_loop)

    def cli_loop(n):
        for _ in range(n):
            run_cli(("sums", "gauss", "--p", "3", "--f", "1"))
    probe("cli.main_ms.gauss", "ms", 10, cli_loop)
    return out


def run_probes(repeats):
    """Median per-iteration time of every probe, in the probe's unit."""
    results = {}
    for name, unit, inner, loop in _probes():
        loop(1)
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            loop(inner)
            samples.append((perf_counter() - start) / inner)
        results[name] = statistics.median(samples) * SCALE[unit]
    return results
