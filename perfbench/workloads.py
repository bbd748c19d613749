"""The three benchmark workloads: their job grids, their set-up, and the
correctness gate every job passes through.

A job is a plain tuple, so a job list can be compared across seeds:

    ("cli", argv)              one ``jlcs`` command, run in-process
    ("gu", config)             g_u character value, direct == closed form
    ("eis", config)            two reduced charpolys, both Eisenstein
    ("rel", config)            one transfer-relation row through matching

Only the ``algebra`` jobs sample inputs, and they draw them from the seed
when the job is prepared; the grids themselves never depend on the seed.
A timed phase runs whole passes over a grid, so the job mix, and with it
every percentile, is the same from run to run.  Within a pass the jobs run
in a fixed shuffled order, so that a slow spell of the host falls on every
kind of job alike instead of on one block of the grid.

The grids are thinned evenly, so that a pass takes a few seconds and a
timed phase runs every job several times: every other lambda and chi dlog
in ``sums``, every third a' in the two big rings of ``bigring``, and every
other configuration of the acceptance grid in ``algebra``.  Each keeps at
least 200 jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

WORKLOADS = ("sums", "bigring", "algebra")
# the traced run and its untraced baseline run the jobs whose grid index i
# has i % TRACE_STRIDE < TRACE_SHARE: a fixed, evenly thinned job list, so
# the traced counts repeat exactly from run to run
TRACE_STRIDE, TRACE_SHARE = 8, 3
# every DETERMINISM_STRIDE-th CLI job is run a second time and its stdout
# compared byte for byte with the first run
DETERMINISM_STRIDE = 16

PRIME_POWERS_9 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# 47 and 61 give rings of degree 1012 and 960; 49, 64 and 81 give fields of
# about the same size with rings of degree 96, 36 and 64.  Without 81 the
# small-ring jobs would be 109 of 213, and the median would sit on the edge
# between the two groups, where a few slow jobs move it from 13 to 80 ms.
# Each field carries the stride of its a' list: the big rings keep every
# third a', which leaves their jobs about two thirds of a pass's time.
BIGRING_FIELDS = [(47, 1, 3), (7, 2, 1), (61, 1, 3), (2, 6, 1), (3, 4, 1)]
# every SUMS_STRIDE-th lambda and chi dlog; every ALGEBRA_STRIDE-th config
SUMS_STRIDE, ALGEBRA_STRIDE = 2, 2
# tiny grids for the smoke test: same job kinds, small fields
TINY_FIELDS = [(2, 1), (3, 1)]
TINY_BIGRING_FIELDS = [(11, 1, 1), (3, 2, 1)]


class JobFailed(Exception):
    """A job ran but its output does not pass the correctness gate."""


def _mr_pairs(max_n):
    return [(m, r) for m in range(1, max_n + 1) for r in range(1, max_n + 1)
            if m * r <= max_n]


def _twists(r):
    if r == 1:
        return [None]
    return [s for s in range(1, r) if math.gcd(s, r) == 1]


def algebra_configs(tiny=False):
    """Every ALGEBRA_STRIDE-th configuration of the acceptance grid: q <= 9,
    m*r <= 6, every Hasse twist s.  Each field has an odd number of
    configurations, so every (m, r, s) stays in the grid for some q."""
    fields = TINY_FIELDS if tiny else PRIME_POWERS_9
    max_n = 2 if tiny else 6
    grid = [(p, f, m, r, s) for (p, f) in fields
            for (m, r) in _mr_pairs(max_n) for s in _twists(r)]
    return grid[::ALGEBRA_STRIDE]


def run_order(jobs):
    """Grid indices in the fixed order a pass runs them; seed-independent."""
    order = list(range(len(jobs)))
    random.Random("perfbench-run-order").shuffle(order)
    return order


def job_list(workload, tiny=False):
    """Every job of one pass over the workload's grid, in grid order."""
    jobs = []
    if workload == "sums":
        fields = TINY_FIELDS if tiny else PRIME_POWERS_9
        max_mr, max_n = (2, 2) if tiny else (6, 4)
        for p, f in fields:
            units = p ** f - 1
            field = ["--p", str(p), "--f", str(f)]
            for m, r in _mr_pairs(max_mr):
                for t in range(0, units, SUMS_STRIDE):
                    jobs.append(("cli", ("verify", "d725", *field,
                                         "--m", str(m), "--r", str(r),
                                         "--lambda-dlog", str(t))))
            for n in range(1, max_n + 1):
                for j in range(0, units, SUMS_STRIDE):
                    jobs.append(("cli", ("verify", "d716", *field,
                                         "--n", str(n), "--chi", str(j))))
    elif workload == "bigring":
        for p, f, stride in TINY_BIGRING_FIELDS if tiny else BIGRING_FIELDS:
            for t in range(1, p ** f - 1, stride):
                jobs.append(("cli", ("verify", "separation", "--p", str(p),
                                     "--f", str(f), "--n", "3",
                                     "--aprime-dlog", str(t))))
    elif workload == "algebra":
        for config in algebra_configs(tiny):
            jobs += [("gu", config), ("eis", config), ("rel", config)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# set-up: everything a workload declares, built through public constructors


def setup(workload, tiny=False):
    """Build every field, extension, ring, algebra and parameter the
    workload uses; returns the parameters the library jobs need."""
    from jlcs import csa, cyc, ff, ssc

    params = {}
    if workload == "sums":
        for p, f in TINY_FIELDS if tiny else PRIME_POWERS_9:
            k = ff.make_field(p, f)
            cyc.ring_for(p, k.order)
            for l in range(2, (2 if tiny else 6) + 1):
                ff.make_extension(k, l)
    elif workload == "bigring":
        for p, f, _ in TINY_BIGRING_FIELDS if tiny else BIGRING_FIELDS:
            k = ff.make_field(p, f)
            cyc.ring_for(p, k.order)
    else:
        for config in algebra_configs(tiny):
            p, f, m, r, s = config
            k = ff.make_field(p, f)
            csa.matrix_algebra(csa.div_algebra(k, r, s), m)
            csa.matrix_algebra(csa.div_algebra(k, 1, None), m * r)
            params[config] = (
                ssc.make_param(p, f, m, r, s, c=ssc.CUnit(order=4, power=1)),
                ssc.make_param(p, f, m, r, s))
    return params


# ---------------------------------------------------------------------------
# jobs


def _rng(seed, config, tag):
    # str seeds hash with sha512, so the stream is the same in every process
    return random.Random(repr((seed, "perfbench-algebra", config, tag)))


def sample_inputs(job, params, seed):
    """The sampled inputs of one algebra job (u matrices, zetas)."""
    kind, config = job
    eta4, eta = params[config]
    rng = _rng(seed, config, kind)
    if kind == "gu":
        return [eta4.alg.random_in_order(rng, 4)]
    if kind == "eis":
        k = eta.k
        return [(zeta, eta.alg.random_in_order(rng, 3))
                for zeta in (k.one(), k.gen())]
    return [eta.alg.random_in_order(rng, 8)]


def run_cli(argv):
    """Run one command through ``cli.main`` with stdout captured."""
    from jlcs import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def check_cli(argv, code, out):
    """Gate for one CLI job; returns the number of verified checks.

    The command must exit 0, every identity record must carry equal exact
    sides (or a witness), and the summary must say ok with checks >= 1, so
    a sweep that checks nothing counts as failed.
    """
    if code != 0:
        raise JobFailed(f"{' '.join(argv)}: exit code {code}")
    records = [json.loads(line) for line in out.splitlines()]
    if not records or records[-1].get("kind") != "summary":
        raise JobFailed(f"{' '.join(argv)}: no summary line")
    summary = records[-1]
    if not summary["ok"] or summary["failures"] or summary["checks"] < 1:
        raise JobFailed(f"{' '.join(argv)}: summary {summary}")
    for rec in records[:-1]:
        if "equal" in rec:
            if not rec["equal"] or rec["lhs"]["coeffs"] != rec["rhs"]["coeffs"]:
                raise JobFailed(f"{' '.join(argv)}: sides differ")
        elif not rec.get("ok") or rec.get("witness_dlog") is None:
            raise JobFailed(f"{' '.join(argv)}: no witness")
    if summary["checks"] != len(records) - 1:
        raise JobFailed(f"{' '.join(argv)}: summary miscounts its records")
    return summary["checks"]


def prepare(job, params, seed):
    """Split one job into an untimed part and a timed call.

    Returns (call, gate): call() does the work users wait for, gate(result)
    returns the number of checks verified and raises JobFailed otherwise.
    """
    kind = job[0]
    if kind == "cli":
        argv = job[1]
        return (lambda: run_cli(argv)), (lambda res: check_cli(argv, *res))

    from jlcs import csa, ssc

    config = job[1]
    eta4, eta = params[config]
    inputs = sample_inputs(job, params, seed)
    if kind == "gu":
        (u,) = inputs

        def call():
            return ssc.char_at_gu_direct(eta4, u), ssc.char_at_gu_closed(eta4, u)

        def gate(res):
            direct, closed = res
            if direct != closed:
                raise JobFailed(f"g_u {config}: direct != closed form")
            return 1
    elif kind == "eis":
        m, D = eta.alg.m, eta.alg.D

        def call():
            return [csa.eisenstein_check(
                        csa.red_charpoly(csa.make_g_u(m, D, zeta, u)), zeta)
                    for zeta, u in inputs]

        def gate(res):
            if not all(rep["eisenstein"] for rep in res):
                raise JobFailed(f"eisenstein {config}: {res}")
            return len(res)
    else:
        (u,) = inputs

        def call():
            return ssc.character_relation_check(eta, us=[u])

        def gate(rows):
            if len(rows) != 1 or rows[0].closed_form != rows[0].direct_sum:
                raise JobFailed(f"relation {config}: sides differ")
            return 1
    return call, gate
