import argparse
import contextlib
import csv as csv_mod
import hashlib
import io
import itertools
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jlcs import cli, csa, expsum, ff, ssc
from jlcs.chars import AddChar
from jlcs.cyc import CycRing, ring_for
from jlcs.errors import IdentityFailure, InvariantError
from jlcs.expsum import SumReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def lines(out):
    return [json.loads(line) for line in out.splitlines()]


def captured(main, argv):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def report_records(out, csv=False):
    """The records of a JSON-lines or CSV report, in order; a CSV row
    keeps the kind, and reads its ok cell back as a bool."""
    if csv:
        return [{"kind": row["kind"], "ok": row.get("ok") == "True"}
                for row in csv_mod.DictReader(io.StringIO(out))]
    return lines(out)


def without_approx(obj):
    """obj with every approx pair removed: the float cross-check's last
    digit can depend on the host's libm, the exact values cannot."""
    if isinstance(obj, dict):
        return {k: without_approx(v) for k, v in obj.items() if k != "approx"}
    if isinstance(obj, list):
        return [without_approx(v) for v in obj]
    return obj


# (id, command, exit code, SHA-256 of its JSON lines without approx pairs)
FROZEN_REPORTS = [
    ("kloosterman-l2", "sums kloosterman --p 3 --f 1 --l 2 --a-dlog 0", 0,
     "4e8e3ba9fefc59b1701657d34236f6c9feb83cce880f1d6220b41c67a41438e7"),
    ("kloosterman-l1-budget0",
     "sums kloosterman --p 3 --f 1 --l 1 --a-dlog 1 --budget 0", 0,
     "092e7dfd543876850cdb38759d8e14f224d2815e1439f152f6cbd4e784459d2b"),
    ("norm-fiber-l3", "sums norm-fiber --p 2 --f 2 --l 3 --lambda-dlog 1", 0,
     "d563a2ef69ee48e21f5bc1eaa32cecb32828accffc102ccacab89dfed8e31b4c"),
    ("norm-fiber-l1-budget0",
     "sums norm-fiber --p 2 --f 2 --l 1 --lambda-dlog 1 --budget 0", 0,
     "6ad41d29daa3a77a7028464da5e9f4e7825b445855b38970c4b29e5750b6f132"),
    ("norm-fiber-l2-budget0",
     "sums norm-fiber --p 2 --f 2 --l 2 --lambda-dlog 1 --budget 0", 3,
     "21b0fb411f485d85b83221dbb1b9b630dd3b3315710ef95d53e6aa627755d950"),
    ("d725-q4-m2-r2", "verify d725 --p 2 --f 2 --m 2 --r 2", 0,
     "9b270484b78095ae262efce6c524d9de36ae7d31f2c3f1a00272749824d7b49f"),
    ("d725-q3-m1-r3", "verify d725 --p 3 --f 1 --m 1 --r 3", 0,
     "f137fa21e97ff1778e50603e9673516943a0679d99fd7f39d1b8aa1b3a43f2e0"),
    ("d725-m1-r1-budget0", "verify d725 --p 3 --f 1 --m 1 --r 1 --budget 0",
     3, "8965d5fd72ed94fb1a6ed3200318e97927727300fadcc21e490fc899f83f5fea"),
    ("d716", "verify d716 --p 3 --f 1 --n 2", 0,
     "4090da0d21286a60f5dae4d961612564ea10add7fe8ff75f8f8d3d3ead29ea96"),
    ("separation", "verify separation --p 5 --f 1 --n 2", 0,
     "81a5b89a8853a7a5c1673718a985ac7424cb055ec1d773ffe1b592d66154f26e"),
    ("char-m1-r1-budget0", "char --p 3 --f 1 --m 1 --r 1 --budget 0", 0,
     "2b3150a428232fb01cacb4d061c44b5be535c38b91448457ec9e198e3a676251"),
    ("char-deep", "char --p 3 --f 1 --m 2 --r 2 --s 1 --deep", 0,
     "e47a691608e9d554aba56bcb9a64c6f597bc743c61239724bcae8bdcf5624e1f"),
    # r = 3: both nontrivial Frobenius twists scale the conjugates
    ("char-deep-r3", "char --p 3 --f 1 --m 2 --r 3 --s 1 --all-lambda --deep",
     0, "43dada4fb7542aef91d22a05b56a0fc24b5834d1eda7c064ed96b563e8d38b9d"),
    ("jl-verify", "jl verify --p 3 --f 1 --m 1 --r 2 --s 1 --all-lambda", 0,
     "106c1b60627c2f1d2533a9113a52704407848bb676b0d41cb5f376e034ae78e9"),
    ("epsilon", "epsilon --p 3 --f 1 --m 1 --r 2 --s 1 --twist-unit 1 "
     "--twist-varpi-order 4 --twist-varpi-power 1", 0,
     "167db50c4d93c437276e729feb85b3ec5ef7dc00abcc5ae1e69df6951538de9e"),
    # n = 6, r = 3: tau = epsilon reads rtrace(phi_inverse) and rnorm(phi)
    ("epsilon-n6", "epsilon --p 3 --f 1 --m 2 --r 3 --s 1 --twist-unit 1 "
     "--twist-varpi-order 4 --twist-varpi-power 1", 0,
     "dd1177bda3bc2da3ca589d420dd8d0bcd1d0126a82f2cf69930cd50b5c712b62"),
    ("csa-selftest", "csa selftest --p 2 --f 1 --m 2 --r 2 --s 1", 0,
     "f27f3bdba81009c3483dd9701e44838a8ab12af72f92d7c54af5e5de73e9a9a6"),
    ("char-order-membership-undetermined",
     "char --p 3 --f 1 --m 2 --r 1 --precision 0", 3,
     "6ddba50527940beca3682ce51f4d26b667184f18b6b699f5f8ce82eb58f27814"),
    ("csa-selftest-n6", "csa selftest --p 3 --f 1 --m 2 --r 3 --s 1", 0,
     "d4763568801ea12c3c303efe3d9e6b6215f12db2c3d2e79f6d57bdc82d2779a3"),
    ("csa-selftest-n6-prec30",
     "csa selftest --p 2 --f 1 --m 3 --r 2 --s 1 --precision 30", 0,
     "9ec9e45c18d794c911956269c5df3eef64f70c719a561d83a2e7de36aef3ebfe"),
    ("jl-verify-p2-r3",
     "jl verify --p 2 --f 1 --m 1 --r 3 --s 2 --all-lambda --samples 2", 0,
     "1a74569c9c4932b058a4e257535cc383bdeee713e9679e79fd1a90b1c4345969"),
    ("jl-verify-q4-m2-r3-s2",
     "jl verify --p 2 --f 2 --m 2 --r 3 --s 2 --samples 2", 0,
     "8ef66088247ab3335eddd17c3bc160febe57f7ddbce3b6a2dcee182e58a3cea3"),
    ("jl-verify-p3-m3-r2-prec12",
     "jl verify --p 3 --f 1 --m 3 --r 2 --s 1 --samples 2 --precision 12", 0,
     "df40d483577ba75af1201031a0459fb14bdd4d06c4fd4463e348ae1981f29a0c"),
    # the central character and endo-class label of M_2(D_3) over F_9
    # against those of M_6(K)
    ("jl-invariants-q9-m2-r3",
     "jl invariants --p 3 --f 2 --m 2 --r 3 --s 1 --zeta 3 --chi 2 "
     "--c-order 4 --c-power 1", 0,
     "07d87d7c77d686a7e5b6a849e22e14c51e9e7c724cd5d4011696b43fefe0af2e"),
    ("gauss-q61", "sums gauss --p 61 --f 1", 0,
     "f596ac46ab0e4352391a77d217093eaf421a7cc97d200760cc5e08968c5dbd11"),
    ("restricted-gauss-p2", "sums restricted-gauss --p 2 --f 3 --n 7 "
     "--a-dlog 2", 0,
     "4d7780c0a7b995f3f8bbe364f6b34b87abf3664149d4c8d5c02cc0cf05b06094"),
    ("restricted-gauss-zero-nq2",
     "sums restricted-gauss --p 7 --f 1 --n 2 --a-zero", 0,
     "21de72fb5452fe154bf98ed88a816082f2fc6a4affc38cef33b10ae85a21f33a"),
    ("fourier-q9-n2", "verify fourier --p 3 --f 2 --n 2", 0,
     "9fe03cadabe3318e325aa165a5afd4de4428ba257534f90359f0faaa4a6618e5"),
    ("norm-fiber-gf2-20",
     "sums norm-fiber --p 2 --f 4 --l 5 --lambda-dlog 7", 0,
     "58d35d554ef48454ea972165915dfc951de99c853eb4fd770eda5623ff237e7a"),
    ("fourier-q64-n3", "verify fourier --p 2 --f 6 --n 3", 0,
     "4f2000609d6a07dee1b58c384b6e2b2e2795351a13e2b46401a34bd1029477d7"),
    ("d725-q9-r6", "verify d725 --p 3 --f 2 --m 1 --r 6 --lambda-dlog 3", 0,
     "6742067d4890883b271be5e7531817043fedde4587d6e1914d689902b5877563"),
    ("separation-q47-n3", "verify separation --p 47 --f 1 --n 3", 0,
     "e1edf516d059249ec3ac729b7adff5f8aa36a79735900aac48fad7e47cbcbb64"),
    ("separation-q81-n3", "verify separation --p 3 --f 4 --n 3", 0,
     "c3a1c92acefbbc06684a37512ba36f8b9e738df8e225f46c46851ebaccc1c6a8"),
    ("d716-q7-n4", "verify d716 --p 7 --f 1 --n 4", 0,
     "2cc53c106ac671564f53b9c258def62f4654e4cadb4b4a2b8caab0146aedca21"),
    # one ratio each: the rows are read without finishing the table
    ("separation-q61-n3-one-ratio",
     "verify separation --p 61 --f 1 --n 3 --aprime-dlog 4", 0,
     "632cd34d10bb4669d61bf2f2acc06171edbbad45931db1c028490e7cd4dfa57a"),
    ("separation-q47-n3-one-ratio",
     "verify separation --p 47 --f 1 --n 3 --aprime-dlog 7", 0,
     "8a48279f6f974871e0516ae07e8809d9e5f462b58c0a622e590d0dc313c30449"),
    ("separation-q81-n3-one-ratio",
     "verify separation --p 3 --f 4 --n 3 --aprime-dlog 10", 0,
     "97d30094b8a1ffd4fd48ef3b4462e5365ae2907182b24f2d5b09223239c9e856"),
    # 6**25 > 2**63: the rows hold Python integers
    ("separation-q7-n25-one-ratio",
     "verify separation --p 7 --f 1 --n 25 --aprime-dlog 2", 0,
     "e8ddf80ba86b8a9d8721b2025847326297003b7904703604b17e7eec7f5859fb"),
    # products and reductions in Z[zeta_3660] (degree 960) and
    # Z[zeta_2162] (degree 1012)
    ("d716-q61-n2-chi7", "verify d716 --p 61 --f 1 --n 2 --chi 7", 0,
     "9e44d48c51b8a5bb9f8ada079aa3bacb44e6fa5ee8d89da3fcff2c7f45643564"),
    ("d716-q47-n3-chi5", "verify d716 --p 47 --f 1 --n 3 --chi 5", 0,
     "6fee287f155f2542cc983163d8eaa997daa1ecc34cad2c97d11477626583aa5e"),
]


def mostly(valid, edge):
    """One of valid three draws in four, else a boundary or negative
    value from edge."""
    valid, edge = list(valid), list(edge)
    return st.sampled_from(valid * 3 * len(edge) + edge * len(valid))


# Flags of each verb beyond --p, --f, --m, --r and --s, as (flag, values,
# required); values None marks a switch.  Orders stay small, so no draw
# can ask for a huge ring or field.
SMALL = mostly([1, 2, 3], [-1, 0, 4])
DLOG = st.integers(-2, 9)
ORDER = mostly([1, 2, 4], [-1, 0])
TWIST = ("--psi-twist", DLOG, False)
ETA = [("--zeta", DLOG, False), ("--chi", DLOG, False),
       ("--c-order", ORDER, False), ("--c-power", DLOG, False), TWIST]
SAMPLES = ("--samples", st.integers(-1, 2), False)
LAMBDA = ("--lambda-dlog", DLOG, False)
VERB_FLAGS = {
    ("sums", "gauss"): [("--chi", DLOG, False), TWIST],
    ("sums", "restricted-gauss"): [
        ("--n", SMALL, True), ("--chi", DLOG, False), TWIST,
        ("--a-dlog", DLOG, False), ("--a-zero", None, False)],
    ("sums", "kloosterman"): [("--l", SMALL, True), ("--a-dlog", DLOG, False),
                              TWIST],
    ("sums", "norm-fiber"): [("--l", SMALL, True), LAMBDA, TWIST],
    ("verify", "d716"): [("--n", SMALL, True), ("--chi", DLOG, False), TWIST],
    ("verify", "d725"): [LAMBDA, TWIST],
    ("verify", "fourier"): [("--n", SMALL, True), ("--chi", DLOG, False),
                            TWIST],
    ("verify", "separation"): [("--n", SMALL, True),
                               ("--aprime-dlog", DLOG, False), TWIST],
    ("char",): ETA + [LAMBDA, SAMPLES, ("--all-lambda", None, False),
                      ("--deep", None, False)],
    ("jl", "verify"): ETA + [LAMBDA, SAMPLES, ("--all-lambda", None, False)],
    ("jl", "invariants"): ETA,
    ("epsilon",): ETA + [("--twist-unit", DLOG, False),
                         ("--twist-varpi-order", ORDER, False),
                         ("--twist-varpi-power", DLOG, False)],
    ("csa", "selftest"): [],
}
# the verbs that take --m and --r, and those of them that take --s; n = m*r
# stays at most 3, which keeps the algebra small
M_R_VERBS = {("verify", "d725"), ("char",), ("jl", "verify"),
             ("jl", "invariants"), ("epsilon",), ("csa", "selftest")}
S_VERBS = M_R_VERBS - {("verify", "d725")}
M_R = mostly([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
             [(0, 2), (1, 0), (-1, 2), (2, -1), (-1, -1)])


@st.composite
def cli_argv(draw):
    """argv for one verb over a small field (or a boundary p or f), with
    small, boundary and negative flag values: every draw parses, so
    argparse itself never writes to stderr."""
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    argv = list(verb)
    argv += ["--p", str(draw(mostly([2, 3], [-1, 0, 1, 4])))]
    argv += ["--f", str(draw(mostly([1, 2], [-1, 0])))]
    if verb in M_R_VERBS:
        m, r = draw(M_R)
        argv += ["--m", str(m), "--r", str(r)]
        if verb in S_VERBS:
            # the twists prime to r in [1, r-1], or none
            valid = [s for s in range(1, r) if math.gcd(s, r) == 1]
            s = draw(mostly(valid or [None], [None, -1, 0, max(r, 1)]))
            if s is not None:
                argv += ["--s", str(s)]
    for flag, values, required in VERB_FLAGS[verb]:
        if required or draw(st.booleans()):
            argv += [flag] if values is None else [flag, str(draw(values))]
    for flag, values in (("--budget", [0, 5, -1]),
                         ("--precision", [-1, 0, 1, 2]),
                         ("--format", ["csv"]), ("--seed", [1])):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.sampled_from(values)))]
    return argv


class TestWorkedExamples:

    def test_kloosterman_value_is_minus_one(self, capsys):
        code, out = run(capsys, "sums", "kloosterman",
                        "--p", "3", "--f", "1", "--l", "2", "--a-dlog", "0")
        assert code == 0
        (record,) = lines(out)
        assert record["display"] == "-1"
        assert record["value"]["approx"] == [-1.0, 0.0]

    def test_d716_sweep_passes(self, capsys):
        code, out = run(capsys, "verify", "d716",
                        "--p", "3", "--f", "1", "--n", "2")
        assert code == 0
        records = lines(out)
        assert records[-1] == {"kind": "summary", "checks": 2,
                               "failures": 0, "ok": True}
        assert all(r["equal"] for r in records[:-1])

    def test_jl_verify_all_lambda_passes(self, capsys):
        code, out = run(capsys, "jl", "verify", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "2", "--s", "1", "--all-lambda")
        assert code == 0
        records = lines(out)
        assert records[0]["kind"] == "run_header"
        assert records[0]["parameters"]["transfer"]["sign"] == -1
        assert records[-1]["ok"] is True
        kinds = {r["kind"] for r in records[1:-1]}
        assert kinds == {"one_plus_phi", "g_u"}


    def test_jl_invariants_counts_every_comparison(self, capsys):
        code, out = run(capsys, "jl", "invariants", "--p", "3", "--f", "2",
                        "--m", "1", "--r", "2", "--s", "1", "--zeta", "3",
                        "--chi", "2", "--c-order", "4", "--c-power", "1")
        assert code == 0
        records = lines(out)
        assert records[0]["subcommand"] == "jl invariants"
        assert records[0]["parameters"]["transfer"]["sign"] == -1
        # varpi, every Teichmuller unit of F_9 at four powers of w, the label
        kinds = [r["kind"] for r in records[1:-1]]
        assert kinds == (["central_character"] * (1 + 8 * 4)
                         + ["endoclass_label"])
        assert records[-1] == {"kind": "summary", "checks": 34,
                               "failures": 0, "ok": True}

    def test_jl_invariants_mismatch_is_math_failure(self, capsys,
                                                    monkeypatch):
        label = ssc.endoclass_label
        monkeypatch.setattr(ssc, "endoclass_label",
                            lambda eta: {**label(eta), "n": eta.alg.m})
        code, out = run(capsys, "jl", "invariants", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "2", "--s", "1")
        assert code == 1
        records = lines(out)
        assert records[-2]["kind"] == "endoclass_label"
        assert records[-2]["match"] is False
        assert records[-1] == {"kind": "summary", "checks": 10,
                               "failures": 1, "ok": False}


class TestExitCodes:

    def test_missing_required_flag_is_usage(self, capsys):
        code, _ = run(capsys, "sums", "kloosterman", "--p", "3")
        assert code == 2

    def test_unknown_verb_is_usage(self, capsys):
        code, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_clean(self, capsys):
        code, _ = run(capsys, "--help")
        assert code == 0

    def test_invalid_twist_is_usage(self, capsys):
        code, out = run(capsys, "char", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "4", "--s", "2")
        assert code == 2
        (record,) = lines(out)
        assert record["kind"] == "error"
        assert record["error"] == "ValidationError"

    def test_budget_abort(self, capsys):
        code, out = run(capsys, "sums", "kloosterman", "--p", "3", "--f", "1",
                        "--l", "3", "--a-dlog", "0", "--budget", "3")
        assert code == 3
        (record,) = lines(out)
        assert record["error"] == "BudgetExceeded"

    def test_fourier_budget_abort(self, capsys):
        code, out = run(capsys, "verify", "fourier", "--p", "3", "--f", "2",
                        "--n", "2", "--budget", "0")
        assert code == 3
        (record,) = lines(out)
        assert record["error"] == "BudgetExceeded"

    def test_verify_has_no_csa_selftest(self, capsys):
        # the algebra selftest runs as `csa selftest` only
        code, _ = run(capsys, "verify", "csa-selftest", "--p", "2", "--f",
                      "1", "--m", "2", "--r", "2", "--s", "1")
        assert code == 2

    def test_negative_budget_is_usage(self, capsys):
        code, out = run(capsys, "sums", "kloosterman", "--p", "3", "--f", "1",
                        "--l", "3", "--a-dlog", "0", "--budget", "-1")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"

    @pytest.mark.parametrize("verb", [["char"], ["jl", "verify"]])
    def test_negative_samples_is_usage(self, capsys, verb):
        code, out = run(capsys, *verb, "--p", "3", "--f", "1", "--m", "1",
                        "--r", "2", "--s", "1", "--samples", "-1")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"

    @pytest.mark.parametrize("argv", [
        ["char", "--c-order", "0"],
        ["jl", "verify", "--c-order", "0"],
        ["epsilon", "--c-order", "0"],
        ["epsilon", "--twist-varpi-order", "0"],
    ], ids=["char", "jl-verify", "epsilon", "epsilon-twist"])
    def test_nonpositive_order_is_one_validation_record(self, capsys, argv):
        code = cli.main(argv + ["--p", "3", "--f", "1", "--m", "1",
                                "--r", "2", "--s", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        (record,) = lines(captured.out)
        assert record["kind"] == "error"
        assert record["error"] == "ValidationError"

    def test_fourier_reports_the_reduced_chi(self, capsys):
        # at q = 3, chi exponent 5 is exponent 1: every record says so
        _, five = run(capsys, "verify", "fourier", "--p", "3", "--f", "1",
                      "--n", "1", "--chi", "5")
        _, one = run(capsys, "verify", "fourier", "--p", "3", "--f", "1",
                     "--n", "1", "--chi", "1")
        assert five == one
        assert {r["parameters"]["chi_exponent"] for r in lines(five)
                if "parameters" in r} == {1}

    def test_separation_over_f2_is_usage(self, capsys):
        # F_2 has no ratio a' outside {0, 1}, so the sweep would check nothing
        code, out = run(capsys, "verify", "separation", "--p", "2",
                        "--f", "1", "--n", "2")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"

    def test_separation_zero_degree_is_usage(self, capsys):
        code, out = run(capsys, "verify", "separation", "--p", "5",
                        "--f", "1", "--n", "0")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"
        assert record["message"] == "n must be positive"

    @pytest.mark.parametrize("budget,code", [(10799, 3), (10800, 0)])
    def test_separation_budget_edge(self, capsys, budget, code):
        # the table at q = 61, n = 4 costs 3 * 60 * 60 = 10800 steps
        got, out = run(capsys, "verify", "separation", "--p", "61",
                       "--f", "1", "--n", "4", "--budget", str(budget))
        assert got == code
        records = lines(out)
        if code:
            assert [r["error"] for r in records] == ["BudgetExceeded"]
        else:
            assert len(records) == 60 and records[-1]["ok"] is True

    def test_unwritable_out_is_usage(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setitem(cli._DISPATCH, "sums",
                            lambda args: ran.append(args) or [])
        target = tmp_path / "missing" / "report.json"
        code, out = run(capsys, "sums", "gauss", "--p", "3", "--f", "1",
                        "--out", str(target))
        assert code == 2
        (record,) = lines(out)
        assert record["kind"] == "error"
        assert record["error"] == "FileNotFoundError"
        assert not ran  # the file is opened before the verb runs

    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("lost")
        monkeypatch.setattr(expsum, "gauss_sum", broken)
        code = cli.main(["sums", "gauss", "--p", "3", "--f", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 4
        (record,) = lines(captured.out)
        assert record == {"kind": "internal_error", "error": "KeyError",
                          "message": "'lost'"}
        assert "Traceback" in captured.err and "KeyError" in captured.err

    @pytest.mark.parametrize("error,code,kind", [
        (IdentityFailure, 1, "error"),
        (InvariantError, 4, "internal_error"),
        # a bare assert is a bug in the code, not a failed identity
        (AssertionError, 4, "internal_error")])
    def test_identity_failure_and_invariant_error(self, capsys, monkeypatch,
                                                  error, code, kind):
        def broken(*args, **kwargs):
            raise error("broke")
        monkeypatch.setattr(expsum, "separation_witnesses", broken)
        got = cli.main(["verify", "separation", "--p", "5", "--f", "1",
                        "--n", "2"])
        captured = capsys.readouterr()
        assert got == code
        (record,) = lines(captured.out)
        assert record == {"kind": kind, "error": error.__name__,
                          "message": "broke"}
        assert ("Traceback" in captured.err) == (code == 4)

    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_every_verb_keeps_the_exit_code_contract(self, argv):
        code, out, err = captured(cli.main, argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "internal_error" not in out, argv
        assert err == "", argv
        records = report_records(out, csv="--format" in argv)
        kinds = [record["kind"] for record in records]
        if code in (2, 3):
            # an abort prints its one error record and nothing else
            assert kinds == ["error"], argv
            return
        # every verb but sums compares, and ends with its one summary;
        # epsilon compares nothing at n = 1, where it has no tau row
        compares = argv[0] != "sums" and (argv[0] != "epsilon"
                                          or "normalized_tau" in kinds)
        assert kinds.count("summary") == compares, argv
        if compares:
            assert kinds[-1] == "summary", argv
            # the exit code is the summary's verdict
            assert code == (0 if records[-1]["ok"] else 1), argv
        else:
            assert code == 0, argv

    def test_interrupt_still_propagates(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(expsum, "gauss_sum", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sums", "gauss", "--p", "3", "--f", "1"])

    def test_failed_identity_is_math_failure(self, capsys, monkeypatch):
        ring = CycRing(2)
        broken = SumReport(kind="d716", parameters={"q": 3},
                           lhs=ring.zero(), rhs=ring.one(), equal=False)
        monkeypatch.setattr(expsum, "check_identity_716",
                            lambda *a, **kw: broken)
        code, out = run(capsys, "verify", "d716",
                        "--p", "3", "--f", "1", "--n", "2")
        assert code == 1
        assert lines(out)[-1]["ok"] is False


class TestReportShape:

    def test_char_report_is_framed(self, capsys):
        code, out = run(capsys, "char", "--p", "3", "--f", "1", "--m", "2",
                        "--r", "1", "--all-lambda", "--samples", "1")
        assert code == 0
        records = lines(out)
        assert records[0]["kind"] == "run_header"
        assert records[0]["subcommand"] == "char"
        assert records[0]["seed"] == 0
        assert records[-1]["kind"] == "summary"
        for row in records[1:-1]:
            assert set(row["closed_form"]) == {"ring", "coeffs", "approx"}
            assert row["match"] is True

    def test_epsilon_report(self, capsys):
        code, out = run(capsys, "epsilon", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "2", "--s", "1",
                        "--twist-unit", "1",
                        "--twist-varpi-order", "4", "--twist-varpi-power", "1")
        assert code == 0
        records = lines(out)
        kinds = [r["kind"] for r in records]
        assert kinds == ["run_header", "epsilon", "epsilon_twisted",
                         "normalized_tau", "summary"]
        assert records[1]["value"]["approx"] == [-1.0, 0.0]
        tau = records[3]
        assert tau["sign"] == -1 and tau["match"] is True
        assert tau["value"]["coeffs"] == \
            [-c for c in records[2]["value"]["coeffs"]]
        assert records[-1] == {"kind": "summary", "checks": 1,
                               "failures": 0, "ok": True}

    def test_epsilon_omits_tau_in_degree_one(self, capsys):
        # Trd(phi^{-1}) has a pole at n = 1: values only, no verdict
        code, out = run(capsys, "epsilon", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "1")
        assert code == 0
        kinds = [r["kind"] for r in lines(out)]
        assert kinds == ["run_header", "epsilon", "epsilon_twisted"]

    def test_epsilon_tau_mismatch_is_math_failure(self, capsys,
                                                  monkeypatch):
        tau = ssc.normalized_tau
        monkeypatch.setattr(ssc, "normalized_tau",
                            lambda eta, xi: -tau(eta, xi))
        code, out = run(capsys, "epsilon", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "2", "--s", "1",
                        "--twist-unit", "1",
                        "--twist-varpi-order", "4", "--twist-varpi-power", "1")
        assert code == 1
        records = lines(out)
        assert records[-2]["kind"] == "normalized_tau"
        assert records[-2]["match"] is False
        assert records[-1] == {"kind": "summary", "checks": 1,
                               "failures": 1, "ok": False}

    def test_csa_selftest(self, capsys):
        code, out = run(capsys, "csa", "selftest", "--p", "2", "--f", "1",
                        "--m", "1", "--r", "3", "--s", "2")
        assert code == 0
        records = lines(out)
        assert records[0]["subcommand"] == "csa selftest"
        assert records[0]["parameters"] == {"q": 2, "n": 3, "m": 1, "r": 3,
                                            "s": 2}
        rows = records[1:-1]
        assert rows and all(r["kind"] == "csa_check" and r["ok"] is True
                            for r in rows)
        assert records[-1] == {"kind": "summary", "checks": len(rows),
                               "failures": 0, "ok": True}

    def test_csa_selftest_failure_is_math_failure(self, capsys,
                                                  monkeypatch):
        selftest = csa.selftest
        monkeypatch.setattr(csa, "selftest", lambda *a, **kw: [
            {**row, "ok": row["check"] != "rnorm_phi"}
            for row in selftest(*a, **kw)])
        code, out = run(capsys, "csa", "selftest", "--p", "2", "--f", "1",
                        "--m", "2", "--r", "2", "--s", "1")
        assert code == 1
        summary = lines(out)[-1]
        assert summary["failures"] == 1 and summary["ok"] is False

    @pytest.mark.parametrize("records", [
        [],
        [{"kind": "run_header", "parameters": {}}],
        [{"kind": "epsilon", "value": {"coeffs": [1]}}],
    ], ids=["empty", "header-only", "values-only"])
    def test_summary_of_no_verdict_is_not_ok(self, records):
        assert cli._summary(records) == {"kind": "summary", "checks": 0,
                                         "failures": 0, "ok": False}

    def test_report_that_checks_nothing_exits_one(self, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(ssc, "character_relation_check",
                            lambda *a, **kw: [])
        code, out = run(capsys, "jl", "verify", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "2", "--s", "1")
        assert code == 1
        assert lines(out)[-1] == {"kind": "summary", "checks": 0,
                                  "failures": 0, "ok": False}

    def test_verify_d725(self, capsys):
        code, out = run(capsys, "verify", "d725", "--p", "2", "--f", "2",
                        "--m", "1", "--r", "2")
        assert code == 0
        records = lines(out)
        assert len(records) == 4
        assert all(r["kind"] == "d725" for r in records[:-1])

    def test_verify_fourier_and_separation(self, capsys):
        code, out = run(capsys, "verify", "fourier",
                        "--p", "3", "--f", "1", "--n", "2", "--chi", "1")
        assert code == 0
        kinds = [r["kind"] for r in lines(out)]
        assert kinds == ["gn_nonzero", "fourier_inversion", "summary"]
        code, out = run(capsys, "verify", "separation",
                        "--p", "2", "--f", "2", "--n", "2")
        assert code == 0
        records = lines(out)
        assert all(r["witness_dlog"] is not None for r in records[:-1])

    def test_restricted_gauss_at_zero(self, capsys):
        code, out = run(capsys, "sums", "restricted-gauss", "--p", "3",
                        "--f", "1", "--n", "2", "--chi", "1", "--a-zero")
        assert code == 0
        (record,) = lines(out)
        assert record["parameters"]["a_dlog"] is None

    def test_norm_fiber_sum(self, capsys):
        code, out = run(capsys, "sums", "norm-fiber", "--p", "3", "--f", "1",
                        "--l", "2", "--lambda-dlog", "0")
        assert code == 0
        (record,) = lines(out)
        assert record["value"]["coeffs"][0] != 0 or record["display"] != "0"

    def test_out_file_captures_everything(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "verify", "d716", "--p", "3", "--f", "1",
                        "--n", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        dumped = [json.loads(line)
                  for line in target.read_text().splitlines()]
        assert dumped[-1]["ok"] is True

    def test_csv_flattens_nested_values(self, capsys):
        code, out = run(capsys, "sums", "gauss", "--p", "3", "--f", "1",
                        "--chi", "1", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        columns = header.split(",")
        assert "parameters.q" in columns
        assert "value" in columns
        cell = row.split(",")[columns.index("value")]
        assert "j" in cell

    def test_csv_has_one_row_per_csa_check(self, capsys):
        argv = ["csa", "selftest", "--p", "2", "--f", "1", "--m", "2",
                "--r", "2", "--s", "1"]
        code, out = run(capsys, *argv)
        assert code == 0
        checks = [(r["check"], str(r["ok"])) for r in lines(out)
                  if r["kind"] == "csa_check"]
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv_mod.DictReader(io.StringIO(out)))
        assert [row["kind"] for row in rows] == \
            ["run_header"] + ["csa_check"] * len(checks) + ["summary"]
        assert [(row["check"], row["ok"]) for row in rows[1:-1]] == checks
        assert rows[-1]["checks"] == str(len(checks))


    @pytest.mark.parametrize("command,header", [
        ("epsilon --p 3 --f 1 --m 1 --r 2 --s 1 --twist-unit 1 "
         "--twist-varpi-order 4 --twist-varpi-power 1",
         "budget,checks,failures,kind,match,ok,parameters.eta.c.order,"
         "parameters.eta.c.power,"
         "parameters.eta.chi_j,parameters.eta.conductor,"
         "parameters.eta.psi_twist_dlog,parameters.eta.q,"
         "parameters.eta.side.m,parameters.eta.side.r,parameters.eta.side.s,"
         "parameters.eta.zeta_dlog,parameters.xi.unit_j,"
         "parameters.xi.varpi.order,parameters.xi.varpi.power,precision,"
         "seed,sign,subcommand,tool,value"),
        ("char --p 3 --f 1 --m 2 --r 2 --s 1 --deep",
         "budget,checks,closed_form,direct_sum,failures,kind,match,ok,"
         "parameters.c.order,parameters.c.power,parameters.chi_j,"
         "parameters.conductor,parameters.psi_twist_dlog,parameters.q,"
         "parameters.side.m,parameters.side.r,parameters.side.s,"
         "parameters.zeta_dlog,params.lambda_dlog,params.route,"
         "params.trd_residue,precision,seed,subcommand,tool"),
    ], ids=["epsilon", "char-deep"])
    def test_csv_header_is_frozen(self, capsys, command, header):
        code, out = run(capsys, *command.split(), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == header


def walked_parser(argv):
    """The parser reached by stepping into a subparser while the next token
    is exactly one of its names, read off the argparse actions."""
    parser = cli._tree()[0]
    for token in argv:
        names = next((action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)), {})
        if token not in names:
            break
        parser = names[token]
    return parser


def full_tree_parse(argv):
    """The oracle for cli._parse: parse_args over the whole tree, with the
    error on leftover tokens made by the parser the walk reached."""
    namespace, extra = cli._tree()[0].parse_known_args(argv)
    if extra:
        walked_parser(argv).error(
            "unrecognized arguments: " + " ".join(extra))
    return namespace


SEP = ["verify", "separation", "--p", "3", "--f", "2", "--n", "3"]
GAUSS = ["sums", "gauss", "--p", "3", "--f", "1"]
# argv whose exit code, stdout and stderr through cli.main must be those
# of the full-tree parse: help and usage errors at every level, and runs
ORACLE_ARGV = {
    "help": ["-h"],
    "help-long": ["--help"],
    "help-abbreviated": ["--he"],
    "help-before-verb": ["-h", "verify"],
    "help-sums": ["sums", "-h"],
    "help-sums-gauss": GAUSS[:2] + ["--help"],
    "help-sums-restricted-gauss": ["sums", "restricted-gauss", "-h"],
    "help-sums-kloosterman": ["sums", "kloosterman", "-h"],
    "help-sums-norm-fiber": ["sums", "norm-fiber", "-h"],
    "help-verify": ["verify", "-h"],
    "help-before-check": ["verify", "-h", "separation"],
    "help-verify-d716": ["verify", "d716", "-h"],
    "help-verify-d725": ["verify", "d725", "-h"],
    "help-verify-fourier": ["verify", "fourier", "-h"],
    "help-verify-separation": SEP[:2] + ["-h"],
    "help-abbreviated-leaf": SEP[:2] + ["--h"],
    "help-char": ["char", "-h"],
    "help-jl": ["jl", "-h"],
    "help-jl-verify": ["jl", "verify", "-h"],
    "help-jl-invariants": ["jl", "invariants", "-h"],
    "help-epsilon": ["epsilon", "-h"],
    "help-csa": ["csa", "-h"],
    "help-csa-selftest": ["csa", "selftest", "-h"],
    "help-after-flags": SEP + ["-h"],
    "empty": [],
    "unknown-verb": ["frobnicate"],
    "verb-case": ["Verify", "separation"],
    "unknown-check": ["verify", "bogus"],
    "missing-check": ["verify"],
    "missing-jl-command": ["jl"],
    "missing-flags": GAUSS[:2],
    "missing-n": SEP[:-2],
    "missing-value": GAUSS + ["--chi"],
    "non-integer": ["sums", "gauss", "--p", "x", "--f", "1"],
    "bad-format": GAUSS + ["--format", "xml"],
    "unknown-flag-before-check": ["verify", "--zzz"] + SEP[1:],
    "unknown-flag-after-check": SEP + ["--zzz"],
    "unknown-short-flag": GAUSS + ["-x"],
    "stray-positional": SEP + ["stray"],
    "flag-before-check": ["verify", "--p", "3", "separation"],
    "equals-value": ["sums", "gauss", "--p=3", "--f", "1"],
    "abbreviated-flag": SEP + ["--apr", "1"],
    "ambiguous-abbreviation": ["char", "--p", "3", "--f", "1", "--m", "1",
                               "--r", "1", "--c", "1"],
    "repeated-flag": ["sums", "gauss", "--p", "5", "--p", "3", "--f", "1"],
    "double-dash-last": GAUSS + ["--"],
    "double-dash-before-flags": GAUSS[:2] + ["--"] + GAUSS[2:],
    "double-dash-before-verb": ["--"] + GAUSS,
    "negative-value": ["verify", "d725", "--p", "2", "--f", "1", "--m", "1",
                       "--r", "1", "--psi-twist", "-1"],
    "run-separation": SEP,
    "run-gauss-csv": GAUSS + ["--format", "csv"],
    "run-budget-abort": ["sums", "kloosterman", "--p", "3", "--f", "1",
                         "--l", "3", "--budget", "0"],
    "run-validation": ["verify", "separation", "--p", "2", "--f", "1",
                       "--n", "2"],
    "run-char": ["char", "--p", "3", "--f", "1", "--m", "1", "--r", "1",
                 "--samples", "0"],
    "run-jl": ["jl", "verify", "--p", "3", "--f", "1", "--m", "1", "--r", "2",
               "--s", "1", "--samples", "0"],
    "run-jl-invariants": ["jl", "invariants", "--p", "3", "--f", "1",
                          "--m", "1", "--r", "2", "--s", "1"],
    "run-epsilon": ["epsilon", "--p", "3", "--f", "1", "--m", "1", "--r", "2",
                    "--s", "1"],
    "run-csa": ["csa", "selftest", "--p", "2", "--f", "1", "--m", "1",
                "--r", "1"],
}
# tokens to splice into a valid argv: help, stray and unknown tokens,
# subcommand names out of place, and flags cut short or left without value
SPLICE = ["-h", "--help", "--he", "--", "-", "--zzz", "-x", "stray", "-1",
          "--p", "--p=2", "--apr", "--format", "xml", "--seed", "verify",
          "separation", "sums", "jl", "csa", "selftest", "char", "="]


class TestParseWalk:
    """cli._parse walks to the command's own parser; the full-tree parse
    is its oracle, in namespace, exit code, stdout and stderr, with
    leftover tokens reported by the parser the walk reached."""

    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_walk_gives_the_full_tree_namespace(self, argv):
        assert vars(cli._parse(argv)) == vars(full_tree_parse(argv))

    @given(cli_argv(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_spliced_argv_parses_as_the_full_tree(self, argv, data):
        at = data.draw(st.integers(0, len(argv)), label="at")
        tokens = data.draw(st.lists(st.sampled_from(SPLICE), min_size=1,
                                    max_size=2), label="tokens")
        argv = argv[:at] + tokens + argv[at:]
        assert captured(cli._parse, argv) == captured(full_tree_parse, argv)

    @pytest.mark.parametrize("argv", list(ORACLE_ARGV.values()),
                             ids=list(ORACLE_ARGV))
    def test_main_prints_what_the_full_tree_prints(self, argv, monkeypatch):
        walked = captured(cli.main, argv)
        # argv=None reads sys.argv, as the jlcs console script does
        monkeypatch.setattr(sys, "argv", ["jlcs", *argv])
        assert captured(lambda _: cli.main(), None) == walked
        monkeypatch.setattr(cli, "_parse", full_tree_parse)
        assert captured(cli.main, argv) == walked

    def test_leftover_tokens_are_reported_by_the_command(self):
        code, out, err = captured(cli.main, SEP + ["--zzz"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: jlcs verify separation [-h] ")
        assert err.endswith("\njlcs verify separation: error: "
                            "unrecognized arguments: --zzz\n")

    def test_the_table_asks_every_parser_for_help(self):
        top, commands = cli._tree()
        helped = {tuple(argv[:-1]) for argv in ORACLE_ARGV.values()
                  if argv[-1:] in (["-h"], ["--help"])}
        stack = [((), top)]
        while stack:
            path, parser = stack.pop()
            assert path in helped, path
            _, names = commands.get(parser, (None, {}))
            stack += [(path + (name,), sub) for name, sub in names.items()]


class TestDeterminism:

    def test_parser_is_built_once(self):
        assert cli._tree() is cli._tree()

    def test_shared_parser_keeps_runs_apart(self, capsys):
        argv = ["sums", "gauss", "--p", "3", "--f", "1", "--chi", "1"]
        _, csv_out = run(capsys, *argv, "--format", "csv")
        _, json_out = run(capsys, *argv)
        assert csv_out.splitlines()[0].startswith("display,")
        (record,) = lines(json_out)
        assert record["kind"] == "gauss"

    def test_separation_reports_the_reduced_ratio(self, capsys):
        # dlog 5 and dlog 1 name the same a' in F_5
        argv = ["verify", "separation", "--p", "5", "--f", "1", "--n", "2"]
        _, wrapped = run(capsys, *argv, "--aprime-dlog", "5")
        _, reduced = run(capsys, *argv, "--aprime-dlog", "1")
        assert wrapped == reduced
        assert lines(reduced)[0]["parameters"]["aprime_dlog"] == 1

    def test_separation_builds_only_z_zeta_p(self, capsys, monkeypatch):
        # the rows are compared as counts, so psi needs no (q-1)-th roots
        orders = []

        def recorded(*args):
            orders.append(args)
            return ring_for(*args)

        monkeypatch.setattr(cli, "ring_for", recorded)
        code, out = run(capsys, "verify", "separation", "--p", "61",
                        "--f", "1", "--n", "3", "--aprime-dlog", "4")
        assert code == 0 and orders == [(61,)]
        assert lines(out)[0]["witness_dlog"] is not None

    @pytest.mark.parametrize("argv", [
        "sums kloosterman --p 61 --f 1 --l 2 --a-dlog 0",
        "sums kloosterman --p 7 --f 2 --l 3 --a-dlog 5 --psi-twist 3",
        "sums norm-fiber --p 61 --f 1 --l 2 --lambda-dlog 3",
        "sums norm-fiber --p 3 --f 2 --l 3 --lambda-dlog 1 --psi-twist 2"])
    def test_psi_only_sums_build_only_z_zeta_p(self, capsys, monkeypatch,
                                               argv):
        # a sum of psi's values alone lies in Z[zeta_p]
        orders = []

        def recorded(*args):
            orders.append(args)
            return ring_for(*args)

        monkeypatch.setattr(cli, "ring_for", recorded)
        code, out = run(capsys, *argv.split())
        p = int(argv.split()[3])
        assert code == 0 and orders == [(p,)]
        assert lines(out)[0]["value"]["ring"] == p

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["char", "--p", "3", "--f", "1", "--m", "2", "--r", "1",
                "--lambda-dlog", "1", "--samples", "2"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_kloosterman_report_matches_enumeration(self, capsys):
        # the reported value is the literal sum over unit triples of F_5,
        # written in Z[zeta_5]
        k = ff.make_field(5, 1)
        psi = AddChar(k, k.one(), ring_for(5))
        units = [x for x in k.elements() if not x.is_zero()]
        for t in range(k.order):
            a = k.from_dlog(t)
            want = psi.ring.zero()
            for x, y in itertools.product(units, repeat=2):
                want = want + psi.eval(x + y + a / (x * y))
            code, out = run(capsys, "sums", "kloosterman", "--p", "5",
                            "--f", "1", "--l", "3", "--a-dlog", str(t))
            assert code == 0
            (record,) = lines(out)
            assert record["value"] == want.to_json()

    @pytest.mark.parametrize("command,code,digest",
                             [row[1:] for row in FROZEN_REPORTS],
                             ids=[row[0] for row in FROZEN_REPORTS])
    def test_reports_are_frozen(self, capsys, command, code, digest):
        got_code, out = run(capsys, *command.split())
        assert got_code == code
        records = lines(out)
        text = "".join(json.dumps(without_approx(record), sort_keys=True,
                                  separators=(",", ":")) + "\n"
                       for record in records)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if records[-1]["kind"] == "summary":
            # the exit code is the summary's verdict
            assert (got_code == 0) == records[-1]["ok"]

    def test_seed_changes_sampled_rows_only(self, capsys):
        argv = ["jl", "verify", "--p", "5", "--f", "1", "--m", "2", "--r",
                "1", "--samples", "4"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv, "--seed", "7")
        a, b = lines(first), lines(second)
        assert a[0]["seed"] == 0 and b[0]["seed"] == 7
        assert len(a) == len(b)
        residues = lambda recs: [r["params"].get("trd_residue")
                                 for r in recs if r["kind"] == "g_u"]
        assert residues(a) != residues(b)
        assert all(r["match"] for r in a[1:-1] + b[1:-1])
