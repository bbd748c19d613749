import itertools
import json

import pytest

from jlcs import cli, expsum, ff
from jlcs.chars import AddChar
from jlcs.cyc import CycRing, ring_for
from jlcs.expsum import SumReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def lines(out):
    return [json.loads(line) for line in out.splitlines()]


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

    def test_negative_budget_is_usage(self, capsys):
        code, out = run(capsys, "sums", "kloosterman", "--p", "3", "--f", "1",
                        "--l", "3", "--a-dlog", "0", "--budget", "-1")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"

    def test_separation_over_f2_is_usage(self, capsys):
        # F_2 has no ratio a' outside {0, 1}, so the sweep would check nothing
        code, out = run(capsys, "verify", "separation", "--p", "2",
                        "--f", "1", "--n", "2")
        assert code == 2
        (record,) = lines(out)
        assert record["error"] == "ValidationError"

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
                         "normalized_tau"]
        assert records[1]["value"]["approx"] == [-1.0, 0.0]

    def test_epsilon_omits_tau_in_degree_one(self, capsys):
        code, out = run(capsys, "epsilon", "--p", "3", "--f", "1",
                        "--m", "1", "--r", "1")
        assert code == 0
        kinds = [r["kind"] for r in lines(out)]
        assert "normalized_tau" not in kinds

    def test_csa_selftest(self, capsys):
        code, out = run(capsys, "csa", "selftest", "--p", "2", "--f", "1",
                        "--m", "1", "--r", "3", "--s", "2")
        assert code == 0
        (record,) = lines(out)
        assert record["ok"] is True
        assert all(c["ok"] for c in record["checks"])

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


class TestDeterminism:

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["char", "--p", "3", "--f", "1", "--m", "2", "--r", "1",
                "--lambda-dlog", "1", "--samples", "2"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_kloosterman_report_matches_enumeration(self, capsys):
        # the reported value is the literal sum over unit triples of F_5
        k = ff.make_field(5, 1)
        psi = AddChar(k, 1, ring_for(5, k.order))
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
