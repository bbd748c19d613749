"""scripts/grid_sweep.py: the acceptance grid through the command line.
CI runs all 728 commands (n <= 6); these tests run the 98 with n <= 2."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "grid_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("grid_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_sweep(sweep, tmp_path, max_n):
    out = tmp_path / "sweep.jsonl"
    code = sweep.main(["--max-n", str(max_n), "--out", str(out)])
    return code, [json.loads(line) for line in out.read_text().splitlines()]


def test_grid_commands(sweep):
    # 147 inner forms with n <= 6, five commands each, and no epsilon at
    # n = 1 (one inner form per q)
    assert len(list(sweep.configurations(6))) == 147
    assert len(list(sweep.commands(6))) == 147 * 5 - 7
    assert len(list(sweep.commands(2))) == 21 * 5 - 7


def test_sweep_to_n2_passes(sweep, tmp_path):
    code, rows = run_sweep(sweep, tmp_path, 2)
    assert code == 0
    *commands, summary = rows
    assert len(commands) == 98
    for row in commands:
        assert row["code"] == 0, row["argv"]
        assert row["summary"]["ok"] and row["summary"]["checks"] >= 1, \
            row["argv"]
    assert summary == {"kind": "summary", "checks": 98, "failures": 0,
                       "ok": True}


def test_empty_sweep_is_not_ok(sweep, tmp_path):
    code, rows = run_sweep(sweep, tmp_path, 0)
    assert code == 1
    assert rows == [{"kind": "summary", "checks": 0, "failures": 0,
                     "ok": False}]


def test_failing_command_fails_the_sweep(sweep, monkeypatch):
    # a command that exits 1 is a failed check of the sweep
    monkeypatch.setattr(sweep.cli, "main", lambda argv: print(
        '{"checks":1,"failures":1,"kind":"summary","ok":false}') or 1)
    row = sweep.run(["csa", "selftest", "--p", "2", "--f", "1",
                     "--m", "1", "--r", "1"])
    assert row["code"] == 1 and row["ok"] is False
    assert row["summary"]["failures"] == 1
