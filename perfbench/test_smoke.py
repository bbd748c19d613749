"""Smoke test of the benchmark harness itself, on tiny grids.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--tiny",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {tuple(line.split()[:2]): line.split()[3]
               for line in lines[:-1] if not line.startswith("#")}
    for workload in wl.WORKLOADS:
        assert printed[(workload, "failed_frac")] == "1"
        for metric in declared:
            assert printed[(workload, metric["name"])] == metric["unit"]
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_single_workload_result_has_exactly_the_declared_metrics():
    proc = bench("--workload", "bigring", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_seed_changes_only_the_sampled_algebra_inputs():
    params = wl.setup("algebra", tiny=True)
    for workload in wl.WORKLOADS:
        for job in wl.job_list(workload, tiny=True):
            # the seed never reaches a command line
            assert job[0] != "cli" or "--seed" not in job[1]

    def inputs(seed):
        return [json.dumps([_flat(x) for x in
                            wl.sample_inputs(job, params, seed)])
                for job in wl.job_list("algebra", tiny=True)]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def _flat(x):
    if isinstance(x, tuple):
        zeta, u = x
        return [zeta.packed, u.to_json()]
    return x.to_json()


def test_vacuous_summary_fails_the_gate():
    out = '{"checks":0,"failures":0,"kind":"summary","ok":true}\n'
    with pytest.raises(wl.JobFailed):
        wl.check_cli(("verify", "separation"), 0, out)
    with pytest.raises(wl.JobFailed):
        wl.check_cli(("verify", "separation"), 1, "")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sums", cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert "correct" not in proc.stdout
