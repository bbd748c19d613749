"""The schema check of scripts/bench_record.py on the checked-in
BENCH_*.json files and on broken copies of them; no timing runs."""

import argparse
import copy
import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_recorded_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_checked_in_files_are_valid(path):
    assert bench_record.problems(json.loads(path.read_text())) == []
    assert bench_record.main(["--check", str(path)]) == 0


def broken_copies(doc):
    """(what was broken, the broken document)"""
    out = []
    d = copy.deepcopy(doc)
    del d["machine"]
    out.append(("missing key", d))
    d = copy.deepcopy(doc)
    d["parent"]["commit"] = "abc"
    out.append(("short commit", d))
    d = copy.deepcopy(doc)
    d["runs"][0]["side"] = "change" if d["runs"][0]["side"] == "parent" \
        else "parent"
    out.append(("pair without a parent run", d))
    d = copy.deepcopy(doc)
    name = sorted(d["runs"][0]["metrics"])[0]
    # raising one run alone can leave every quartile and win in place (the
    # top run of a side stays on top); raising every run moves them all
    for run in d["runs"]:
        run["metrics"][name] += 1.0
    out.append(("summary out of date", d))
    d = copy.deepcopy(doc)
    d["runs"][1]["metrics"].pop(name)
    out.append(("metric missing from one run", d))
    d = copy.deepcopy(doc)
    d["runs"][0]["metrics"][name] = "fast"
    out.append(("metric not a number", d))
    return out


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_broken_copies_are_rejected(path, tmp_path):
    doc = json.loads(path.read_text())
    for what, broken in broken_copies(doc):
        assert bench_record.problems(broken), what
        bad = tmp_path / "BENCH_broken.json"
        bad.write_text(json.dumps(broken))
        assert bench_record.main(["--check", str(bad)]) == 1, what


def test_unreadable_or_no_files_fail(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    assert bench_record.main(["--check", str(bad)]) == 1
    assert bench_record.main(["--check"]) == 1


def head_src_digest() -> str:
    """src_digest of HEAD's committed sources, read through git show."""
    names = bench_record.git("ls-tree", "-r", "--name-only", "HEAD",
                             "src").splitlines()
    h = hashlib.sha256()
    for name in sorted((n for n in names if n.endswith(".py")), key=Path):
        h.update(name.encode() + b"\0")
        h.update(subprocess.run(["git", "show", f"HEAD:{name}"], cwd=ROOT,
                                check=True, capture_output=True).stdout
                 + b"\0")
    return h.hexdigest()


def test_both_sides_run_from_git_exports(monkeypatch):
    try:
        bench_record.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    seen = []

    def fake_run_bench(root, args, seed):
        # an export of the committed files, not the repository itself,
        # with no bytecode cache for the run to read
        assert root.resolve() != ROOT and (root / "src" / "jlcs").is_dir()
        assert not list(root.rglob("__pycache__"))
        seen.append(root)
        return {"algebra.checks_per_s": float(seed + len(seen))}

    monkeypatch.setattr(bench_record, "run_bench", fake_run_bench)
    args = argparse.Namespace(label="test", workload="algebra", pairs=2,
                              seed=0, trace=0, parent="HEAD")
    doc = bench_record.measure(args)
    assert len(seen) == 4 and len(set(seen)) == 2
    head = bench_record.git("rev-parse", "HEAD")
    assert doc["change"] == {"commit": head, "src_sha256": head_src_digest()}
    assert bench_record.problems(doc) == []
    # the exports are gone
    assert not any(root.exists() for root in seen)
