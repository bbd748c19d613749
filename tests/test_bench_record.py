"""The schema check of scripts/bench_record.py on the checked-in
BENCH_*.json files and on broken copies of them; no timing runs."""

import copy
import importlib.util
import json
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
