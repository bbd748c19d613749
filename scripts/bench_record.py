#!/usr/bin/env python3
"""Record a parent-versus-change benchmark comparison as BENCH_<label>.json.

Runs the repository's own perfbench/run.py in alternating pairs: one run on
the parent commit, one on this working tree, the order of the two flipped
from pair to pair so a drift of the host's speed falls on both sides
alike.  The parent's committed files are exported with `git archive` into
a temporary directory, deleted at the end; unlike a `git worktree`, the
export registers nothing in .git, so an interrupted run leaves nothing
behind.  Run it from the repository root:

    python3 scripts/bench_record.py --label zech --workload algebra \\
        --pairs 10 --seed 301
    python3 scripts/bench_record.py --check BENCH_*.json

The file holds the machine, the Python and numpy versions, both commits
with a digest of the sources each side ran, every run's metrics, and the
median and quartiles of each metric per side, with the number of pairs
the change won.  --check validates files against that schema (and that
the summaries agree with the runs) and does no timing; it exits 0 when
every file is valid and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import cpu_model  # noqa: E402
SCHEMA = 1
SIDES = ("parent", "change")
TOP_KEYS = {"schema", "label", "machine", "python", "numpy", "parent",
            "change", "workload", "trace", "seconds", "runs", "summary",
            "wins"}


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def src_digest(root: Path) -> str:
    """SHA-256 over the path and bytes of every source file under src/."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def run_bench(root: Path, args, seed: int) -> dict:
    """One run of root's perfbench/run.py; its metrics, keyed
    "<workload>.<metric>" whatever the number of workloads."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--trace", str(args.trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py failed in {root} "
                         f"with exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    single = args.workload != "all"
    return {(f"{args.workload}.{name}" if single else name): entry["value"]
            for name, entry in result["metrics"].items()}


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions() -> dict:
    spec = benchmark_spec()
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(runs: list, better: dict) -> tuple[dict, dict]:
    """Per side, the median and quartiles of every metric; per metric, the
    pairs in which the change beat the parent."""
    names = sorted(runs[0]["metrics"])
    summary = {side: {name: quartiles([r["metrics"][name] for r in runs
                                       if r["side"] == side])
                      for name in names}
               for side in SIDES}
    pairs = sorted({r["pair"] for r in runs})
    wins = {}
    for name in names:
        sign = 1 if better.get(name.rsplit(".", 1)[-1]) == "higher" else -1
        won = 0
        for pair in pairs:
            side = {r["side"]: r["metrics"][name] for r in runs
                    if r["pair"] == pair}
            won += sign * (side["change"] - side["parent"]) > 0
        wins[name] = won
    return summary, wins


def record(args) -> int:
    parent_rev = git("rev-parse", args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    parent_root = tmp / "tree"
    parent_root.mkdir()
    runs = []
    try:
        archive = tmp / "parent.tar"
        git("archive", "--format=tar", "-o", str(archive), parent_rev)
        subprocess.run(["tar", "-xf", str(archive), "-C", str(parent_root)],
                       check=True)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                metrics = run_bench(roots[side], args, seed)
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "metrics": metrics})
                print(f"pair {pair} {side}: " + json.dumps(metrics),
                      file=sys.stderr)
        digests = {side: src_digest(roots[side]) for side in SIDES}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary, wins = summarize(runs, directions())
    doc = {
        "schema": SCHEMA,
        "label": args.label,
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parent": {"commit": parent_rev, "src_sha256": digests["parent"]},
        "change": {"commit": head, "uncommitted_changes": dirty,
                   "src_sha256": digests["change"]},
        "workload": args.workload,
        "trace": args.trace,
        "seconds": benchmark_spec()["run_seconds"],
        "runs": runs,
        "summary": summary,
        "wins": wins,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


def problems(doc) -> list[str]:
    """Every way doc departs from the schema; empty when it is valid."""
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    out = []
    missing = TOP_KEYS - set(doc)
    if missing:
        return [f"missing keys {sorted(missing)}"]
    if doc["schema"] != SCHEMA:
        out.append(f"schema {doc['schema']!r} is not {SCHEMA}")
    for key in ("label", "python", "numpy", "workload"):
        if not isinstance(doc[key], str) or not doc[key]:
            out.append(f"{key} must be a non-empty string")
    if not isinstance(doc["machine"], dict) or "cpu" not in doc["machine"]:
        out.append("machine must name its cpu")
    for side in SIDES:
        info = doc[side]
        if not (isinstance(info, dict)
                and isinstance(info.get("commit"), str)
                and len(info["commit"]) == 40
                and isinstance(info.get("src_sha256"), str)
                and len(info["src_sha256"]) == 64):
            out.append(f"{side} needs a 40-digit commit and a src_sha256")
    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        return out + ["runs must be a non-empty list"]
    for i, run in enumerate(runs):
        if not (isinstance(run, dict) and run.get("side") in SIDES
                and isinstance(run.get("pair"), int)
                and isinstance(run.get("metrics"), dict)
                and run["metrics"]
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in run["metrics"].values())):
            return out + [f"run {i} needs side, pair and numeric metrics"]
    names = set(runs[0]["metrics"])
    if any(set(run["metrics"]) != names for run in runs):
        out.append("every run must report the same metrics")
        return out
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], []).append(run["side"])
    if any(sorted(sides) != sorted(SIDES) for sides in pairs.values()):
        out.append("every pair must hold one parent and one change run")
        return out
    summary, wins = summarize(runs, directions())
    if doc["summary"] != summary:
        out.append("summary disagrees with the runs")
    if doc["wins"] != wins:
        out.append("wins disagree with the runs")
    return out


def check(paths) -> int:
    bad = 0
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            found = [f"unreadable: {exc}"]
        else:
            found = problems(doc)
        for problem in found:
            print(f"{path}: {problem}", file=sys.stderr)
        bad += bool(found)
        if not found:
            print(f"{path}: ok")
    return 1 if bad or not paths else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", nargs="*", metavar="FILE",
                    help="validate BENCH files and exit")
    ap.add_argument("--label", help="the file is BENCH_<label>.json")
    ap.add_argument("--workload", default="algebra",
                    help="passed to run.py (sums, bigring, algebra or all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the first pair; pair i runs seed + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", default="HEAD",
                    help="the parent revision (default: HEAD, so the change "
                         "is the uncommitted working tree)")
    args = ap.parse_args(argv)
    if args.check is not None:
        return check(args.check)
    if not args.label or args.pairs < 1:
        ap.error("recording needs --label and at least one pair")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
