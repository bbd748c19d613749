#!/usr/bin/env python3
"""Benchmark of jlcs: exact identity checks per second, job latency, set-up
time and memory, per workload, plus a separate traced run for per-layer
numbers.  Run it from the repository root:

    python3 perfbench/run.py [--workload sums|bigring|algebra|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Each phase runs in a fresh worker process (perfbench/worker.py), one at a
time; this process starts no threads.  With --trace 0 the timed runs give
the end-to-end metrics of BENCHMARK.json, with --trace 1 the traced run and
the layer probes give its per-layer metrics.  End-to-end times are scaled
to a reference host speed measured between jobs (see worker.py), and the
unscaled figures are printed beside them.  Every metric is printed as
"workload metric value unit", then one JSON result line comes last.  The
exit code is 0 when every job passed its correctness gate, 1 when one
failed, and 2 when the benchmark could not run.  --tiny shrinks every grid
to a few small fields, for the harness's own smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is measured in this many fresh processes and reported as the median
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(mode, workload, args):
    env = dict(os.environ)
    env.pop("JLCS_THREADS", None)  # the default: one thread
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload,
           str(args.seed), str(args.seconds)] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency_metrics(latencies, checks):
    lat = sorted(latencies)
    return {"checks_per_s": checks / sum(lat),
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3}


def end_to_end(workload, args):
    """Timed run with tracing off; returns (metrics, attempted, failed, env).

    Times are scaled to the reference host (see worker.py); the unscaled
    figures go into env."""
    setups = [run_worker("setup", workload, args)
              for _ in range(SETUP_RUNS - 1)]
    res = run_worker("timed", workload, args)
    setups.append(res)
    if len(res["latencies"]) < 2:
        raise BenchError(f"fewer than two {workload} jobs passed their gate")
    metrics = {
        **latency_metrics(res["latencies"], res["checks"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = {**latency_metrics(res["raw_latencies"], res["checks"]),
           "setup_s": statistics.median(s["raw_setup_s"] for s in setups)}
    env = {"jobs_timed": len(res["latencies"]), "passes": res["passes"],
           "host_speed": res["host_speed"], "unscaled": raw,
           "phase_s": res["phase_s"],
           "determinism_sample": res["determinism_sample"],
           "python": res["python"], "numpy": res["numpy"]}
    return metrics, res["attempted"], res["failed"], env


def per_layer(workload, args):
    """Traced run beside an untraced run of the same jobs, plus probes."""
    base = run_worker("base", workload, args)
    traced = run_worker("traced", workload, args)
    if not base["wall"] or not traced["wall"]:
        raise BenchError(f"no traced {workload} job passed its gate")
    metrics = {**traced["layers"], **base["probes"],
               "trace_overhead": traced["wall"] / base["wall"]}
    env = {"jobs_traced": len(traced["latencies"]),
           "untraced_wall_s": base["wall"], "traced_wall_s": traced["wall"]}
    attempted = base["attempted"] + traced["attempted"]
    return metrics, attempted, base["failed"] + traced["failed"], env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jlcs" / "__init__.py").is_file():
        print(f"jlcs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    units["failed_frac"] = "1"

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print("# env " + json.dumps({
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": git_commit(), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}))
    for workload in workloads:
        measure = per_layer if args.trace else end_to_end
        before = calibrate()
        try:
            metrics, attempted, failed, env = measure(workload, args)
        except BenchError as exc:
            print(f"benchmark could not run: {exc}", file=sys.stderr)
            return 2
        env["calibration_s"] = [before, calibrate()]
        metrics["failed_frac"] = failed / attempted
        missing = [name for name in units if name not in metrics]
        if missing:
            print(f"metrics not produced: {missing}", file=sys.stderr)
            return 2
        print(f"# {workload} " + json.dumps(env))
        for name, unit in units.items():
            value = metrics[name]
            text = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{workload} {name} {text} {unit}")
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for m in declared:
            result["metrics"][prefix + m["name"]] = {
                "value": metrics[m["name"]], "unit": m["unit"]}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
