"""One benchmark worker: a fresh process that imports jlcs, builds one
workload's set-up and runs one phase of it.  run.py starts it with
PYTHONPATH pointing at the repository's src directory:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [--tiny]

MODE is one of
    setup   build the set-up only and report its time
    timed   set-up, an untimed warm-up pass over the job grid, then
            timed whole passes, at least MIN_PASSES and as many more as
            fit in SECONDS, then the byte-for-byte rerun of a fixed sample
            of CLI jobs
    base    set-up, the fixed traced job list run untraced, then the
            layer probes
    traced  the tracer installed first, then set-up and the same fixed
            job list, with per-layer self times and counts

It prints one JSON object as the last line of its standard output.

The host's speed moves by up to 1.8x within seconds and by as much between
minutes, far past the bounds of BENCHMARK.json.  So the setup and timed
workers time a fixed pure-Python loop, the reference loop, between jobs,
and scale each time they report to a host on which that loop takes
REF_LOOP_S: a job's time is multiplied by REF_LOOP_S over the median of the
reference samples taken within REF_WINDOW_S of its start.  A job's latency
is then the median of its scaled runs.  The unscaled figures are reported
beside them.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads as wl  # noqa: E402

# a timed phase runs every job at least this often
MIN_PASSES = 3
# the reference loop: REF_ITERATIONS rounds, taking REF_LOOP_S on the
# reference host, sampled at most every REF_EVERY_S between jobs
REF_ITERATIONS, REF_LOOP_S = 20_000, 0.002
REF_EVERY_S, REF_WINDOW_S = 0.1, 0.5


def reference_loop():
    """Seconds for the reference loop, right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop samples, and the scale they give a time taken
    among them."""

    def __init__(self):
        self.starts = []
        self.samples = []

    def sample(self, due_every=0.0):
        now = time.perf_counter()
        if not self.starts or now - self.starts[-1] >= due_every:
            self.starts.append(now)
            self.samples.append(reference_loop())

    def scale(self, start):
        """REF_LOOP_S over the median sample within REF_WINDOW_S of start,
        or of all samples when none is that near."""
        lo = bisect.bisect_left(self.starts, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + REF_WINDOW_S)
        return REF_LOOP_S / statistics.median(self.samples[lo:hi]
                                              or self.samples)


class Tally:
    """Runs, verified checks and failures of the jobs run so far."""

    def __init__(self):
        self.runs = {}  # grid index -> [(start, seconds)] of its runs
        self.checks = {}  # grid index -> checks one run of the job verifies
        self.attempted = 0
        self.failed = 0

    def run(self, index, job, params, seed):
        """Run one job through its gate; returns its raw result, or None
        when it failed."""
        self.attempted += 1
        try:
            call, gate = wl.prepare(job, params, seed)
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
            self.checks[index] = gate(result)
        except Exception:  # a failing job must not stop the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.runs.setdefault(index, []).append((start, elapsed))
        return result

    def latencies(self, scale=lambda start: 1.0):
        """Each job's median over its runs of its time times scale(start)."""
        return [statistics.median(t * scale(start) for start, t in runs)
                for runs in self.runs.values()]

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        print(message, file=sys.stderr)

    def to_json(self, host=None):
        out = {"latencies": self.latencies(),
               "checks": sum(self.checks.values()),
               "attempted": self.attempted, "failed": self.failed}
        if host is not None:
            out["raw_latencies"] = out["latencies"]
            out["latencies"] = self.latencies(host.scale)
        return out


def setup_time(workload, tiny):
    """Build the set-up; returns its time since T0, unscaled and scaled by
    the median of a few reference samples taken right after it."""
    params = wl.setup(workload, tiny)
    setup_s = time.perf_counter() - T0
    host = HostSpeed()
    for _ in range(5):
        host.sample()
    return params, {"raw_setup_s": setup_s,
                    "setup_s": setup_s * REF_LOOP_S
                    / statistics.median(host.samples)}


def timed(workload, seed, seconds, tiny):
    params, setup = setup_time(workload, tiny)
    jobs = wl.job_list(workload, tiny)
    tally = Tally()
    host = HostSpeed()
    host.sample()
    sample = {}  # grid index -> (job, first output) for the rerun check

    def one_pass():
        for index in wl.run_order(jobs):
            job = jobs[index]
            result = tally.run(index, job, params, seed)
            host.sample(REF_EVERY_S)
            if (job[0] == "cli" and result is not None and index not in sample
                    and index % wl.DETERMINISM_STRIDE == 0):
                sample[index] = (job, result)

    # The first pass warms up and is not timed: it runs about 15% slower
    # than the next ones.  Its jobs still pass through the gate.
    one_pass()
    tally.runs.clear()
    passes, phase_s = 0, 0.0
    start = time.perf_counter()
    # one more whole pass only if it should end within SECONDS
    while passes < MIN_PASSES or (
            (passes + 1) * phase_s / passes <= seconds):
        one_pass()
        passes += 1
        phase_s = time.perf_counter() - start
    for job, first in sample.values():
        if wl.run_cli(job[1]) != first:
            tally.fail(f"{' '.join(job[1])}: rerun output differs")
    import numpy

    return {**tally.to_json(host), **setup, "passes": passes,
            "host_speed": REF_LOOP_S / statistics.median(host.samples),
            "phase_s": phase_s, "determinism_sample": len(sample),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def run_trace_jobs(workload, seed, tiny, params):
    """Run the traced job list, an evenly thinned, fixed part of the grid."""
    tally = Tally()
    for i, job in enumerate(wl.job_list(workload, tiny)):
        if i % wl.TRACE_STRIDE < wl.TRACE_SHARE:
            tally.run(i, job, params, seed)
    out = tally.to_json()
    return {**out, "wall": sum(out["latencies"])}


def base(workload, seed, tiny):
    from probes import run_probes

    out = run_trace_jobs(workload, seed, tiny, wl.setup(workload, tiny))
    return {**out, "probes": run_probes(1 if tiny else 3)}


def traced(workload, seed, tiny):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    params = wl.setup(workload, tiny)
    tracer.reset()
    out = run_trace_jobs(workload, seed, tiny, params)
    return {**out, "layers": tracer.report()}


def main(argv):
    mode, workload, seed, seconds = argv[:4]
    seed, seconds, tiny = int(seed), float(seconds), "--tiny" in argv[4:]
    if mode == "setup":
        out = setup_time(workload, tiny)[1]
    elif mode == "timed":
        out = timed(workload, seed, seconds, tiny)
    elif mode == "base":
        out = base(workload, seed, tiny)
    elif mode == "traced":
        out = traced(workload, seed, tiny)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
