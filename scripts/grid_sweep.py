#!/usr/bin/env python3
"""Run the acceptance grid through the command line and check that every
comparing command passes.

For each inner form (q, m, r, s) of the grid with n = mr at most --max-n,
five commands run in-process through ``jlcs.cli.main``: ``char
--all-lambda``, ``jl verify --all-lambda``, ``jl invariants``, ``epsilon``
with a tame twist (n >= 2 only: at n = 1 it compares nothing) and ``csa
selftest``.  One JSON line per command gives its argv, its exit code and
its summary record; a command passes when it exits 0 and its summary is
ok, which needs at least one check.  The last line is the summary of the
sweep under the same rule, so a sweep that runs nothing is not ok.

    python3 scripts/grid_sweep.py --max-n 4 --out sweep.jsonl

Exits 0 when the summary is ok, else 1.
"""

import argparse
import contextlib
import io
import json
import math
import sys

from jlcs import cli
from jlcs._util import json_line

PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
TWIST = ["--twist-unit", "1", "--twist-varpi-order", "4",
         "--twist-varpi-power", "1"]


def configurations(max_n: int):
    for (p, f) in PRIME_POWERS:
        for m in range(1, max_n + 1):
            for r in range(1, max_n // m + 1):
                if r == 1:
                    yield (p, f, m, r, None)
                    continue
                for s in range(1, r):
                    if math.gcd(s, r) == 1:
                        yield (p, f, m, r, s)


def commands(max_n: int):
    """The argv of every command of the sweep, in order."""
    for (p, f, m, r, s) in configurations(max_n):
        side = ["--p", str(p), "--f", str(f), "--m", str(m), "--r", str(r)]
        if s is not None:
            side += ["--s", str(s)]
        yield ["char", *side, "--all-lambda"]
        yield ["jl", "verify", *side, "--all-lambda"]
        yield ["jl", "invariants", *side]
        if m * r >= 2:
            yield ["epsilon", *side, *TWIST]
        yield ["csa", "selftest", *side]


def run(argv) -> dict:
    """One command through cli.main: its argv, exit code and summary, and
    whether it passed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue().splitlines()
    last = json.loads(out[-1]) if out else {}
    summary = last if last.get("kind") == "summary" else None
    return {"kind": "command", "argv": " ".join(argv), "code": code,
            "summary": summary,
            "ok": code == 0 and summary is not None and summary["ok"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    rows = []
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as sink:
        for command in commands(args.max_n):
            rows.append(run(command))
            sink.write(json_line(rows[-1]) + "\n")
        summary = cli._summary(rows)
        sink.write(json_line(summary) + "\n")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
