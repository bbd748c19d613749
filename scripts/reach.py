#!/usr/bin/env python3
"""Line trace of the library under the traffic it serves: the statements
of src/jlcs that no command, script or benchmark job reaches.

The traffic is every ``jlcs`` command of README.md (run in-process, in a
temporary directory, so an ``--out`` file lands there), the grid sweep
at ``--max-n 2``, one ``--tiny`` pass of each perfbench workload, and one
round of the perfbench layer probes.  The trace starts before jlcs is
imported, so code that runs at import time counts as reached.

Every function-body statement that no line event reaches is reported,
except a ``raise`` and a ``return NotImplemented``.  A statement inside an
unreached statement, or after one in the same block, cannot have run
either, so only the head of each unreached run is reported.  Each reported statement
must be listed in scripts/reach_allow.txt, which keys an entry by the
function's qualified name and the statement's source line, so entries
survive edits elsewhere in the file:

    csa._resultant: return None
        the reason the statement stays, on one or more indented lines

The text ``*`` lists a whole ``__repr__`` or ``to_json``.  Run it from
anywhere:

    python3 scripts/reach.py

Exits 0 when the reported statements are exactly the listed ones, and 1
on an unlisted statement or on an entry that is now reached or names no
statement.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import os
import shlex
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jlcs"
ALLOW = ROOT / "scripts" / "reach_allow.txt"
# whole-function entries are allowed for these names only
WHOLE_OK = ("__repr__", "to_json")


class LineTrace:
    """The lines run in every frame whose code lies under one directory,
    as {file name: set of line numbers}; other frames are not traced."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.hits: dict[str, set[int]] = {}

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line


# ---------------------------------------------------------------------------
# traffic


def readme_commands(text: str) -> list[list[str]]:
    """The argv of every ``jlcs`` line in the fenced blocks of README.md,
    with backslash continuations joined."""
    out = []
    fenced = False
    pending = ""
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        words = shlex.split(line, comments=True)
        if words[:1] == ["jlcs"]:
            out.append(words[1:])
    return out


def run_traffic() -> list[str]:
    """Run every part of the traffic; returns one line per part."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from jlcs import cli

    done = []
    commands = readme_commands((ROOT / "README.md").read_text("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in commands:
                cli.main(argv)
        finally:
            os.chdir(cwd)
    done.append(f"{len(commands)} README commands")

    spec = importlib.util.spec_from_file_location(
        "grid_sweep", ROOT / "scripts" / "grid_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    sweep.main(["--max-n", "2"])
    done.append("grid_sweep.py --max-n 2")

    import probes
    import workloads

    for workload in workloads.WORKLOADS:
        params = workloads.setup(workload, tiny=True)
        jobs = workloads.job_list(workload, tiny=True)
        for job in jobs:
            call, gate = workloads.prepare(job, params, 0)
            gate(call())
        done.append(f"perfbench {workload} --tiny: {len(jobs)} jobs")
    probes.run_probes(1)
    done.append("perfbench probes")
    return done


# ---------------------------------------------------------------------------
# statements


def _blocks(stmt) -> list[list]:
    """The blocks of statements nested in a compound statement; a nested
    def or class is a statement of its own, not a block."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out = [getattr(stmt, field, None) for field in ("body", "orelse")]
    out += [handler.body for handler in getattr(stmt, "handlers", ())]
    out += [case.body for case in getattr(stmt, "cases", ())]
    out.append(getattr(stmt, "finalbody", None))
    return [block for block in out if block]


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _exempt(stmt) -> bool:
    """A raise, or a return NotImplemented: reported by no trace."""
    if isinstance(stmt, ast.Raise):
        return True
    return (isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name)
            and stmt.value.id == "NotImplemented")


@dataclass
class Statement:
    qualname: str
    path: Path
    line: int
    text: str
    exempt: bool
    reached: bool
    head: bool


def _walk(block, qualname, path, lines, hits, out) -> bool:
    """Append the statements of block, nested ones included, to out, and
    return whether any was reached.

    A statement counts as reached when a line event fell on its own lines
    (for a compound statement, its header) or on a statement inside it.
    The head of an unreached run is the first unreached statement of a
    block whose enclosing statement was reached: the statements after it
    in its block, and those inside it, cannot have run either.
    """
    any_reached = False
    prev_reached = True
    for i, stmt in enumerate(block):
        if i == 0 and _is_docstring(stmt):
            continue
        blocks = _blocks(stmt)
        first = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", ())])
        if blocks:
            last = max(stmt.lineno, blocks[0][0].lineno - 1)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            last = max(stmt.lineno, stmt.body[0].lineno - 1)
        else:
            last = stmt.end_lineno
        reached = any(n in hits for n in range(first, last + 1))
        at = len(out)
        out.append(None)
        for inner in blocks:
            reached = _walk(inner, qualname, path, lines, hits, out) or reached
        if not reached:
            for s in out[at + 1:]:
                s.head = False
        out[at] = Statement(qualname, path, stmt.lineno,
                            lines[stmt.lineno - 1].strip(), _exempt(stmt),
                            reached, prev_reached and not reached)
        prev_reached = reached
        any_reached = any_reached or reached
    return any_reached


def statements(hits: dict[str, set[int]]) -> list[Statement]:
    """Every function-body statement of src/jlcs, marked reached or not."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text("utf-8")
        lines = source.splitlines()
        file_hits = hits.get(str(path), set())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    _walk(child.body, name, path, lines, file_hits, out)
                    visit(child, name)
                elif not isinstance(child, ast.expr):
                    visit(child, prefix)

        visit(ast.parse(source), path.stem)
    return out


# ---------------------------------------------------------------------------
# the allowlist


class Entry(NamedTuple):
    qualname: str
    text: str
    reason: str
    line: int


def read_allow(text: str) -> list[Entry]:
    """The entries of the allowlist; raises ValueError on a malformed one."""
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line[0].isspace():
            if not entries:
                raise ValueError(f"line {number}: a reason with no entry")
            last = entries[-1]
            reason = (last.reason + " " + line.strip()).strip()
            entries[-1] = last._replace(reason=reason)
            continue
        qualname, sep, stmt = line.partition(": ")
        if not sep or not stmt.strip():
            raise ValueError(f"line {number}: expected 'qualname: statement'")
        stmt = stmt.strip()
        if stmt == "*" and qualname.rsplit(".", 1)[-1] not in WHOLE_OK:
            raise ValueError(
                f"line {number}: a whole-function entry for {qualname}, "
                f"allowed only for {' and '.join(WHOLE_OK)}")
        entries.append(Entry(qualname, stmt, "", number))
    for e in entries:
        if not e.reason:
            raise ValueError(f"line {e.line}: {e.qualname} has no reason")
    return entries


def compare(reported: list[Statement], entries: list[Entry]):
    """(unlisted statements, stale entries)."""
    used = set()
    unlisted = []
    for s in reported:
        hit = [e for e in entries
               if e.qualname == s.qualname and e.text in ("*", s.text)]
        used.update(e.line for e in hit)
        if not hit:
            unlisted.append(s)
    stale = [e for e in entries if e.line not in used]
    return unlisted, stale


def main() -> int:
    try:
        entries = read_allow(ALLOW.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"reach: {ALLOW.name}: {exc}")
        return 1
    with LineTrace(SRC) as trace, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        done = run_traffic()
    for line in done:
        print(f"traffic: {line}")

    stmts = statements(trace.hits)
    unreached = [s for s in stmts if not s.reached]
    reported = [s for s in unreached if s.head and not s.exempt]
    unlisted, stale = compare(reported, entries)
    print(f"{len(stmts)} function-body statements in src/jlcs, "
          f"{len(unreached)} unreached, {len(reported)} reported "
          f"(heads of unreached runs, not a raise or a return NotImplemented)")
    bad = {id(s) for s in unlisted}
    for s in reported:
        tag = "UNLISTED" if id(s) in bad else "listed  "
        print(f"  {tag} {s.path.name}:{s.line} {s.qualname}: {s.text}")
    for e in stale:
        print(f"  STALE    {ALLOW.name}:{e.line} {e.qualname}: {e.text} "
              f"(reached, or no such statement)")
    if unlisted or stale:
        print(f"reach: {len(unlisted)} unlisted, {len(stale)} stale")
        return 1
    print("reach: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
