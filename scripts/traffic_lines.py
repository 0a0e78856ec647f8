"""Which lines of src/finembed the real traffic runs, and which it never does.

    python scripts/traffic_lines.py > report.txt
    python scripts/traffic_lines.py --json lines.json
    python scripts/traffic_lines.py --smoke

Runs, under one sys.settrace line trace of src/finembed: every case of the
golden CLI corpus (tests/golden/cases.json) through finembed.cli.dispatch,
with its input files written to a temporary directory, and one seed-0 pass
of each perfbench workload (perfbench/workloads.py, imported as it is, its
files in a temporary directory).  --smoke runs the workloads at their smoke
size and skips the corpus.  The trace starts before finembed is imported,
so module-level lines count too.  Answers are not checked here; the golden
test and perfbench/run.py do that.

The executable lines of a function are the lines of its code object, as
compiled from the source file; nested functions, lambdas and comprehensions
are code objects of their own, under their own qualified names.  The report
lists, per module and per function with a line the traffic never ran, those
lines, and ends with the totals.  --json writes, per module and qualified
name, the executable lines and the lines that ran.  A function that never
ran lists all its lines; so a mechanism that no traffic reaches shows as
a whole function or a block of lines here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finembed"
CASES = ROOT / "tests" / "golden" / "cases.json"


def executable_lines(path: Path) -> dict[str, set[int]]:
    """Per qualified name, the lines of the code objects compiled from path
    (the module body under "<module>")."""
    out: dict[str, set[int]] = defaultdict(set)
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out[code.co_qualname].update(
            line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


class LineTrace:
    """The lines run per (file, qualified name), for files under PACKAGE."""

    def __init__(self):
        self.ran: dict[tuple[str, str], set[int]] = defaultdict(set)
        self.prefix = str(PACKAGE)

    def __enter__(self):
        sys.settrace(self.on_call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def on_call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        lines = self.ran[code.co_filename, code.co_qualname]
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line
        return on_line


def run_corpus(workdir: Path) -> int:
    from finembed.cli import dispatch

    cases = json.loads(CASES.read_text())
    for case in cases:
        paths = {}
        for key, obj in case["files"].items():
            path = workdir / f"{case['name']}-{key}.json"
            path.write_text(json.dumps(obj))
            paths[key] = str(path)
        argv = [arg.format(**paths) if arg.startswith("{") else arg
                for arg in case["argv"]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            dispatch(argv)
    return len(cases)


def run_workloads(workdir: Path, smoke: bool) -> dict[str, int]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    counts = {}
    for name, make in WORKLOADS.items():
        sub = workdir / name
        sub.mkdir()
        queries = make(0, sub, smoke=smoke).queries
        with contextlib.redirect_stdout(io.StringIO()):
            for query in queries:
                query.run()
        counts[name] = len(queries)
    return counts


def report(ran: dict[tuple[str, str], set[int]]) -> dict:
    """Per module, per qualified name: executable lines and lines run."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        out[path.name] = {
            name: {"lines": sorted(lines),
                   "ran": sorted(lines & ran.get((str(path), name), set()))}
            for name, lines in sorted(executable_lines(path).items())}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="workloads at smoke size, no golden corpus")
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="write the line sets to PATH")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp, LineTrace() as trace:
        cases = 0 if args.smoke else run_corpus(Path(tmp))
        queries = run_workloads(Path(tmp), args.smoke)
    lines = report(trace.ran)
    total = unrun = 0
    for module, functions in lines.items():
        print(f"{module}")
        for name, entry in functions.items():
            missed = sorted(set(entry["lines"]) - set(entry["ran"]))
            total += len(entry["lines"])
            unrun += len(missed)
            if missed:
                print(f"  {name}: {', '.join(map(str, missed))}")
    print(f"golden cases {cases}, workload queries {queries}: "
          f"{total - unrun} of {total} executable lines ran")
    if args.json:
        args.json.write_text(json.dumps(
            {"golden_cases": cases, "workload_queries": queries,
             "smoke": args.smoke, "modules": lines}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
