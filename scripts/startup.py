"""Fresh-process wall time of each CLI subcommand, two source trees alternated.

    PYTHONPATH=src python scripts/startup.py --parent ../parent > startup.json

Runs `python -m finembed <args>` in a new interpreter for each case below
(the three `pr` subcommands, `embed`, `rich --detect ap`, `density`,
`verify --budget tiny`, `--help` and one usage error), on small fixed input
files, with PYTHONPATH pointing at the src/ of the parent tree and then of
the changed tree (by default this checkout).  This is the whole cost a user
pays per call: interpreter start, the imports the subcommand makes
(numpy among them when the subcommand reads a set), the query and the
exit.

Each of ROUNDS rounds times every case on both sides, back to back,
alternating which side goes first; a side's time in a round is the best of REPEATS
spawns (scripts/set_sweeps.py's best_of), normalized by the perfbench
reference loop measured just before and after it, as perfbench/run.py's
measure_setup does.  A first spawn per case and side warms the file cache
and checks the exit code; both sides must print the same stdout.  Each
record gives the median and quartiles over rounds, normalized and raw,
and the parent-over-change ratio of the normalized medians.  The children
inherit this process's environment (PYTHONDONTWRITEBYTECODE included,
stamped in the output) and run single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from set_sweeps import REF_NOMINAL_S, REPEATS, best_of, reference_loop

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
WINDOW = {"kind": "additive-naturals", "bound": 100}
FILES = {
    "evens.json": {"window": WINDOW, "set": {"predicate": "evens"}},
    "b.json": {"window": WINDOW, "set": {"explicit": [5, 7, 9, 40]}},
    "translations.json": {"builtin": "translations-right"},
}
# (name, argv, expected exit code)
CASES = (
    ("pr threshold", ["pr", "threshold", "--pattern", "ap:3", "--colors", "2",
                      "--nmax", "10"], 0),
    ("pr search", ["pr", "search", "--pattern", "schur", "--colors", "2",
                   "--n", "4"], 0),
    ("pr equation", ["pr", "equation", "--poly", "x+y-z", "--colors", "2",
                     "--n", "5"], 0),
    ("embed", ["embed", "--set-a", "evens.json", "--set-b", "b.json",
               "--family", "translations.json", "--probes", "2"], 0),
    ("rich --detect ap", ["rich", "--set", "evens.json", "--detect", "ap"], 0),
    ("density", ["density", "--set", "evens.json", "--net", "interval:50"], 0),
    ("verify --budget tiny", ["verify", "--budget", "tiny"], 0),
    ("--help", ["--help"], 0),
    ("usage error", ["pr", "threshold", "--pattern", "ap:3", "--colors", "x",
                     "--nmax", "10"], 2),
)


def spawner(tree: Path, argv: list[str], cwd: str):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **SINGLE_THREAD)
    cmd = [sys.executable, "-m", "finembed", *argv]
    return lambda: subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                                  timeout=120)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent source tree")
    ap.add_argument("--change", default=ROOT, type=Path,
                    help="root of the changed source tree (default: this one)")
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in sides.values():
        if not (tree / "src" / "finembed" / "__init__.py").is_file():
            sys.exit(f"error: no finembed sources under {tree}/src")
    with tempfile.TemporaryDirectory() as cwd:
        for name, obj in FILES.items():
            Path(cwd, name).write_text(json.dumps(obj))
        runs = {(case, side): spawner(tree, argv, cwd)
                for case, argv, _code in CASES for side, tree in sides.items()}
        for case, _argv, code in CASES:  # warm-up spawns, checked
            outs = {side: runs[case, side]() for side in sides}
            for side, proc in outs.items():
                if proc.returncode != code:
                    sys.exit(f"error: {case} on {side} exited "
                             f"{proc.returncode}: {proc.stderr.decode()[-500:]}")
            if outs["parent"].stdout != outs["change"].stdout:
                sys.exit(f"error: {case}: the two trees print different stdout")
        norm = {key: [] for key in runs}
        raw = {key: [] for key in runs}
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for case, _argv, _code in CASES:
                for side in order:
                    ref = reference_loop()
                    best = best_of(runs[case, side], REPEATS)
                    ref = (ref + reference_loop()) / 2
                    raw[case, side].append(best * 1e3)
                    norm[case, side].append(best * 1e3 * REF_NOMINAL_S / ref)
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)

    records = []
    for case, argv, code in CASES:
        rec = {"case": case, "argv": argv, "exit": code}
        for side in sides:
            rec[side] = {"normalized_ms": quartiles(norm[case, side]),
                         "raw_ms": quartiles(raw[case, side])}
        rec["parent_over_change"] = (rec["parent"]["normalized_ms"]["median"]
                                     / rec["change"]["normalized_ms"]["median"])
        rec["change_faster_in"] = sum(
            c < p for p, c in zip(norm[case, "parent"], norm[case, "change"]))
        records.append(rec)
    json.dump({"stamp": {"python": platform.python_version(),
                         "machine": platform.machine(),
                         "nproc": len(os.sched_getaffinity(0)),
                         "PYTHONDONTWRITEBYTECODE":
                             os.environ.get("PYTHONDONTWRITEBYTECODE"),
                         "rounds": ROUNDS, "best_of": REPEATS},
               "records": records}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
