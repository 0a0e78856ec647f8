"""Size sweeps of the partition-regularity engine, as BENCH_*.json records.

    PYTHONPATH=src python scripts/pr_sweeps.py --side change > sweeps.json

Times the complete 3-coloring search for 3-term APs over [1..N] for
N = 20..27 (reporting nodes and nodes per second; N = 27 is the first forced
size, W(3;3) = 27), the threshold scan for the same pattern and colors up to
nmax = 20..28 (reporting the threshold), the 2-color threshold scan for
gap-grid:1 up to nmax = 8..24 (24 is the first forced size), for
2x + 3y = z up to nmax = 20..53 (53 is its 2-color Rado number), the
4-color Schur scan up to nmax = 30..40 (all avoiding), the 5-color ap:5 scan
up to nmax = 250..1001 (all avoiding, a scan that hardly backtracks), the
instance enumeration of x^2 + y^2 = z^2 and of x^2 = y z over [1..N] for
N = 50, 100, 200, 400, and of x y = z w (no variable isolated) for
N = 10..30, in-process and single-threaded.  A case stops growing N once
one run takes longer than MAX_SECONDS, so slow implementations can be
swept with the same script.  Only the public API is used.

Each record holds the raw best-of-REPEATS seconds and the normalized
seconds, timed by the sweep loop of scripts/set_sweeps.py.
"""

from __future__ import annotations

import argparse
import json
import sys

from finembed import (ap_pattern, equation_pattern, find_avoiding_coloring,
                      gap_grid_pattern, parse_polynomial, ramsey_threshold,
                      schur_pattern)
from set_sweeps import REF_NOMINAL_S, REPEATS, sweep

MAX_SECONDS = 5.0  # a case stops growing N after a run this slow


def vdw_search(n):
    cert = find_avoiding_coloring(n, 3, ap_pattern(3))
    return {"outcome": cert.outcome, "nodes": cert.nodes}


def threshold(pattern, r):
    return lambda nmax: {"threshold": ramsey_threshold(pattern, r,
                                                       nmax).threshold}


def equation_instances(text):
    pattern = equation_pattern(parse_polynomial(text))
    return lambda n: {"instances": len(pattern.instances(n))}


CASES = (
    ("ap:3 r=3 search", "prsearch.find_avoiding_coloring", vdw_search,
     range(20, 28)),
    ("ap:3 r=3 threshold", "prsearch.ramsey_threshold",
     threshold(ap_pattern(3), 3), range(20, 29)),
    ("gap-grid:1 r=2 threshold", "prsearch.ramsey_threshold",
     threshold(gap_grid_pattern(1), 2), range(8, 25, 4)),
    ("2x+3y-z r=2 threshold", "prsearch.ramsey_threshold",
     threshold(equation_pattern(parse_polynomial("2x+3y-z")), 2),
     (20, 30, 40, 50, 53)),
    ("schur r=4 threshold", "prsearch.ramsey_threshold",
     threshold(schur_pattern(), 4), range(30, 41, 2)),
    ("ap:5 r=5 threshold", "prsearch.ramsey_threshold",
     threshold(ap_pattern(5), 5), (250, 500, 750, 1001)),
    ("x^2+y^2-z^2 instances", "prsearch.Pattern.instances",
     equation_instances("x^2+y^2-z^2"), (50, 100, 200, 400)),
    ("x^2-y*z instances", "prsearch.Pattern.instances",
     equation_instances("x^2-y*z"), (50, 100, 200, 400)),
    ("x*y-z*w instances", "prsearch.Pattern.instances",
     equation_instances("x*y-z*w"), (10, 15, 20, 25, 30)),
)


def with_rate(counters, best):
    if "nodes" in counters:
        counters["nodes_per_s"] = counters["nodes"] / best
    return counters


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", required=True, help="label for the records")
    args = ap.parse_args()
    cases = [(case, layer, lambda n, run=run: lambda: run(n), sizes)
             for case, layer, run, sizes in CASES]
    how = (f"scripts/pr_sweeps.py, best of {REPEATS}, raw and normalized to "
           f"a reference loop of {REF_NOMINAL_S * 1e3:g} ms")
    json.dump(sweep(cases, args.side, how, MAX_SECONDS, with_rate),
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
