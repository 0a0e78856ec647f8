"""Size sweeps of the partition-regularity engine, as BENCH_*.json records.

    PYTHONPATH=src python scripts/pr_sweeps.py --side change > sweeps.json

Times the complete 3-coloring search for 3-term APs over [1..N] for
N = 20..27 (reporting nodes and nodes per second; N = 27 is the first forced
size, W(3;3) = 27), the threshold scan for the same pattern and colors up to
nmax = 20..28 (reporting the threshold), the 2-color threshold scan for
gap-grid:1 up to nmax = 8..24 (24 is the first forced size), the
instance enumeration of x^2 + y^2 = z^2 and of x^2 = y z over [1..N] for
N = 50, 100, 200, 400, and of x y = z w (no variable isolated) for
N = 10..30, in-process and single-threaded.  A case stops growing N once
one run takes longer than MAX_SECONDS, so slow implementations can be
swept with the same script.  Only the public API is used.

Each record holds the raw best-of-REPEATS seconds and the normalized
seconds, scaled by the reference loop of scripts/set_sweeps.py as there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from finembed import (ap_pattern, equation_pattern, find_avoiding_coloring,
                      gap_grid_pattern, parse_polynomial, ramsey_threshold)
from set_sweeps import REF_NOMINAL_S, reference_loop

REPEATS = 3        # best of
MAX_SECONDS = 5.0  # a case stops growing N after a run this slow


def vdw_search(n):
    cert = find_avoiding_coloring(n, 3, ap_pattern(3))
    return {"outcome": cert.outcome, "nodes": cert.nodes}


def vdw_threshold(nmax):
    return {"threshold": ramsey_threshold(ap_pattern(3), 3, nmax).threshold}


def grid_threshold(nmax):
    return {"threshold": ramsey_threshold(gap_grid_pattern(1), 2,
                                          nmax).threshold}


def equation_instances(text):
    pattern = equation_pattern(parse_polynomial(text))
    return lambda n: {"instances": len(pattern.instances(n))}


CASES = (
    ("ap:3 r=3 search", "prsearch.find_avoiding_coloring", vdw_search,
     range(20, 28)),
    ("ap:3 r=3 threshold", "prsearch.ramsey_threshold", vdw_threshold,
     range(20, 29)),
    ("gap-grid:1 r=2 threshold", "prsearch.ramsey_threshold", grid_threshold,
     range(8, 25, 4)),
    ("x^2+y^2-z^2 instances", "prsearch.Pattern.instances",
     equation_instances("x^2+y^2-z^2"), (50, 100, 200, 400)),
    ("x^2-y*z instances", "prsearch.Pattern.instances",
     equation_instances("x^2-y*z"), (50, 100, 200, 400)),
    ("x*y-z*w instances", "prsearch.Pattern.instances",
     equation_instances("x*y-z*w"), (10, 15, 20, 25, 30)),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", required=True, help="label for the records")
    args = ap.parse_args()
    records = []
    for case, layer, run, sizes in CASES:
        for n in sizes:
            best, refs, counters = float("inf"), [], None
            for _ in range(REPEATS):
                refs.append(reference_loop())
                t0 = time.perf_counter()
                counters = run(n)
                best = min(best, time.perf_counter() - t0)
                refs.append(reference_loop())
                if best > MAX_SECONDS:
                    break
            norm = best * REF_NOMINAL_S / statistics.median(refs)
            if "nodes" in counters:
                counters["nodes_per_s"] = counters["nodes"] / best
            records.append({"case": case, "layer": layer, "size": n,
                            "side": args.side, "seconds": best,
                            "normalized_seconds": norm,
                            "counters": counters,
                            "how": f"scripts/pr_sweeps.py, best of {REPEATS}, "
                                   "raw and normalized to a reference loop "
                                   f"of {REF_NOMINAL_S * 1e3:g} ms"})
            print(f"{case:24s} N={n:>4d} {best:9.4f}s {norm:9.4f}s "
                  f"normalized {counters}", file=sys.stderr)
            if best > MAX_SECONDS:
                break
    json.dump(records, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
