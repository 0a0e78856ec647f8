"""Time both additive interval-net density kernels on a grid and fit the
cost model that density._spans_cheaper uses to choose between them.

    PYTHONPATH=src python scripts/density_rule.py --seed 1 > rule.jsonl
    PYTHONPATH=src python scripts/density_rule.py --fit rule.jsonl

The first form prints one JSON line per seeded set (random or periodic,
densities 0.005 to 1, W 60 to 1e5, N 5 to 1000): the best-of-k time of
each kernel, normalized to a reference loop of 1 ms as in
scripts/set_sweeps.py, and the work each does (net indices and shifts;
counts, spans (members per count, summed), and the counts that resolve
prefix minima with the members below their argmin).  The second form fits
each kernel's costs by least squares on relative error and prints them
with the fit's spread.  In-process and single-threaded; a full grid takes
about ten minutes.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

import numpy as np

from finembed import ADDITIVE, GroundSet, interval_net, make_window
from finembed.density import (_per_index_best_numeric,
                              _per_index_best_spans)
from set_sweeps import REF_NOMINAL_S, best_of, reference_loop

WINDOWS = (60, 150, 400, 1_000, 4_000, 20_000, 100_000)
NETS = (5, 12, 30, 100, 300, 1_000)
DENSITIES = (0.005, 0.02, 0.05, 0.15, 0.3, 0.5, 0.8, 1.0)


def span_work(mem: np.ndarray, N: int) -> dict:
    """The span kernel's counts, spans (members per count, summed), and the
    counts (and members) whose prefix minima it resolves, replayed in plain
    numpy."""
    a = np.flatnonzero(mem[1:]) + 1
    m = len(a)
    work = dict(counts=0, spans=0, resolves=0, resolved=0)
    prev = None
    for c in range(1, m + 2):
        if c <= m:
            spans = a[c - 1:] - a[:m - c + 1]
            j = int(spans.argmin())
            L = int(spans[j]) + 1
            work["counts"] += 1
            work["spans"] += m - c + 1
        else:
            L = N + 1
        if prev and prev[0] and min(L - 1, N) > prev[1]:
            work["resolves"] += 1
            work["resolved"] += prev[0]
        if L > N:
            return work
        prev = j, L
    return work


def sweep(seed: int) -> None:
    rng = random.Random(seed)
    grid = [(W, N, p, shape) for W in WINDOWS for N in NETS if N <= W
            for p in DENSITIES for shape in ("random", "periodic")]
    rng.shuffle(grid)
    for W, N, p, shape in grid:
        if shape == "random":
            values = [v for v in range(W + 1) if rng.random() < p]
        else:
            period = max(1, round(1 / p))
            values = range(rng.randrange(period), W + 1, period)
        A = GroundSet.from_values(make_window(ADDITIVE, W), values)
        net = interval_net(N)
        k = 7 if W * N < 1e6 else 3
        refs = [reference_loop()]
        add = best_of(lambda: _per_index_best_numeric(A, net), k)
        spans = best_of(lambda: _per_index_best_spans(A, N), k)
        refs.append(reference_loop())
        scale = REF_NOMINAL_S / statistics.median(refs) * 1e6
        print(json.dumps({"W": W, "N": N, "p": p, "shape": shape,
                          "members": int(np.count_nonzero(A.array()[1:])),
                          **span_work(A.array(), N),
                          "add_us": add * scale, "span_us": spans * scale}),
              flush=True)


def fit(paths: list[str]) -> None:
    rows = [json.loads(line) for path in paths for line in open(path)]
    models = {
        "add": ("fixed, per index, per shift", lambda r: [
            1, r["N"], r["N"] * (r["W"] + 1) - r["N"] * (r["N"] - 1) / 2]),
        "span": ("fixed, per window element, per count, per member per "
                 "count, per resolve, per member resolved", lambda r: [
                     1, r["W"], r["counts"], r["spans"], r["resolves"],
                     r["resolved"]]),
    }
    for name, (terms, features) in models.items():
        X = np.array([features(r) for r in rows], float)
        y = np.array([r[name + "_us"] for r in rows])
        coef, *_ = np.linalg.lstsq(X / y[:, None], np.ones(len(y)),
                                   rcond=None)
        spread = np.quantile(X @ coef / y, [0.05, 0.5, 0.95])
        print(f"{name} ({terms}): {np.array2string(coef, precision=3)}; "
              f"predicted/measured q05, q50, q95 "
              f"{np.array2string(spread, precision=2)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fit", nargs="+", metavar="JSONL")
    args = ap.parse_args()
    if args.fit:
        fit(args.fit)
    else:
        sweep(args.seed)


if __name__ == "__main__":
    sys.exit(main())
