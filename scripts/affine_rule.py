"""Time both sides of the affine kernel on a grid and fit the row limit
that families._row_limit uses to choose between them.

    PYTHONPATH=src python scripts/affine_rule.py --seed 1 > rule.jsonl
    PYTHONPATH=src python scripts/affine_rule.py --fit rule.jsonl

With two anchors the kernel reads slope rows of B's bitset (_shift_search)
until a limit taken from B's member count m and W, then answers from the
anchored list of B's m(m-1)/2 member pairs.  The first form prints one
JSON line per seeded target (m = 5 to 400 random members, W = 400 to 1e5,
F = the anchors (0, 1), (0, 2) or (1, 3), alone or with the point that
continues them in progression): the rows the search reads with no limit,
and the best-of-k times of the rows alone, of the pair list alone and of
the rule in force, normalized to a reference loop of 1 ms as in
scripts/set_sweeps.py.  The second form fits the cost per row (per W) and
of the pair list (per pair) by least squares on relative error, prints
the limit at which the two cost the same, and how the rule timed in the
grid compares with the cheaper side and with the rows alone; the column
search that can follow a first row witness is timed with the rows.
In-process and single-threaded; a grid takes about eight minutes.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

import numpy as np

from finembed import ADDITIVE, GroundSet, builtin_affine, make_window
from finembed import families
from set_sweeps import REF_NOMINAL_S, best_of, reference_loop

WINDOWS = (400, 1_000, 4_000, 10_000, 25_000, 100_000)
MEMBERS = (5, 10, 20, 40, 100, 200, 400)
ANCHORS = ((0, 1), (0, 2), (1, 3))


class Counter:
    """A row limit never reached, which counts the rows read: _shift_search
    compares it with the rows read so far before it reads one more."""

    def __init__(self) -> None:
        self.rows = 0

    def __eq__(self, scanned) -> bool:
        self.rows += 1
        return False


def side(limit, run, k: int) -> float:
    """run() timed with the row limit forced to limit (inf: rows only)."""
    rule = families._row_limit
    families._row_limit = lambda m, bound: limit
    try:
        return best_of(run, k)
    finally:
        families._row_limit = rule


def sweep(seed: int) -> None:
    rng = random.Random(seed)
    grid = [(W, m, F, third) for W in WINDOWS for m in MEMBERS if m <= W // 4
            for F in ANCHORS for third in (False, True)]
    rng.shuffle(grid)
    for W, m, F, third in grid:
        win = make_window(ADDITIVE, W)
        B = GroundSet.from_values(win, rng.sample(range(W + 1), m))
        B.bitset()
        family = builtin_affine(win)
        # The shapes of affine probes: two points, or three in progression.
        query = F + (2 * F[1] - F[0],) * third
        counter = Counter()
        rows_run = lambda: family.anchored_search(query, B)
        side(counter, rows_run, 1)
        k = 5 if W < 20_000 else 3
        refs = [reference_loop()]
        rows = side(float("inf"), rows_run, k)
        pairs = side(0, rows_run, k)
        rule = best_of(rows_run, k)
        refs.append(reference_loop())
        scale = REF_NOMINAL_S / statistics.median(refs) * 1e6
        print(json.dumps({"W": W, "m": m, "F": query, "rows": counter.rows,
                          "pairs": m * (m - 1) // 2,
                          "limit": families._row_limit(m, W),
                          "rows_us": rows * scale, "pairs_us": pairs * scale,
                          "rule_us": rule * scale}), flush=True)


def fit(paths: list[str]) -> None:
    rows = [json.loads(line) for path in paths for line in open(path)]
    # A search that ends within a few rows is mostly fixed cost, which
    # both sides pay: the row cost is fitted where 20 rows or more are read.
    models = {
        "rows": ("per row, per row and window element", lambda r: [
            r["rows"], r["rows"] * r["W"]], lambda r: r["rows"] >= 20),
        "pairs": ("fixed, per pair", lambda r: [1, r["pairs"]],
                  lambda r: True),
    }
    coefs = {}
    for name, (terms, features, where) in models.items():
        X = np.array([features(r) for r in rows if where(r)], float)
        y = np.array([r[name + "_us"] for r in rows if where(r)])
        coef, *_ = np.linalg.lstsq(X / y[:, None], np.ones(len(y)),
                                   rcond=None)
        coefs[name] = coef
        spread = np.quantile(X @ coef / y, [0.05, 0.5, 0.95])
        print(f"{name} ({terms}): {np.array2string(coef, precision=4)}; "
              f"predicted/measured q05, q50, q95 "
              f"{np.array2string(spread, precision=2)}")
    (per_row, per_bit), (fixed, per_pair) = coefs["rows"], coefs["pairs"]
    print("limit in rows = (pairs + %.1f) / (%.3f + W / %.0f)"
          % (fixed / per_pair, per_row / per_pair, per_pair / per_bit))
    # What the rule in force when the grid was timed cost, against the
    # cheaper side and against the rows alone.
    cheaper = [r["rule_us"] / min(r["rows_us"], r["pairs_us"]) for r in rows]
    gain = [r["rule_us"] / r["rows_us"] for r in rows]
    print("rule/cheaper side q50, q90, max %s; rule/rows q10, q50, q90, max "
          "%s" % (np.array2string(np.quantile(cheaper, [0.5, 0.9, 1]),
                                  precision=2),
                  np.array2string(np.quantile(gain, [0.1, 0.5, 0.9, 1]),
                                  precision=2)))
    for r, ratio in sorted(zip(rows, cheaper), key=lambda x: -x[1])[:10]:
        print(f"  W={r['W']:>6} m={r['m']:>3} F={tuple(r['F'])} "
              f"rows {r['rows_us']:9.1f} us ({r['rows']} read), pairs "
              f"{r['pairs_us']:8.1f} us, rule {r['rule_us']:9.1f} us "
              f"(limit {r['limit']}): {ratio:.2f}x the cheaper")


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
