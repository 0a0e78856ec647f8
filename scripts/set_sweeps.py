"""Window-size sweeps of the set-scanning layers, as BENCH_*.json records.

    PYTHONPATH=src python scripts/set_sweeps.py --side change > sweeps.json
    PYTHONPATH=src python scripts/set_sweeps.py --side change --only density
    PYTHONPATH=src python scripts/set_sweeps.py --side change --smoke

Times the predicate fill of every builtin atom and of a union, on additive
and multiplicative windows, longest_ap, is_thick_window on both numeric
carriers, the piecewise-syndetic probe, upper_density (additive interval
nets on sparse and dense sets, on both sides of the rule that picks its
kernel, a multiplicative interval net, an additive net that is not an
interval, and two sets that are not periodic: a least-gap prefix then
random members, and random sparse members at W = 1e5), the density report
end to end (upper_density, its JSON payload and the dumped bytes) at
growing W and, at W = 1e5, at growing N, the density value of 200 sparse
sets as the density-mono suite reads it, the AP certificate of the evens
end to end, the affine and translation embedding kernels (translations on
both numeric carriers) and a geoarithmetic bounded scan that answers
unknown, each on fresh sets at growing W, in-process and single-threaded,
plus two affine scans that run past the kernel's row budget, affine
searches into 5 to 400 random members on both sides of the kernel's row
limit (anchors (0, 1), (0, 2) and (1, 3)), the fixed cost of a CLI call
and batches of small word-window decides (translations left and right and
word-suffix, sets read from JSON bodies) at word lengths L = 4..8.  A case
stops growing W once a first run takes longer than MAX_SECONDS, so slow
(quadratic) implementations can be swept with the same script.  Only the
public API and the CLI entry point are used.  --smoke runs each selected
case once, at its smallest size, to check that the cases still run.

Each record holds the raw best-of-REPEATS seconds and the normalized
seconds: the best run scaled by REF_NOMINAL_S over the median time of a
fixed pure-Python reference loop (the one perfbench/run.py uses) measured
just before and after every run of the case, so sweeps taken while the
host's speed drifts can be compared.  Each timed call is the first call
on a fresh build (cold); the same call repeated at once on that build is
timed apart (warm, warm_seconds and warm_normalized_seconds), so that
sub-millisecond cases, whose cold calls vary most, can be told apart.
A fill case builds its set inside the call, so its warm repeat fills
again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time

from finembed import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet, Net,
                      builtin_affine, builtin_geoarithmetic,
                      builtin_right_translations, embed_finite, fe_decide,
                      fe_probe, interval_net, is_piecewise_syndetic_window,
                      is_thick_window, longest_ap, make_window,
                      parse_predicate, upper_density)
from finembed.cli import dispatch
from finembed.jsonio import (certificate_to_json, density_report_to_json,
                             dumps, family_from_json, set_body_from_json)

SIZES = (10_000, 25_000, 50_000, 100_000, 200_000, 400_000)
SMALL_SIZES = (400, 1_000, 4_000, 10_000, 25_000, 100_000)
SCAN_SIZES = (20, 30, 40, 50, 60)
PROBE_SIZES = (2_000, 5_000, 10_000, 25_000, 50_000, 100_000)
DENSITY_SIZES = (2_000, 10_000, 25_000, 50_000, 100_000)
# 501 to 200,001 realized elements; the first five sizes bracket the
# int-text kernel's crossover (800 values, 1,200 when they were chosen)
CERT_SIZES = (1_000, 1_500, 2_000, 3_000, 4_000) + SIZES
REPEATS = 3        # best of
MAX_SECONDS = 2.0  # a case stops growing W after a run this slow
REF_NOMINAL_S = 1e-3  # normalized times assume the reference loop takes this


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def best_of(run, k: int) -> float:
    """The least of k wall-clock timings of run()."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def fresh(W: int, spec: str, kind: str = ADDITIVE) -> GroundSet:
    return GroundSet.from_predicate(make_window(kind, W),
                                    parse_predicate(spec), spec)


def fill(spec, kind=ADDITIVE):
    # a fresh set on a window and predicate built beforehand, filled whole
    def build(W):
        win, pred = make_window(kind, W), parse_predicate(spec)
        return lambda: GroundSet.from_predicate(win, pred).count()
    return build


def ap_evens(W):
    A = fresh(W, "evens")
    A.count()
    return lambda: longest_ap(A).length


def ap_primes(W):
    A = fresh(W // 50, "primes")  # sparse: many strides before the break
    A.count()
    return lambda: longest_ap(A).length


def ap_squares(W):
    # Sparse with a record of 3 (no four squares are in progression): the
    # scan visits every stride up to W / 3.
    A = fresh(W, "squares")
    A.count()
    return lambda: longest_ap(A).length


def ap_random(W):
    # Dense and random: a record in the twenties, reached at strides far
    # past the first.
    rng = random.Random(W)
    win = make_window(ADDITIVE, W)
    A = GroundSet.from_values(win, [v for v in range(W + 1)
                                    if rng.random() < 0.5])
    return lambda: longest_ap(A).length


def ap_runs(W):
    # Runs of 100 members, 3 apart: each run is a chain longer than the
    # first search chunk (64 terms), a search over the rest of the window
    # at every chain would be quadratic in W, and strides 2 to 102 each
    # test every run before stride 103 sets the record that ends the scan.
    win = make_window(ADDITIVE, W)
    A = GroundSet.from_values(win, [v for v in range(W + 1) if v % 103 < 100])
    return lambda: longest_ap(A).length


def thick(kind):
    def build(W):
        lo = W - W // 50
        A = fresh(W, f"union(multiples:3,interval:{lo}:{lo + 20})", kind)
        A.count()
        return lambda: [e.shift
                        for e in is_thick_window(A, [1, 2, 4, 8]).entries]
    return build


def ps(W):
    lo = W // 7
    A = fresh(W, f"union(multiples:3,interval:{lo}:{lo + 30})")
    A.count()
    return lambda: [e.shift for e in
                    is_piecewise_syndetic_window(A, 2, [4, 8, 16]).entries]


def density(W):
    A = fresh(W, "multiples:7")
    A.count()
    net = interval_net(1000)
    return lambda: str(upper_density(A, net).value)


def density_report(W):
    # What `density --net interval:1000` does after parsing: the report, its
    # per-tail payload and the stdout bytes (digested, to compare sides).
    A = fresh(W, "multiples:7")
    A.count()
    net = interval_net(1000)
    return lambda: hashlib.sha256(dumps(density_report_to_json(
        upper_density(A, net))).encode()).hexdigest()[:16]


def density_report_n(N):
    # The density report end to end at W = 1e5 on interval:N, net included:
    # its runs grow with N (17 at N = 60, 579 at N = 4000), not with W.
    A = fresh(100_000, "multiples:7")
    A.count()
    return lambda: hashlib.sha256(dumps(density_report_to_json(
        upper_density(A, interval_net(N)))).encode()).hexdigest()[:16]


def density_sparse(N):
    # 200 sets of 2 to 10 members below W/3 at W = 240 on interval:N: the
    # shape of the density-mono suite's medium budget, which reads only
    # each report's value
    rng = random.Random(N)
    win = make_window(ADDITIVE, 240)
    sets = [GroundSet.from_values(win, rng.sample(range(81), rng.randint(2, 10)))
            for _ in range(200)]
    return lambda: [str(upper_density(A, interval_net(N)).value)
                    for A in sets]


def ap_certificate(W):
    # What `rich --detect ap` does after parsing: the certificate, its
    # payload and the stdout bytes (digested, to compare sides).
    A = fresh(W, "evens")
    A.count()
    return lambda: hashlib.sha256(dumps(certificate_to_json(
        longest_ap(A))).encode()).hexdigest()[:16]


def density_dense(spec):
    # interval:1000 on a dense set: the evens, the full window or a random
    # half, where the span kernel's work per count is |A| >= W/2
    def build(W):
        win = make_window(ADDITIVE, W)
        if spec == "half":
            rng = random.Random(W)
            A = GroundSet.from_values(win, [v for v in range(W + 1)
                                            if rng.random() < 0.5])
        else:
            A = GroundSet.full(win) if spec == "window" else fresh(W, spec)
            A.count()
        net = interval_net(1000)
        return lambda: str(upper_density(A, net).value)
    return build


def density_nonperiodic(prefix):
    # interval:1000 on random members at p = 0.02, after the prefix 1..200
    # when `prefix` (its gap 1 is the least, so the span kernel settles the
    # prefix's counts without a scan) and alone otherwise
    def build(W):
        rng = random.Random(W)
        win = make_window(ADDITIVE, W)
        start = 201 if prefix else 0
        A = GroundSet.from_values(win, [*range(1, start)] + [
            v for v in range(start, W + 1) if rng.random() < 0.02])
        net = interval_net(1000)
        return lambda: str(upper_density(A, net).value)
    return build


def density_small(members):
    # 200 seeded sets at W=400 on interval:30, the shape of perfbench's
    # many-small density queries: a random half, or `members` members
    def build(W):
        rng = random.Random(W + members)
        win = make_window(ADDITIVE, W)
        sets = [GroundSet.from_values(
            win, rng.sample(range(W + 1), members) if members
            else [v for v in range(W + 1) if rng.random() < 0.5])
            for _ in range(200)]
        return lambda: [str(upper_density(A, interval_net(30)).value)
                        for A in sets]
    return build


def density_mul(W):
    A = fresh(W, "multiples:3", MULTIPLICATIVE)
    A.count()
    net = interval_net(8)
    return lambda: str(upper_density(A, net).value)


def density_spread(W):
    # F_n = {3, 4, 6, 7, ..., 3n, 3n+1}, each increment listed as (3n+1, 3n)
    A = fresh(W, "multiples:7")
    A.count()
    net = Net([[v for k in range(1, n + 1) for v in (3 * k + 1, 3 * k)]
               for n in range(1, 41)], label="spread:40")
    return lambda: str(upper_density(A, net).value)


def affine_probe(W):
    # The prefixes {0,1}, {0,1,2}, {0,1,2,3} find their first witness in a
    # row at a small intercept, with almost every slope still to go.
    win = make_window(ADDITIVE, W)
    A = fresh(W, f"interval:0:{W}")
    B = fresh(W, "primes")
    B.count()
    family = builtin_affine(win)
    return lambda: [(e.verdict.witness.params, e.verdict.stats.params_examined)
                    for e in fe_probe(A, B, family, [2, 3, 4]).entries]


def affine_long(W):
    # F = {0..k-1} into the primes, past the kernel's row budget: k = 13
    # at W=20000 reads every row and ends in "no", k = 7 at W=100000 finds
    # (7, 150) after 150 rows of 100,001 bits.
    k = {20_000: 13, 100_000: 7}[W]
    win = make_window(ADDITIVE, W)
    B = fresh(W, "primes")
    B.bitset()
    family = builtin_affine(win)
    return lambda: family.anchored_search(range(k), B)


def affine_sparse(m):
    # m seeded members against the anchors (0, 1), (0, 2) and (1, 3), each
    # alone and with the point that continues them in progression, the
    # shapes of affine probes: at few members the rows cost more than the
    # m(m-1)/2 member pairs, at many the pairs cost more.
    def build(W):
        rng = random.Random(W + m)
        win = make_window(ADDITIVE, W)
        B = GroundSet.from_values(win, rng.sample(range(W + 1), m))
        B.bitset()
        family = builtin_affine(win)
        queries = [F + (2 * F[1] - F[0],) * third
                   for F in ((0, 1), (0, 2), (1, 3)) for third in (0, 1)]
        return lambda: [family.anchored_search(F, B) for F in queries]
    return build


def translations_mul(W):
    # F = [2, 3, 5] into the multiples of 6: the candidates are r = 3k, and
    # the first witness is r = 6 (12, 18 and 30).
    win = make_window(MULTIPLICATIVE, W)
    B = fresh(W, "multiples:6", MULTIPLICATIVE)
    B.count()
    family = builtin_right_translations(win)

    def run():
        verdict = embed_finite([2, 3, 5], B, family)
        return verdict.witness.params, verdict.stats.params_examined
    return run


def geo_scan(W):
    # F = [1, 2] into the primes with --bound W: r(a + b) prime forces
    # a + b = 1, so b = 1 and 2r is not prime; the bounded scan walks every
    # parameter up to W ((W - 1) W (W + 1) of them) and answers unknown.
    win = make_window(ADDITIVE, W)
    B = fresh(W, "primes")
    B.count()
    family = builtin_geoarithmetic(win)

    def run():
        verdict = embed_finite([1, 2], B, family, bound=W)
        return verdict.outcome, verdict.stats.params_examined
    return run


def tiny_decides(W):
    # 200 seeded decides on a window as small as the verify suites' W=40:
    # translations have one slope and few affine witnesses leave more
    # slopes than intercepts, so nearly every query ends in rows (22 of the
    # 200 go on by columns).
    rng = random.Random(W)
    win = make_window(ADDITIVE, W)
    families = (builtin_right_translations(win), builtin_affine(win))
    queries = []
    for _ in range(200):
        A = GroundSet.from_values(
            win, rng.sample(range(W // 3 + 1), rng.randint(1, 7)))
        B = GroundSet.from_values(
            win, rng.sample(range(W + 1), rng.randint(3, W // 2)))
        queries.append((A, B, rng.choice(families)))
    return lambda: sum(fe_decide(A, B, family).stats.params_examined
                       for A, B, family in queries)


def word_decides(builtin):
    # 40 seeded decides on word windows of bound L, 20 over "ab" and 20
    # over "abc": A holds 1-5 words of at most L - 2 letters, B 40 words,
    # and every other B also holds A's images under one parameter.  The
    # sets are read from their JSON bodies inside the call, as set files
    # are, so the call times what a word query costs end to end.
    def build(L):
        rng = random.Random(f"{builtin}:{L}")
        queries = []
        for i in range(40):
            letters = "ab" if i % 2 else "abc"
            win = make_window(FREE_WORDS, L, letters)
            fam = {"builtin": builtin, "args": {"letter": letters[0]}}
            family = family_from_json(fam, win)

            def words(count, top):
                return {"".join(rng.choice(letters)
                                for _ in range(rng.randint(1, top)))
                        for _ in range(count)}
            a_vals = sorted(words(rng.randint(1, 5), L - 2))
            b_vals = words(40, L)
            if i % 4 < 2:
                r = (rng.randint(0, 2) if builtin == "word-suffix"
                     else words(1, 2).pop())
                b_vals |= {family.g((a,), (r,)) for a in a_vals} - {None}
            queries.append((win, fam, a_vals, sorted(b_vals)))

        def run():
            verdicts = [fe_decide(set_body_from_json(win, {"explicit": a}),
                                  set_body_from_json(win, {"explicit": b}),
                                  family_from_json(fam, win))
                        for win, fam, a, b in queries]
            return (sum(v.outcome == "yes" for v in verdicts),
                    sum(v.stats.params_examined for v in verdicts))
        return run
    return build


def cli_calls(calls):
    # The fixed cost of one CLI call: a threshold search that takes
    # microseconds, parsed, answered and printed to a discarded stream.
    argv = ["pr", "threshold", "--pattern", "ap:3", "--colors", "2",
            "--nmax", "3"]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return sum(dispatch(argv) for _ in range(calls))
    return run


FILL_SPECS = ("primes", "evens", "multiples:7", "squares",
              "interval:1000:5000", "all",
              "union(multiples:3,interval:1000:5000)")

CASES = tuple(
    (f"{spec} fill{suffix}", "carrier.fill", fill(spec, kind), SIZES)
    for kind, suffix in ((ADDITIVE, ""), (MULTIPLICATIVE, ", multiplicative"))
    for spec in FILL_SPECS) + (
    ("longest_ap(evens)", "rich.longest_ap", ap_evens, SIZES),
    ("longest_ap(primes), W/50", "rich.longest_ap", ap_primes, SIZES),
    ("longest_ap(runs of 100, 3 apart)", "rich.longest_ap", ap_runs,
     PROBE_SIZES),
    ("longest_ap(squares)", "rich.longest_ap", ap_squares, SIZES),
    ("longest_ap(random, p=1/2)", "rich.longest_ap", ap_random, PROBE_SIZES),
    ("is_thick_window probes 1,2,4,8", "rich.is_thick_window",
     thick(ADDITIVE), SIZES),
    ("is_thick_window probes 1,2,4,8, multiplicative", "rich.is_thick_window",
     thick(MULTIPLICATIVE), (400, 4_000)),
    ("piecewise syndetic g=2 spans 4,8,16",
     "rich.is_piecewise_syndetic_window", ps, SIZES),
    ("upper_density interval:1000", "density.upper_density", density, SIZES),
    ("density report interval:1000, multiples of 7", "jsonio.density_report",
     density_report, SIZES),
    ("density report, multiples of 7 at W=1e5, size = N",
     "jsonio.density_report", density_report_n, (60, 250, 1_000, 4_000)),
    ("density value, 200 sparse sets at W=240, size = N",
     "density.upper_density", density_sparse, (60,)),
    ("rich ap certificate, evens", "jsonio.certificate", ap_certificate,
     CERT_SIZES),
    ("upper_density interval:1000 on the evens", "density.upper_density",
     density_dense("evens"), DENSITY_SIZES),
    ("upper_density interval:1000 on the full window",
     "density.upper_density", density_dense("window"), DENSITY_SIZES),
    ("upper_density interval:1000 on a random half",
     "density.upper_density", density_dense("half"), DENSITY_SIZES),
    ("upper_density interval:1000, least-gap prefix then random members",
     "density.upper_density", density_nonperiodic(True), DENSITY_SIZES),
    ("upper_density interval:1000, random sparse at W=1e5",
     "density.upper_density", density_nonperiodic(False), (100_000,)),
    ("upper_density interval:30, 200 random halves", "density.upper_density",
     density_small(0), (400,)),
    ("upper_density interval:30, 200 sets of 10 members",
     "density.upper_density", density_small(10), (400,)),
    ("upper_density multiplicative interval:8", "density.upper_density",
     density_mul, SMALL_SIZES),
    ("upper_density additive spread:40", "density.upper_density",
     density_spread, SMALL_SIZES),
    ("fe_probe affine [0..W] into primes, sizes 2,3,4", "embed.fe_probe",
     affine_probe, PROBE_SIZES),
    ("anchored_search affine {0..12} into primes (no)",
     "families.anchored_search", affine_long, (20_000,)),
    ("anchored_search affine {0..6} into primes (yes)",
     "families.anchored_search", affine_long, (100_000,)),
) + tuple(
    (f"anchored_search affine sparse vs dense, |B| = {m}",
     "families.anchored_search", affine_sparse(m),
     tuple(W for W in SMALL_SIZES if m <= W // 4))
    for m in (5, 20, 100, 400)) + (
    ("fe_decide translations and affine, 200 draws", "embed.fe_decide",
     tiny_decides, (40,)),
    ("translations [2,3,5] into multiples:6, multiplicative",
     "embed.embed_finite", translations_mul, (400, 10_000, 100_000)),
    ("geoarithmetic bounded scan (unknown)", "embed.embed_finite", geo_scan,
     SCAN_SIZES),
    ("cli.dispatch pr threshold ap:3 r=2 nmax=3, size = calls",
     "cli.dispatch", cli_calls, (200,)),
) + tuple(
    (f"fe_decide {builtin} on words, 40 draws, size = L", "embed.fe_decide",
     word_decides(builtin), (4, 5, 6, 7, 8))
    for builtin in ("translations-right", "translations-left", "word-suffix"))


def sweep(cases, side: str, how: str, max_seconds: float = MAX_SECONDS,
          counters=lambda result, best: {"result": result},
          only: str = "", smoke: bool = False) -> list[dict]:
    """One record per case (name, layer, build, sizes) and size: build(size)
    gives a fresh run(), timed best of REPEATS with the reference loop just
    before and after each run, and each run is repeated at once for the
    warm time.  A case stops growing once a first run takes longer than
    max_seconds; counters(result, best) fills the record's counters from
    the last first run's result.  smoke runs each case once, at its least
    size."""
    records = []
    for case, layer, build, sizes in cases:
        if only not in case:
            continue
        for size in (min(sizes),) if smoke else sizes:
            best, warm, refs, result = float("inf"), float("inf"), [], None
            for _ in range(1 if smoke else REPEATS):
                run = build(size)
                refs.append(reference_loop())
                t0 = time.perf_counter()
                result = run()
                t1 = time.perf_counter()
                run()
                t2 = time.perf_counter()
                best, warm = min(best, t1 - t0), min(warm, t2 - t1)
                refs.append(reference_loop())
                if best > max_seconds:
                    break
            scale = REF_NOMINAL_S / statistics.median(refs)
            records.append({"case": case, "layer": layer, "size": size,
                            "side": side, "seconds": best,
                            "normalized_seconds": best * scale,
                            "warm_seconds": warm,
                            "warm_normalized_seconds": warm * scale,
                            "counters": counters(result, best), "how": how})
            print(f"{case:40s} size={size:>7d} {best * 1e3:10.4f} ms, "
                  f"normalized {best * scale * 1e3:10.4f} ms, warm "
                  f"{warm * scale * 1e3:10.4f} ms", file=sys.stderr)
            if best > max_seconds:
                break
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", required=True, help="label for the records")
    ap.add_argument("--only", default="",
                    help="run only the cases whose name contains this")
    ap.add_argument("--smoke", action="store_true",
                    help="each case once, at its smallest size")
    args = ap.parse_args()
    how = (f"scripts/set_sweeps.py, best of {REPEATS}, raw and normalized "
           f"to a reference loop of {REF_NOMINAL_S * 1e3:g} ms, set filled "
           "before timing except for the fill cases; warm = the same call "
           "repeated at once on the same build")
    if args.smoke:
        how += "; smoke: one run per case at its smallest size"
    json.dump(sweep(CASES, args.side, how, only=args.only, smoke=args.smoke),
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
