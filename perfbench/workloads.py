"""The benchmark's workloads: fixed query sets generated from a seed.

A workload is a list of queries run in passes.  Every pass runs the same
queries in the same order, so each pass has the same latency mix; the seed
changes parameters (window offsets, moduli, set elements, search slack)
without changing how much work a query does.  The heavy CLI workloads keep
one fixed query order: a query's time depends a little on what ran before it
(allocator and garbage-collector state), and a seeded order would turn that
into spread between seeds.

  large-window  heavy CLI queries, in-process finembed.cli.dispatch on JSON
                files, with a window-size sweep per query kind.  Loads the
                carrier (membership, predicate fill) and the families
                (anchored candidate lists); prsearch is idle.
  pr-search     partition-regularity CLI queries.  Loads instance
                enumeration and backtracking; carrier, families and embed
                are idle.
  many-small    about two thousand small library-API queries on additive,
                multiplicative and free-word windows (W <= 400, |A| <= 7),
                plus a few seeded verify suites.  Same layers as
                large-window, but per-call fixed cost dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Library calls go through module attributes at call time (fe.x, jsonio.x),
# so that the tracer's wrappers see them.
import finembed as fe
from finembed import cli, jsonio, verify

import oracle

ADD, MUL, WORDS = "additive-naturals", "multiplicative-naturals", "free-words"


@dataclass
class Query:
    qid: str                      # stable across seeds, used for digests
    kind: str                     # query kind, for the traced breakdown
    size: int                     # W or N sweep point, for the traced breakdown
    run: Callable[[], str]        # returns the program's output text
    check: Callable[[str], None]  # raises oracle.CheckError on a wrong answer


@dataclass
class Workload:
    queries: list[Query]
    # Latency percentile reported as query_tail_ms.  Passes repeat the same
    # latency mix, so a fixed percentile lands on the same query of the mix
    # whatever the pass count; min_passes guarantees ten samples beyond it.
    tail_pct: float
    min_passes: int


def set_obj(kind: str, bound: int, body: dict, alphabet=None) -> dict:
    window = {"kind": kind, "bound": bound}
    if alphabet:
        window["alphabet"] = list(alphabet)
    return {"window": window, "set": body}


class CliQueries:
    """Writes input files into a work directory and builds dispatch calls."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.queries: list[Query] = []

    def file(self, name: str, obj: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def add(self, qid: str, kind: str, size: int, argv: list[str],
            check: Callable[[dict], None]) -> None:
        def run() -> str:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:200]}")
            return out.getvalue()

        self.queries.append(Query(qid, kind, size, run,
                                  lambda text: check(oracle.parse(text))))


# -- large-window ---------------------------------------------------------------

def large_window(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"large-window:{seed}")
    q = CliQueries(workdir)
    scale = 50 if smoke else 1
    affine = q.file("affine", {"builtin": "affine"})
    right = q.file("translations-right", {"builtin": "translations-right"})

    for W0 in (10_000, 25_000, 50_000, 75_000):
        W = W0 // scale - rng.randrange(20)
        obj = set_obj(ADD, W, {"predicate": rng.choice(["evens", "multiples:2"])})
        q.add(f"rich-ap-evens-{W0}", "rich-ap-evens", W0,
              ["rich", "--set", q.file(f"evens{W0}", obj), "--detect", "ap"],
              lambda out, obj=obj, W=W: oracle.check_certificate(out, obj, W // 2 + 1))

    for W0 in (4_000, 8_000):
        W = W0 // scale - rng.randrange(10)
        obj = set_obj(ADD, W, {"predicate": "primes"})
        q.add(f"rich-ap-primes-{W0}", "rich-ap-primes", W0,
              ["rich", "--set", q.file(f"primes{W0}", obj), "--detect", "ap"],
              lambda out, obj=obj: oracle.check_certificate(out, obj))

    for W0 in (25_000, 50_000):
        W = W0 // scale
        # A run of 21 consecutive members near the top: the thick scan walks
        # almost every shift before it finds the interval.
        lo = W - W // 50 - rng.randrange(W // 100)
        obj = set_obj(ADD, W, {"predicate": f"union(multiples:3,interval:{lo}:{lo + 20})"})
        q.add(f"rich-thick-{W0}", "rich-thick", W0,
              ["rich", "--set", q.file(f"thick{W0}", obj), "--detect", "thick"],
              lambda out, obj=obj: oracle.check_shift_report(out, obj, "thick", [1, 2, 4, 8]))

    for W0 in (25_000, 50_000):
        W = W0 // scale
        lo = rng.randrange(W // 10, W // 5)
        obj = set_obj(ADD, W, {"predicate": f"union(multiples:3,interval:{lo}:{lo + 30})"})
        q.add(f"rich-ps-{W0}", "rich-ps", W0,
              ["rich", "--set", q.file(f"ps{W0}", obj), "--detect", "ps"],
              lambda out, obj=obj: oracle.check_shift_report(
                  out, obj, "piecewise-syndetic", [4, 8, 16], gap=2))

    for W0 in (25_000, 50_000, 100_000):
        W = W0 // scale - rng.randrange(50 // scale + 1)
        net = 1000 // scale
        obj = set_obj(ADD, W, {"predicate": f"multiples:{rng.randrange(5, 10)}"})
        q.add(f"density-{W0}", "density", W0,
              ["density", "--set", q.file(f"density{W0}", obj), "--net", f"interval:{net}"],
              lambda out, obj=obj, net=net: oracle.check_density(out, obj, net))

    for W0 in (2_000, 4_000):
        W = W0 // scale
        # The first two points fix the anchored candidate count, so only the
        # third point is seeded.
        a_obj = set_obj(ADD, W, {"explicit": [0, 5, rng.randrange(6, 30)]})
        b_obj = set_obj(ADD, W, {"predicate": "multiples:3"})
        fam = {"builtin": "affine"}
        q.add(f"embed-affine-{W0}", "embed-affine", W0,
              ["embed", "--set-a", q.file(f"affA{W0}", a_obj),
               "--set-b", q.file(f"affB{W0}", b_obj), "--family", affine],
              lambda out, a=a_obj, b=b_obj, f=fam: oracle.check_decide(out, a, b, f))

    for W0 in (50_000, 100_000):
        W = W0 // scale
        # A gap that is not a multiple of 3 leaves no translation into the
        # multiples of 3: a complete "no" after every candidate is examined.
        d = 3 * rng.randrange(1, 30) + rng.choice([1, 2])
        a_obj = set_obj(ADD, W, {"explicit": [0, d, d + 3 * rng.randrange(1, 30)]})
        b_obj = set_obj(ADD, W, {"predicate": "multiples:3"})
        fam = {"builtin": "translations-right"}
        q.add(f"embed-translations-no-{W0}", "embed-translations-no", W0,
              ["embed", "--set-a", q.file(f"trA{W0}", a_obj),
               "--set-b", q.file(f"trB{W0}", b_obj), "--family", right],
              lambda out, a=a_obj, b=b_obj, f=fam: oracle.check_decide(out, a, b, f))

    for W0 in (2_000, 3_000):
        W = W0 // scale
        # The prefix start decides how far the candidate scan runs before a
        # witness, so it stays fixed; the seed only offsets the window.
        W -= rng.randrange(10)
        a_obj = set_obj(ADD, W, {"predicate": f"interval:0:{W}"})
        b_obj = set_obj(ADD, W, {"predicate": "primes"})
        fam = {"builtin": "affine"}
        q.add(f"probe-affine-primes-{W0}", "probe-affine-primes", W0,
              ["embed", "--set-a", q.file(f"prA{W0}", a_obj),
               "--set-b", q.file(f"prB{W0}", b_obj), "--family", affine,
               "--probes", "2,3,4"],
              lambda out, a=a_obj, b=b_obj, f=fam: oracle.check_probe(
                  out, a, b, f, [2, 3, 4]))

    # p87 of the 19-query mix centres on its third-slowest query
    # (rich-ap-primes-8000), which sits well apart from its neighbours in cost.
    return Workload(q.queries, tail_pct=87.0, min_passes=5)


# -- pr-search ----------------------------------------------------------------------

def pr_search(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"pr-search:{seed}")
    q = CliQueries(workdir)

    def threshold(spec: str, r: int, nmax: int) -> None:
        q.add(f"threshold-{spec}-{r}", "pr-threshold", nmax,
              ["pr", "threshold", "--pattern", spec, "--colors", str(r), "--nmax", str(nmax)],
              lambda out: oracle.check_threshold(out, spec, r, nmax))

    def search(qid: str, spec: str, r: int, n: int) -> None:
        q.add(qid, "pr-search", n,
              ["pr", "search", "--pattern", spec, "--colors", str(r), "--n", str(n)],
              lambda out: oracle.check_coloring(out, spec, r=r, n=n))

    def equation(qid: str, poly: str, spec: str, r: int, n: int) -> None:
        pattern = fe.equation_pattern(fe.parse_polynomial(poly))
        q.add(qid, "pr-equation", n,
              ["pr", "equation", "--poly", poly, "--colors", str(r), "--n", str(n)],
              lambda out: oracle.check_coloring(out, spec, r=r, n=n, pattern=pattern))

    # The nmax slack is seeded; every scan stops at the same forced N.
    if smoke:
        threshold("ap:3", 2, 9 + rng.randrange(4))
        threshold("schur", 2, 5 + rng.randrange(4))
        search("search-ap3-small", "ap:3", 2, rng.choice([8, 9]))
        equation("equation-schur", "x+y-z", "schur", 2, rng.choice([4, 5]))
        return Workload(q.queries, tail_pct=50.0, min_passes=5)
    threshold("ap:3", 3, 27 + rng.randrange(4))
    threshold("ap:4", 2, 35 + rng.randrange(4))
    threshold("gap-grid:1", 2, 40 + rng.randrange(4))
    threshold("schur", 3, 14 + rng.randrange(4))
    threshold("ap:3", 2, 9 + rng.randrange(4))
    # Backtracking cost jumps with N, so the heavy searches keep fixed sizes
    # and the seed picks only the small ones.
    for n in (35, 36, 37, 38):  # forced: W(4;2) = 35
        search(f"search-ap4-{n}", "ap:4", 2, n)
    search("search-gapgrid-forced", "gap-grid:1", 2, rng.choice([24, 25, 26]))
    search("search-schur-4", "schur", 4, 30)
    search("search-ap3-3", "ap:3", 3, 26)
    search("search-ap5-2", "ap:5", 2, 100)
    search("search-gapgrid-23", "gap-grid:1", 2, 23)
    search("search-ap3-small", "ap:3", 2, rng.choice([8, 9, 10]))
    equation("equation-pythagoras", "x^2+y^2-z^2", "pythagoras", 2, 100)
    equation("equation-schur", "x+y-z", "schur", 3, rng.choice([13, 14]))
    # Of the 17 queries, the median is the 9th, inside a block of five
    # ~50 ms searches, and p78 the 14th, the middle of three ~100 ms searches.
    return Workload(q.queries, tail_pct=78.0, min_passes=4)


# -- many-small -------------------------------------------------------------------

def _bucket(W: int) -> int:
    """Window sizes of the small queries, grouped by hundreds (60..400)."""
    return -(-W // 100) * 100


def _numeric_body(rng: random.Random, kind: str, W: int) -> dict:
    if rng.random() < 0.5:
        lo = 1 if kind == MUL else 0
        return {"explicit": sorted(rng.sample(range(lo, W + 1), rng.randrange(5, 40)))}
    spec = rng.choice(["evens", "odds", "primes", "squares", f"multiples:{rng.randrange(2, 8)}",
                       f"union(multiples:{rng.randrange(3, 9)},interval:{W // 3}:{W // 3 + 20})"])
    return {"predicate": spec}


def _words(rng: random.Random, alphabet: str, L: int, count: int) -> list[str]:
    out: set[str] = set()
    count = min(count, sum(len(alphabet) ** n for n in range(1, L + 1)))
    while len(out) < count:
        n = rng.randrange(1, L + 1)
        out.add("".join(rng.choice(alphabet) for _ in range(n)))
    return sorted(out)


def _decide_query(rng: random.Random, i: int) -> Query:
    kind = rng.choice([ADD, ADD, MUL, WORDS])
    if kind == WORDS:
        alphabet, L = rng.choice(["ab", "abc"]), rng.randrange(4, 7)
        fam = rng.choice([{"builtin": "translations-right"}, {"builtin": "translations-left"},
                          {"builtin": "word-suffix", "args": {"letter": alphabet[0]}}])
        a_vals = _words(rng, alphabet, L - 2, rng.randrange(1, 6))
        b_vals = _words(rng, alphabet, L, rng.randrange(10, 60))
        if fam["builtin"] == "word-suffix" and rng.random() < 0.5:
            j = rng.randrange(0, 3)
            b_vals = sorted(set(b_vals) | {w + alphabet[0] * j for w in a_vals})
        a_obj = set_obj(WORDS, L, {"explicit": a_vals}, alphabet)
        b_obj = set_obj(WORDS, L, {"explicit": b_vals}, alphabet)
        size = L
    else:
        W = rng.randrange(60, 401)
        fams = [{"builtin": "translations-right"}, {"builtin": "translations-left"}]
        if kind == ADD:
            fams.append({"builtin": "affine"})
        fam = rng.choice(fams)
        lo = 1 if kind == MUL else 0
        top = W // 8 if kind == MUL else W // 3
        a_vals = sorted(rng.sample(range(lo, top + 1), rng.randrange(1, 8)))
        a_obj = set_obj(kind, W, {"explicit": a_vals})
        b_obj = set_obj(kind, W, _numeric_body(rng, kind, W))
        size = _bucket(W)

    def run() -> str:
        a = jsonio.ground_set_from_json(a_obj)
        b = jsonio.ground_set_from_json(b_obj)
        family = jsonio.family_from_json(fam, a.window)
        return jsonio.dumps(jsonio.verdict_to_json(fe.fe_decide(a, b, family)))

    carrier = {ADD: "add", MUL: "mul", WORDS: "words"}[kind]
    return Query(f"decide-{i}", f"decide-{fam['builtin']}-{carrier}", size, run,
                 lambda text: oracle.check_decide(oracle.parse(text), a_obj, b_obj, fam))


def _probe_query(rng: random.Random, i: int) -> Query:
    W = rng.randrange(60, 401)
    fam = rng.choice([{"builtin": "translations-right"}, {"builtin": "affine"}])
    a_obj = set_obj(ADD, W, {"predicate": rng.choice(["evens", "odds", "squares", "multiples:3"])})
    # Sparse targets keep the affine candidate lists (|B|^2 pairs) small.
    body = rng.choice([{"explicit": sorted(rng.sample(range(W + 1), rng.randrange(5, 40)))},
                       {"predicate": rng.choice(["primes", "squares", f"multiples:{rng.randrange(5, 10)}"])}])
    b_obj = set_obj(ADD, W, body)
    # A one-point affine probe anchors on every (member, slope) pair, far
    # slower than the rest of this mix, so affine probes start at two points.
    sizes = [2, 3] if fam["builtin"] == "affine" else rng.choice([[1, 2, 3], [2, 4]])

    def run() -> str:
        a = jsonio.ground_set_from_json(a_obj)
        b = jsonio.ground_set_from_json(b_obj)
        family = jsonio.family_from_json(fam, a.window)
        return jsonio.dumps(jsonio.probe_report_to_json(fe.fe_probe(a, b, family, sizes)))

    return Query(f"probe-{i}", f"probe-{fam['builtin']}", _bucket(W), run,
                 lambda text: oracle.check_probe(oracle.parse(text), a_obj, b_obj, fam, sizes))


def _detector_query(rng: random.Random, i: int) -> Query:
    detector = rng.choice(["ap", "thick", "ps"])
    # Piecewise syndeticity runs on additive windows only: on multiplicative
    # windows the program tests membership of v + 1 for v (see CHANGES.md).
    kind = rng.choice([ADD, MUL]) if detector == "thick" else ADD
    W = rng.randrange(60, 401)
    obj = set_obj(kind, W, _numeric_body(rng, kind, W))

    if detector == "ap":
        def run() -> str:
            return jsonio.dumps(jsonio.certificate_to_json(
                fe.longest_ap(jsonio.ground_set_from_json(obj))))

        def check(text: str) -> None:
            oracle.check_certificate(oracle.parse(text), obj, min_length=0)
    elif detector == "thick":
        probes = [1, 2, 3]

        def run() -> str:
            return jsonio.dumps(jsonio.shift_report_to_json(
                fe.is_thick_window(jsonio.ground_set_from_json(obj), probes)))

        def check(text: str) -> None:
            oracle.check_shift_report(oracle.parse(text), obj, "thick", probes)
    else:
        g, spans = rng.choice([2, 3]), [4, 8]

        def run() -> str:
            return jsonio.dumps(jsonio.shift_report_to_json(
                fe.is_piecewise_syndetic_window(jsonio.ground_set_from_json(obj), g, spans)))

        def check(text: str) -> None:
            oracle.check_shift_report(oracle.parse(text), obj, "piecewise-syndetic",
                                      spans, gap=g)
    return Query(f"detect-{i}", f"rich-{detector}", _bucket(W), run, check)


def _density_query(rng: random.Random, i: int, heavy: bool = False) -> Query:
    if heavy:  # one fixed shape, so these scans cost the same for every seed
        kind, W, net_max = MUL, rng.randrange(380, 401), 8
        obj = set_obj(kind, W, {"predicate": f"multiples:{rng.randrange(2, 10)}"})
    else:
        kind = rng.choice([ADD, ADD, MUL])
        W = rng.randrange(60, 401)
        net_max = rng.randrange(5, 30) if kind == ADD else rng.randrange(4, 7)
        obj = set_obj(kind, W, _numeric_body(rng, kind, W))

    def run() -> str:
        report = fe.upper_density(jsonio.ground_set_from_json(obj), fe.interval_net(net_max))
        return jsonio.dumps(jsonio.density_report_to_json(report))

    return Query(f"density-{i}", "density-mul-net8" if heavy else "density", _bucket(W), run,
                 lambda text: oracle.check_density(oracle.parse(text), obj, net_max))


def _coloring_query(rng: random.Random, i: int) -> Query:
    spec, r = rng.choice([("ap:3", 2), ("schur", 2), ("schur", 3), ("ap:4", 2)])
    n = rng.randrange(4, 13)

    def run() -> str:
        return jsonio.dumps(jsonio.coloring_to_json(
            fe.find_avoiding_coloring(n, r, fe.parse_pattern(spec))))

    return Query(f"coloring-{i}", "pr-search", n, run,
                 lambda text: oracle.check_coloring(oracle.parse(text), spec, r=r, n=n))


def _suite_query(suite_seed: int, i: int, budget: str) -> Query:
    def run() -> str:
        report, _ok = verify.run_suite("all", suite_seed, budget)
        return jsonio.dumps(report)

    def check(text: str) -> None:
        report = oracle.parse(text)
        oracle.require(report["ok"] and report["violation"] is None,
                       f"suite violation {report['violation']}")

    return Query(f"suite-{i}", "verify-suite", verify.BUDGETS[budget]["window"], run, check)


def _heavy_density_query(rng: random.Random, i: int) -> Query:
    return _density_query(rng, i, heavy=True)


# Queries per pass, by kind.  The counts are fixed so that every seed gives
# the same mix; only the parameters inside each kind are drawn from the seed.
# The 60 multiplicative density scans at W ~ 400 are the slowest small
# queries and of nearly equal cost: with the three suites they fill the top
# 1% of a pass, so query_tail_ms (p99) falls among them for every seed.
MANY_SMALL_MIX = ((_decide_query, 900), (_probe_query, 300), (_detector_query, 400),
                  (_density_query, 250), (_heavy_density_query, 60),
                  (_coloring_query, 150))


def many_small(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"many-small:{seed}")
    queries: list[Query] = []
    for make, count in MANY_SMALL_MIX:
        for _ in range(max(1, count // 100) if smoke else count):
            queries.append(make(rng, len(queries)))
    for _ in range(1 if smoke else 3):
        queries.append(_suite_query(rng.randrange(10**6), len(queries),
                                    "tiny" if smoke else "medium"))
    rng.shuffle(queries)
    return Workload(queries, tail_pct=99.0, min_passes=1)


WORKLOADS = {"large-window": large_window, "pr-search": pr_search,
             "many-small": many_small}
