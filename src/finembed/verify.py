"""Seeded property suites behind the `verify` subcommand.

Each suite re-runs one cluster of the library's structural guarantees on
randomly constructed instances: the basic embeddability laws, the preorder
criteria, maximality probes, density monotonicity, the finite strong-PR
equivalence and upward closure.  Suites stop at the first violation and
report a minimal reproducer; with a fixed seed and budget the report is
byte-identical across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable

from .carrier import ADDITIVE, GroundSet, make_window
from .density import (check_density_monotonicity, interval_net,
                      upper_density, weak_cancellativity_bound)
from .embed import (YES, check_reflexive_criterion, check_transitive_criterion,
                    check_union_split, check_upward_closed, embed_finite,
                    fe_decide, image_of, verify_witness)
from .errors import InputError
from .families import (builtin_affine, builtin_right_translations,
                       filter_params, restrict_params)
from .prsearch import (ap_pattern, find_avoiding_coloring, ramsey_threshold,
                       schur_pattern, strong_pr_probe, verify_coloring)
from .rich import is_thick_window, longest_ap, maximality_probe

BUDGETS: dict[str, dict[str, int]] = {
    "tiny": dict(window=30, mono=60, union=15, preorder=8, maxset=6,
                 pairs=8, net=20, dwindow=100, upward=10, set_size=5),
    "small": dict(window=40, mono=200, union=40, preorder=20, maxset=15,
                  pairs=25, net=40, dwindow=160, upward=25, set_size=6),
    "medium": dict(window=40, mono=500, union=100, preorder=50, maxset=30,
                   pairs=60, net=60, dwindow=240, upward=50, set_size=7),
}


class CheckFailure(Exception):
    def __init__(self, name: str, reproducer: dict):
        super().__init__(name)
        self.name = name
        self.reproducer = reproducer


def _fail(name: str, **repro: Any):
    raise CheckFailure(name, repro)


def _rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_set(rng: random.Random, top: int, size: int) -> list[int]:
    size = max(1, min(size, top + 1))
    return sorted(rng.sample(range(top + 1), size))


# -- listona: basic embeddability laws ----------------------------------------

def _suite_listona(seed: int, budget: dict) -> list[dict]:
    rng = _rng(seed, "listona")
    W = budget["window"]
    win = make_window(ADDITIVE, W)
    translations = builtin_right_translations(win)
    affine = builtin_affine(win)
    steep_affine = filter_params(affine, lambda p: p[1] >= 2, "affine-slope-ge-2")
    samples = {fam.name: fam.param_sample(6, bound=4)
               for fam in (translations, affine, steep_affine)}
    checks = []

    def construct_yes(fam):
        """A set, parameters and a superset of the image, so fe_decide says yes."""
        while True:
            a_vals = _random_set(rng, W // 3, rng.randint(2, budget["set_size"]))
            params = rng.choice(samples[fam.name])
            img = image_of(fam, params, tuple(a_vals))
            if img is not None:
                extras = _random_set(rng, W, rng.randint(1, 4))
                return a_vals, params, sorted(set(img) | set(extras))

    count = 0
    for _ in range(budget["mono"]):
        fam = rng.choice([translations, affine])
        a2, params, b_vals = construct_yes(fam)
        B = GroundSet.from_values(win, b_vals, "B")
        A2 = GroundSet.from_values(win, a2, "A2")
        if fe_decide(A2, B, fam).outcome != YES:
            _fail("monotonicity-in-A", family=fam.name, A2=a2, B=b_vals)
        a1 = sorted(rng.sample(a2, rng.randint(1, len(a2))))
        A1 = GroundSet.from_values(win, a1, "A1")
        if fe_decide(A1, B, fam).outcome != YES:
            _fail("monotonicity-in-A", family=fam.name, A1=a1, A2=a2, B=b_vals)
        # growing the target keeps the verdict
        b2_vals = sorted(set(b_vals) | set(_random_set(rng, W, 3)))
        B2 = GroundSet.from_values(win, b2_vals, "B2")
        if fe_decide(A2, B2, fam).outcome != YES:
            _fail("monotonicity-in-B", family=fam.name, A=a2, B1=b_vals,
                  B2=b2_vals)
        count += 1
    checks.append({"name": "monotonicity", "instances": count, "status": "pass"})

    count = 0
    for i in range(budget["union"]):
        use_translation = i % 2 == 0
        fam = translations if use_translation else steep_affine
        a_vals, params, b_vals = construct_yes(fam)
        A = GroundSet.from_values(win, a_vals, "A")
        B = GroundSet.from_values(win, b_vals, "B")
        families = [steep_affine, translations]
        res = check_union_split(A, B, families)
        v = fe_decide(A, B, families[res.index - 1])
        if v.outcome != YES or not verify_witness(v.witness, B,
                                                  families[res.index - 1]):
            _fail("union-split", A=a_vals, B=b_vals, index=res.index)
        count += 1
    checks.append({"name": "union-split", "instances": count, "status": "pass"})

    count = 0
    for _ in range(budget["union"]):
        a_vals = _random_set(rng, W // 3, rng.randint(1, budget["set_size"]))
        r = rng.randint(0, W // 3)
        single = restrict_params(translations, [(r,)], f"translate-by-{r}")
        b_vals = _random_set(rng, W, rng.randint(2, 6))
        B = GroundSet.from_values(win, b_vals, "B")
        A = GroundSet.from_values(win, a_vals, "A")
        img = image_of(single, (r,), tuple(a_vals))
        direct = img is not None and all(v in set(b_vals) for v in img)
        decided = fe_decide(A, B, single).outcome == YES
        if direct != decided:
            _fail("singleton-family", A=a_vals, B=b_vals, r=r,
                  direct=direct, decided=decided)
        count += 1
    checks.append({"name": "singleton-family", "instances": count,
                   "status": "pass"})
    return checks


# -- preorder criteria ----------------------------------------------------------

def _suite_preorder(seed: int, budget: dict) -> list[dict]:
    rng = _rng(seed, "preorder")
    W = max(budget["window"] * 3, 60)
    win = make_window(ADDITIVE, W)
    translations = builtin_right_translations(win)
    affine = builtin_affine(win)
    checks = []

    samples = [_random_set(rng, W // 8, rng.randint(1, 4))
               for _ in range(budget["preorder"])]

    rep = check_transitive_criterion(translations, samples, params_per_side=3)
    for e in rep.entries:
        if e.status == "violated":
            _fail("transitivity-translations", F=list(e.F),
                  f=list(e.f_params), g=list(e.g_params))
        if e.status == "satisfied" and e.h_params != (e.f_params[0] + e.g_params[0],):
            _fail("transitivity-translations-composition", F=list(e.F),
                  f=list(e.f_params), g=list(e.g_params), h=list(e.h_params))
    checks.append({"name": "transitivity-translations",
                   "instances": len(rep.entries), "status": "pass"})

    rep = check_transitive_criterion(affine, samples, params_per_side=3)
    sat = 0
    for e in rep.entries:
        if e.status == "violated":
            _fail("transitivity-affine", F=list(e.F), f=list(e.f_params),
                  g=list(e.g_params))
        if e.status == "satisfied":
            sat += 1
            mid = image_of(affine, e.f_params, e.F)
            target = set(image_of(affine, e.g_params, mid))
            himg = image_of(affine, e.h_params, e.F)
            if himg is None or not set(himg) <= target:
                _fail("transitivity-affine-witness", F=list(e.F),
                      h=list(e.h_params))
    if sat == 0:
        _fail("transitivity-affine", reason="no non-overflow triple sampled")
    checks.append({"name": "transitivity-affine", "instances": len(rep.entries),
                   "status": "pass"})

    rep = check_reflexive_criterion(affine, samples)
    for e in rep.entries:
        if e.status != "satisfied" or e.h_params != (0, 1):
            _fail("reflexivity-affine-identity", F=list(e.F), found=e.h_params)
    checks.append({"name": "reflexivity-affine", "instances": len(rep.entries),
                   "status": "pass"})

    rep = check_reflexive_criterion(translations, samples)
    for e in rep.entries:
        if e.status != "satisfied" or e.h_params != (0,):
            _fail("reflexivity-translations-zero", F=list(e.F), found=e.h_params)
    checks.append({"name": "reflexivity-translations",
                   "instances": len(rep.entries), "status": "pass"})
    return checks


# -- maximality probes -----------------------------------------------------------

def _suite_maxset(seed: int, budget: dict) -> list[dict]:
    rng = _rng(seed, "maxset")
    W = budget["window"] * 2
    win = make_window(ADDITIVE, W)
    affine = builtin_affine(win)
    translations = builtin_right_translations(win)
    checks = []

    count = 0
    for _ in range(budget["maxset"]):
        base = _random_set(rng, W, rng.randint(3, 10))
        if rng.random() < 0.5:  # plant an AP so long lengths occur too
            start, stride = rng.randint(0, W // 4), rng.randint(1, 3)
            ln = rng.randint(3, 6)
            base = sorted(set(base) | {start + i * stride for i in range(ln)
                                       if start + i * stride <= W})
        A = GroundSet.from_values(win, base, "A")
        ap_len = longest_ap(A).length
        for k in range(1, 6):
            prefix = list(range(k + 1))
            has_embed = embed_finite(prefix, A, affine).outcome == YES
            if has_embed != (ap_len >= k + 1):
                _fail("ap-embed-consistency", A=base, k=k, ap_len=ap_len,
                      embed=has_embed)
        count += 1
    checks.append({"name": "ap-embed-consistency", "instances": count,
                   "status": "pass"})

    count = 0
    for _ in range(budget["maxset"]):
        p = rng.randint(2, 6)
        t = rng.randint(0, W - p)
        vals = set(range(t, t + p)) | set(_random_set(rng, W, 5))
        A = GroundSet.from_values(win, sorted(vals), "A")
        thick = is_thick_window(A, list(range(p)))
        if thick.all_found:
            for e in maximality_probe(A, translations,
                                      range(1, p + 1)).entries:
                if e.verdict.outcome != YES:
                    _fail("thick-implies-maximal", A=sorted(vals), probe=e.size)
        count += 1
    checks.append({"name": "thick-implies-maximal", "instances": count,
                   "status": "pass"})
    return checks


# -- density ---------------------------------------------------------------------

def _suite_density(seed: int, budget: dict) -> list[dict]:
    rng = _rng(seed, "density-mono")
    W = budget["dwindow"]
    win = make_window(ADDITIVE, W)
    translations = builtin_right_translations(win)
    net = interval_net(budget["net"])
    checks = []

    full = GroundSet.full(win)
    if upper_density(full, net).value != 1:
        _fail("full-set-density", value=str(upper_density(full, net).value))
    checks.append({"name": "full-set-density", "instances": 1, "status": "pass"})

    n = budget["net"]
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0, "evens")
    got = upper_density(evens, net).value
    expect = Fraction((n + 1) // 2, n)  # best window of n consecutive integers
    if got != expect:
        _fail("evens-density", got=str(got), expect=str(expect))
    checks.append({"name": "evens-density", "instances": 1, "status": "pass"})

    b = weak_cancellativity_bound(win)
    if b != 1:
        _fail("additive-cancellativity", b=b)
    checks.append({"name": "additive-cancellativity", "instances": 1,
                   "status": "pass"})

    pairs = []
    for _ in range(budget["pairs"]):
        a_vals = _random_set(rng, W // 3, rng.randint(2, 10))
        r = rng.randint(0, W // 3)
        extras = _random_set(rng, W // 2, rng.randint(0, 5) or 1)
        b_vals = sorted({v + r for v in a_vals} | set(extras))
        pairs.append((GroundSet.from_values(win, a_vals, "A"),
                      GroundSet.from_values(win, b_vals, "B")))
    rep = check_density_monotonicity(pairs, translations, net,
                                     tolerance=Fraction(1, 50))
    if not rep.all_ok:
        bad = next(e for e in rep.entries if not e.ok)
        _fail("density-monotonicity", a=bad.a_label, b=bad.b_label,
              da=str(bad.density_a), db=str(bad.density_b))
    checks.append({"name": "density-monotonicity", "instances": len(pairs),
                   "status": "pass"})

    count = 0
    for _ in range(budget["pairs"]):
        big = _random_set(rng, W, rng.randint(4, 14))
        small = sorted(rng.sample(big, rng.randint(1, len(big))))
        d_small = upper_density(GroundSet.from_values(win, small), net).value
        d_big = upper_density(GroundSet.from_values(win, big), net).value
        if d_small > d_big:
            _fail("density-subset-monotone", small=small, big=big)
        count += 1
    checks.append({"name": "density-subset-monotone", "instances": count,
                   "status": "pass"})
    return checks


# -- strong partition regularity ---------------------------------------------------

def _suite_strong_pr(seed: int, budget: dict) -> list[dict]:
    checks = []
    ap3 = ap_pattern(3)

    cert = find_avoiding_coloring(8, 2, ap3)
    if cert.outcome != "avoiding" or not verify_coloring(cert, ap3):
        _fail("vdw-8-avoiding", outcome=cert.outcome)
    checks.append({"name": "vdw-8-avoiding", "instances": 1, "status": "pass"})

    thr = ramsey_threshold(ap3, 2, 9)
    if thr.threshold != 9:
        _fail("vdw-threshold", got=thr.threshold)
    checks.append({"name": "vdw-threshold", "instances": 1, "status": "pass"})

    count = 0
    for n in range(6, 11):
        probe = strong_pr_probe(range(1, n + 1), ap3, 2)
        search = find_avoiding_coloring(n, 2, ap3)
        if probe.outcome != search.outcome:
            _fail("strong-pr-equivalence", n=n, probe=probe.outcome,
                  search=search.outcome)
        count += 1
    checks.append({"name": "strong-pr-equivalence", "instances": count,
                   "status": "pass"})

    nxt = find_avoiding_coloring(10, 2, ap3)
    if nxt.outcome != "forced":
        _fail("threshold-monotone", at=10, outcome=nxt.outcome)
    checks.append({"name": "threshold-monotone", "instances": 1,
                   "status": "pass"})

    for n, want in ((8, "avoiding"), (9, "forced")):
        back = find_avoiding_coloring(n, 2, ap3, reverse=True)
        if back.outcome != want:
            _fail("order-independence", n=n, outcome=back.outcome)
    checks.append({"name": "order-independence", "instances": 2,
                   "status": "pass"})

    thr = ramsey_threshold(schur_pattern(), 2, 5)
    if thr.threshold != 5:
        _fail("schur-threshold", got=thr.threshold)
    checks.append({"name": "schur-threshold", "instances": 1, "status": "pass"})
    return checks


# -- upward closure -----------------------------------------------------------------

def _suite_upward(seed: int, budget: dict) -> list[dict]:
    rng = _rng(seed, "upward-closed")
    W = budget["dwindow"]
    win = make_window(ADDITIVE, W)
    translations = builtin_right_translations(win)
    checks = []

    pairs = []
    for _ in range(budget["upward"]):
        start, stride = rng.randint(0, W // 4), rng.randint(1, 4)
        ap = [start + i * stride for i in range(4)]
        a_vals = sorted(set(ap) | set(_random_set(rng, W // 3, 4)))
        r = rng.randint(0, W // 2)
        if max(a_vals) + r > W:
            r = W - max(a_vals)
        b_vals = sorted({v + r for v in a_vals})
        pairs.append((GroundSet.from_values(win, a_vals, "A"),
                      GroundSet.from_values(win, b_vals, "B")))
    rep = check_upward_closed(lambda A: longest_ap(A).length >= 4,
                              "contains-ap:4", pairs, translations)
    for e in rep.entries:
        if e.status != "transfers":
            _fail("ap4-upward-closed", a=e.a_label, status=e.status)
    checks.append({"name": "ap4-upward-closed", "instances": len(pairs),
                   "status": "pass"})

    a_vals = [0, 2, 4]
    b_vals = [v + 5 for v in a_vals]
    pair = [(GroundSet.from_values(win, a_vals, "A0"),
             GroundSet.from_values(win, b_vals, "A0+5"))]
    rep = check_upward_closed(lambda A: A.contains_value(0),
                              "contains-element:0", pair, translations)
    if not rep.counterexamples:
        _fail("contains-0-not-closed", expected="a reported counterexample")
    checks.append({"name": "contains-0-not-closed", "instances": 1,
                   "status": "pass"})
    return checks


_SUITE_FUNCS: dict[str, Callable[[int, dict], list[dict]]] = {
    "listona": _suite_listona,
    "preorder": _suite_preorder,
    "maxset": _suite_maxset,
    "density-mono": _suite_density,
    "strong-pr": _suite_strong_pr,
    "upward-closed": _suite_upward,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(suite: str, seed: int, budget_name: str) -> tuple[dict, bool]:
    """Run one suite (or all of them); returns (report, ok)."""
    if budget_name not in BUDGETS:
        raise InputError(f"unknown budget {budget_name!r}; "
                         f"choose from {sorted(BUDGETS)}")
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise InputError(f"unknown-suite: {suite!r}; choose from "
                         f"{list(SUITES) + ['all']}")
    names = list(SUITES) if suite == "all" else [suite]
    budget = BUDGETS[budget_name]
    report: dict[str, Any] = {
        "suite": suite,
        "seed": seed,
        "budget": budget_name,
        "suites": {},
        "ok": True,
        "violation": None,
    }
    for name in names:
        try:
            report["suites"][name] = _SUITE_FUNCS[name](seed, budget)
        except CheckFailure as fail:
            report["ok"] = False
            report["violation"] = {
                "suite": name,
                "check": fail.name,
                "seed": seed,
                "budget": budget_name,
                "reproducer": fail.reproducer,
            }
            break
    return report, report["ok"]
