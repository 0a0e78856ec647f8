"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated exactness and runtime budget.

Expected values all come from independent oracles (blind parameter scans,
brute-force detectors, direct counting) or from exact constructions; nothing
is asserted on authority.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import (blind_affine_scan, blind_translation_scan,
                      brute_longest_ap, brute_longest_gap_grid)
from finembed.carrier import (ADDITIVE, MULTIPLICATIVE, GroundSet,
                              make_window)
from finembed.density import (check_density_monotonicity, interval_net,
                              upper_density, weak_cancellativity_bound)
from finembed.embed import (check_reflexive_criterion,
                            check_transitive_criterion, check_union_split,
                            check_upward_closed, fe_decide, image_of,
                            verify_witness)
from finembed.families import (builtin_affine, builtin_right_translations,
                               filter_params)
from finembed.prsearch import (_solutions, ap_pattern, equation_pattern,
                               find_avoiding_coloring, homogeneous_pr_check,
                               parse_polynomial, ramsey_threshold,
                               schur_pattern, strong_pr_probe,
                               verify_coloring)
from finembed.rich import longest_ap, longest_gap_grid, verify_certificate


class Timer:
    def __init__(self, criterion: str, limit: float):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.criterion}: {status} ({elapsed:.2f}s, "
              f"limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.criterion} exceeded its {self.limit}s budget"
        return False


def test_criterion_1_oracle_equivalence():
    """fe_decide vs blind exhaustive parameter scan, 200 seeded instances."""
    with Timer("1 oracle-equivalence", 10):
        rng = random.Random(20260808)
        for _ in range(200):
            bound = rng.randint(10, 40)
            additive = rng.random() < 0.7
            win = make_window(ADDITIVE if additive else MULTIPLICATIVE, bound)
            lo = 0 if additive else 1
            a_vals = sorted(rng.sample(range(lo, bound + 1),
                                       rng.randint(1, 4)))
            b_vals = set(rng.sample(range(lo, bound + 1),
                                    rng.randint(0, min(12, bound))))
            A = GroundSet.from_values(win, a_vals)
            B = GroundSet.from_values(win, b_vals)
            kinds = ["translations"]
            if additive:
                kinds.append("affine")
            kind = rng.choice(kinds)
            if kind == "translations":
                fam = builtin_right_translations(win)
                blind = blind_translation_scan(a_vals, b_vals, 80, additive,
                                               bound)
            else:
                fam = builtin_affine(win)
                blind = blind_affine_scan(a_vals, b_vals, 80, bound)
            got = fe_decide(A, B, fam)
            assert got.outcome in ("yes", "no")
            assert (got.outcome == "yes") == (blind is not None), \
                (kind, bound, a_vals, sorted(b_vals))
            if got.witness is not None:
                assert verify_witness(got.witness, B, fam)


def test_criterion_2_listona_suite():
    """Monotonicity on 500 random triples; union-split on 100 instances."""
    with Timer("2 listona", 10):
        rng = random.Random(22)
        win = make_window(ADDITIVE, 60)
        translations = builtin_right_translations(win)
        affine = builtin_affine(win)

        def yes_instance(fam):
            a = sorted(rng.sample(range(20), rng.randint(2, 5)))
            params = rng.choice(fam.param_sample(6, bound=3))
            img = image_of(fam, params, tuple(a))
            extras = set(rng.sample(range(61), rng.randint(1, 5)))
            return a, sorted(set(img) | extras)

        for i in range(250):  # property (iii): shrink the source
            fam = translations if i % 2 else affine
            a2, b_vals = yes_instance(fam)
            B = GroundSet.from_values(win, b_vals)
            assert fe_decide(GroundSet.from_values(win, a2), B, fam).outcome == "yes"
            a1 = sorted(rng.sample(a2, rng.randint(1, len(a2))))
            assert fe_decide(GroundSet.from_values(win, a1), B, fam).outcome == "yes"

        for i in range(250):  # property (iv): grow the target
            fam = translations if i % 2 else affine
            a, b1_vals = yes_instance(fam)
            A = GroundSet.from_values(win, a)
            assert fe_decide(A, GroundSet.from_values(win, b1_vals),
                             fam).outcome == "yes"
            b2_vals = sorted(set(b1_vals) | set(rng.sample(range(61), 4)))
            assert fe_decide(A, GroundSet.from_values(win, b2_vals),
                             fam).outcome == "yes"

        steep = filter_params(affine, lambda p: p[1] >= 2, "affine-steep")
        for i in range(100):
            fam = translations if i % 2 else steep
            a, b_vals = yes_instance(fam)
            A = GroundSet.from_values(win, a)
            B = GroundSet.from_values(win, b_vals)
            res = check_union_split(A, B, [steep, translations])
            chosen = [steep, translations][res.index - 1]
            v = fe_decide(A, B, chosen)
            assert v.outcome == "yes"
            assert verify_witness(v.witness, B, chosen)


def test_criterion_3_preorder_criteria():
    """Transitivity with explicit composed witnesses; affine reflexivity."""
    with Timer("3 preorder", 5):
        rng = random.Random(33)
        win = make_window(ADDITIVE, 500)
        translations = builtin_right_translations(win)
        affine = builtin_affine(win)
        samples = [sorted(rng.sample(range(30), rng.randint(1, 4)))
                   for _ in range(50)]

        rep = check_transitive_criterion(translations, samples,
                                         params_per_side=3)
        assert rep.satisfied
        sat = [e for e in rep.entries if e.status == "satisfied"]
        assert sat
        for e in sat:
            assert e.h_params == (e.f_params[0] + e.g_params[0],)

        rep = check_transitive_criterion(affine, samples, params_per_side=3)
        assert rep.satisfied
        sat = [e for e in rep.entries if e.status == "satisfied"]
        assert sat
        for e in sat:
            a1, b1 = e.f_params
            a2, b2 = e.g_params
            composed = (a2 + b2 * a1, b1 * b2)
            target = image_of(affine, e.g_params,
                              image_of(affine, e.f_params, e.F))
            for h in (e.h_params, composed):
                himg = image_of(affine, h, e.F)
                assert himg is not None and set(himg) <= set(target)

        rep = check_reflexive_criterion(affine, samples)
        assert all(e.status == "satisfied" and e.h_params == (0, 1)
                   for e in rep.entries)


def test_criterion_4_density():
    """Evens at 1/2, 100 translated pairs monotone with b = 1, full set 1."""
    with Timer("4 density", 30):
        big = make_window(ADDITIVE, 10_000)
        evens = GroundSet.from_predicate(big, lambda v: v % 2 == 0, "evens")
        val = upper_density(evens, interval_net(1000)).value
        assert abs(val - Fraction(1, 2)) <= Fraction(1, 500)

        win = make_window(ADDITIVE, 240)
        translations = builtin_right_translations(win)
        assert weak_cancellativity_bound(win) == 1
        net = interval_net(40)
        rng = random.Random(44)
        pairs = []
        for _ in range(100):
            a_vals = sorted(rng.sample(range(80), rng.randint(2, 14)))
            r = rng.randint(0, 60)
            extras = set(rng.sample(range(160), rng.randint(0, 6)))
            b_vals = sorted({v + r for v in a_vals} | extras)
            pairs.append((GroundSet.from_values(win, a_vals, "A"),
                          GroundSet.from_values(win, b_vals, "B")))
        rep = check_density_monotonicity(pairs, translations, net,
                                         tolerance=Fraction(1, 50))
        assert rep.b == 1
        assert rep.all_ok

        assert upper_density(GroundSet.full(win), net).value == 1


def test_criterion_5_van_der_waerden():
    """Avoiding at 8, threshold 9, strong-PR probe equals the search."""
    with Timer("5 van-der-waerden", 5):
        ap3 = ap_pattern(3)
        cert = find_avoiding_coloring(8, 2, ap3)
        assert cert.outcome == "avoiding"
        assert verify_coloring(cert, ap3)

        assert ramsey_threshold(ap3, 2, 20).threshold == 9

        probe = strong_pr_probe(range(1, 10), ap3, 2)
        search = find_avoiding_coloring(9, 2, ap3)
        assert probe.outcome == "forced"
        assert probe.outcome == search.outcome


def test_criterion_6_schur():
    """Threshold 5; the N = 4 coloring {1,4}/{2,3} beats every solution."""
    with Timer("6 schur", 1):
        assert ramsey_threshold(schur_pattern(), 2, 30).threshold == 5
        cert = find_avoiding_coloring(4, 2, schur_pattern())
        assert cert.outcome == "avoiding"
        assert cert.colors == (0, 1, 1, 0)  # {1,4} vs {2,3}
        color = dict(zip(cert.elements, cert.colors))
        p = parse_polynomial("x+y-z")
        triples = [(x, y, x + y) for x in range(1, 5) for y in range(1, 5)
                   if x + y <= 4]
        assert len(triples) == 6 and all(p.evaluate(t) == 0 for t in triples)
        for x, y, z in triples:
            assert len({color[x], color[y], color[z]}) > 1


def test_criterion_7_homogeneity():
    """Symbolic homogeneity, exact scaling, Pythagorean desk search."""
    with Timer("7 homogeneity", 30):
        pyth = parse_polynomial("x^2+y^2-z^2")
        lin = parse_polynomial("x+y-z")
        bad = parse_polynomial("x+y-z-1")
        assert pyth.is_homogeneous and lin.is_homogeneous
        assert not bad.is_homogeneous
        try:
            homogeneous_pr_check(bad, 2, 5)
            raise AssertionError("inhomogeneous polynomial was accepted")
        except Exception as exc:
            assert "non-homogeneous-rejected" in str(exc)

        sols = list(_solutions(pyth, range(1, 61)))
        assert (3, 4, 5) in sols
        for sol in sols[:25]:
            for lam in range(1, 6):
                assert pyth.evaluate(tuple(lam * v for v in sol)) == 0
        lsols = list(_solutions(lin, range(1, 26)))
        for sol in lsols[:50]:
            for lam in range(1, 6):
                assert lin.evaluate(tuple(lam * v for v in sol)) == 0

        cert = homogeneous_pr_check(pyth, 2, 60)
        assert cert.outcome == "avoiding"
        assert verify_coloring(cert, equation_pattern(pyth))


def test_criterion_8_detector_cross_checks():
    """longest_ap and longest_gap_grid equal brute force; certificates hold."""
    with Timer("8 detectors", 60):
        rng = random.Random(88)
        for _ in range(50):
            bound = rng.randint(30, 300)
            win = make_window(ADDITIVE, bound)
            vals = set(rng.sample(range(bound + 1),
                                  rng.randint(0, min(bound, 90))))
            if rng.random() < 0.4:  # plant a long progression
                start, stride = rng.randint(0, 10), rng.randint(1, 4)
                ln = rng.randint(4, 9)
                vals |= {start + i * stride for i in range(ln)
                         if start + i * stride <= bound}
            A = GroundSet.from_values(win, vals)
            cert = longest_ap(A)
            assert cert.length == brute_longest_ap(vals, bound)
            assert verify_certificate(cert, A)

        for _ in range(30):
            bound = rng.randint(20, 200)
            win = make_window(ADDITIVE, bound)
            vals = set(rng.sample(range(bound + 1),
                                  rng.randint(0, bound // 3)))
            if rng.random() < 0.5:
                r, a, b = rng.randint(2, 3), rng.randint(0, 3), rng.randint(1, 2)
                grid = {r ** i * (a + j * b) for i in (1, 2) for j in (1, 2)}
                if max(grid) <= bound:
                    vals |= grid
            A = GroundSet.from_values(win, vals)
            cert = longest_gap_grid(A)
            assert (cert.length, cert.params, tuple(cert.realized)) == \
                brute_longest_gap_grid(vals, bound)
            assert verify_certificate(cert, A)


def test_criterion_9_upward_closure():
    """AP-of-length-4 transfers along 50 pairs; contains-0 visibly fails."""
    with Timer("9 upward-closure", 5):
        rng = random.Random(99)
        win = make_window(ADDITIVE, 200)
        translations = builtin_right_translations(win)
        pairs = []
        for _ in range(50):
            start, stride = rng.randint(0, 30), rng.randint(1, 5)
            ap = {start + i * stride for i in range(4)}
            a_vals = sorted(ap | set(rng.sample(range(60), 4)))
            r = rng.randint(0, 200 - max(a_vals))
            pairs.append((GroundSet.from_values(win, a_vals, "A"),
                          GroundSet.from_values(win,
                                                [v + r for v in a_vals],
                                                "B")))
        rep = check_upward_closed(lambda A: longest_ap(A).length >= 4,
                                  "contains-ap:4", pairs, translations)
        assert all(e.status == "transfers" for e in rep.entries)

        rep = check_upward_closed(
            lambda A: A.contains_value(0), "contains-element:0",
            [(GroundSet.from_values(win, [0, 2], "A"),
              GroundSet.from_values(win, [5, 7], "A+5"))],
            translations)
        assert len(rep.counterexamples) == 1


def test_criterion_10_determinism():
    """verify --suite all --seed 0 --budget tiny: fast and byte-identical."""
    with Timer("10 determinism", 60):
        cmd = [sys.executable, "-m", "finembed", "verify", "--suite", "all",
               "--seed", "0", "--budget", "tiny"]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second
        payload = json.loads(first)
        assert payload["results"]["ok"] is True
        assert set(payload["results"]["suites"]) == {
            "listona", "preorder", "maxset", "density-mono", "strong-pr",
            "upward-closed"}
