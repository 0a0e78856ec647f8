"""The bitset kernels of translations and affine maps against the anchored
candidate list they replace in embed_finite."""

import random

import pytest

from finembed.carrier import (ADDITIVE, MULTIPLICATIVE, GroundSet, make_window,
                              parse_predicate)
from finembed.embed import NO, YES, embed_finite, fe_decide
from finembed.families import (builtin_affine, builtin_left_translations,
                               builtin_right_translations, filter_params,
                               restrict_params)

BUILDERS = (builtin_right_translations, builtin_left_translations,
            builtin_affine)
PREDICATES = ("evens", "odds", "squares", "primes", "multiples:{m}",
              "interval:{lo}:{hi}", "union(multiples:{m},interval:{lo}:{hi})",
              "intersect(odds,multiples:{m})")


def reference(F, B, family):
    """(outcome, witness, params_examined) from walking the anchored list."""
    fpay = family._normalize_f(F)
    stream = family.enumerate_params(fpay, B)
    assert stream.complete
    examined = 0
    for params in stream.params:
        examined += 1
        if all(y is not None and B.contains_value(y)
               for y in (family.g((f,), params) for f in fpay)):
            return YES, params, examined
    return NO, None, examined


def random_target(rng, win):
    W = win.bound
    if rng.random() < 0.5:
        density = rng.choice([0.02, 0.1, 0.3, 0.6])
        return GroundSet.from_values(
            win, [v for v in range(W + 1) if rng.random() < density])
    lo = rng.randrange(W + 1)
    spec = rng.choice(PREDICATES).format(
        m=rng.randrange(1, 12), lo=lo, hi=rng.randrange(lo, W + 1))
    return GroundSet.from_predicate(win, parse_predicate(spec), spec)


def test_kernels_match_anchored_list_on_seeded_instances():
    rng = random.Random(20140125)
    seen = {YES: 0, NO: 0}
    for _ in range(3000):
        win = make_window(ADDITIVE, rng.randrange(1, 201))
        W = win.bound
        k = rng.randint(1, min(5, W + 1))
        # Small spans give slopes room; wide ones exercise the early rows.
        span = rng.choice([min(W, 12), W])
        F = sorted(rng.sample(range(span + 1), k))
        B = random_target(rng, win)
        family = rng.choice(BUILDERS)(win)
        assert family.anchored_search(F, B) is not None
        v = embed_finite(F, B, family)
        want = reference(F, B, family)
        got = (v.outcome, v.witness.params if v.witness else None,
               v.stats.params_examined)
        assert got == want, (family.name, W, F, B.label or sorted(B.values()))
        assert v.stats.complete
        seen[v.outcome] += 1
    assert min(seen.values()) > 300, seen


def test_affine_kernel_at_large_window():
    win = make_window(ADDITIVE, 100_000)
    A = GroundSet.from_values(win, [0, 5, 11])
    B = GroundSet.from_predicate(win, parse_predicate("multiples:3"))
    v = fe_decide(A, B, builtin_affine(win))
    assert (v.outcome, v.witness.params) == (YES, (0, 3))
    assert v.stats.params_examined == 1
    assert v.witness.image == (0, 15, 33)


def test_families_without_kernel_walk_the_list():
    win = make_window(ADDITIVE, 60)
    B = GroundSet.from_values(win, [10, 13])  # one odd gap
    affine = builtin_affine(win)
    even_slope = filter_params(affine, lambda p: p[1] % 2 == 0, "even-slope")
    listed = restrict_params(affine, [(4, 3), (10, 3)])
    for family in (even_slope, listed):
        assert family.anchored_search([0, 1], B) is None
    assert embed_finite([0, 1], B, even_slope).outcome == NO
    v = embed_finite([0, 1], B, listed)
    assert (v.witness.params, v.stats.params_examined) == ((10, 3), 2)
    # Other carriers and a target from another window use the list as well.
    mul = make_window(MULTIPLICATIVE, 60)
    tr = builtin_right_translations(mul)
    assert tr.anchored_search([2, 3], GroundSet.from_values(mul, [12, 18])) is None
    assert embed_finite([2, 3], GroundSet.from_values(mul, [12, 18]),
                        tr).witness.params == (6,)
    other = GroundSet.from_values(make_window(ADDITIVE, 80), [10, 13])
    assert affine.anchored_search([0, 1], other) is None


@pytest.mark.parametrize("builder", BUILDERS)
def test_kernel_counts_every_candidate_on_no(builder):
    win = make_window(ADDITIVE, 300)
    B = GroundSet.from_predicate(win, parse_predicate("interval:0:5"))
    family = builder(win)
    v = embed_finite([0, 4, 8], B, family)
    assert v.outcome == NO and v.stats.complete
    listed = list(family.enumerate_params([0, 4, 8], B).params)
    assert v.stats.params_examined == len(listed) > 0


def test_repeated_point_in_filtered_affine_family():
    # A repeated point is not a second anchor; the list used to divide by
    # f2 - f1 = 0 there.
    win = make_window(ADDITIVE, 30)
    B = GroundSet.from_values(win, [4, 7])
    affine = builtin_affine(win)
    filtered = filter_params(affine, lambda p: True, "all-params")
    for F in ([3, 3], [3, 3, 5], [0, 0, 3]):
        plain, listed = embed_finite(F, B, affine), embed_finite(F, B, filtered)
        assert (plain.outcome, plain.witness, plain.stats) == \
            (listed.outcome, listed.witness, listed.stats)
        assert plain.outcome == reference(F, B, affine)[0]
