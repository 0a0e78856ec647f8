"""The kernels of translations and affine maps against the anchored
candidate list they replace in embed_finite."""

import random

import pytest

from conftest import reference_affine_candidates
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              make_window, parse_predicate)
from finembed import families
from finembed.embed import NO, YES, embed_finite, fe_decide, fe_probe
from finembed.errors import BudgetError
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


def test_multiplicative_kernel_matches_anchored_list_on_seeded_instances():
    rng = random.Random(20140126)
    seen = {YES: 0, NO: 0, "one": 0, "empty": 0, "full": 0, "one-point": 0}
    for _ in range(3000):
        win = make_window(MULTIPLICATIVE, rng.randrange(1, 301))
        W = win.bound
        # Small points leave many translations; wide ones only a few.
        span = rng.choice([min(W, 6), min(W, 12), W])
        F = rng.sample(range(1, span + 1), rng.randint(1, min(4, span)))
        if rng.random() < 0.2:
            F.append(1)
        shape = rng.random()
        if shape < 0.05:
            B = GroundSet.empty(win)
        elif shape < 0.1:
            B = GroundSet.full(win)
        elif shape < 0.55:
            density = rng.choice([0.1, 0.3, 0.6, 0.9])
            B = GroundSet.from_values(
                win, [v for v in range(1, W + 1) if rng.random() < density])
        else:
            lo = rng.randrange(1, W + 1)
            spec = rng.choice(PREDICATES).format(
                m=rng.randrange(1, 12), lo=lo, hi=rng.randrange(lo, W + 1))
            B = GroundSet.from_predicate(win, parse_predicate(spec), spec)
        family = rng.choice(BUILDERS[:2])(win)
        assert family.anchored_search(F, B) is not None
        v = embed_finite(F, B, family)
        want = reference(F, B, family)
        got = (v.outcome, v.witness.params if v.witness else None,
               v.stats.params_examined)
        assert got == want, (family.name, W, F, B.label or sorted(B.values()))
        assert v.stats.complete
        seen[v.outcome] += 1
        seen["one"] += 1 in F
        seen["one-point"] += len(set(F)) == 1
        seen["empty"] += B.count() == 0
        seen["full"] += B.count() == W
    assert min(seen.values()) > 100, seen


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
    # Multiplicative translations take the kernel: r = 6 maps {2, 3} onto
    # {12, 18}, the first of the candidates 6 and 9.
    mul = make_window(MULTIPLICATIVE, 60)
    tr = builtin_right_translations(mul)
    assert tr.anchored_search([2, 3], GroundSet.from_values(mul, [12, 18])) \
        == ((6,), 1)
    assert embed_finite([2, 3], GroundSet.from_values(mul, [12, 18]),
                        tr).witness.params == (6,)
    # Words and a target from another window use the list.
    words = make_window(FREE_WORDS, 3, "ab")
    wt = builtin_right_translations(words)
    B = GroundSet.from_values(words, ["ab", "aab", "abb"])
    assert wt.anchored_search(["a"], B) is None
    v = embed_finite(["a", "aa"], B, wt)
    assert (v.witness.params, v.stats.params_examined) == (("b",), 1)
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


# -- the affine search along its shorter side ----------------------------------

@pytest.fixture
def columns(monkeypatch):
    """The (a1, s1) of every column search: the first row's witness."""
    calls = []
    real = families._column_search

    def spy(mem, a1, s1, anchors, checks):
        calls.append((a1, s1))
        return real(mem, a1, s1, anchors, checks)

    monkeypatch.setattr(families, "_column_search", spy)
    return calls


def check(F, B, family):
    v = embed_finite(F, B, family)
    got = (v.outcome, v.witness.params if v.witness else None,
           v.stats.params_examined)
    assert got == reference(F, B, family), (F, B.label or sorted(B.values()))
    return got


@pytest.mark.parametrize("W", [500, 1500, 3000])
def test_prefixes_into_primes_read_columns(W, columns):
    win = make_window(ADDITIVE, W)
    primes = GroundSet.from_predicate(win, parse_predicate("primes"))
    affine = builtin_affine(win)
    assert check([0, 1], primes, affine)[1] == (2, 1)
    assert check([0, 1, 2], primes, affine)[1] == (3, 2)
    assert check([0, 1, 2, 3], primes, affine)[1] == (5, 6)
    assert check([0, 1, 2, 3, 4], primes, affine)[1] == (5, 6)
    # Row 1 holds no witness for these; their first rows do, far below W.
    assert len(columns) == 4


def test_sparse_targets_read_columns_up_to_large_windows(columns):
    rng = random.Random(7)
    for W in (800, 2000, 3000):
        win = make_window(ADDITIVE, W)
        affine = builtin_affine(win)
        for density in (0.02, 0.05, 0.2):
            B = GroundSet.from_values(
                win, [v for v in range(W + 1) if rng.random() < density])
            for F in ([0, 1], [0, 2, 3], [1, 3, 4], [2, 5, 9, 10]):
                check(F, B, affine)
    assert columns


def test_check_points_leave_the_window_inside_the_columns(columns):
    # With anchors 0 and 1 the slopes run up to W, while a check point past
    # W / 4 leaves the window within a few slopes: its slices are short.
    rng = random.Random(11)
    in_columns = 0
    for _ in range(60):
        W = rng.randrange(100, 400)
        win = make_window(ADDITIVE, W)
        B = GroundSet.from_values(
            win, [v for v in range(W + 1) if rng.random() < 0.5])
        far = rng.randrange(W // 4, W + 1)
        F = sorted({0, 1, rng.randrange(2, 6), far})
        before = len(columns)
        _, witness, _ = check(F, B, builtin_affine(win))
        in_columns += len(columns) > before and witness != columns[-1]
    assert in_columns >= 5


def test_columns_find_a_smaller_intercept_at_a_larger_slope(columns):
    win = make_window(ADDITIVE, 400)
    # Row 1 holds (7, 1); column 0 holds (0, 5) and column 3 holds (3, 40).
    B = GroundSet.from_values(win, [0, 5, 10, 3, 43, 83, 7, 8, 9])
    affine = builtin_affine(win)
    assert check([0, 1, 2], B, affine)[1] == (0, 5)
    assert columns == [(7, 1)]
    B = GroundSet.from_values(win, [3, 43, 83, 7, 8, 9])
    assert check([0, 1, 2], B, affine)[1] == (3, 40)
    B = GroundSet.from_values(win, [7, 8, 9, 11, 20])
    assert check([0, 1, 2], B, affine)[1] == (7, 1)
    # The check point 11 * 9 lands on W itself, at the last slope left.
    win = make_window(ADDITIVE, 99)
    B = GroundSet.from_values(win, [0, 90, 99, 1, 11, 12])
    assert check([0, 10, 11], B, builtin_affine(win))[1] == (0, 9)
    assert columns[-1] == (1, 1)


def test_intercept_zero_lone_anchor_and_no(columns):
    win = make_window(ADDITIVE, 2000)
    affine = builtin_affine(win)
    thirds = GroundSet.from_predicate(win, parse_predicate("multiples:3"))
    assert check([0, 3, 6], thirds, affine)[1] == (0, 1)
    assert check([5, 11, 20], thirds, affine)[1] == (0, 3)
    # A lone anchor at 0 has the slope-1 candidates alone; F = {x} > 0 has
    # every slope up to W / x.
    primes = GroundSet.from_predicate(win, parse_predicate("primes"))
    assert check([0], primes, affine) == (YES, (2, 1), 1)
    assert check([7], primes, affine)[1] == (0, 1)
    empty = GroundSet.from_values(win, [])
    assert check([0], empty, affine) == (NO, None, 0)
    assert check([0, 1, 2], empty, affine) == (NO, None, 0)
    # No witness at all: every anchor pair is counted.
    assert check([0, 2, 3], GroundSet.from_values(win, [4, 6, 8, 11, 13]),
                 affine)[0] == NO
    # The least 10-term progression of primes ends at 2089.
    assert check(list(range(10)), primes, affine)[0] == NO


def test_rows_finish_when_few_slopes_are_left(columns):
    # Steep maps and a target near the top of the window: the first witness
    # sits at a large intercept with few slopes left, so the rows go on.
    win = make_window(ADDITIVE, 1000)
    top = GroundSet.from_predicate(win, parse_predicate("interval:950:1000"))
    affine = builtin_affine(win)
    assert check([0, 2, 4], top, affine)[1] == (950, 1)
    assert check([0, 20, 25], top, affine)[0] == YES
    assert check([3, 40], top, affine)[0] == YES
    mixed = GroundSet.from_values(win, [0, 300, 600, 900, 950, 960, 970])
    assert check([0, 10, 20], mixed, affine)[1] == (0, 30)
    translations = builtin_right_translations(win)
    assert check([0, 10, 20], top, translations)[1] == (950,)
    assert columns == []


def test_both_sides_agree_with_the_list_on_seeded_instances(columns):
    # Sparse below a random point and dense above it, so the first row's
    # witness falls anywhere in the window.
    rng = random.Random(5)
    yes = 0
    for _ in range(400):
        W = rng.randrange(20, 700)
        win = make_window(ADDITIVE, W)
        lo = rng.randrange(W + 1)
        below = rng.choice([0.0, 0.05])
        B = GroundSet.from_values(win, [
            v for v in range(W + 1)
            if rng.random() < (0.6 if v >= lo else below)])
        k = rng.randint(1, 4)
        F = sorted(rng.sample(range(min(W, rng.choice([8, 40, W])) + 1), k))
        yes += check(F, B, builtin_affine(win))[0] == YES
    # Both sides of the rule ran: columns after some first witnesses, rows
    # after others.
    assert 30 < len(columns) < yes - 30


def test_rows_read_again_past_the_budget_count_the_same(monkeypatch, columns):
    # A tiny budget keeps a few rows below W = 64 and none above; rows past
    # it are dropped, so a "no" counts them as they pass and a witness reads
    # the dropped ones again, across the seeded shapes above.
    monkeypatch.setattr(families, "_ROW_BITS", 64)
    rng = random.Random(9)
    seen = {(YES, True): 0, (YES, False): 0, (NO, True): 0, (NO, False): 0}
    for _ in range(300):
        W = rng.randrange(10, 300)
        win = make_window(ADDITIVE, W)
        B = random_target(rng, win)
        F = sorted(rng.sample(range(min(W, rng.choice([6, W])) + 1),
                              rng.randint(1, 4)))
        family = rng.choice(BUILDERS)(win)
        before = len(columns)
        outcome, witness, _ = check(F, B, family)
        # Rows scanned (at least): one for translations; for affine maps
        # every slope on "no", the first row witness's slope before a
        # column search, else the witness slope.
        fs = sorted(set(F))
        top = fs[:2][-1]
        if family.name != "affine":
            scanned = 1
        elif outcome == NO:
            scanned = W // top if top else 1
        else:
            scanned = columns[-1][1] if len(columns) > before else witness[1]
        seen[outcome, scanned > 64 // (W + 1)] += 1
    assert min(seen.values()) >= 10, seen


def test_affine_probe_into_primes_at_large_window():
    W = 100_000
    win = make_window(ADDITIVE, W)
    A = GroundSet.from_predicate(win, parse_predicate(f"interval:0:{W}"))
    B = GroundSet.from_predicate(win, parse_predicate("primes"))
    report = fe_probe(A, B, builtin_affine(win), [2, 3, 4])
    assert [(e.verdict.witness.params, e.verdict.stats.params_examined)
            for e in report.entries] == [((2, 1), 1), ((3, 2), 9592),
                                         ((5, 6), 19183)]


# -- sparse targets: the rows stop at a limit, then the member pairs -----------

@pytest.fixture
def sides(monkeypatch):
    """"rows" or "pairs" for every row search: the side that answered."""
    calls = []
    real = families._shift_search

    def spy(B, slopes, anchors, checks):
        found = real(B, slopes, anchors, checks)
        calls.append("rows" if found is not None else "pairs")
        return found

    monkeypatch.setattr(families, "_shift_search", spy)
    return calls


def test_member_pairs_give_the_pre_change_list():
    rng = random.Random(2601)
    for _ in range(300):
        win = make_window(ADDITIVE, rng.randrange(1, 300))
        B = random_target(rng, win)
        F = rng.sample(range(min(win.bound, 12) + 1),
                       min(win.bound + 1, rng.randint(2, 4)))
        if len(set(F)) < 2:
            continue
        assert builtin_affine(win)._anchored(tuple(F), B) == \
            reference_affine_candidates(F, B), (F, sorted(B.values()))


def test_both_sides_of_the_row_limit_agree_with_the_list(sides):
    # Few members against many slopes end on the pairs; many members, or
    # a witness in the first rows, end on the rows.
    rng = random.Random(26)
    for _ in range(200):
        W = rng.choice([100, 400, 2000, 10_000])
        win = make_window(ADDITIVE, W)
        m = rng.choice([2, 5, 12, 30, 60, min(W // 8, 400)])
        B = GroundSet.from_values(win, rng.sample(range(W + 1), m))
        F = sorted(rng.sample(range(rng.choice([4, 10]) + 1),
                              rng.randint(2, 4)))
        check(F, B, builtin_affine(win))
    assert sides.count("rows") > 40 and sides.count("pairs") > 80, sides


def test_two_members_far_apart_read_a_few_rows(monkeypatch, sides):
    # Affine [0, 1] into {0, 50000} at W = 1e5: the one witness sits at
    # slope 50,000, the rows stop at their limit of a few rows, and the
    # pair list holds one candidate.
    real = families._row_limit
    reads = []

    class Limit(int):
        """The real limit, which counts the times it is compared."""

        def __eq__(self, scanned):
            reads.append(scanned)
            return int(self) == scanned

        __hash__ = int.__hash__

    monkeypatch.setattr(families, "_row_limit",
                        lambda m, bound: Limit(real(m, bound)))
    win = make_window(ADDITIVE, 100_000)
    B = GroundSet.from_values(win, [0, 50_000])
    v = embed_finite([0, 1], B, builtin_affine(win))
    assert (v.outcome, v.witness.params, v.stats.params_examined) == \
        (YES, (0, 50_000), 1)
    # The limit is read from m once, and the rows stop at it.
    limit = real(2, 100_000)
    assert sides == ["pairs"] and 0 < limit < 10
    assert reads == list(range(limit + 1))


def test_lone_anchor_affine_list_is_budgeted():
    # F = [3] into the whole window lists sum(beta // 3) candidates: about
    # 1.7e9 at W = 1e5, so the budget raises before building any.
    win = make_window(ADDITIVE, 100_000)
    every = filter_params(builtin_affine(win), lambda p: True, "every")
    with pytest.raises(BudgetError) as err:
        embed_finite([3], GroundSet.full(win), every)
    assert str(err.value) == (f"budget-exceeded: more than "
                              f"{families._MAX_PAIRS} anchored candidates")


@pytest.mark.parametrize("x", [0, 3])
@pytest.mark.parametrize("spec", ["all", "primes"])
def test_lone_anchor_affine_list_below_the_budget(x, spec):
    # Every (a, s) with a + s*x in B, slope by slope, in (a, s) order.
    W = 1000
    win = make_window(ADDITIVE, W)
    B = GroundSet.from_predicate(win, parse_predicate(spec))
    every = filter_params(builtin_affine(win), lambda p: True, "every")
    want = sorted((a, s) for s in range(1, W // x + 1 if x else 2)
                  for a in range(W - s * x + 1) if B.contains_value(a + s * x))
    assert list(every.enumerate_params([x], B).params) == want


def test_filtered_affine_list_is_budgeted_on_a_dense_target(monkeypatch):
    # The budget reads B's count, so a dense target raises without a walk
    # of its members.
    win = make_window(ADDITIVE, 100_000)
    evens = GroundSet.from_predicate(win, parse_predicate("evens"))
    read = []
    members = evens.values

    def values():
        for v in members():
            read.append(v)
            yield v

    monkeypatch.setattr(evens, "values", values)
    even_slope = filter_params(builtin_affine(win), lambda p: p[1] % 2 == 0,
                               "even-slope")
    with pytest.raises(BudgetError) as err:
        embed_finite([0, 1], evens, even_slope)
    assert str(err.value) == (f"budget-exceeded: more than "
                              f"{families._MAX_PAIRS} member pairs")
    assert read == []
