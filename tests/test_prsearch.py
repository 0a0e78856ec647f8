import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_instances_ap, brute_instances_equation,
                      brute_instances_gap_grid, brute_instances_schur,
                      reference_backtrack)
from finembed.errors import BudgetError, InputError
from finembed.prsearch import (MAX_EXPONENT, Pattern, Polynomial, _canonicalize,
                               _ForwardCheck, _isolated_variable, _solutions,
                               ap_pattern, equation_pattern,
                               find_avoiding_coloring, gap_grid_pattern,
                               homogeneous_pr_check, parse_pattern,
                               parse_polynomial, poly_progression_pattern,
                               ramsey_threshold, schur_pattern,
                               strong_pr_probe, verify_coloring)


# -- polynomials -----------------------------------------------------------

def test_parse_polynomial_forms():
    p = parse_polynomial("x^2+y^2-z^2")
    assert p.nvars == 3 and p.degree == 2 and p.is_homogeneous
    assert p.evaluate((3, 4, 5)) == 0
    assert p.evaluate((1, 1, 1)) == 1

    q = parse_polynomial("x+y-z")
    assert q.evaluate((2, 3, 5)) == 0

    assert parse_polynomial("2x").evaluate((7,)) == 14
    assert parse_polynomial("2*x*y").evaluate((3, 4)) == 24
    assert parse_polynomial("x^3").degree == 3
    assert parse_polynomial("3").degree == 0

    inhom = parse_polynomial("x+y-z-1")
    assert not inhom.is_homogeneous
    assert set(inhom.monomial_degrees) == {0, 1}

    combined = parse_polynomial("x+x")
    assert combined.evaluate((5,)) == 10

    with pytest.raises(InputError):
        parse_polynomial("x+!y")
    with pytest.raises(InputError):
        parse_polynomial("")


def test_parse_polynomial_caps_exponents():
    top = parse_polynomial(f"x^{MAX_EXPONENT}-y^{MAX_EXPONENT}")
    assert top.degree == MAX_EXPONENT and top.evaluate((2, 2)) == 0
    assert parse_polynomial("x^40*y^40").degree == 80  # per variable
    for text in (f"x^{MAX_EXPONENT + 1}", "x^40*x^40-y", "x^99999999"):
        with pytest.raises(InputError, match="exponent-out-of-range"):
            parse_polynomial(text)
    for text in ("x^" + "9" * 5000, "9" * 5000 + "x-y"):  # past int()'s limit
        with pytest.raises(InputError, match="needs an integer"):
            parse_polynomial(text)


def test_homogeneity_scaling():
    p = parse_polynomial("x^2+y^2-z^2")
    for sol in ((3, 4, 5), (6, 8, 10), (5, 12, 13)):
        assert p.evaluate(sol) == 0
        for lam in range(1, 6):
            assert p.evaluate(tuple(lam * v for v in sol)) == 0


# -- pattern matchers --------------------------------------------------------

@settings(max_examples=20)
@given(st.integers(2, 40))
def test_ap_instances_match_brute_force(n):
    assert set(ap_pattern(3).instances(n)) == set(brute_instances_ap(3, n))


@settings(max_examples=20)
@given(st.integers(1, 50))
def test_schur_instances_match_brute_force(n):
    assert set(schur_pattern().instances(n)) == set(brute_instances_schur(n))


def test_schur_instances_at_four():
    # enumeration gives exactly these four distinct value sets
    assert schur_pattern().instances(4) == [
        (1, 2), (1, 2, 3), (1, 3, 4), (2, 4)]


@settings(max_examples=10)
@given(st.integers(2, 25))
def test_equation_instances_match_brute_force(n):
    p = parse_polynomial("x+y-z")
    assert set(equation_pattern(p).instances(n)) == brute_instances_equation(p, n)
    assert (set(equation_pattern(p, distinct=True).instances(n))
            == brute_instances_equation(p, n, distinct=True))


def test_gap_grid_instances_sound():
    pat = gap_grid_pattern(1)
    for inst in pat.instances(40):
        assert all(1 <= v <= 40 for v in inst)
    # (b,q,a,d) = (1,2,1,1): grid {1*2^j*(1+i)} = {1,2,2,4} -> {1,2,4}
    assert (1, 2, 4) in pat.instances(40)
    strict = gap_grid_pattern(1, strict=True).instances(40)
    assert (1, 2, 4) in strict  # q=2 and d=1 already sit inside the grid
    with pytest.raises(InputError):
        gap_grid_pattern(0)


def _reference_by_largest(pattern, nmax):
    """The reference's raw instances inside [1..nmax], split by their
    largest element: {N: [instance, ...]}, before deduplication."""
    label = pattern.label.split(":")
    if label[0] == "ap":
        raw = brute_instances_ap(int(label[1]), nmax)
    elif label[0] == "schur":
        raw = brute_instances_schur(nmax)
    else:
        raw = brute_instances_gap_grid(int(label[1]), nmax,
                                       strict=label[-1] == "strict")
    by_largest = {n: [] for n in range(1, nmax + 1)}
    for inst in raw:
        by_largest[inst[-1]].append(inst)
    return by_largest


@pytest.mark.parametrize("pattern, nmax", [
    (ap_pattern(2), 60), (ap_pattern(3), 60), (ap_pattern(4), 60),
    (ap_pattern(5), 60), (schur_pattern(), 60), (gap_grid_pattern(1), 60),
    (gap_grid_pattern(1, strict=True), 60), (gap_grid_pattern(2), 200)],
    ids=lambda v: getattr(v, "label", str(v)))
def test_instances_by_largest_element_match_the_reference(pattern, nmax):
    """Each N's instances, deduplicated and raw, against the instances of the
    reference enumerator whose last element is N."""
    want = _reference_by_largest(pattern, nmax)
    for n in range(1, nmax + 1):
        assert pattern.draw(n, n) == (len(want[n]), sorted(set(want[n]))), n
    assert sum(map(len, want.values())) > 0


@pytest.mark.parametrize("pattern, r", [
    (ap_pattern(3), 3), (schur_pattern(), 4), (gap_grid_pattern(1), 3),
    (gap_grid_pattern(2), 2)], ids=lambda v: getattr(v, "label", str(v)))
def test_threshold_instance_overflow_comes_at_the_reference_n(pattern, r):
    """The budget counts raw instances over [1..N]: the first N whose
    cumulative raw count passes it raises, with the fresh search's text."""
    want = _reference_by_largest(pattern, 120)
    for budget in (1, 7, 30, 100):
        total = 0
        for n in range(1, 121):
            total += len(want[n])
            if total > budget:
                break
        assert total > budget
        with pytest.raises(BudgetError) as exc:
            ramsey_threshold(pattern, r, 120, instance_budget=budget)
        assert str(exc.value) == (
            f"pattern-instance-overflow: more than {budget} instances for "
            f"{pattern.label} at N={n}")
        with pytest.raises(BudgetError) as fresh:
            pattern.instances(n, budget)
        assert str(fresh.value) == str(exc.value)
        pattern.instances(n - 1, budget)  # one N earlier fits


def test_poly_progression_instances():
    pat = poly_progression_pattern(3, 2, [2])
    insts = pat.instances(40)
    assert (1, 4, 9) in insts  # P(x) = x^2
    assert all(len(i) <= 3 for i in insts)


def test_instances_are_sorted_and_deduplicated():
    for pat in (ap_pattern(3), schur_pattern(),
                equation_pattern(parse_polynomial("x+y-z"))):
        insts = pat.instances(25)
        assert insts == sorted(set(insts))


def test_instance_budget_overflow():
    with pytest.raises(BudgetError):
        ap_pattern(2).instances(300, budget=100)


def test_instance_budget_bounds_the_enumeration():
    drawn = []

    def enum(n):
        for v in range(1, n + 1):
            drawn.append(v)
            yield (v,)

    pattern = Pattern("counting", lambda lo, hi: enum(hi))
    with pytest.raises(BudgetError, match="more than 10 instances"):
        pattern.instances(1000, budget=10)
    assert len(drawn) <= 11
    assert pattern.instances(10, budget=10) == [(v,) for v in range(1, 11)]


def test_parse_pattern_specs():
    assert parse_pattern("ap:3").label == "ap:3"
    assert parse_pattern("schur").label == "schur"
    assert parse_pattern("gap-grid:2").label == "gap-grid:2"
    assert parse_pattern("gap-grid:2:strict").label == "gap-grid:2:strict"
    assert parse_pattern("poly:3:2:0,2").label.startswith("poly:3:2")
    with pytest.raises(InputError):
        parse_pattern("mystery:9")


# -- coloring search -----------------------------------------------------------

def test_vdw_small_facts():
    ap3 = ap_pattern(3)
    cert = find_avoiding_coloring(8, 2, ap3)
    assert cert.outcome == "avoiding"
    assert cert.colors == (0, 0, 1, 1, 0, 0, 1, 1)
    assert verify_coloring(cert, ap3)

    forced = find_avoiding_coloring(9, 2, ap3)
    assert forced.outcome == "forced" and forced.exhaustive

    trivial = find_avoiding_coloring(1, 1, ap3)
    assert trivial.outcome == "avoiding"


def test_thresholds():
    assert ramsey_threshold(ap_pattern(3), 2, 20).threshold == 9
    assert ramsey_threshold(ap_pattern(3), 1, 20).threshold == 3
    assert ramsey_threshold(schur_pattern(), 2, 20).threshold == 5
    assert ramsey_threshold(ap_pattern(3), 3, 10).threshold is None


def test_schur_four_avoiding_coloring():
    cert = find_avoiding_coloring(4, 2, schur_pattern())
    assert cert.outcome == "avoiding"
    assert cert.colors == (0, 1, 1, 0)  # {1,4} vs {2,3}
    assert verify_coloring(cert, schur_pattern())


def test_coloring_is_canonical_and_lex_least():
    cert = find_avoiding_coloring(8, 2, ap_pattern(3))
    seen = []
    for c in cert.colors:
        if c not in seen:
            assert c == len(seen)  # new colors appear in increasing order
            seen.append(c)


def test_strong_pr_probe_matches_search():
    for pattern in (ap_pattern(3), schur_pattern()):
        for n in range(3, 11):
            for reverse in (False, True):
                probe = strong_pr_probe(range(1, n + 1), pattern, 2,
                                        reverse=reverse)
                search = find_avoiding_coloring(n, 2, pattern,
                                                reverse=reverse)
                assert probe == search


def test_strong_pr_probe_rejects_zero_colors():
    with pytest.raises(InputError, match="r >= 1"):
        strong_pr_probe([1, 2, 3], ap_pattern(3), 0)
    with pytest.raises(InputError, match="r >= 1"):
        find_avoiding_coloring(3, 0, ap_pattern(3))


def test_strong_pr_probe_on_sparse_set():
    ap3 = ap_pattern(3)
    # {1, 10, 100}: no 3-AP inside, a single color avoids trivially
    cert = strong_pr_probe([1, 10, 100], ap3, 1)
    assert cert.outcome == "avoiding"
    # {1,2,3} with one color is forced
    assert strong_pr_probe([1, 2, 3], ap3, 1).outcome == "forced"


def test_search_order_independence():
    ap3 = ap_pattern(3)
    for n, want in ((8, "avoiding"), (9, "forced")):
        assert find_avoiding_coloring(n, 2, ap3, reverse=True).outcome == want

    p = parse_polynomial("x+y-z")
    for n, want in ((4, "avoiding"), (5, "forced")):
        cert = find_avoiding_coloring(n, 2, equation_pattern(p), reverse=True)
        assert cert.outcome == want


@settings(max_examples=15)
@given(st.integers(2, 9), st.integers(1, 3))
def test_avoiding_colorings_always_reverify(n, r):
    ap3 = ap_pattern(3)
    cert = find_avoiding_coloring(n, r, ap3)
    if cert.outcome == "avoiding":
        assert verify_coloring(cert, ap3)
        assert max(cert.colors) < r


def test_node_budget():
    with pytest.raises(BudgetError):
        find_avoiding_coloring(9, 2, ap_pattern(3), node_budget=5)


@settings(max_examples=30)
@given(st.integers(1, 9), st.integers(1, 2), st.booleans())
def test_search_agrees_with_exhaustive_coloring_enumeration(n, r, use_schur):
    """The symmetry-broken backtracking decides exactly like trying all r^n
    colorings one by one."""
    import itertools
    pattern = schur_pattern() if use_schur else ap_pattern(3)
    insts = [inst for inst in pattern.instances(n)]
    brute_avoidable = any(
        all(len({coloring[v - 1] for v in inst}) > 1 for inst in insts)
        for coloring in itertools.product(range(r), repeat=n))
    cert = find_avoiding_coloring(n, r, pattern)
    assert (cert.outcome == "avoiding") == brute_avoidable


def test_search_deeper_than_the_recursion_limit():
    # 1001 positions, past the interpreter's default recursion limit of 1000
    pattern = ap_pattern(5)
    cert = find_avoiding_coloring(1001, 5, pattern)
    assert cert.outcome == "avoiding" and len(cert.colors) == 1001
    assert verify_coloring(cert, pattern)


# -- the bitmask kernel against the pre-change reference -----------------------

KERNEL_PATTERNS = (ap_pattern(3), ap_pattern(4), ap_pattern(5),
                   schur_pattern(), gap_grid_pattern(1),
                   equation_pattern(parse_polynomial("x+y-z")),
                   equation_pattern(parse_polynomial("x+2y-z")),
                   equation_pattern(parse_polynomial("x^2+y^2-z^2")))


def _reference_search(elements, pattern, r, node_budget, reverse):
    """(outcome, canonical colors, nodes) or the budget text, as the engine
    would report them with the reference backtracker."""
    inside = set(elements)
    instances = [inst for inst in pattern.instances(max(elements))
                 if inside.issuperset(inst)]
    try:
        colors, nodes = reference_backtrack(elements, r, instances,
                                            node_budget, reverse)
    except BudgetError as exc:
        return str(exc)
    if colors is None:
        return "forced", None, nodes
    return "avoiding", _canonicalize(colors), nodes


def _engine_search(search):
    try:
        cert = search()
    except BudgetError as exc:
        return str(exc)
    return cert.outcome, cert.colors, cert.nodes


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=lambda p: p.label)
def test_kernel_matches_reference_node_for_node(pattern):
    rng = random.Random(pattern.label)
    budgets = (3, 25, 4000)
    budget_errors = 0
    for r in range(1, 5):
        for reverse in (False, True):
            for n in (1, 4, 8, 13, 21):
                budget = rng.choice(budgets)
                want = _reference_search(range(1, n + 1), pattern, r,
                                         budget, reverse)
                got = _engine_search(
                    lambda: find_avoiding_coloring(n, r, pattern,
                                                   node_budget=budget,
                                                   reverse=reverse))
                assert got == want, (n, r, reverse, budget)
                budget_errors += isinstance(want, str)
            for _ in range(3):
                a = sorted(rng.sample(range(1, 41), rng.randint(1, 22)))
                budget = rng.choice(budgets)
                want = _reference_search(a, pattern, r, budget, reverse)
                got = _engine_search(
                    lambda: strong_pr_probe(a, pattern, r,
                                            node_budget=budget,
                                            reverse=reverse))
                assert got == want, (a, r, reverse, budget)
                budget_errors += isinstance(want, str)
    assert budget_errors  # the budget path is compared too


# -- thresholds against one fresh search per N ---------------------------------

def _reference_threshold(pattern, r, nmax, instance_budget, node_budget):
    """The least forced N <= nmax from a fresh complete search at each N, or
    the type and text of the first error."""
    try:
        for n in range(1, nmax + 1):
            cert = find_avoiding_coloring(n, r, pattern, instance_budget,
                                          node_budget)
            if cert.outcome == "forced":
                return n
        return None
    except (BudgetError, InputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=lambda p: p.label)
def test_threshold_matches_a_fresh_search_per_n(pattern):
    """Where the fresh searches answer, the scan gives the same threshold.
    The scan never visits more nodes than the fresh search of its last N,
    so where they run out of nodes it may raise later or answer, but what
    it answers is the unbudgeted threshold, and an instance overflow is the
    fresh searches' own."""
    seen = set()
    for r in range(1, 5):
        for nmax in (1, 6, 11, 23, 40):
            for instance_budget in (5, 200):
                truth = _reference_threshold(pattern, r, nmax,
                                             instance_budget, 10 ** 9)
                for node_budget in (3, 25, 4000):
                    want = _reference_threshold(pattern, r, nmax,
                                                instance_budget, node_budget)
                    try:
                        got = ramsey_threshold(pattern, r, nmax,
                                               instance_budget,
                                               node_budget).threshold
                    except (BudgetError, InputError) as exc:
                        got = type(exc), str(exc)
                    case = r, nmax, node_budget, instance_budget
                    if not isinstance(want, tuple) or want == truth:
                        assert got == want, case
                    else:  # the fresh searches ran out of nodes
                        assert want[1].startswith("budget-exceeded: "), case
                        if got != truth:
                            assert got[0] is BudgetError, case
                            assert got[1].startswith("budget-exceeded: "), case
                    seen.add(want if want is None else type(want).__name__)
    assert {"int", "tuple"} <= seen  # thresholds and budget errors both met


@pytest.mark.parametrize("pattern, r, want", [
    (ap_pattern(3), 2, 9), (ap_pattern(3), 3, 27), (schur_pattern(), 3, 14),
    (ap_pattern(4), 2, 35), (gap_grid_pattern(1), 2, 24),
    (equation_pattern(parse_polynomial("2x+3y-z")), 2, 53)],
    ids=lambda v: getattr(v, "label", str(v)))
def test_threshold_node_budget_is_exactly_the_fresh_search_s(pattern, r, want):
    """The node budget is an exact boundary on the scan's own count, which
    stays below the fresh search's at the threshold."""
    nodes = {("ap:3", 2): 45, ("ap:3", 3): 59_102, ("schur", 3): 417,
             ("ap:4", 2): 7_113, ("gap-grid:1", 2): 1_835,
             ("equation:2*x+3*y-z", 2): 1_937}[pattern.label, r]
    assert nodes < find_avoiding_coloring(want, r, pattern).nodes
    assert ramsey_threshold(pattern, r, want, node_budget=nodes).threshold == want
    with pytest.raises(BudgetError, match=f"^budget-exceeded: {nodes} "):
        ramsey_threshold(pattern, r, want, node_budget=nodes - 1)


CONTRACT_PATTERNS = KERNEL_PATTERNS + (
    gap_grid_pattern(1, strict=True), parse_pattern("poly:3:2:0,2"),
    equation_pattern(parse_polynomial("x+2y-z"), distinct=True))


@pytest.mark.parametrize("pattern", CONTRACT_PATTERNS, ids=lambda p: p.label)
def test_instances_below_n_are_the_instances_of_n_minus_one(pattern):
    """Growing N only adds instances whose largest element is N, which is
    what lets a threshold scan extend the search of [1..N-1] (and makes a
    forced N stay forced)."""
    before = pattern.instances(0)
    for n in range(1, 31):
        now = pattern.instances(n)
        assert [inst for inst in now if inst[-1] < n] == before, n
        before = now


# -- the forward-checking threshold scan against the reference -----------------

@pytest.mark.parametrize("pattern", CONTRACT_PATTERNS, ids=lambda p: p.label)
def test_scan_stops_at_the_reference_coloring_after_each_step(pattern):
    """After step N the scan holds the reference's canonical coloring of
    [1..N] (or both find N forced), having visited no more nodes than the
    reference's fresh search of [1..N]; so does one search of [1..N] with
    every position added at once."""
    for r in range(1, 5):
        search, drawn = _ForwardCheck(r, 10 ** 9), 0
        for n in range(1, 25):
            drawn, new = pattern.draw(n, n, drawn=drawn)
            search.add([n], new)
            colors, nodes = reference_backtrack(
                range(1, n + 1), r, pattern.instances(n), 10 ** 9, False)
            whole = _ForwardCheck(r, 10 ** 9)
            whole.add(range(1, n + 1), pattern.instances(n))
            for engine in (search, whole):
                avoiding = engine.run()
                assert engine.nodes <= nodes, (r, n)
                assert avoiding == (colors is not None), (r, n)
                if avoiding:
                    assert tuple(engine.colors) == _canonicalize(colors), (r, n)
            if colors is None:
                break


def _random_hypergraph(rng, nmax):
    """A pattern whose instances are a fixed seeded list of 2-4 distinct
    cells in [1..nmax], drawn by largest element like the named ones."""
    fixed = [tuple(sorted(rng.sample(range(1, nmax + 1), rng.randint(2, 4))))
             for _ in range(rng.randint(5, 80))]

    def between(lo, hi):
        return (inst for inst in fixed if lo <= inst[-1] <= hi)

    return Pattern("random", between)


def test_scan_resumes_to_the_reference_coloring_on_random_hypergraphs():
    """On shapes no named pattern makes, after each step N the scan holds the
    reference's canonical coloring of [1..N] (or both find N forced),
    having visited no more nodes than the reference's fresh search.  An
    instance appended under a colored position whose lower cells share its
    color must survive the retraction of later positions of that color."""
    rng = random.Random(7)
    for case in range(60):
        pattern = _random_hypergraph(rng, 20)
        for r in range(1, 5):
            search, drawn = _ForwardCheck(r, 10 ** 9), 0
            for n in range(1, 21):
                drawn, new = pattern.draw(n, n, drawn=drawn)
                search.add([n], new)
                colors, nodes = reference_backtrack(
                    range(1, n + 1), r, pattern.instances(n), 10 ** 9, False)
                avoiding = search.run()
                assert search.nodes <= nodes, (case, r, n)
                assert avoiding == (colors is not None), (case, r, n)
                if not avoiding:
                    break
                assert tuple(search.colors) == _canonicalize(colors), (
                    case, r, n)


@pytest.mark.parametrize("text, want", [
    ("x+y-z", 5), ("x+2y-z", 11), ("x+y+w-z", 11), ("2x+2y-z", 34),
    ("2x+3y-z", 53)])
def test_threshold_reaches_the_guo_sun_rado_numbers(text, want):
    """Guo & Sun (2008): the 2-color Rado number of a1 x1 + ... + am xm = x0
    is a v^2 + v - a, with a the least ai and v their sum."""
    pattern = equation_pattern(parse_polynomial(text))
    assert ramsey_threshold(pattern, 2, want + 3).threshold == want


def test_threshold_with_a_one_cell_instance():
    """A one-cell instance leaves its position no color: the scan is forced
    there, or earlier, as the fresh searches are."""
    ap3 = ap_pattern(3)

    def between(lo, hi):
        yield from ap3._between(lo, hi)
        if lo <= 7 <= hi:
            yield (7,)

    pattern = Pattern("ap:3+{7}", between)
    for r in range(1, 4):
        for nmax in (6, 7, 12):
            want = _reference_threshold(pattern, r, nmax, 1000, 10 ** 6)
            assert ramsey_threshold(pattern, r, nmax).threshold == want
    assert ramsey_threshold(pattern, 2, 12).threshold == 7
    # (30, 30) solves x^2 = 30y and is the only solution in [1..40]: the
    # scan answers at 30 without searching the 2^29 colorings below it
    one_cell = equation_pattern(parse_polynomial("x^2-30y"))
    assert one_cell.instances(40) == [(30,)]
    for r in range(1, 4):
        assert ramsey_threshold(one_cell, r, 40).threshold == 30


def test_threshold_scan_deeper_than_the_recursion_limit():
    # 1001 positions, past the interpreter's default recursion limit of 1000
    assert ramsey_threshold(ap_pattern(5), 5, 1001).threshold is None


# -- solved equation enumeration against the tuple walk -----------------------

def _monomial(coeff, exps):
    body = "*".join(f"{'xyzw'[i]}^{e}" for i, e in enumerate(exps) if e)
    sign = "-" if coeff < 0 else "+"
    return f"{sign}{abs(coeff)}" + (f"*{body}" if body else "")


def _random_isolated_polynomial(rng):
    """A polynomial in 1-4 variables where one variable sits alone in one
    monomial c*v^e, c in +-1..+-3, e in 1..3."""
    nvars = rng.randint(1, 4)
    k = rng.randrange(nvars)
    exps = [0] * nvars
    exps[k] = rng.randint(1, 3)
    text = _monomial(rng.choice([-3, -2, -1, 1, 2, 3]), exps)
    others = [i for i in range(nvars) if i != k]
    for _ in range(rng.randint(0, 3)):
        exps = [0] * nvars
        for i in others:
            if rng.random() < 0.6:
                exps[i] = rng.randint(1, 3)
        text += _monomial(rng.randint(-5, 5) or 1, exps)
    return parse_polynomial(text.lstrip("+"))


def _domains(rng, nvars):
    side = {1: 60, 2: 30, 3: 13, 4: 7}[nvars]
    return (list(range(1, side + 1)),
            sorted(rng.sample(range(1, 4 * side), side)),
            list(range(-(side // 2), side - side // 2)))


def _random_unsolved_polynomial(rng):
    """A polynomial in 1-4 variables with no isolated variable: random
    monomials c*x^a*y^b..., redrawn until every variable is in two of them
    or shares one."""
    while True:
        nvars = rng.randint(1, 4)
        text = ""
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(0, 2) if rng.random() < 0.6 else 0
                    for _ in range(nvars)]
            text += _monomial(rng.randint(-4, 4) or 1, exps)
        poly = parse_polynomial(text.lstrip("+"))
        if poly.monomials and _isolated_variable(poly) is None:
            return poly


def _tuple_walk(poly, domain):
    return [t for t in itertools.product(domain, repeat=poly.nvars)
            if poly.evaluate(t) == 0]


def test_solved_enumeration_matches_tuple_walk():
    rng = random.Random(11)
    found = 0
    for _ in range(120):
        poly = _random_isolated_polynomial(rng)
        assert _isolated_variable(poly) is not None, poly
        for domain in _domains(rng, poly.nvars):
            want = _tuple_walk(poly, domain)
            assert list(_solutions(poly, domain)) == want, (poly, domain)
            found += len(want)
    assert found  # not every random equation is empty
    signed = range(-12, 13)
    for text, domain in [
            ("x^2-y*z", range(1, 21)),  # x solved, sorted over a 2-D tail
            ("x^2-y*z", signed), ("2x^2-y*z+y", signed),
            ("-2x-2", signed), ("x^3+8", signed),  # Q is a constant
            ("-2x-2", range(1, 9)), ("x^3+8", range(1, 9)), ("x^2", signed),
            ("x^2+y^2-z^2", signed),  # even exponents: both of +-z solve
            ("y^4-x^2*z^2", signed), ("x^2-4y^2", signed)]:
        poly = parse_polynomial(text)
        got = list(_solutions(poly, domain))
        assert got == _tuple_walk(poly, domain), text
    assert list(_solutions(parse_polynomial("-2x-2"), signed)) == [(-1,)]
    assert list(_solutions(parse_polynomial("x^3+8"), signed)) == [(-2,)]
    # No isolated variable: P itself is walked in rows and its zeros kept.
    # (x*y*z-w^3 has one, w, and is checked on that path.)
    for text, n in [("x*y-z*w", 10), ("x*y*z-w^3", 10), ("x*y-2", 40),
                    ("x*y-y*z", 20), ("x*y*z-x*w^2", 8), ("x^2+x-6", 40),
                    ("x-x", 5), ("x^2*y-3*x*y^2+x*y+y^2-6", 30)]:
        poly = parse_polynomial(text)
        assert (_isolated_variable(poly) is None) == (text != "x*y*z-w^3")
        for domain in (range(1, n + 1), *_domains(rng, poly.nvars)):
            assert list(_solutions(poly, domain)) == _tuple_walk(
                poly, domain), (text, domain)
    for _ in range(40):
        poly = _random_unsolved_polynomial(rng)
        for domain in _domains(rng, poly.nvars):
            assert list(_solutions(poly, domain)) == _tuple_walk(
                poly, domain), (poly, domain)
    # domains with gaps
    domain = [v for v in range(1, 21) if v % 3 != 1]
    for text in ("x*y-z*w", "x*y-y*z", "x*y*z-x*w^2"):
        poly = parse_polynomial(text)
        want = _tuple_walk(poly, domain)
        assert want and list(_solutions(poly, domain)) == want, text


def test_solved_enumeration_stops_within_a_few_rows(monkeypatch):
    """A row is evaluated whole, but no further rows are once the budget
    is spent: x^2+y^2 = z^2 over [1..2000] overflows 10 solutions within
    the first dozen values of x, not after 2000^2 evaluations."""
    from finembed import prsearch
    rows = []
    row = prsearch._row

    def spy(rest, point, inner, powers):
        rows.append(point[0])  # x
        return row(rest, point, inner, powers)

    monkeypatch.setattr(prsearch, "_row", spy)
    pattern = equation_pattern(parse_polynomial("x^2+y^2-z^2"))
    with pytest.raises(BudgetError, match="more than 10 instances"):
        pattern.instances(2000, budget=10)
    assert rows == list(range(1, len(rows) + 1))
    assert len(rows) <= 12


@pytest.mark.parametrize("text", [
    "x^2+y^2-z^2", "x+y-z", "x+y-2z", "2x-3y", "x^3+8", "x^3+y^3-z^3",
    "3z^2-x*y", "x^2-2y^2", "x^2+x*y-y", "x*y-z*w", "x^2*y-z^2"])
def test_known_equations_match_tuple_walk(text):
    poly = parse_polynomial(text)
    domain_sizes = {1: 40, 2: 30, 3: 13, 4: 7}
    side = domain_sizes[poly.nvars]
    for domain in (range(1, side + 1), range(-side // 2, side),
                   [v for v in range(1, 3 * side) if v % 3 != 1][:side]):
        assert list(_solutions(poly, domain)) == _tuple_walk(poly, domain)


def test_isolated_variable_choice():
    assert _isolated_variable(parse_polynomial("x^2+y^2-z^2")) == 2
    assert _isolated_variable(parse_polynomial("x+y*z")) == 0
    assert _isolated_variable(parse_polynomial("x^2+x*y-y")) is None
    assert _isolated_variable(parse_polynomial("x*y-z*w")) is None
    # a hand-built zero coefficient: y - y holds y twice, 0*x cannot be solved
    zero = Polynomial(((0, (1, 0)), (1, (0, 1)), (-1, (0, 1))), 2)
    assert _isolated_variable(zero) is None
    assert list(_solutions(zero, range(1, 3))) == _tuple_walk(zero, range(1, 3))


# -- homogeneous equations -------------------------------------------------------

def test_homogeneous_pr_check_schur_equation():
    p = parse_polynomial("x+y-z")
    cert = homogeneous_pr_check(p, 2, 5)
    assert cert.outcome == "forced"
    cert = homogeneous_pr_check(p, 2, 4)
    assert cert.outcome == "avoiding"
    assert cert.colors == (0, 1, 1, 0)


def test_homogeneous_pr_check_rejects_inhomogeneous():
    bad = parse_polynomial("x+y-z-1")
    with pytest.raises(InputError) as exc:
        homogeneous_pr_check(bad, 2, 10)
    assert str(exc.value) == "non-homogeneous-rejected: degrees (0, 1)"
    cert = homogeneous_pr_check(bad, 2, 6, strict=False)
    assert cert.outcome == "forced"  # the search still runs: 1 + 1 - 1 = 1


def test_pythagorean_avoiding_at_desk_scale():
    p = parse_polynomial("x^2+y^2-z^2")
    cert = homogeneous_pr_check(p, 2, 60)
    assert cert.outcome == "avoiding"
    assert verify_coloring(cert, equation_pattern(p))


def test_distinct_flag():
    p = parse_polynomial("x+y-z")
    with_rep = equation_pattern(p).instances(8)
    without_rep = equation_pattern(p, distinct=True).instances(8)
    assert (1, 2) in with_rep  # 1 + 1 = 2 uses a repeated value
    assert (1, 2) not in without_rep
    assert set(without_rep) < set(with_rep)


def test_gap_grid_strict_mode_is_stronger():
    loose = set(gap_grid_pattern(1).instances(60))
    strict = set(gap_grid_pattern(1, strict=True).instances(60))
    for inst in strict:
        # every strict instance contains some loose grid as a subset
        assert any(set(g) <= set(inst) for g in loose)
