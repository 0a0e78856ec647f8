import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_longest_ap, brute_longest_gap_grid,
                      reference_maximality_probe)
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              make_window)
from finembed.embed import embed_finite
from finembed.errors import InputError
from finembed.families import builtin_affine, builtin_right_translations
from finembed.rich import (is_piecewise_syndetic_window, is_thick_window,
                           longest_ap, longest_gap_grid,
                           longest_poly_progression, maximality_probe,
                           verify_certificate)


def ground(win, values):
    return GroundSet.from_values(win, values)


def test_longest_ap_examples():
    win = make_window(ADDITIVE, 30)
    cert = longest_ap(ground(win, [1, 3, 5, 7]))
    assert (cert.length, cert.params) == (4, (1, 2))
    assert tuple(cert.realized) == (1, 3, 5, 7)
    assert type(cert.realized) is range  # the run as generated, no copy

    cert = longest_ap(ground(win, [1]))
    assert cert.length == 1

    m3 = GroundSet.from_predicate(win, lambda v: v % 3 == 0)
    cert = longest_ap(m3)
    assert (cert.length, cert.params) == (11, (0, 3))

    assert longest_ap(GroundSet.empty(win)).length == 0


def test_longest_ap_tiebreak_smallest_stride_then_start():
    win = make_window(ADDITIVE, 20)
    cert = longest_ap(ground(win, [0, 1, 2, 10, 12, 14]))
    assert cert.length == 3
    assert cert.params == (0, 1)


def test_longest_gap_grid_examples():
    win = make_window(ADDITIVE, 30)
    cert = longest_gap_grid(ground(win, [4, 6, 8, 12]))
    assert (cert.length, cert.params) == (2, (2, 1, 1))
    assert cert.realized == (4, 6, 8, 12)

    cert = longest_gap_grid(ground(win, [5]))
    assert (cert.length, cert.params) == (1, (5, 0, 1))

    assert longest_gap_grid(GroundSet.empty(win)).length == 0


def test_longest_gap_grid_zero_based():
    win = make_window(ADDITIVE, 60)
    # full Bergelson grid for (b,q,a,d) = (1,2,1,1), n = 1: {1,2,2,4}
    cert = longest_gap_grid(ground(win, [1, 2, 4]), zero_based=True)
    assert cert.indexing == "zero-based"
    assert cert.length >= 2
    assert verify_certificate(cert, ground(win, [1, 2, 4]))


def _brute_zero_based_grid(vals, bound):
    """(n + 1, params, realized) for the largest full zero-based grid
    b q^j (a + i d), 0 <= i, j <= n, in vals, with no pruning at all.

    Cells are positive (a >= 1), so zero never anchors a grid.  Any positive
    member m is the one-cell grid (1, 2, m, 1), taken for the least m; past
    it, params = (b, q, a, d) is the first best in the order q, then b, then
    a + d, then d.  realized lists the cells row-major in i.
    """
    smallest = min((v for v in vals if v >= 1), default=None)
    if smallest is None:
        return 0, (), ()
    best, params = 1, (1, 2, smallest, 1)
    for q in range(2, bound + 1):
        for b in range(1, bound + 1):
            for s in range(2, 2 * bound + 1):
                for d in range(max(1, s - bound), min(s - 1, bound) + 1):
                    a = s - d
                    side = 0
                    while True:
                        cells = [b * q ** j * (a + i * d)
                                 for i in range(side + 1)
                                 for j in range(side + 1)]
                        if all(0 <= c <= bound and c in vals for c in cells):
                            side += 1
                        else:
                            break
                    if side > best:
                        best, params = side, (b, q, a, d)
    b, q, a, d = params
    return best, params, tuple(b * q ** j * (a + i * d)
                               for i in range(best) for j in range(best))


@settings(max_examples=10)
@given(st.integers(0, 10_000_000))
def test_zero_based_grid_matches_brute_force(seed):
    rng = random.Random(seed)
    bound = rng.randint(6, 16)
    win = make_window(ADDITIVE, bound)
    vals = set(rng.sample(range(bound + 1), rng.randint(0, bound)))
    A = GroundSet.from_values(win, vals)
    cert = longest_gap_grid(A, zero_based=True)
    assert (cert.length, cert.params, tuple(cert.realized)) == \
        _brute_zero_based_grid(vals, bound)
    assert verify_certificate(cert, A)


def test_longest_poly_progression_examples():
    win = make_window(ADDITIVE, 100)
    nat = GroundSet.from_predicate(win, lambda v: True, "N")
    squares = GroundSet.from_predicate(win,
                                       lambda v: int(v ** 0.5 + 0.5) ** 2 == v)
    cert = longest_poly_progression(squares, 2, nat, [2])
    assert cert.length == 10
    assert cert.params == (0, 0, 1)
    assert cert.realized[:3] == (1, 4, 9)

    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    cert = longest_poly_progression(evens, 1, nat, [1])
    assert cert.length == 50 and cert.params == (0, 2)

    cert = longest_poly_progression(ground(win, [99]), 1, nat, [1])
    assert cert.length <= 1  # no P with P(1) and P(2) both present
    with pytest.raises(InputError):
        longest_poly_progression(evens, 2, nat, [])


def test_poly_progression_respects_coefficient_set():
    win = make_window(ADDITIVE, 60)
    odd_coeffs = GroundSet.from_predicate(win, lambda v: v % 2 == 1)
    target = ground(win, [3, 6, 9, 12, 15])
    cert = longest_poly_progression(target, 1, odd_coeffs, [0, 1])
    # P(x) = 3x works but needs even constant 0; coefficients here are odd,
    # so the best odd-coefficient line must be shorter or different
    for x, y in enumerate(cert.realized, start=1):
        coeffs = cert.params
        assert sum(c * x ** i for i, c in enumerate(coeffs)) == y


def test_certificates_reverify():
    win = make_window(ADDITIVE, 120)
    rng = random.Random(5)
    for _ in range(20):
        vals = sorted(rng.sample(range(121), rng.randint(0, 40)))
        A = ground(win, vals)
        for cert in (longest_ap(A), longest_gap_grid(A)):
            assert verify_certificate(cert, A)


def test_certificate_tampering_detected():
    win = make_window(ADDITIVE, 30)
    A = ground(win, [1, 3, 5, 7])
    cert = longest_ap(A)
    from dataclasses import replace
    bad = replace(cert, realized=(1, 3, 5, 9))
    assert not verify_certificate(bad, A)
    bad2 = replace(cert, params=(1, 3))
    assert not verify_certificate(bad2, A)


@settings(max_examples=25)
@given(st.integers(0, 10_000_000))
def test_longest_ap_matches_brute_force(seed):
    rng = random.Random(seed)
    bound = rng.randint(10, 120)
    win = make_window(ADDITIVE, bound)
    vals = set(rng.sample(range(bound + 1),
                          rng.randint(0, min(bound, 45))))
    cert = longest_ap(GroundSet.from_values(win, vals))
    assert cert.length == brute_longest_ap(vals, bound)
    assert verify_certificate(cert, GroundSet.from_values(win, vals))


@settings(max_examples=15)
@given(st.integers(0, 10_000_000))
def test_longest_gap_grid_matches_brute_force(seed):
    rng = random.Random(seed)
    bound = rng.randint(10, 80)
    win = make_window(ADDITIVE, bound)
    vals = set(rng.sample(range(bound + 1), rng.randint(0, bound // 2)))
    if rng.random() < 0.5:  # plant a grid so k >= 2 shows up
        r, a, b = rng.randint(2, 3), rng.randint(0, 3), rng.randint(1, 2)
        planted = {r ** i * (a + j * b) for i in (1, 2) for j in (1, 2)}
        if max(planted) <= bound:
            vals |= planted
    cert = longest_gap_grid(GroundSet.from_values(win, vals))
    assert (cert.length, cert.params, tuple(cert.realized)) == \
        brute_longest_gap_grid(vals, bound)


def test_thickness_probes():
    win = make_window(ADDITIVE, 120)
    A = GroundSet.from_predicate(win, lambda v: 50 <= v <= 80)
    rep = is_thick_window(A, [20])
    assert rep.entries[0].found and rep.entries[0].shift == 50

    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    assert not is_thick_window(evens, [1]).entries[0].found

    rep = is_thick_window(GroundSet.full(win), [0, 3, 7])
    assert rep.all_found
    assert all(e.shift == 0 for e in rep.entries)


def test_thickness_multiplicative():
    win = make_window(MULTIPLICATIVE, 60)
    # {s, 2s, 3s} landing inside A for the first three canonical elements
    A = GroundSet.from_values(win, [7, 14, 21, 28])
    rep = is_thick_window(A, [2])
    assert rep.entries[0].found and rep.entries[0].shift == 7


def test_maximality_probe_examples():
    win = make_window(ADDITIVE, 100)
    tr = builtin_right_translations(win)
    af = builtin_affine(win)
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)

    out = maximality_probe(GroundSet.full(win), tr, [1, 3, 5])
    assert out.overall == "supported"
    assert [e.F for e in out.entries] == [(0,), (0, 1, 2), (0, 1, 2, 3, 4)]
    assert all(e.verdict.witness.params == (0,) for e in out.entries)

    out = maximality_probe(evens, tr, [2])
    assert out.overall == "refuted" and out.refutation.size == 2

    out = maximality_probe(evens, af, [5])
    assert out.entries[0].verdict.outcome == "yes"
    assert out.entries[0].verdict.witness.params == (0, 2)


@pytest.mark.parametrize("seed", range(4))
def test_maximality_probe_matches_the_prefix_loop(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(6):
        win = make_window(ADDITIVE, rng.randint(15, 60))
        run = rng.randint(0, 6)
        t = rng.randint(0, win.bound - run)
        vals = set(range(t, t + run + 1)) | set(
            rng.sample(range(win.bound + 1), rng.randint(1, 12)))
        A = GroundSet.from_values(win, vals)
        cases.append((A, builtin_right_translations(win), 7))
        cases.append((A, builtin_affine(win), 5))
    words = make_window(FREE_WORDS, 3, ["a", "b"])
    for _ in range(4):
        members = rng.sample(list(words.payloads()), rng.randint(1, 14))
        cases.append((GroundSet.from_values(words, members),
                      builtin_right_translations(words), 4))
    for A, family, top in cases:
        sizes = sorted(rng.sample(range(1, top + 1), rng.randint(1, 3)))
        got = maximality_probe(A, family, sizes)
        want = reference_maximality_probe(A, family, sizes)
        assert [e.size for e in got.entries] == sizes
        for e, (p, v) in zip(got.entries, want):
            assert (e.verdict.outcome, e.verdict.witness,
                    e.verdict.stats.params_examined) == (
                v.outcome, v.witness, v.stats.params_examined), (
                family.name, list(A.values()), p)


def test_maximality_probe_sizes_follow_fe_probe():
    win = make_window(ADDITIVE, 10)
    tr = builtin_right_translations(win)
    A = GroundSet.full(win)
    with pytest.raises(InputError, match=r"^A-too-small: probe size 12 "
                                         r"exceeds \|A\| = 11$"):
        maximality_probe(A, tr, [2, 12, 13])
    with pytest.raises(InputError, match="^probe sizes must be a non-empty "
                                         "ascending list"):
        maximality_probe(A, tr, [3, 2])
    assert [e.size for e in maximality_probe(A, tr, [11]).entries] == [11]


def test_empty_probe_lists_are_bad_input():
    for kind in (ADDITIVE, MULTIPLICATIVE):
        win = make_window(kind, 50)
        A = GroundSet.from_predicate(win, lambda v: v % 3 == 0)
        with pytest.raises(InputError,
                           match="^probe lengths must be a non-empty list$"):
            is_thick_window(A, [])
        with pytest.raises(InputError,
                           match="^span probes must be a non-empty list$"):
            is_piecewise_syndetic_window(A, 2, [])
        with pytest.raises(InputError,
                           match="^probe sizes must be a non-empty ascending "
                                 "list of positive integers$"):
            maximality_probe(A, builtin_right_translations(win), [])


def test_piecewise_syndetic_examples():
    win = make_window(ADDITIVE, 400)
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    assert is_piecewise_syndetic_window(evens, 2, [10, 50, 200]).all_found

    squares = GroundSet.from_predicate(win,
                                       lambda v: int(v ** 0.5 + 0.5) ** 2 == v)
    rep = is_piecewise_syndetic_window(squares, 2, [20])
    assert not rep.entries[0].found

    assert is_piecewise_syndetic_window(GroundSet.full(win), 1, [50]).all_found


def test_piecewise_syndetic_multiplicative_ratio_gaps():
    win = make_window(MULTIPLICATIVE, 200)
    powers = GroundSet.from_values(win, [1, 2, 4, 8, 16, 32, 64, 128])
    rep = is_piecewise_syndetic_window(powers, 2, [8])
    assert rep.entries[0].found
    sparse = GroundSet.from_values(win, [1, 100])
    rep = is_piecewise_syndetic_window(sparse, 2, [50])
    assert not rep.entries[0].found


def test_piecewise_syndetic_multiplicative_reads_values_not_encodings():
    # [1, 3] holds no multiple of 4, so shift 1 fails; every ratio-3 range
    # from 2 on meets 4 or 8.  Reading the bitset at v instead of v - 1
    # tested v + 1 and reported shift 1.
    win = make_window(MULTIPLICATIVE, 126)
    fours = GroundSet.from_predicate(win, lambda v: v % 4 == 0)
    rep = is_piecewise_syndetic_window(fours, 3, [4])
    assert rep.entries[0].found and rep.entries[0].shift == 2


def test_gap_grid_embed_consistency():
    """longest_gap_grid(A) >= k exactly when [1..k] (squared, as argument
    pairs) embeds into A through the geoarithmetic family."""
    from finembed.families import builtin_geoarithmetic
    rng = random.Random(41)
    for _ in range(10):
        bound = rng.randint(8, 40)
        win = make_window(ADDITIVE, bound)
        vals = set(rng.sample(range(bound + 1), rng.randint(0, bound // 2)))
        if rng.random() < 0.6:
            r, a, b = 2, rng.randint(0, 2), rng.randint(1, 2)
            grid = {r ** i * (a + j * b) for i in (1, 2) for j in (1, 2)}
            if max(grid) <= bound:
                vals |= grid
        A = GroundSet.from_values(win, vals)
        geo = builtin_geoarithmetic(win)
        best = longest_gap_grid(A).length
        for k in (1, 2, 3):
            v = embed_finite(list(range(1, k + 1)), A, geo, bound=bound)
            assert (v.outcome == "yes") == (best >= k), (sorted(vals), k)


def test_ap_embed_consistency():
    """longest_ap(A) >= k+1 exactly when the prefix [0..k] embeds by an
    affine map."""
    win = make_window(ADDITIVE, 80)
    af = builtin_affine(win)
    rng = random.Random(11)
    for _ in range(15):
        vals = set(rng.sample(range(81), rng.randint(2, 25)))
        A = GroundSet.from_values(win, vals)
        ln = longest_ap(A).length
        for k in range(1, 6):
            emb = embed_finite(list(range(k + 1)), A, af).outcome == "yes"
            assert emb == (ln >= k + 1), (sorted(vals), k, ln)
