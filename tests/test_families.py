import itertools
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (reference_table_translations, reference_word_suffix,
                      reference_word_translations)
from finembed.carrier import (ADDITIVE, FREE_WORDS, MAX_NESTING,
                              MULTIPLICATIVE, GroundSet, Window,
                              make_table_window, make_window, parse_predicate)
from finembed.embed import NO, YES, embed_finite, fe_decide
from finembed.errors import InputError
from finembed.families import (_shell_order, builtin_affine,
                               builtin_geoarithmetic,
                               builtin_left_translations, builtin_polynomial,
                               builtin_right_translations, builtin_word_suffix,
                               filter_params, make_family_from_pair,
                               restrict_params)
from finembed.jsonio import family_from_json
from finembed.prsearch import (MAX_EXPONENT, poly_coefficients, poly_indices,
                               poly_progression_pattern)
from finembed.rich import longest_poly_progression


@pytest.fixture
def win():
    return make_window(ADDITIVE, 100)


def test_right_translations(win):
    tr = builtin_right_translations(win)
    assert tr.apply((5,), (2,)) == 7
    mul = builtin_right_translations(make_window(MULTIPLICATIVE, 50))
    assert mul.apply((4,), (3,)) == 12
    words = make_window(FREE_WORDS, 4, ["a", "b"])
    wt = builtin_right_translations(words)
    assert wt.apply(("a",), ("ab",)) == "aba"


def test_left_vs_right_translations_on_words():
    words = make_window(FREE_WORDS, 4, ["a", "b"])
    left = builtin_left_translations(words)
    assert left.apply(("b",), ("a",)) == "ba"
    B = GroundSet.from_values(words, ["ba", "bb"])
    stream = left.enumerate_params(["a", "b"], B)
    assert stream.complete
    assert ("b",) in list(stream.params)


def test_word_translation_witnesses_follow_the_alphabet_order():
    # The window orders words by length, then by the alphabet as given
    # ("b" before "a"), not by Python string order.
    words = make_window(FREE_WORDS, 3, ["b", "a"])
    tr = builtin_right_translations(words)
    B = GroundSet.from_values(words, ["bb", "ba", "bab", "bbb"])
    assert tr.param_sample(3) == [("b",), ("a",), ("bb",)]
    assert list(tr.enumerate_params(["b"], B).params) == [
        ("b",), ("a",), ("bb",), ("ab",)]
    verdict = fe_decide(GroundSet.from_values(words, ["b"]), B, tr)
    assert verdict.witness.params == ("b",)


def test_affine_evaluation_and_identity(win):
    af = builtin_affine(win)
    assert af.apply((3, 2), (5,)) == 13
    assert af.apply((0, 1), (7,)) == 7
    image = [af.apply((0, 2), (x,)) for x in range(4)]
    assert image == [0, 2, 4, 6]
    strides = {image[i + 1] - image[i] for i in range(3)}
    assert strides == {2}  # affine image of a prefix is an AP
    with pytest.raises(InputError):
        af.apply((1, 0), (5,))  # slope zero is outside R
    with pytest.raises(InputError):
        builtin_affine(make_window(MULTIPLICATIVE, 10))


def test_geoarithmetic(win):
    geo = builtin_geoarithmetic(win)
    assert geo.apply((2, 1, 1), (2, 3)) == 16
    assert geo.apply((2, 0, 1), (0, 1)) == 1
    assert geo.apply((2, 1, 1), (10, 1)) is None  # 2^10 * 2 > 100
    with pytest.raises(InputError):
        geo.apply((1, 0, 1), (1, 1))  # ratio must exceed 1


def test_polynomial_family(win):
    s_all = GroundSet.from_predicate(win, lambda v: True, "N")
    affine_like = builtin_polynomial(s_all, [0, 1], 1)
    assert affine_like.apply((3, 2), (5,)) == 13
    square = builtin_polynomial(s_all, [2], 2)
    assert square.apply((1,), (4,)) == 16
    mixed = builtin_polynomial(s_all, [0, 2], 2)
    assert mixed.apply((1, 2), (3,)) == 19
    # all-constant tuples are excluded once D reaches past the constant term
    assert not mixed.r_accepts((5, 0))
    assert mixed.r_accepts((0, 1))
    with pytest.raises(InputError):
        builtin_polynomial(s_all, [], 2)
    with pytest.raises(InputError):
        builtin_polynomial(s_all, [0, 3], 2)


@pytest.mark.parametrize("d_indices, degree, text", [
    ([], 2, "empty-D: need at least one coefficient index"),
    ([0, 3], 2, "inconsistent-degree: D=[0, 3] vs degree 2"),
    ((3, 0, 3), 2, "inconsistent-degree: D=[0, 3] vs degree 2"),
    ([-1, 1], 2, "inconsistent-degree: D=[-1, 1] vs degree 2"),
])
def test_polynomial_domain_errors_agree(win, d_indices, degree, text):
    s_all = GroundSet.from_predicate(win, lambda v: True, "N")
    entry_points = (
        lambda: builtin_polynomial(s_all, d_indices, degree),
        lambda: longest_poly_progression(s_all, degree, s_all, d_indices),
        lambda: poly_progression_pattern(3, degree, d_indices))
    for call in entry_points:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == text


def test_constant_polynomial_family_and_pattern_accept_d0(win):
    # D=[0] is finite for the family and the pattern; only the detector,
    # whose runs would never end, refuses it (checked through the CLI with
    # a timeout in test_cli.py)
    s_all = GroundSet.from_predicate(win, lambda v: True, "N")
    fam = builtin_polynomial(s_all, [0], 1)
    assert fam.apply((7,), (1,)) == 7  # P = 7 at x = 1
    assert poly_progression_pattern(3, 1, [0]).instances(5) == [
        (v,) for v in range(1, 6)]


@pytest.mark.parametrize("dset", [(0,), (1,), (0, 2), (0, 1, 2), (1, 3)])
def test_poly_coefficients_match_filtered_product(dset):
    values = [0, 1, 3, 4, 7]
    total = 9
    want = [c for c in itertools.product(values, repeat=len(dset))
            if sum(c) <= total
            and not (dset[-1] >= 1 and all(v == 0 for i, v in zip(dset, c) if i))]
    assert list(poly_coefficients(dset, values, total)) == want


def test_word_suffix():
    words = make_window(FREE_WORDS, 4, ["a", "b"])
    ws = builtin_word_suffix(words, "a")
    assert ws.apply((2,), ("b",)) == "baa"
    assert ws.apply((0,), ("ab",)) == "ab"
    assert ws.apply((1,), ("aa",)) == "aaa"
    with pytest.raises(InputError):
        builtin_word_suffix(words, "z")


def test_pair_family_prime_exponents():
    win = make_window(ADDITIVE, 600)
    fam = make_family_from_pair(win, 1, 1, "slot0 ^ param0", r_spec="primes")
    assert fam.apply((2,), (3,)) == 9
    assert not fam.r_accepts((4,))
    with pytest.raises(InputError):
        fam.apply((4,), (2,))


def test_pair_family_translation_equivalence(win):
    pair = make_family_from_pair(win, 1, 1, "slot0 + param0", bound=30)
    tr = builtin_right_translations(win)
    for r in range(0, 20, 3):
        for x in range(0, 50, 7):
            assert pair.apply((r,), (x,)) == tr.apply((r,), (x,)) == r + x


def test_pair_family_errors(win):
    with pytest.raises(InputError):
        make_family_from_pair(win, 1, 2, "slot0 + param0 + param2")
    with pytest.raises(InputError):
        make_family_from_pair(win, 1, 1, "slot0 +")
    fam = make_family_from_pair(win, 1, 2, "slot0 * param0 + param1")
    with pytest.raises(InputError):
        fam.apply((1, 2, 3), (5,))  # three parameters against k = 2


@pytest.mark.parametrize("params, tup, message", [
    ((1, 0), (5,), "params-outside-R: (1, 0) for affine"),
    ((1,), (5,), "params-outside-R: (1,) for affine"),
    ((1, 2), (5, 6), "arity-mismatch: expected 1 arguments"),
    ((1, 2), (), "arity-mismatch: expected 1 arguments"),
    ((1, 2), (101,), "element-out-of-window: 101"),
    ((1, 2), ("5",), "element-out-of-window: '5'"),
])
def test_apply_input_errors(win, params, tup, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        builtin_affine(win).apply(params, tup)


def test_apply_returns_none_on_overflow(win):
    words = make_window(FREE_WORDS, 3, ["a", "b"])
    s_all = GroundSet.from_predicate(win, lambda v: True, "N")
    cases = [
        (builtin_right_translations(win), (60,), (41,)),
        (builtin_left_translations(make_window(MULTIPLICATIVE, 50)),
         (8,), (7,)),
        (builtin_right_translations(words), ("ab",), ("ba",)),
        (builtin_affine(win), (1, 3), (34,)),
        (builtin_polynomial(s_all, [2], 2), (1,), (11,)),
        (builtin_word_suffix(words, "a"), (2,), ("ab",)),
        (make_family_from_pair(win, 2, 1, "slot0 * slot1 + param0"),
         (1,), (10, 10)),
    ]
    for fam, params, tup in cases:
        assert fam.apply(params, tup) is None, fam.name
    # the largest values that stay inside
    assert builtin_right_translations(win).apply((60,), (40,)) == 100
    assert builtin_affine(win).apply((1, 3), (33,)) == 100
    assert builtin_word_suffix(words, "a").apply((1,), ("ab",)) == "aba"
    pair = make_family_from_pair(win, 2, 1, "slot0 * slot1 + param0")
    assert pair.apply((0,), (10, 10)) == 100


def test_enumerate_translations_anchor(win):
    tr = builtin_right_translations(win)
    B = GroundSet.from_values(win, [5, 7, 9])
    stream = tr.enumerate_params([0, 2], B)
    assert stream.complete
    assert list(stream.params) == [(5,), (7,), (9,)]


def test_enumerate_affine_solves_pairs(win):
    af = builtin_affine(win)
    B = GroundSet.from_values(win, [3, 5, 7])
    stream = af.enumerate_params([1, 2], B)
    assert stream.complete
    cands = list(stream.params)
    assert (1, 2) in cands  # from anchors 1 -> 3, 2 -> 5
    assert all(b >= 1 and a >= 0 for a, b in cands)


def test_enumerate_geoarithmetic_is_bounded_scan(win):
    geo = builtin_geoarithmetic(win)
    B = GroundSet.from_values(win, [4])
    stream = geo.enumerate_params([0], B, bound=3)
    assert not stream.complete
    cands = list(stream.params)
    assert all(r >= 2 and b >= 1 for r, a, b in cands)
    assert (2, 0, 1) in cands


def test_enumerate_word_suffix_strips(win):
    words = make_window(FREE_WORDS, 5, ["a", "b"])
    ws = builtin_word_suffix(words, "a")
    B = GroundSet.from_values(words, ["baa", "ba", "bab", "b"])
    stream = ws.enumerate_params(["b"], B)
    assert stream.complete
    assert list(stream.params) == [(0,), (1,), (2,)]


@given(st.integers(0, 1_000_000))
def test_anchored_streams_never_violate_r(seed):
    rng = random.Random(seed)
    win = make_window(ADDITIVE, 40)
    fam = rng.choice([builtin_right_translations(win), builtin_affine(win)])
    f_vals = sorted(rng.sample(range(15), rng.randint(1, 4)))
    b_vals = sorted(rng.sample(range(41), rng.randint(0, 8)))
    B = GroundSet.from_values(win, b_vals)
    stream = fam.enumerate_params(f_vals, B)
    assert stream.complete
    for p in stream.params:
        assert fam.r_accepts(p)


@given(st.integers(0, 1_000_000))
def test_anchored_candidates_cover_every_blind_witness(seed):
    """No parameter tuple outside the anchored candidate set can be a witness
    (checked against a full scan with a generous magnitude bound)."""
    rng = random.Random(seed)
    win = make_window(ADDITIVE, 30)
    f_vals = sorted(rng.sample(range(10), rng.randint(2, 4)))
    b_vals = set(rng.sample(range(31), rng.randint(1, 10)))
    B = GroundSet.from_values(win, b_vals)

    tr = builtin_right_translations(win)
    cands = set(tr.enumerate_params(f_vals, B).params)
    for r in range(0, 61):
        if all(f + r in b_vals for f in f_vals):
            assert (r,) in cands

    af = builtin_affine(win)
    cands = set(af.enumerate_params(f_vals, B).params)
    for a in range(0, 61):
        for b in range(1, 61):
            if all(a + b * f in b_vals for f in f_vals):
                assert (a, b) in cands


@pytest.mark.parametrize("builder", [builtin_right_translations,
                                     builtin_left_translations])
def test_table_translations_list_every_solution(builder):
    # Multiplication mod 4 does not cancel: 2*1 = 2*3 = 2, so the anchor 2
    # reaches the member 2 by two parameters, and only r = 3 also sends 3
    # into B (3*3 = 1).  A complete "no" needs both on the list.
    win = make_table_window([0, 1, 2, 3], lambda x, y: x * y % 4)
    B = GroundSet.from_values(win, [1, 2])
    family = builder(win)
    stream = family.enumerate_params([2, 3], B)
    assert stream.complete and list(stream.params) == [(1,), (3,)]
    v = embed_finite([2, 3], B, family)
    assert (v.outcome, v.witness.params, v.witness.image) == (YES, (3,), (1, 2))
    assert v.stats.params_examined == 2


def _walk(family, fpay, B, cands):
    """(witness, params examined) walking cands as embed_finite walks the
    anchored list: the first candidate mapping every point of F into B."""
    for examined, params in enumerate(cands, 1):
        if all(y is not None and B.contains_value(y)
               for y in (family.g((f,), params) for f in fpay)):
            return params, examined
    return None, len(cands)


def _check_against_reference(family, F, B, ref, key):
    """family's stream against the pre-change reference list ref after R
    and ordering by key, and embed_finite against walking it."""
    fpay = family._normalize_f(F)
    want = sorted({p for p in ref if family.r_accepts(p)}, key=key)
    stream = family.enumerate_params(fpay, B)
    assert stream.complete and list(stream.params) == want
    v = embed_finite(F, B, family)
    witness, examined = _walk(family, fpay, B, want)
    assert (v.witness.params if v.witness else None) == witness
    assert (v.outcome == YES) == (witness is not None)
    assert v.stats.params_examined == examined
    return v


def _translations_builder(right):
    return builtin_right_translations if right else builtin_left_translations


def _word_family(rng, win):
    """A random word family, its pre-change reference list builder, the
    order of its parameters and its map on one word."""
    choice = rng.randrange(3)
    if choice < 2:
        right = choice == 0
        return (_translations_builder(right)(win),
                lambda w0, B: reference_word_translations(w0, B, right),
                lambda p: win.encoding(p[0]),
                lambda w, r: w + r if right else r + w)
    letter = rng.choice(win.alphabet)
    return (builtin_word_suffix(win, letter),
            lambda w0, B: reference_word_suffix(w0, letter, B), None,
            lambda w, j: w + letter * len(j))


def test_word_lists_match_the_string_solvers_on_seeded_instances():
    rng = random.Random(20140127)
    seen = dict.fromkeys((YES, NO, "empty B", "w0 in B", "w0 longest",
                          "suffix j = 0 and j > 0"), 0)
    for _ in range(2000):
        win = make_window(FREE_WORDS, rng.randint(1, 6),
                          "abc"[:rng.randint(1, 3)])
        family, reference, key, apply = _word_family(rng, win)
        words = list(win.payloads())
        # B's words are at most `top` letters long; F sometimes longer.
        top = rng.randint(1, win.bound)
        short = [w for w in words if len(w) <= top]
        long_ = [w for w in words if len(w) > top]
        pool = long_ if long_ and rng.random() < 0.25 else words
        F = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        density = rng.choice([0, 0.05, 0.2, 0.5, 1])
        members = {w for w in short if rng.random() < density}
        w0 = min(F, key=win.encoding)
        if rng.random() < 0.3:
            members.add(w0)
        for _ in range(rng.choice([0, 0, 1, 2])):  # F's images, where they fit
            r = rng.choice(words)
            members.update(w for w in (apply(f, r) for f in F)
                           if len(w) <= win.bound)
        B = GroundSet.from_values(win, members)
        ref = reference(w0, B)
        assert family._anchored((w0,), B) == ref
        v = _check_against_reference(family, F, B, ref, key)
        seen[v.outcome] += 1
        seen["empty B"] += not members
        seen["w0 in B"] += w0 in members
        seen["w0 longest"] += bool(members) and all(
            len(w) < len(w0) for w in members)
        seen["suffix j = 0 and j > 0"] += (
            key is None and (0,) in ref and len(ref) > 1)
    assert min(seen.values()) > 40, seen


def test_word_lists_read_members_in_other_word_windows():
    # B may live in another word window; the lists read its members there,
    # as the string solvers did.
    rng = random.Random(20140128)
    for _ in range(300):
        win = make_window(FREE_WORDS, rng.randint(1, 5),
                          "abc"[:rng.randint(1, 3)])
        other = make_window(FREE_WORDS, rng.randint(1, 5),
                            rng.choice(["a", "ab", "ba", "abc", "cab", "bd"]))
        B = GroundSet.from_values(other, [w for w in other.payloads()
                                          if rng.random() < 0.3])
        w0 = rng.choice(list(win.payloads()))
        for right in (True, False):
            family = _translations_builder(right)(win)
            ref = reference_word_translations(w0, B, right)
            want = sorted({p for p in ref if family.r_accepts(p)},
                          key=lambda p: win.encoding(p[0]))
            assert list(family.enumerate_params([w0], B).params) == want
        letter = rng.choice(win.alphabet)
        family = builtin_word_suffix(win, letter)
        assert list(family.enumerate_params([w0], B).params) == (
            reference_word_suffix(w0, letter, B))
    # A B outside word windows has no ranks to read.
    table = make_table_window(["a", "ab", "b"], lambda x, y: x)
    with pytest.raises(InputError, match="wrong-carrier"):
        embed_finite(["a"], GroundSet.from_values(table, ["ab"]),
                     builtin_right_translations(win))


# Associative operations that do not cancel (or overflow), as payloads and
# operation for a window of n elements.
_TABLES = (
    lambda n: (list(range(n)), lambda x, y: x * y % n),
    lambda n: (list(range(n)), max),
    lambda n: (list(range(n)), min),
    lambda n: ([f"e{i}" for i in range(n)], lambda x, y: x),
    lambda n: ([f"e{i}" for i in range(n)], lambda x, y: y),
    lambda n: (list(range(1, n + 1)), lambda x, y: math.gcd(x, y)),
    lambda n: (list(range(n)), lambda x, y: x + y if x + y < n else None),
)


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_table_lists_take_one_pass_and_match_the_per_member_scan(right,
                                                                  monkeypatch):
    rng = random.Random(20140129 + right)
    calls = []
    op_payload = Window.op_payload
    seen = {YES: 0, NO: 0}
    for _ in range(300):
        payloads, op = rng.choice(_TABLES)(rng.randint(1, 12))
        win = make_table_window(payloads, op)
        B = GroundSet.from_values(win, [p for p in payloads
                                        if rng.random() < 0.4])
        F = rng.sample(payloads, rng.randint(1, min(3, len(payloads))))
        family = _translations_builder(right)(win)
        w0 = family._normalize_f(F)[0]
        ref = reference_table_translations(win, w0, B, right)
        monkeypatch.setattr(Window, "op_payload",
                            lambda *args: calls.append(1) or op_payload(*args))
        got = family._anchored((w0,), B)
        monkeypatch.setattr(Window, "op_payload", op_payload)
        assert len(calls) == win.size
        calls.clear()
        key = lambda p: win.encoding(p[0])  # noqa: E731
        assert sorted(got, key=key) == sorted(ref, key=key)
        v = _check_against_reference(family, F, B, ref, key)
        seen[v.outcome] += 1
    assert min(seen.values()) > 30, seen


def test_scan_order_is_small_first(win):
    geo = builtin_geoarithmetic(win)
    cands = geo.param_sample(10, bound=5)
    norms = [max(p) for p in cands]
    assert norms == sorted(norms)
    assert cands[0] == (2, 0, 1)


def _shell_reference(lists):
    """Every tuple of ranks, sorted by largest rank then lexicographically,
    mapped back to values; as with itertools.product, no lists give the one
    tuple ()."""
    ranks = sorted(itertools.product(*(range(len(lst)) for lst in lists)),
                   key=lambda t: (max(t, default=0), t))
    return [tuple(lst[j] for lst, j in zip(lists, t)) for t in ranks]


def test_shell_order_matches_sorted_ranks():
    rng = random.Random(5)
    shapes = [[], [[]], [range(0)], [range(3), []], [[], range(3)],
              [range(1)], [range(7)], [range(2, 9)], [[4, 9, 30]],
              [range(3), range(5)], [range(5), range(3)],
              [range(4), [1, 5, 6], range(2)], [range(3)] * 4,
              [[0, 7], range(6), [3], range(4)]]
    for _ in range(300):
        shapes.append([
            range(rng.randint(0, 2), rng.randint(2, 8)) if rng.random() < 0.5
            else sorted(rng.sample(range(50), rng.randint(0, 6)))
            for _ in range(rng.randint(0, 4))])
    for lists in shapes:
        assert list(_shell_order(lists)) == _shell_reference(lists), lists


def _box(k, default):
    """Each of k parameters in 0..bound, and bound default when None."""
    return lambda b: [range((default if b is None else b) + 1)] * k


def _scan_rule_cases():
    """(id, family, its scan lists for a bound or None), each written from
    the family's documented region: translations walk the window whatever
    the bound, polynomials the coefficients in S up to it, and the rest a
    box 0..bound with bound max(W, 64) by default (the window's bound for
    word suffixes, enum.bound for a pair family that sets one)."""
    add, big = make_window(ADDITIVE, 10), make_window(ADDITIVE, 100)
    mul, words = make_window(MULTIPLICATIVE, 12), make_window(FREE_WORDS, 3,
                                                               ["b", "a"])
    cases = []
    for w in (add, mul, words):
        payloads = list(w.payloads())
        for build in (builtin_right_translations, builtin_left_translations):
            fam = build(w)
            cases.append((f"{fam.name}-{w.kind}", fam,
                          lambda b, p=payloads: [p]))
    coeffs = GroundSet.from_predicate(big, parse_predicate("multiples:3"))
    # A restricted family samples its list as given, whatever the bound;
    # this one is in shell order inside 0..3.
    steps = [(0, 1), (1, 1), (0, 2), (2, 1), (3, 3)]
    cases += [
        ("affine", builtin_affine(add), _box(2, 64)),
        ("affine-W100", builtin_affine(big), _box(2, 100)),
        ("geoarithmetic", builtin_geoarithmetic(add), _box(3, 64)),
        ("polynomial", builtin_polynomial(coeffs, [0, 2], 2),
         lambda b: [[v for v in coeffs.values()
                     if v <= (100 if b is None else b)]] * 2),
        ("word-suffix", builtin_word_suffix(words, "a"), _box(1, 3)),
        ("pair-k0", make_family_from_pair(add, 1, 0, "slot0+1"), _box(0, 64)),
        ("pair-k1", make_family_from_pair(add, 1, 1, "slot0+param0"),
         _box(1, 64)),
        ("pair-k1-multiplicative",
         make_family_from_pair(mul, 1, 1, "slot0*param0", "positive"),
         _box(1, 64)),
        ("pair-k2-positive", make_family_from_pair(
            add, 1, 2, "param0*slot0+param1", "positive"), _box(2, 64)),
        ("pair-k3-primes", make_family_from_pair(
            add, 2, 3, "param0*slot0+param1*slot1+param2", "primes"),
         _box(3, 64)),
        ("pair-k2-enum-bound-5", make_family_from_pair(
            add, 1, 2, "param0*slot0+param1", bound=5), _box(2, 5)),
        ("pair-k3-enum-bound-0", make_family_from_pair(
            add, 1, 3, "param0+param1+param2*slot0", bound=0), _box(3, 0)),
        ("affine-filtered", filter_params(builtin_affine(add),
                                          lambda p: p[1] % 2, "odd slopes"),
         _box(2, 64)),
        ("affine-restricted", restrict_params(builtin_affine(add), steps),
         lambda b: [range(4)] * 2),
    ]
    return cases


@pytest.mark.parametrize("case", _scan_rule_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("bound", [None, 3, 7])
def test_param_sample_follows_the_scan_rule(case, bound):
    # 1,500 tuples reach past the box at bound W as well as at 64, so a
    # default bound other than the documented one shows too.
    _name, fam, lists = case
    want = [p for p in _shell_reference(lists(bound)) if fam.r_accepts(p)]
    assert fam.param_sample(1500, bound) == want[:1500]


def test_term_nesting_is_capped_where_evaluation_still_fits(win):
    # Each bracket adds a sum, a product and a power: three levels to
    # evaluate; the ^1 inside the innermost bracket is one pow deeper.
    deepest = "slot0"
    for _ in range(MAX_NESTING - 2):
        deepest = f"({deepest}^1*1+param0)"
    fam = make_family_from_pair(win, 1, 1, deepest)
    assert fam.g((1,), (0,)) == 1
    assert fam.g((1,), (1,)) == MAX_NESTING - 1
    chain = "^".join(["slot0"] * MAX_NESTING)
    assert make_family_from_pair(win, 1, 0, chain).g((1,), ()) == 1
    for term in (f"({deepest}^1*1+param0)", chain + "^slot0",
                 "(" * 3000 + "slot0+param0" + ")" * 3000,
                 "^".join(["2"] * 3000)):
        with pytest.raises(InputError, match="nested above"):
            make_family_from_pair(win, 1, 1, term)


def test_degree_and_term_exponents_are_capped(win):
    assert poly_indices([1, MAX_EXPONENT], MAX_EXPONENT) == (1, MAX_EXPONENT)
    with pytest.raises(InputError, match="degree-out-of-range"):
        poly_indices([1], MAX_EXPONENT + 1)
    with pytest.raises(InputError, match="degree-out-of-range"):
        longest_poly_progression(GroundSet.full(win), 100_000,
                                 GroundSet.full(win), [1])
    fam = make_family_from_pair(win, 1, 1, "slot0^param0")
    assert fam.g((1,), (MAX_EXPONENT + 1,)) == 1
    with pytest.raises(InputError, match="exponent out of range"):
        fam.g((2,), (MAX_EXPONENT + 1,))


def test_scan_covers_whole_box(win):
    fam = make_family_from_pair(win, 1, 2, "slot0 + param0 + param1")
    seen = list(itertools.islice(
        (p for p in fam.enumerate_params([0], GroundSet.empty(win),
                                         bound=4).params), 1000))
    assert sorted(seen) == sorted(itertools.product(range(5), repeat=2))
    assert len(set(seen)) == len(seen)


def test_family_without_parameters_examines_its_one_member(win):
    fam = make_family_from_pair(win, 1, 0, "slot0+1")
    assert fam.param_sample(3) == [()]
    v = embed_finite([1], GroundSet.from_values(win, [2]), fam)
    assert (v.outcome, v.witness.params, v.stats.params_examined) == (
        "yes", (), 1)
    v = embed_finite([1], GroundSet.from_values(win, [3]), fam)
    assert (v.outcome, v.stats.params_examined) == ("unknown", 1)


def test_negative_scan_bound_is_bad_input(win):
    # An empty box would answer "unknown" after 0 parameters; the bound
    # is checked once the default is resolved, whoever set it.
    geo = builtin_geoarithmetic(win)
    with pytest.raises(InputError, match="scan bound must be >= 0, got -1"):
        geo.param_sample(3, bound=-1)
    with pytest.raises(InputError, match="got -1"):
        embed_finite([1, 2], GroundSet.full(win), geo, bound=-1)
    pair = family_from_json(
        {"pair": {"n": 1, "k": 1, "term": "slot0+param0",
                  "enum": {"bound": -3}}}, win)
    with pytest.raises(InputError, match="scan bound must be >= 0, got -3"):
        pair.param_sample(3)
    with pytest.raises(InputError, match="got -3"):
        embed_finite([1], GroundSet.full(win), pair)
    assert pair.param_sample(3, bound=0) == [(0,)]


def test_restrict_and_filter_params(win):
    tr = builtin_right_translations(win)
    single = restrict_params(tr, [(7,)])
    stream = single.enumerate_params([0], GroundSet.full(win))
    assert stream.complete and list(stream.params) == [(7,)]
    assert not single.r_accepts((6,))

    af = builtin_affine(win)
    steep = filter_params(af, lambda p: p[1] >= 2, "affine-steep")
    assert steep.r_accepts((0, 2)) and not steep.r_accepts((0, 1))
    B = GroundSet.from_values(win, [0, 2, 4])
    assert all(p[1] >= 2 for p in steep.enumerate_params([0, 1], B).params)


def test_filtered_explicit_list_stays_complete(win):
    # Filtering a listed family keeps its list, cut by the predicate, so it
    # refutes as soundly as the list did, whatever the scan bound.
    listed = restrict_params(builtin_right_translations(win), [(90,), (95,)])
    late = filter_params(listed, lambda p: p[0] >= 95, "late")
    stream = late.enumerate_params([0], GroundSet.full(win))
    assert stream.complete and list(stream.params) == [(95,)]
    for bound in (None, 2):
        v = embed_finite([0, 1], GroundSet.from_values(win, [95, 96]), late,
                         bound=bound)
        assert (v.outcome, v.witness.params, v.stats.complete) == (
            YES, (95,), True)
        v = embed_finite([0, 1], GroundSet.from_values(win, [90, 91]), late,
                         bound=bound)
        assert (v.outcome, v.stats.complete) == (NO, True)


def test_filtered_affine_runs_pred_once_per_anchored_candidate(win):
    # pred joins R, and R filters the parent's anchored list once, in order.
    af = builtin_affine(win)
    B = GroundSet.from_values(win, [0, 3, 6, 9, 12, 40, 41, 70, 73])
    parent = list(af.enumerate_params([1, 4], B).params)
    calls = []

    def odd_intercept(p):
        calls.append(p)
        return p[0] % 2 == 1

    odd = filter_params(af, odd_intercept, "odd-intercept")
    stream = odd.enumerate_params([1, 4], B)
    assert stream.complete
    assert list(stream.params) == [p for p in parent if p[0] % 2 == 1] != []
    assert calls == parent


def test_filtered_restricted_family_keeps_its_order(win):
    listed = restrict_params(builtin_right_translations(win),
                             [(40,), (7,), (90,), (3,), (12,)])
    small = filter_params(listed, lambda p: p[0] < 50, "small")
    stream = small.enumerate_params([0], GroundSet.full(win))
    assert stream.complete
    assert list(stream.params) == [(40,), (7,), (3,), (12,)]
    assert small.param_sample(3) == [(40,), (7,), (3,)]
    assert listed.param_sample(2) == [(40,), (7,)]
