import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finembed.carrier import (ADDITIVE, FREE_WORDS, MAX_NESTING,
                              MULTIPLICATIVE, GroundSet, check_associative,
                              make_table_window, make_window, op_apply,
                              parse_predicate)
from finembed.errors import InputError


def test_additive_window_basics():
    w = make_window(ADDITIVE, 100)
    assert w.size == 101
    assert [w.payload(i) for i in range(3)] == [0, 1, 2]
    assert w.identity_enc == 0
    assert op_apply(w, 2, 3) == 5


def test_multiplicative_window_starts_at_one():
    w = make_window(MULTIPLICATIVE, 20)
    assert w.size == 20
    assert w.payload(0) == 1
    assert w.payload(w.identity_enc) == 1
    assert op_apply(w, 3, 4) == 12
    assert op_apply(w, 7, 8) is None
    with pytest.raises(InputError):
        make_window(MULTIPLICATIVE, 0)


def test_word_window_count_and_order():
    w = make_window(FREE_WORDS, 3, ["a", "b"])
    assert w.size == 14  # 2 + 4 + 8 nonempty words
    assert [w.payload(i) for i in range(6)] == ["a", "b", "aa", "ab", "ba", "bb"]
    assert w.identity_enc is None
    assert op_apply(w, "ab", "a") == "aba"
    assert op_apply(w, "ab", "ba") is None


def test_window_errors():
    with pytest.raises(InputError):
        make_window("bogus", 5)
    with pytest.raises(InputError):
        make_window(FREE_WORDS, 3)
    with pytest.raises(InputError):
        make_window(FREE_WORDS, 25, ["a", "b"])  # > 2^20 encodings
    with pytest.raises(InputError):
        make_window(ADDITIVE, 0)


def test_overflow_is_explicit_not_wrapped():
    w = make_window(ADDITIVE, 10)
    assert op_apply(w, 7, 8) is None
    assert op_apply(w, 7, 3) == 10


def test_op_apply_on_a_table_window():
    # max on {0, 1, 2} with 2 * 2 undefined: None is overflow there too
    w = make_table_window([0, 1, 2],
                          lambda x, y: None if x == y == 2 else max(x, y))
    assert op_apply(w, 1, 2) == 2
    assert op_apply(w, 0, 1) == 1
    assert op_apply(w, 2, 2) is None


@pytest.mark.parametrize("kind, bound, alphabet, x, y, message", [
    (ADDITIVE, 10, None, 11, 0, "element-out-of-window: 11"),
    (ADDITIVE, 10, None, 0, -1, "element-out-of-window: -1"),
    (MULTIPLICATIVE, 10, None, 0, 2, "element-out-of-window: 0"),
    (ADDITIVE, 10, None, "1", 2, "element-out-of-window: '1'"),
    (FREE_WORDS, 2, ["a", "b"], "abb", "a", "element-out-of-window: 'abb'"),
    (FREE_WORDS, 2, ["a", "b"], "a", "c", "letter 'c' not in alphabet"),
])
def test_op_apply_rejects_values_outside_the_window(kind, bound, alphabet,
                                                    x, y, message):
    w = make_window(kind, bound, alphabet)
    with pytest.raises(InputError, match=f"^{message}$"):
        op_apply(w, x, y)


@given(st.integers(1, 60), st.data())
def test_display_roundtrip_numeric(bound, data):
    w = make_window(ADDITIVE, bound)
    enc = data.draw(st.integers(0, w.size - 1))
    value = w.parse(str(w.payload(enc)))
    assert value == w.payload(enc)
    assert w.encoding(value) == enc


@given(st.integers(1, 4), st.data())
def test_display_roundtrip_words(length, data):
    w = make_window(FREE_WORDS, length, ["a", "b", "c"])
    enc = data.draw(st.integers(0, w.size - 1))
    word = w.payload(enc)
    assert w.parse(word) == word
    assert w.encoding(word) == enc
    # canonical order is length-then-lex, strictly increasing
    if enc:
        prev = w.payload(enc - 1)
        assert (len(prev), prev) < (len(word), word)


@pytest.mark.parametrize("kind, text, want", [
    (ADDITIVE, "12", 12), (ADDITIVE, "-3", -3),
    (MULTIPLICATIVE, "999", 999),
])
def test_parse_reads_numerals_without_a_window_check(kind, text, want):
    # the window check is encoding's: parse only names the payload
    assert make_window(kind, 10).parse(text) == want


@pytest.mark.parametrize("text", ["x1", "", "1.5", "0x10"])
def test_parse_rejects_a_bad_numeral(text):
    for kind in (ADDITIVE, MULTIPLICATIVE):
        with pytest.raises(InputError,
                           match=f"^unparseable numeral {text!r}$"):
            make_window(kind, 10).parse(text)


@given(st.integers(1, 20))
def test_associativity_exhaustive_small_windows(bound):
    for kind in (ADDITIVE, MULTIPLICATIVE):
        assert check_associative(make_window(kind, bound))


@pytest.mark.parametrize("letters", ["a", "ab", "abc"])
@pytest.mark.parametrize("bound", [1, 2, 5])
def test_word_split_and_join_follow_the_canonical_order(letters, bound):
    w = make_window(FREE_WORDS, bound, list(letters))
    words = ["".join(t) for n in range(1, bound + 1)
             for t in itertools.product(letters, repeat=n)]
    assert w.size == len(words)
    for enc, word in enumerate(words):
        rank = sum(letters.index(c) * len(letters) ** i
                   for i, c in enumerate(reversed(word)))
        assert w.split_word(enc) == (len(word), rank)
        assert w.join_word(len(word), rank) == enc
        assert w.encoding(word) == enc and w.payload(enc) == word


def test_associativity_words_sampled():
    assert check_associative(make_window(FREE_WORDS, 4, ["a", "b"]))


@given(st.integers(1, 40), st.data())
def test_overflow_monotone_numeric(bound, data):
    for kind in (ADDITIVE, MULTIPLICATIVE):
        w = make_window(kind, bound)
        lo = 0 if kind == ADDITIVE else 1
        x = data.draw(st.integers(lo, bound))
        y = data.draw(st.integers(lo, bound))
        if w.op_payload(x, y) is None:
            x2 = data.draw(st.integers(x, bound))
            y2 = data.draw(st.integers(y, bound))
            assert w.op_payload(x2, y2) is None


def test_table_window_and_identity():
    w = make_table_window(list(range(6)), lambda x, y: max(x, y))
    assert w.identity_enc == 0  # max(0, x) = x
    assert w.op_payload(3, 5) == 5
    with pytest.raises(InputError):
        make_table_window([0, 1], lambda x, y: (x - y) % 2
                          if x else (x + y + 1) % 2)  # not associative


def test_table_windows_with_other_elements_are_incompatible():
    # Both tables are the left-zero band x*y = x; only the elements differ.
    ab = make_table_window(["a", "b"], lambda x, y: x)
    xy = make_table_window(["x", "y"], lambda x, y: x)
    assert ab.compatible(make_table_window(["a", "b"], lambda x, y: x))
    assert not ab.compatible(xy)
    A, B = GroundSet.from_values(ab, ["a"]), GroundSet.from_values(xy, ["y"])
    for combine in (A.union, A.intersect):
        with pytest.raises(InputError, match="incompatible windows"):
            combine(B)


def test_ground_set_explicit_and_predicate():
    w = make_window(ADDITIVE, 30)
    ev = GroundSet.from_predicate(w, lambda v: v % 2 == 0, "evens")
    assert list(itertools.islice(ev.values(), 3)) == [0, 2, 4]
    ex = GroundSet.from_values(w, [5, 7, 9])
    assert list(itertools.islice(ex.values(), 10)) == [5, 7, 9]
    sq = GroundSet.from_predicate(w, lambda v: int(v ** 0.5 + 0.5) ** 2 == v)
    assert list(sq.values()) == [0, 1, 4, 9, 16, 25]


def test_membership_outside_window_rejected():
    w = make_window(ADDITIVE, 10)
    ev = GroundSet.from_predicate(w, lambda v: v % 2 == 0)
    with pytest.raises(InputError):
        ev.contains_value(11)
    with pytest.raises(InputError):
        ev.contains_enc(99)


@given(st.sets(st.integers(0, 40), max_size=15),
       st.sets(st.integers(0, 40), max_size=15))
def test_set_algebra_matches_python_sets(xs, ys):
    w = make_window(ADDITIVE, 40)
    a = GroundSet.from_values(w, xs)
    b = GroundSet.from_values(w, ys)
    assert set(a.union(b).values()) == xs | ys
    assert set(a.intersect(b).values()) == xs & ys
    assert a.count() == len(xs)


def test_builtin_predicates():
    w = make_window(ADDITIVE, 30)
    cases = {
        "evens": {v for v in range(31) if v % 2 == 0},
        "odds": {v for v in range(31) if v % 2 == 1},
        "multiples:3": {v for v in range(31) if v % 3 == 0},
        "squares": {0, 1, 4, 9, 16, 25},
        "primes": {2, 3, 5, 7, 11, 13, 17, 19, 23, 29},
        "interval:10:14": {10, 11, 12, 13, 14},
        "union(squares,interval:28:30)": {0, 1, 4, 9, 16, 25, 28, 29, 30},
        "intersect(evens,multiples:3)": {v for v in range(31) if v % 6 == 0},
        "union(intersect(evens,interval:0:10),multiples:13)":
            {0, 2, 4, 6, 8, 10, 13, 26},
    }
    for spec, expected in cases.items():
        got = set(GroundSet.from_predicate(w, parse_predicate(spec)).values())
        assert got == expected, spec
    with pytest.raises(InputError):
        parse_predicate("nonsense:1")


def _with_frames(frames, fn):
    """fn() called under `frames` more interpreter frames."""
    return fn() if frames == 0 else _with_frames(frames - 1, fn)


def test_predicate_nesting_is_capped_where_both_tests_still_evaluate():
    def nested(depth):
        return "union(" * (depth - 1) + "intersect(evens,all)" + ")" * (depth - 1)
    deepest = nested(MAX_NESTING)
    # with room to spare: the scalar test takes a few frames a level
    test = _with_frames(300, lambda: parse_predicate(deepest))
    assert _with_frames(300, lambda: (test(4), test(5))) == (True, False)
    assert _with_frames(300, lambda: test.vector(6)).tolist() == [
        True, False] * 3
    words = make_window(FREE_WORDS, 3, ["a", "b"])
    assert GroundSet.from_predicate(
        words, parse_predicate(nested(MAX_NESTING).replace("evens", "all"))
    ).count() == words.size
    for spec in (nested(MAX_NESTING + 1), nested(2000),
                 "union(" * 2000 + "evens" + ")" * 2000):
        with pytest.raises(InputError, match="predicate-too-deep"):
            parse_predicate(spec)


def test_predicate_memoization_is_consistent():
    w = make_window(ADDITIVE, 50)
    calls = []

    def pred(v):
        calls.append(v)
        return v % 5 == 0

    g = GroundSet.from_predicate(w, pred)
    assert g.contains_value(10)
    first = len(calls)
    assert g.contains_value(10) and g.contains_value(7) is False
    assert len(calls) == first  # memoized up to 10 already
