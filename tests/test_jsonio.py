"""The pre-encoded output paths of jsonio against plain json.dumps: the
int-text kernel, the certificate payloads whose realized elements it
writes, and density runs long enough for the kernel (shorter runs are
checked in test_density.py)."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_certificate_json, reference_density_json
from finembed import jsonio
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              Window, make_window, parse_predicate)
from finembed.density import interval_net, upper_density
from finembed.errors import InputError
from finembed.jsonio import _INT_TEXT_MIN, _int_text
from finembed.rich import (ProgressionCertificate, _realize, longest_ap,
                           longest_gap_grid, longest_poly_progression)

SEPS = (",", ", ", "", '},{"n":7,"shift":"\\u00e9","tail":')
# the edges of every digit width, and the int32, uint32 and int64 limits
EDGES = sorted({v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k)}
               | {2 ** 31, 2 ** 32, 2 ** 63 - 1})


def json_text(values, sep=","):
    return json.dumps(list(values), separators=(sep, ":"))[1:-1]


def plain_dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def int_text_path(values, sep):
    """_int_text(values, sep), and the path that wrote it: "kernel" (numpy),
    "json" or "join"."""
    calls = []
    dumps, arange = json.dumps, np.arange
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio.json, "dumps",
                   lambda *a, **k: calls.append("json") or dumps(*a, **k))
        mp.setattr(np, "arange",
                   lambda *a, **k: calls.append("kernel") or arange(*a, **k))
        text = _int_text(values, sep)
    return text, calls[0] if calls else "join"


@settings(derandomize=True)
@given(st.integers(0, 3 * _INT_TEXT_MIN), st.integers(1, 19),
       st.integers(0, 2 ** 32), st.sampled_from(SEPS))
def test_int_text_matches_json_on_ascending_lists(length, widths, seed, sep):
    # values of up to `widths` digits, every width about equally likely;
    # int lists and tuples are joined at every length
    rng = random.Random(seed)
    values = sorted(min(rng.randrange(10 ** (w - 1) - (w == 1), 10 ** w),
                        2 ** 63 - 1)
                    for w in (rng.randint(1, widths) for _ in range(length)))
    for seq in (values, tuple(values)):
        assert int_text_path(seq, sep) == (json_text(seq, sep), "join")


@settings(derandomize=True, max_examples=200)
@given(st.one_of(st.integers(0, 10 ** 7), st.integers(0, 2 ** 63 - 1)),
       st.one_of(st.integers(1, 12), st.integers(1, 10 ** 15)),
       st.one_of(st.integers(0, 3), st.integers(_INT_TEXT_MIN - 3,
                                                 _INT_TEXT_MIN + 3),
                 st.integers(0, 20 * _INT_TEXT_MIN)),
       st.sampled_from([True, True, True, False]), st.sampled_from(SEPS))
def test_int_text_matches_json_on_ranges(start, step, length, fit, sep):
    # fit moves the start down so that the last term stays in int64
    if fit:
        start = max(0, min(start, 2 ** 63 - 1 - (length - 1) * step))
    r = range(start, start + length * step, step)
    text, path = int_text_path(r, sep)
    assert text == json_text(r, sep)
    fits = len(r) > _INT_TEXT_MIN and r[-1] < 2 ** 63
    assert path == ("kernel" if fits else "join")


@pytest.mark.parametrize("sep", SEPS)
@pytest.mark.parametrize("length", [0, 1, 2, _INT_TEXT_MIN - 1, _INT_TEXT_MIN,
                                    _INT_TEXT_MIN + 1, _INT_TEXT_MIN + 2,
                                    1199, 1200, 1201, 1202])
def test_int_text_at_the_crossover(length, sep):
    # a range takes the kernel past _INT_TEXT_MIN; a list or tuple of the
    # same ints is joined at every length, 1,199 to 1,202 included (where
    # the kernel took ascending lists before it read only ranges)
    for r in (range(length), range(10 ** 6, 10 ** 6 + 7 * length, 7)):
        want = json_text(r, sep)
        assert int_text_path(r, sep) == (
            want, "kernel" if length > _INT_TEXT_MIN else "join")
        assert int_text_path(list(r), sep) == (want, "join")
        assert int_text_path(tuple(r), sep) == (want, "join")
    edges = EDGES * (length // len(EDGES)) + EDGES[:length % len(EDGES)]
    assert int_text_path(edges, sep) == (json_text(edges, sep), "join")


@pytest.mark.parametrize("sep", SEPS)
def test_int_text_across_every_digit_width(sep):
    # n terms across each edge, from it and up to it (from 0 when the edge
    # is smaller, and up to 2^63 - 1 when it is that close)
    n = _INT_TEXT_MIN + 1
    ranges = [range(s, s + n) for e in EDGES for s in {
        min(max(0, e - d), 2 ** 63 - n) for d in (n // 2, 0, n)}]
    ranges += [range(0, 2 ** 63, 2 ** 63 // n),    # widths left empty
               range(9, 10 ** 18, (10 ** 18 - 9) // n),
               range(0, n * 10 ** 16, 10 ** 16)]
    for r in ranges:
        assert int_text_path(r, sep) == (json_text(r, sep), "kernel"), r


@pytest.mark.parametrize("sep", SEPS)
def test_int_text_at_the_int64_limit(sep):
    n, top = _INT_TEXT_MIN + 5, 2 ** 63 - 1
    for step in (1, 7, 10 ** 15):
        # the last term is 2^63 - 1: the kernel; one more is 2^63, which
        # int64 would wrap to -2^63: joined
        r = range(top - (n - 1) * step, top + 1, step)
        assert r[-1] == top
        assert int_text_path(r, sep) == (json_text(r, sep), "kernel")
        r = range(r.start + 1, r.stop + 1, step)
        assert r[-1] == top + 1
        assert int_text_path(r, sep) == (json_text(r, sep), "join")
    # arange(start, stop, step) sizes itself in floating point, one term
    # short here; the kernel counts from the range's length
    r = range(5, 5 + n * 10 ** 15 - 10 ** 15 + 1, 10 ** 15)
    assert len(np.arange(r.start, r.stop, r.step)) == len(r) - 1
    assert int_text_path(r, sep) == (json_text(r, sep), "kernel")


@pytest.mark.parametrize("sep", SEPS)
def test_int_text_leaves_other_lists_to_json(sep):
    # no list reaches the kernel: all-int lists are joined, anything else
    # goes to json, and the bytes are json's either way
    ascending = list(range(_INT_TEXT_MIN + 5))
    unsorted = ascending[:]
    random.Random(15).shuffle(unsorted)
    joined = [
        ascending,
        tuple(ascending),
        unsorted,
        ascending[::-1],
        [-1] + ascending,                 # negative
        ascending + [2 ** 63],            # past int64
        [-5, 3, 2],                       # short
        range(-1, _INT_TEXT_MIN + 5),     # ranges the kernel refuses
        range(_INT_TEXT_MIN + 5, -1, -1),
        range(2 ** 63 - 5, 2 ** 63 + _INT_TEXT_MIN),
    ]
    to_json = [
        [False, True] + ascending[2:],    # json writes false and true
        [float(v) for v in ascending],
        [True, 2],
        [0.5, 1],
        ["é", 3],
    ]
    for values in joined:
        assert int_text_path(values, sep) == (json_text(values, sep), "join")
    for values in to_json:
        assert int_text_path(values, sep) == (json_text(values, sep), "json")


def check_certificate(cert):
    payload = jsonio.certificate_to_json(cert)
    assert jsonio.dumps(payload) == plain_dumps(reference_certificate_json(cert))
    # keys added after conversion, as `pr equation` adds them to its payload
    payload["zz"] = {"b": [1, "é"], "a": None}
    payload["a"] = 3
    want = reference_certificate_json(cert) | {"zz": payload["zz"], "a": 3}
    assert jsonio.dumps(payload) == plain_dumps(want)


# the evens give W / 2 + 1 terms: 2 * _INT_TEXT_MIN - 2 puts the certificate
# at the crossover, 2 * _INT_TEXT_MIN one term past it
@pytest.mark.parametrize("W", [1, 2 * _INT_TEXT_MIN - 2, 2 * _INT_TEXT_MIN,
                               999, 2_400, 20_000, 100_000])
def test_ap_certificate_bytes_match_plain_json(W):
    win = make_window(ADDITIVE, W)
    rng = random.Random(W)
    sets = [GroundSet.from_predicate(win, parse_predicate(spec), spec)
            for spec in ("evens", f"interval:{W // 3}:{W}", "interval:0:0")]
    sets.append(GroundSet.from_values(
        win, [v for v in range(W + 1) if rng.random() < 0.5]))
    for A in sets:
        check_certificate(longest_ap(A))


def test_grid_and_polynomial_certificate_bytes_match_plain_json():
    win = make_window(ADDITIVE, 20_000)
    evens = GroundSet.from_predicate(win, parse_predicate("evens"), "evens")
    coeffs = GroundSet.from_predicate(win, parse_predicate("interval:0:3"), "c")
    poly = longest_poly_progression(evens, 2, coeffs, [0, 1, 2])
    assert poly.length > _INT_TEXT_MIN
    check_certificate(poly)
    small = make_window(ADDITIVE, 60)
    check_certificate(longest_gap_grid(
        GroundSet.from_predicate(small, parse_predicate("evens"), "evens")))
    # a zero-based grid b q^j (a + i d) of 35 x 35 cells, realized row by
    # row, so not ascending, below 2^63
    params = (1, 2, 1, 1)
    grid = ProgressionCertificate("gap-grid", params,
                                  tuple(_realize("gap-grid", params, 35,
                                                 "zero-based")),
                                  35, "zero-based")
    assert len(grid.realized) > _INT_TEXT_MIN
    assert list(grid.realized) != sorted(grid.realized)
    check_certificate(grid)


@pytest.mark.parametrize("N", [_INT_TEXT_MIN, _INT_TEXT_MIN + 1, 1_000])
def test_long_density_run_bytes_match_plain_json(N):
    # every ratio on the full window is 1 and ties keep the larger n, so one
    # run holds all N tails: joined at _INT_TEXT_MIN, the kernel past it
    report = upper_density(GroundSet.full(make_window(ADDITIVE, 2 * N)),
                           interval_net(N))
    assert [run[:2] for run in report.runs] == [(1, N)]
    assert jsonio.dumps(jsonio.density_report_to_json(report)) == plain_dumps(
        reference_density_json(report))


@pytest.mark.parametrize("kind, bound, alphabet, first", [
    (ADDITIVE, 10 ** 6, None, 10 ** 6 + 1),
    (MULTIPLICATIVE, 10 ** 6, None, 10 ** 6 + 1),
    (ADDITIVE, 1, None, 2),
    (MULTIPLICATIVE, 1, None, 2),
    (FREE_WORDS, 3, ["a", "b"], 1),
])
def test_net_check_names_the_first_number_outside_without_a_scan(
        kind, bound, alphabet, first, monkeypatch):
    window = make_window(kind, bound, alphabet)
    calls = []
    contains = Window.contains_value
    monkeypatch.setattr(Window, "contains_value",
                        lambda self, v: calls.append(v) or contains(self, v))
    with pytest.raises(InputError, match=(
            f"^net-exceeds-window at F_{first}: {first}$")):
        jsonio.net_from_spec("interval:100000000", window)
    assert len(calls) <= 2


def encoder_payloads():
    """(payload, the bytes json.dumps writes for it): every JSON type,
    nested, keys to sort, escapes, a float, a coloring, and a density
    report whose witnesses reach dumps as a fragment."""
    report = upper_density(GroundSet.from_values(
        make_window(ADDITIVE, 60), range(0, 61, 7)), interval_net(20))
    plain = [0, -7, 10 ** 30, "é\n\"", None, True, 1.5, [], {},
             {"z": [1, {"b": None, "a": "x"}], "a": (2, 3), "é": False},
             {"outcome": "avoiding", "pattern": "ap:3", "N": 8, "colors": 2,
              "elements": list(range(1, 9)), "coloring": [0, 1, 1, 0] * 2,
              "nodes": 30, "exhaustive": True}]
    return [(p, plain_dumps(p)) for p in plain] + [
        (jsonio.density_report_to_json(report),
         plain_dumps(reference_density_json(report)))]


def test_encoder_is_built_once_and_writes_json_text():
    assert jsonio._encode is not jsonio._make_encode()
    for payload, text in encoder_payloads():
        assert jsonio.dumps(payload) == text
    with pytest.raises(TypeError, match="not JSON serializable"):
        jsonio._encode({"a": object()})


def test_encoder_falls_back_without_the_c_accelerator(monkeypatch):
    # Without json's C encoder, _make_encode returns JSONEncoder.encode,
    # whose pure-Python _make_iterencode path writes the same bytes as the
    # C encoder wrote them before
    cases = encoder_payloads()
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = jsonio._make_encode()
    assert fallback.__func__ is json.JSONEncoder.encode
    monkeypatch.setattr(jsonio, "_encode", fallback)
    for payload, text in cases:
        assert jsonio.dumps(payload) == text


@pytest.mark.parametrize("kind, bound, alphabet, values", [
    (ADDITIVE, 50, None, [0, "7", 50, "12", 7]),
    (MULTIPLICATIVE, 30, None, ["1", 30, 2]),
    (FREE_WORDS, 3, ["a", "b"], ["a", "bab", "ab", "a"]),
    (FREE_WORDS, 2, ["a", "é"], ["é", "aé"]),
])
def test_explicit_set_body_converts_each_element_once(kind, bound, alphabet,
                                                      values, monkeypatch):
    window = make_window(kind, bound, alphabet)
    payloads = [int(v) if isinstance(v, str) and kind != FREE_WORDS else v
                for v in values]
    want = GroundSet.from_values(window, payloads)
    calls, parsed = [], []
    encoding, parse = Window.encoding, Window.parse
    monkeypatch.setattr(Window, "encoding",
                        lambda self, v: calls.append(v) or encoding(self, v))
    monkeypatch.setattr(Window, "parse",
                        lambda self, v: parsed.append(v) or parse(self, v))
    got = jsonio.set_body_from_json(window, {"explicit": values})
    assert bytes(got.array()) == bytes(want.array())
    assert len(calls) == len(values)
    # numerals are parsed; words go straight to their encoding
    assert parsed == ([] if kind == FREE_WORDS
                      else [v for v in values if isinstance(v, str)])


@pytest.mark.parametrize("kind, alphabet, values, message", [
    (ADDITIVE, None, [3, "x1"], "unparseable numeral 'x1'"),
    (ADDITIVE, None, [3, 51], "element-out-of-window: 51"),
    (ADDITIVE, None, ["51", 3], "element-out-of-window: 51"),
    (MULTIPLICATIVE, None, [0], "element-out-of-window: 0"),
    # a bad string is named before a bad number listed ahead of it
    (ADDITIVE, None, [51, "x1"], "unparseable numeral 'x1'"),
    (ADDITIVE, None, [-1, "60"], "element-out-of-window: 60"),
    (FREE_WORDS, ["a", "b"], [1, "c"], "letter 'c' not in alphabet"),
    (FREE_WORDS, ["a", "b"], ["aaaa"], "element-out-of-window: 'aaaa'"),
    (FREE_WORDS, ["a", "b"], ["a", 1], "element-out-of-window: 1"),
    (FREE_WORDS, ["a", "b"], [2, 1], "element-out-of-window: 2"),
    (FREE_WORDS, ["a", "b"], [1, "aaaa"], "element-out-of-window: 'aaaa'"),
    (FREE_WORDS, ["a", "b"], ["aaaa", "c"], "element-out-of-window: 'aaaa'"),
    (FREE_WORDS, ["a", "b"], ["c", "aaaa"], "letter 'c' not in alphabet"),
    # a word's length is checked before its letters
    (FREE_WORDS, ["a", "b"], ["ab", "cccc"], "element-out-of-window: 'cccc'"),
    (FREE_WORDS, ["a", "b"], ["", 1], "element-out-of-window: ''"),
])
def test_explicit_set_body_errors(kind, alphabet, values, message):
    window = make_window(kind, 50 if alphabet is None else 3, alphabet)
    with pytest.raises(InputError, match=f"^{message}$"):
        jsonio.set_body_from_json(window, {"explicit": values})
