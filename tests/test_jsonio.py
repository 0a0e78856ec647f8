"""The pre-encoded output paths of jsonio against plain json.dumps: the
int-text kernel, and the certificate payloads whose realized elements it
writes (density witness runs are checked in test_density.py)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_certificate_json
from finembed import jsonio
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              Window, make_window, parse_predicate)
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


def kernel_runs(values, sep, monkeypatch):
    """_int_text(values, sep), and whether it left the list to json."""
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(jsonio.json, "dumps",
                        lambda *a, **k: calls.append(a) or dumps(*a, **k))
    text = _int_text(values, sep)
    monkeypatch.undo()
    return text, bool(calls)


@settings(derandomize=True)
@given(st.integers(0, 3 * _INT_TEXT_MIN), st.integers(1, 19),
       st.integers(0, 2 ** 32), st.sampled_from(SEPS))
def test_int_text_matches_json_on_ascending_lists(length, widths, seed, sep):
    # values of up to `widths` digits, every width about equally likely
    rng = random.Random(seed)
    values = sorted(min(rng.randrange(10 ** (w - 1) - (w == 1), 10 ** w),
                        2 ** 63 - 1)
                    for w in (rng.randint(1, widths) for _ in range(length)))
    for seq in (values, tuple(values)):
        assert _int_text(seq, sep) == json_text(seq, sep)


@pytest.mark.parametrize("sep", SEPS)
@pytest.mark.parametrize("length", [0, 1, 2, _INT_TEXT_MIN - 1, _INT_TEXT_MIN,
                                    _INT_TEXT_MIN + 1, _INT_TEXT_MIN + 2])
def test_int_text_at_the_crossover(length, sep, monkeypatch):
    for values in (range(length), range(10 ** 6, 10 ** 6 + 7 * length, 7),
                   EDGES * (length // len(EDGES)) + EDGES[:length % len(EDGES)]):
        values = sorted(values)
        text, to_json = kernel_runs(values, sep, monkeypatch)
        assert text == json_text(values, sep)
        assert not to_json  # ints: joined below the crossover, kernel above


@pytest.mark.parametrize("sep", SEPS)
def test_int_text_across_every_digit_width(sep, monkeypatch):
    filler = list(range(_INT_TEXT_MIN))
    for values in (sorted(filler + EDGES), sorted(filler + EDGES * 3),
                   [0] * (_INT_TEXT_MIN + 1) + EDGES,
                   filler + [10 ** 12, 2 ** 63 - 1]):  # widths left empty
        text, to_json = kernel_runs(values, sep, monkeypatch)
        assert text == json_text(values, sep) and not to_json


@pytest.mark.parametrize("sep", SEPS)
def test_int_text_leaves_other_lists_to_json(sep, monkeypatch):
    ascending = list(range(_INT_TEXT_MIN + 5))
    unsorted = ascending[:]
    random.Random(15).shuffle(unsorted)
    cases = [
        unsorted,
        ascending[::-1],
        [-1] + ascending,                 # negative
        ascending + [2 ** 63],            # past int64
        [False, True] + ascending[2:],    # json writes false and true
        [float(v) for v in ascending],    # numpy would cast these
        [-5, 3, 2],                       # short and not all kernel-fit
        [True, 2],
        [0.5, 1],
    ]
    for values in cases:
        text, to_json = kernel_runs(values, sep, monkeypatch)
        assert text == json_text(values, sep)
        assert to_json or values == [-5, 3, 2]  # short ints are joined


def check_certificate(cert):
    payload = jsonio.certificate_to_json(cert)
    assert jsonio.dumps(payload) == plain_dumps(reference_certificate_json(cert))
    # keys added after conversion, as `pr equation` adds them to its payload
    payload["zz"] = {"b": [1, "é"], "a": None}
    payload["a"] = 3
    want = reference_certificate_json(cert) | {"zz": payload["zz"], "a": 3}
    assert jsonio.dumps(payload) == plain_dumps(want)


@pytest.mark.parametrize("W", [1, 999, 2 * _INT_TEXT_MIN, 20_000, 100_000])
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
