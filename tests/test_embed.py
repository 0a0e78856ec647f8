import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import finembed
from conftest import blind_affine_scan, blind_translation_scan
from finembed import embed
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              make_window, parse_predicate)
from finembed.embed import (NO, UNKNOWN, YES, SearchStats,
                            check_reflexive_criterion,
                            check_transitive_criterion, check_union_split,
                            check_upward_closed, embed_finite, fe_decide,
                            fe_probe, image_of, verify_witness)
from finembed.errors import (BudgetError, InputError, UnionEmbeddingError,
                             UnverifiedPairError)
from finembed.families import (builtin_affine, builtin_geoarithmetic,
                               builtin_right_translations,
                               builtin_word_suffix, filter_params,
                               restrict_params)
from finembed.rich import longest_ap


@pytest.fixture
def win():
    return make_window(ADDITIVE, 100)


def test_embed_finite_translation_witness(win):
    tr = builtin_right_translations(win)
    B = GroundSet.from_values(win, [5, 7, 9])
    v = embed_finite([0, 2], B, tr)
    assert v.outcome == "yes"
    assert v.witness.params == (5,)
    assert v.witness.image == (5, 7)
    assert verify_witness(v.witness, B, tr)


def test_embed_finite_identity_case(win):
    af = builtin_affine(win)
    v = embed_finite([3], GroundSet.from_values(win, [3]), af)
    assert v.outcome == "yes" and v.witness.params == (0, 1)


def test_embed_finite_parity_no(win):
    tr = builtin_right_translations(win)
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    v = embed_finite([0, 1], evens, tr)
    assert v.outcome == "no"
    assert v.stats.complete


def test_fe_decide_requires_explicit(win):
    tr = builtin_right_translations(win)
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    with pytest.raises(InputError):
        fe_decide(evens, GroundSet.full(win), tr)
    with pytest.raises(InputError):
        fe_decide(GroundSet.empty(win), GroundSet.full(win), tr)


def test_fe_decide_empty_target(win):
    tr = builtin_right_translations(win)
    v = fe_decide(GroundSet.from_values(win, [1]), GroundSet.empty(win), tr)
    assert v.outcome == "no"


def test_fe_decide_affine_into_evens(win):
    af = builtin_affine(win)
    A = GroundSet.from_values(win, [1, 2, 3])
    B = GroundSet.from_values(win, range(0, 41, 2))
    v = fe_decide(A, B, af)
    assert v.outcome == "yes"
    assert v.witness.params == (0, 2)
    assert v.witness.image == (2, 4, 6)


def test_fe_probe_prefixes_and_refutation(win):
    tr = builtin_right_translations(win)
    nat = GroundSet.from_predicate(win, lambda v: True, "N")
    thickish = GroundSet.from_predicate(
        win, lambda v: 10 <= v <= 20 or 60 <= v <= 80, "thickish")
    report = fe_probe(nat, thickish, tr, [3, 5, 10])
    assert report.overall == "supported"
    assert [e.verdict.outcome for e in report.entries] == ["yes"] * 3

    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    report = fe_probe(nat, evens, tr, [2])
    assert report.overall == "refuted"
    assert report.refutation.F == (0, 1)


def test_fe_probe_identity_superset(win):
    af = builtin_affine(win)  # contains the identity (0, 1)
    A = GroundSet.from_predicate(win, lambda v: v % 3 == 0)
    B = GroundSet.from_predicate(win, lambda v: v % 3 == 0 or v % 7 == 0)
    report = fe_probe(A, B, af, [2, 4, 8])
    assert report.overall == "supported"


def test_fe_probe_sizes_must_fit_in_a(win):
    tr = builtin_right_translations(win)
    nat = GroundSet.full(win)
    three = GroundSet.from_values(win, [0, 1, 2])
    with pytest.raises(InputError,
                       match=r"^A-too-small: probe size 100 exceeds \|A\| = 3$"):
        fe_probe(three, nat, tr, [2, 100])
    few = GroundSet.from_predicate(win, lambda v: v % 40 == 0)  # 0, 40, 80
    with pytest.raises(InputError,
                       match=r"^A-too-small: probe size 4 exceeds \|A\| = 3$"):
        fe_probe(few, nat, tr, [1, 3, 4, 9])
    with pytest.raises(InputError, match="^A-empty: nothing to probe$"):
        fe_probe(GroundSet.empty(win), nat, tr, [1, 100])
    assert [e.F for e in fe_probe(three, nat, tr, [3]).entries] == [(0, 1, 2)]


def test_union_split_picks_working_family(win):
    tr = builtin_right_translations(win)
    af = builtin_affine(win)
    A = GroundSet.from_values(win, [0, 1, 2])
    B = GroundSet.from_values(win, [0, 2, 4])
    res = check_union_split(A, B, [tr, af])
    assert res.index == 2  # translations fail by parity, affine stretches
    assert res.verdict.witness.params == (0, 2)

    steep = filter_params(af, lambda p: p[1] >= 2, "affine-steep")
    res = check_union_split(GroundSet.from_values(win, [0, 2]),
                            GroundSet.from_values(win, [5, 7]), [steep, tr])
    assert res.index == 2 and res.verdict.witness.params == (5,)


def test_union_split_singleton_identity():
    win = make_window(MULTIPLICATIVE, 30)
    tr = builtin_right_translations(win)
    words = make_window(FREE_WORDS, 3, ["a", "b"])
    dummy = builtin_word_suffix(words, "a")
    A = GroundSet.from_values(win, [1])
    res = check_union_split(A, A, [tr, dummy])
    assert res.index == 1 and res.verdict.witness.params == (1,)


def test_union_split_failure_raises(win):
    tr = builtin_right_translations(win)
    A = GroundSet.from_values(win, [0, 1])
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    with pytest.raises(UnionEmbeddingError):
        check_union_split(A, evens, [tr])


def test_transitivity_translations_composes():
    win = make_window(ADDITIVE, 200)
    tr = builtin_right_translations(win)
    rep = check_transitive_criterion(tr, [[0, 1, 2], [1, 4], [7]],
                                     params_per_side=3)
    assert rep.satisfied
    for e in rep.entries:
        if e.status == "satisfied":
            assert e.h_params == (e.f_params[0] + e.g_params[0],)


def test_transitivity_affine_composition_algebra():
    win = make_window(ADDITIVE, 400)
    af = builtin_affine(win)
    f, g = (1, 2), (0, 3)
    mid = image_of(af, f, (0, 1))
    target = image_of(af, g, mid)
    assert target == (3, 9)  # g(f(x)) = 3(1 + 2x)
    v = embed_finite([0, 1], GroundSet.from_values(win, target), af)
    assert v.outcome == "yes" and v.witness.params == (3, 6)


def test_reflexivity_criteria():
    win = make_window(ADDITIVE, 60)
    af = builtin_affine(win)
    rep = check_reflexive_criterion(af, [[0, 5], [2, 9, 11]])
    assert all(e.status == "satisfied" and e.h_params == (0, 1)
               for e in rep.entries)
    tr = builtin_right_translations(win)
    rep = check_reflexive_criterion(tr, [[1, 2]])
    assert rep.entries[0].h_params == (0,)  # the window includes zero

    words = make_window(FREE_WORDS, 3, ["a", "b"])
    ws = builtin_word_suffix(words, "a")
    rep = check_reflexive_criterion(ws, [["a"]])
    assert rep.entries[0].status == "satisfied"
    assert rep.entries[0].h_params == (0,)


def _contains_ap4(A):
    return longest_ap(A).length >= 4


def test_upward_closed_transfer_and_counterexample(win):
    tr = builtin_right_translations(win)
    A = GroundSet.from_values(win, [0, 2, 4, 6], "A")
    B = GroundSet.from_values(win, [5, 7, 9, 11], "A+5")
    rep = check_upward_closed(_contains_ap4, "contains-ap:4", [(A, B)], tr)
    assert rep.counterexamples == ()
    assert rep.entries[0].status == "transfers"

    rep = check_upward_closed(lambda A: A.contains_value(0),
                              "contains-element:0",
                              [(GroundSet.from_values(win, [0], "Z"),
                                GroundSet.from_values(win, [5], "Z+5"))], tr)
    assert len(rep.counterexamples) == 1


def test_upward_closed_rejects_unverified_pair(win):
    tr = builtin_right_translations(win)
    A = GroundSet.from_values(win, [0, 1], "A")
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0, "evens")
    with pytest.raises(UnverifiedPairError):
        check_upward_closed(_contains_ap4, "contains-ap:4", [(A, evens)], tr)


def test_tuple_cap_guards_blowup(win):
    geo = builtin_geoarithmetic(win)
    with pytest.raises(InputError, match="exceeds the tuple cap 12 "):
        embed_finite(list(range(13)), GroundSet.full(win), geo)


def test_bounded_scan_is_budgeted(monkeypatch):
    # Geoarithmetic [1, 2] into the primes at W = 200, bound 20, examines
    # 7,980 parameters and finds nothing: "unknown" within the budget, and
    # BudgetError one parameter short of it.
    win = make_window(ADDITIVE, 200)
    geo = builtin_geoarithmetic(win)
    primes = GroundSet.from_predicate(win, parse_predicate("primes"))
    monkeypatch.setattr(embed, "_MAX_SCAN", 7_980)
    v = embed_finite([1, 2], primes, geo, bound=20)
    assert (v.outcome, v.stats) == (UNKNOWN, SearchStats(7_980, False))
    monkeypatch.setattr(embed, "_MAX_SCAN", 7_979)
    with pytest.raises(BudgetError,
                       match="^budget-exceeded: more than 7979 parameters "
                             "scanned$"):
        embed_finite([1, 2], primes, geo, bound=20)
    # A witness inside the budget still answers, and a complete stream
    # longer than the budget is not cut.
    monkeypatch.setattr(embed, "_MAX_SCAN", 1)
    evens = GroundSet.from_predicate(win, parse_predicate("evens"))
    v = embed_finite([1, 2], evens, geo)
    assert (v.outcome, v.witness.params) == (YES, (2, 0, 1))
    tr = builtin_right_translations(win)
    B = GroundSet.from_values(win, range(100, 201))
    v = embed_finite([0, 150], B, filter_params(tr, lambda p: True, "every"))
    assert v.outcome == NO and v.stats.params_examined > 1


@given(st.integers(0, 10_000_000))
def test_monotonicity_in_both_arguments(seed):
    """Shrinking the source or growing the target preserves yes verdicts."""
    rng = random.Random(seed)
    win = make_window(ADDITIVE, 60)
    fam = rng.choice([builtin_right_translations(win), builtin_affine(win)])
    a2 = sorted(rng.sample(range(20), rng.randint(2, 5)))
    params = rng.choice(fam.param_sample(6, bound=3))
    img = image_of(fam, params, tuple(a2))
    assert img is not None
    b1 = sorted(set(img) | set(rng.sample(range(61), 3)))
    B1 = GroundSet.from_values(win, b1)
    A2 = GroundSet.from_values(win, a2)
    assert fe_decide(A2, B1, fam).outcome == "yes"

    a1 = sorted(rng.sample(a2, rng.randint(1, len(a2))))
    assert fe_decide(GroundSet.from_values(win, a1), B1, fam).outcome == "yes"

    b2 = sorted(set(b1) | set(rng.sample(range(61), 4)))
    assert fe_decide(A2, GroundSet.from_values(win, b2), fam).outcome == "yes"


@given(st.integers(0, 10_000_000))
def test_decider_matches_blind_scan(seed):
    """fe_decide against an independent exhaustive parameter scan."""
    rng = random.Random(seed)
    bound = rng.randint(10, 40)
    additive = rng.random() < 0.7
    win = make_window(ADDITIVE if additive else MULTIPLICATIVE, bound)
    lo = 0 if additive else 1
    a_vals = sorted(rng.sample(range(lo, bound + 1), rng.randint(1, 4)))
    b_vals = set(rng.sample(range(lo, bound + 1),
                            rng.randint(0, min(10, bound))))
    A = GroundSet.from_values(win, a_vals)
    B = GroundSet.from_values(win, b_vals)

    fams = [("translations", builtin_right_translations(win))]
    if additive:
        fams.append(("affine", builtin_affine(win)))
    kind, fam = rng.choice(fams)
    got = fe_decide(A, B, fam)
    if kind == "translations":
        blind = blind_translation_scan(a_vals, b_vals, 80, additive, bound)
    else:
        blind = blind_affine_scan(a_vals, b_vals, 80, bound)
    assert (got.outcome == "yes") == (blind is not None)
    if got.outcome == "yes":
        assert verify_witness(got.witness, B, fam)


def test_singleton_family_is_direct_image_check(win):
    tr = builtin_right_translations(win)
    single = restrict_params(tr, [(7,)])
    A = GroundSet.from_values(win, [1, 3])
    assert fe_decide(A, GroundSet.from_values(win, [8, 10]), single).outcome == "yes"
    assert fe_decide(A, GroundSet.from_values(win, [8]), single).outcome == "no"


HUGE_BOUND_SCRIPT = """
import resource, sys
cap = 3 << 29  # 1.5 GiB of address space: a MemoryError, not an OOM kill
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from finembed.carrier import GroundSet, make_window
from finembed.cli import dispatch
from finembed.embed import YES, embed_finite
from finembed.families import builtin_geoarithmetic
win = make_window("additive-naturals", 100)
geo = builtin_geoarithmetic(win)
v = embed_finite([1], GroundSet.from_values(win, [4]), geo, bound=10**30)
assert v.outcome == YES, v
assert len(geo.param_sample(3, bound=10**30)) == 3
a, b, pair, geo = sys.argv[1:]
# the pair family's "enum" bound, then a --bound past any window
sys.exit(dispatch(["embed", "--set-a", a, "--set-b", b, "--family", pair])
         or dispatch(["embed", "--set-a", a, "--set-b", b, "--family", geo,
                      "--bound", str(2**62)]))
"""


def test_huge_scan_bound_costs_only_the_shells_reached(tmp_path):
    # A scan bound far past the window costs only the shells reached.
    win = {"kind": "additive-naturals", "bound": 100}
    files = {"a": {"window": win, "set": {"explicit": [1]}},
             "b": {"window": win, "set": {"explicit": [4]}},
             "f": {"pair": {"n": 1, "k": 2, "term": "param0 + param1 * slot0",
                            "enum": {"bound": 10 ** 30}}},
             "g": {"builtin": "geoarithmetic"}}
    paths = []
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths.append(str(tmp_path / f"{name}.json"))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(finembed.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", HUGE_BOUND_SCRIPT, *paths],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert [json.loads(line)["outcome"] for line in out.stdout.splitlines()
            ] == [YES, YES]
