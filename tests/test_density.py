import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import (count_shifted_intersection, reference_density_json,
                      reference_tail_report)
from finembed import density, jsonio
from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              make_table_window, make_window)
from finembed.cli import dispatch
from finembed.density import (Net, check_density_monotonicity, interval_net,
                              upper_density, weak_cancellativity_bound)
from finembed.errors import InputError, UnverifiedPairError
from finembed.families import builtin_right_translations, builtin_word_suffix
from finembed.verify import run_suite
from test_representation import brute_density


def test_interval_net_shape():
    net = interval_net(3)
    assert net.sets == ((1,), (1, 2), (1, 2, 3))
    assert interval_net(1).sets == ((1,),)
    # built without Net's checks, yet the net those checks would build
    for n in (1, 2, 37):
        net, checked = interval_net(n), Net(
            [range(1, k + 1) for k in range(1, n + 1)], label=f"interval:{n}")
        assert (net.deltas, net.sets, net.label) == \
            (checked.deltas, checked.sets, checked.label)
        assert net == checked and net._interval and not checked._interval
    with pytest.raises(InputError):
        interval_net(0)


def test_net_validates_inclusion():
    with pytest.raises(InputError):
        Net(((1, 2), (2, 3)))
    with pytest.raises(InputError):
        Net(((1,), ()))
    Net(((2,), (1, 2)))  # ascending works regardless of value order


def test_net_rejects_repeated_elements():
    # |F_n| is the ratio's denominator, so a repeat would count twice
    for sets in (((1, 1),), ((1,), (1, 2, 2)), ((3,), (3, 1), (1, 3, 1))):
        with pytest.raises(InputError, match="repeats an element"):
            Net(sets)
    with pytest.raises(InputError, match="non-empty F_1"):
        Net([(), (1,)])
    with pytest.raises(InputError, match="non-empty F_1"):
        Net([])


def test_net_stores_increments():
    net = Net(((2,), (3, 2, 1), (1, 2, 3), (4, 1, 2, 3)), label="n")
    assert net.deltas == ((2,), (3, 1), (), (4,))
    assert [frozenset(f) for f in net.sets] == \
        [frozenset(f) for f in ((2,), (1, 2, 3), (1, 2, 3), (1, 2, 3, 4))]
    assert interval_net(4).deltas == ((1,), (2,), (3,), (4,))


def test_full_window_density_is_one():
    win = make_window(ADDITIVE, 300)
    assert upper_density(GroundSet.full(win), interval_net(40)).value == 1


def test_evens_density_exact():
    win = make_window(ADDITIVE, 2000)
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    rep = upper_density(evens, interval_net(100))
    assert rep.value == Fraction(1, 2)
    # odd net indices can do slightly better than 1/2 at their own index
    rep = upper_density(evens, interval_net(99))
    assert rep.value == Fraction(50, 99)


def test_squares_density_small_at_late_tails():
    win = make_window(ADDITIVE, 2000)
    squares = GroundSet.from_predicate(win,
                                       lambda v: int(v ** 0.5 + 0.5) ** 2 == v)
    rep = upper_density(squares, interval_net(1000), tail_start=800)
    assert rep.witnesses[0].tail == 800
    assert rep.witnesses[0].ratio <= Fraction(1, 25)
    assert rep.value <= Fraction(1, 25)


def test_tail_witnesses_recount_exactly():
    rng = random.Random(3)
    win = make_window(ADDITIVE, 150)
    vals = rng.sample(range(151), 40)
    A = GroundSet.from_values(win, vals)
    net = interval_net(25)
    rep = upper_density(A, net, tail_start=20)
    for w in rep.witnesses:
        fn = net.sets[w.n - 1]
        count = count_shifted_intersection(A, win, fn, w.shift)
        assert Fraction(count, len(fn)) == w.ratio
        assert w.n >= w.tail


def test_value_is_min_of_tail_maxima():
    win = make_window(ADDITIVE, 200)
    A = GroundSet.from_values(win, list(range(0, 60)))
    rep = upper_density(A, interval_net(30))
    ratios = [w.ratio for w in rep.witnesses]
    assert rep.value == min(ratios)
    assert ratios == sorted(ratios, reverse=True)  # suffix maxima shrink


def test_generic_path_agrees_with_interval_fast_path():
    win = make_window(ADDITIVE, 120)
    rng = random.Random(7)
    vals = rng.sample(range(121), 35)
    A = GroundSet.from_values(win, vals)
    fast = upper_density(A, interval_net(15))
    # same intervals, but with 1..n listed descending: the net stores the
    # same increments, so the report must agree
    shuffled = Net(tuple(tuple(range(n, 0, -1)) for n in range(1, 16)),
                   label="interval-desc:15")
    slow = upper_density(A, shuffled)
    assert fast.value == slow.value


def test_multiplicative_density_scans_multiplicative_shifts():
    win = make_window(MULTIPLICATIVE, 60)
    powers = GroundSet.from_values(win, [1, 2, 4, 8, 16, 32])
    net = Net(tuple(tuple(range(1, n + 1)) for n in range(1, 5)),
              label="mult-net")
    rep = upper_density(powers, net)
    # {x, 2x, 3x, 4x} can hit at most three powers of two (3x never is one)
    assert rep.value == Fraction(3, 4)


def test_word_window_density_uses_formal_identity():
    win = make_window(FREE_WORDS, 3, ["a", "b"])
    A = GroundSet.from_predicate(win, lambda w: w.startswith("a"), "a-words")
    net = Net((("a",), ("a", "b")), label="tiny-words")
    rep = upper_density(A, net)
    assert rep.value >= Fraction(1, 2)
    assert any(w.shift is None for w in rep.witnesses) or rep.value == 1


def test_net_exceeding_window_rejected():
    win = make_window(ADDITIVE, 10)
    with pytest.raises(InputError):
        upper_density(GroundSet.full(win), interval_net(11))


@pytest.mark.parametrize("kind, sets, message", [
    (ADDITIVE, ((1,), (1, 5), (1, 5, 99), (1, 5, 99, 100)), "F_3: 99"),
    (ADDITIVE, ((1,), (1, -1)), "F_2: -1"),
    (ADDITIVE, ((3,), (3, 2.5), (3, 2.5, 11)), "F_2: 2.5"),
    (ADDITIVE, ((3,), (3, "4")), "F_2: '4'"),
    (MULTIPLICATIVE, ((2,), (2, 0)), "F_2: 0"),
    (MULTIPLICATIVE, ((2,), (2, 3), (2, 3, 11)), "F_3: 11"),
])
def test_net_exceeding_window_names_the_first_offender(kind, sets, message):
    # the least and largest element are checked first; the message still
    # names the first offending F_i and element
    A = GroundSet.full(make_window(kind, 10))
    with pytest.raises(InputError, match=f"^net-exceeds-window at {message}$"):
        upper_density(A, Net(sets))
    assert upper_density(A, Net(sets[:1])).value == 1


def brute_scan(A, net):
    """Per net index the best count, |F_n| and shift, one shift and one
    element of F_n at a time, seeded with the identity (None when the
    carrier has none) and replaced only by a strictly larger count."""
    win = A.window
    best, skipped = [], 0
    identity = (win.payload(win.identity_enc)
                if win.identity_enc is not None else None)
    for fn in net.sets:
        top, top_shift = sum(map(A.contains_value, fn)), identity
        for x in win.payloads():
            image = [win.op_payload(v, x) for v in fn]
            if None in image:
                skipped += 1
            elif (count := sum(map(A.contains_value, image))) > top:
                top, top_shift = count, x
        best.append((top, len(fn), top_shift))
    return best, skipped


def test_word_and_table_scan_matches_shift_by_shift():
    rng = random.Random(44)
    windows = [make_window(FREE_WORDS, L, "ab") for L in (1, 2, 3, 4)]
    windows += [make_table_window(list(range(n)), op)
                for n in (1, 4, 7)
                for op in (max, min, lambda x, y, n=n: (x + y) % n,
                           lambda x, y, n=n: x + y if x + y < n else None,
                           lambda x, y: y)]  # y: no two-sided identity
    assert any(win.identity_enc is None for win in windows[4:])
    for win in windows:
        elems = list(win.payloads())
        for _ in range(6):
            A = GroundSet.from_values(
                win, rng.sample(elems, rng.randint(0, len(elems))))
            pool = rng.sample(elems, rng.randint(1, min(6, len(elems))))
            cuts = sorted(rng.sample(range(1, len(pool) + 1),
                                     rng.randint(1, len(pool))))
            net = Net([pool[:k] for k in cuts], label="pool")
            best, skipped = density._per_index_best_scan(A, net)
            assert (list(zip(*best)), skipped) == brute_scan(A, net)


def span_edge_cases():
    """(label, W, members, net sizes): the corners of the span kernel."""
    yield "empty", 40, [], (1, 7, 40)
    yield "zero only", 40, [0], (1, 40)
    yield "full", 40, range(41), (1, 13, 40)
    yield "single member", 40, [17], (1, 16, 17, 18, 40)
    yield "single at the top", 40, [40], (1, 39, 40)
    yield "single at 1", 1, [1], (1,)
    yield "W = 1, both", 1, [0, 1], (1,)
    # ties at shift 0: {1..n} is already a best interval for many n
    yield "multiples of 3", 60, range(0, 61, 3), (1, 2, 3, 6, 30, 60)
    yield "v % 4 in (1, 2)", 60, [v for v in range(61) if v % 4 in (1, 2)], \
        (1, 2, 3, 4, 5, 59, 60)
    yield "runs of 3, 5 apart", 80, [v for v in range(81) if v % 5 < 3], \
        (1, 3, 4, 9, 80)
    # a later, shorter cluster beats earlier, longer ones only once n
    # reaches its span: the first best j moves back as n grows
    yield "clusters", 70, [1, 9, 12, 30, 33, 35, 50, 51, 52], \
        tuple(range(1, 25))


def kernel_results(A, N, tail):
    net = interval_net(N)
    spans = density._per_index_best_spans(A, N)
    incremental = density._per_index_best_numeric(A, net)
    report = density._tail_report(*spans, tail, net.label)
    return spans, incremental, report


def test_span_kernel_edge_cases():
    for label, W, values, sizes in span_edge_cases():
        win = make_window(ADDITIVE, W)
        A = GroundSet.from_values(win, values)
        for N in sizes:
            spans, incremental, report = kernel_results(A, N, 1)
            assert spans == incremental, (label, N)
            assert (report.value, report.witnesses, report.skipped_shifts) \
                == brute_density(set(values), win, interval_net(N), 1), \
                (label, N)
            assert report == upper_density(A, interval_net(N)), (label, N)


def test_span_kernel_matches_incremental_and_brute_force():
    # Seeded additive sets, sparse to full and periodic, at every N up to
    # W: the two kernels agree on every (count, |F_n|, shift) and on the
    # skipped shifts, and their report agrees with brute_density where it
    # is cheap.  The rule sends some of these sets each way.
    rng = random.Random(45)
    sides = {True: 0, False: 0}
    for _ in range(400):
        W = rng.randint(1, 300)
        if rng.random() < 0.3:
            period = rng.randint(1, 9)
            values = range(rng.randrange(period), W + 1, period)
        else:
            p = rng.choice([0.01, 0.05, 0.2, 0.5, 0.9, 1.0])
            values = [v for v in range(W + 1) if rng.random() < p]
        win = make_window(ADDITIVE, W)
        A = GroundSet.from_values(win, values)
        N = rng.choice([1, W, rng.randint(1, W), rng.randint(1, min(W, 30))])
        tail = rng.randint(1, N)
        spans, incremental, report = kernel_results(A, N, tail)
        assert spans == incremental, (W, N, values)
        if N * N * W <= 200_000:
            assert (report.value, report.witnesses, report.skipped_shifts) \
                == brute_density(set(values), win, interval_net(N), tail)
        sides[density._spans_cheaper(A, N)] += 1
    assert min(sides.values()) >= 40, sides


def test_span_rule_sides():
    # the rule's intended sides: sparse periodic sets on long nets go to
    # spans, the full window and small dense sets stay incremental
    win = make_window(ADDITIVE, 100_000)
    sevens = GroundSet.from_values(win, range(0, 100_001, 7))
    assert density._spans_cheaper(sevens, 1000)
    assert not density._spans_cheaper(GroundSet.full(win), 1000)
    rng = random.Random(46)
    small = make_window(ADDITIVE, 400)
    half = GroundSet.from_values(small, [v for v in range(401)
                                         if rng.random() < 0.5])
    assert not density._spans_cheaper(half, 30)
    assert density._spans_cheaper(GroundSet.from_values(small, [5, 300]), 30)


def affordable_counts(A, N):
    """How many counts the span kernel may run and still be estimated
    cheaper than the incremental kernel (the rule's cost model)."""
    W = A.window.bound
    fixed, per_elem, per_count, per_member = density._SPAN_COST
    add_fixed, per_index, per_shift = density._ADD_COST
    afford = (add_fixed + N * (per_index + per_shift * (W + 1 - N / 2))
              - fixed - per_elem * W)
    if afford <= 2 * per_count:
        return 0
    members = int(np.count_nonzero(A.array()[1:]))
    return afford / (per_count + per_member * members)


def exact_rule(A, N):
    """The kernel rule with M(N) always counted: the largest count of
    members in a window {x+1..x+N} of [1, W]."""
    sums = np.concatenate([[0], np.cumsum(A.array()[1:], dtype=np.int64)])
    return int((sums[N:] - sums[:-N]).max()) + 1 < affordable_counts(A, N)


def test_block_sum_rule_matches_exact_count():
    # Seeded sets around the crossover: random at log-spread densities,
    # periodic, clustered, and clustered across block boundaries (there
    # the largest block holds about half of M(N), and long windows make
    # the span kernel affordable up to M(N)).  The block bounds decide most
    # of them; the rest fall back to the count, and the choice is always
    # the exact rule's.
    rng = random.Random(47)
    sides = {True: 0, False: 0}
    open_bounds = 0
    for _ in range(300):
        W = rng.randint(500, 20_000)
        N = rng.randint(20, min(W, 1500))
        shape = rng.choice(["random", "periodic", "clusters", "straddling"])
        if shape == "random":
            p = 10 ** rng.uniform(-3, 0)
            values = np.flatnonzero(np.random.default_rng(
                rng.randrange(2**32)).random(W + 1) < p).tolist()
        elif shape == "periodic":
            values = range(rng.randrange(9), W + 1, rng.randint(1, 40))
        elif shape == "straddling":
            W = rng.randint(40_000, 60_000)
            step, every = N * rng.choice([4, 8]), rng.randint(1, 2)
            values = [v for mid in range(step, W, step)
                      for v in range(mid - N // 2, min(mid + N // 2, W + 1),
                                     every)]
        else:
            step = rng.randint(N // 2 + 1, 2 * N)
            width = rng.randint(1, N)
            values = [v for lo in range(rng.randrange(step), W + 1, step)
                      for v in range(lo, min(lo + width, W + 1))]
        A = GroundSet.from_values(make_window(ADDITIVE, W), values)
        got = density._spans_cheaper(A, N)
        assert got == exact_rule(A, N), (shape, W, N)
        sides[got] += 1
        blocks = np.add.reduceat(A.array()[1:], np.arange(0, W, N),
                                 dtype=np.int64)
        pairs = blocks[1:] + blocks[:-1] if len(blocks) > 1 else blocks
        open_bounds += (int(blocks.max()) + 1 < affordable_counts(A, N)
                        <= min(N, int(pairs.max())) + 1)
    assert min(sides.values()) >= 60, sides
    assert open_bounds >= 10, open_bounds


def check_runs_against_reference(best, skipped, tail, label):
    """The runs report and its JSON bytes against the per-tail reference;
    returns the report and the number of tails whose best ratio is
    attained at more than one n (a tie)."""
    report = density._tail_report(best, skipped, tail, label)
    ref = reference_tail_report(list(zip(*best)), skipped, tail, label)
    # serialized first: the bytes come from the kernel's lists, and
    # building them reads neither runs nor witnesses
    assert jsonio.dumps(jsonio.density_report_to_json(report)) == json.dumps(
        reference_density_json(ref), sort_keys=True, separators=(",", ":"))
    assert not {"runs", "witnesses"} & vars(report).keys()
    ref_runs = []  # tails that share a witness n, first tail first
    for w in ref.witnesses:
        if not ref_runs or ref_runs[-1][1] != w.n:
            ref_runs.append((w.tail, w.n, w.shift, w.ratio))
    assert report.runs == tuple(ref_runs)
    assert (report.value, report.witnesses, report.skipped_shifts) == \
        (ref.value, ref.witnesses, ref.skipped_shifts)
    ratios = [Fraction(c, s) for c, s in zip(best[0], best[1])]
    ties = sum(ratios[w.tail - 1:].count(w.ratio) > 1 for w in ref.witnesses)
    return report, ties


def test_report_runs_match_per_tail_reference():
    rng = random.Random(48)
    ties = {"spans": 0, "incremental": 0, "scan": 0}
    for _ in range(100):  # span and incremental kernels on interval nets
        W = rng.randint(1, 300)
        if rng.random() < 0.4:
            values = range(rng.randrange(5), W + 1, rng.randint(1, 7))
        else:
            p = rng.choice([0.02, 0.2, 0.5, 0.9, 1.0])
            values = [v for v in range(W + 1) if rng.random() < p]
        A = GroundSet.from_values(make_window(ADDITIVE, W), values)
        net = interval_net(rng.choice([W, rng.randint(1, W)]))
        tail = rng.choice([1, rng.randint(1, len(net))])
        for kernel, best in (
                ("spans", density._per_index_best_spans(A, len(net))),
                ("incremental", density._per_index_best_numeric(A, net))):
            report, n = check_runs_against_reference(*best, tail, net.label)
            ties[kernel] += n
        assert upper_density(A, net, tail) == report
    for _ in range(60):  # incremental kernel on multiplicative windows
        win = make_window(MULTIPLICATIVE, rng.randint(1, 300))
        A = GroundSet.from_values(win, [v for v in range(1, win.bound + 1)
                                        if rng.random() < 0.4])
        net = interval_net(rng.randint(1, min(win.bound, 12)))
        check_runs_against_reference(*density._per_index_best_numeric(A, net),
                                     rng.randint(1, len(net)), net.label)
    # word windows (the formal identity None, and shifts json escapes)
    # and table windows
    windows = [make_window(FREE_WORDS, L, "ab") for L in (1, 2, 3)]
    windows += [make_window(FREE_WORDS, L, "aé") for L in (2, 3)]
    windows += [make_table_window(list(range(n)), op) for n in (3, 6)
                for op in (max, lambda x, y: y)]
    none_shifts = escaped_shifts = 0
    for win in windows:
        elems = list(win.payloads())
        # on "aé" windows every other set holds words ending in é, and its
        # net shorter words ending in a, which meet the set only by shifts
        # that json escapes
        ends_in_e = [e for e in elems if str(e)[-1:] == "é"]
        short = [e for e in elems
                 if str(e)[-1:] == "a" and len(e) < win.bound]
        for i in range(10):
            members, words = ((ends_in_e, short) if ends_in_e and i % 2
                              else (elems, elems))
            A = GroundSet.from_values(
                win, rng.sample(members, rng.randint(0, len(members))))
            pool = rng.sample(words, rng.randint(1, min(6, len(words))))
            net = Net([pool[:k] for k in range(1, len(pool) + 1)], "pool")
            tail = rng.randint(1, len(net))
            report, n = check_runs_against_reference(
                *density._per_index_best_scan(A, net), tail, net.label)
            ties["scan"] += n
            assert upper_density(A, net, tail) == report
            text = jsonio.dumps(jsonio.density_report_to_json(report))
            if any(w.shift is None for w in report.witnesses):
                none_shifts += 1
                assert '"shift":"1"' in text
            if any(isinstance(w.shift, str) and "é" in w.shift
                   for w in report.witnesses):
                escaped_shifts += 1
                assert text.isascii() and "\\u00e9" in text
    assert min(ties.values()) >= 20 and none_shifts >= 10, (ties, none_shifts)
    assert escaped_shifts >= 5, escaped_shifts


def test_reports_compare_and_hash_by_their_public_fields():
    win = make_window(ADDITIVE, 60)
    A = GroundSet.from_values(win, range(0, 61, 7))
    report = upper_density(A, interval_net(20))
    again = upper_density(A, interval_net(20))
    assert report == again and hash(report) == hash(again)
    assert len({report, again}) == 1
    assert report != upper_density(A, interval_net(20), tail_start=2)
    assert report != upper_density(GroundSet.from_values(
        win, range(0, 61, 5)), interval_net(20))
    assert report != report.runs


def test_monotonicity_reads_values_only(monkeypatch):
    # check_density_monotonicity and the density-mono suite need only each
    # report's value, so they build neither its runs nor per-tail witnesses
    def fail(self):
        raise AssertionError("runs or witnesses built")
    for name in ("runs", "witnesses"):
        monkeypatch.setattr(density.DensityReport, name, property(fail))
    win = make_window(ADDITIVE, 100)
    A = GroundSet.from_values(win, [0, 2, 4], "A")
    B = GroundSet.from_values(win, [3, 5, 7, 40], "B")
    rep = check_density_monotonicity([(A, B)], builtin_right_translations(win),
                                      interval_net(10))
    assert rep.all_ok
    assert run_suite("density-mono", 0, "tiny")[1]


def test_weak_cancellativity_bounds():
    assert weak_cancellativity_bound(make_window(ADDITIVE, 60)) == 1
    assert weak_cancellativity_bound(make_window(MULTIPLICATIVE, 60)) == 1
    win = make_table_window(list(range(11)), lambda x, y: max(x, y))
    b = weak_cancellativity_bound(win)
    assert b == 11  # s * 10 = 10 for every s <= 10
    count = sum(1 for s in range(11) if max(s, 3) == 3)
    assert count == 4  # the witness pair (3, 3) already gives four solutions


def cancellativity_by_scan(window) -> int:
    """max over (x, y) of |{s : s * x = y}|, counted pair by pair."""
    counts: dict[tuple[int, int], int] = {}
    for s in range(window.size):
        for x in range(window.size):
            y = window.op_enc(s, x)
            if y is not None:
                counts[(x, y)] = counts.get((x, y), 0) + 1
    return max(counts.values(), default=0)


def test_weak_cancellativity_bound_matches_scan():
    windows = [make_window(kind, W) for kind in (ADDITIVE, MULTIPLICATIVE)
               for W in (1, 2, 3, 7, 30)]
    windows += [make_window(FREE_WORDS, L, "ab") for L in (1, 2, 3)]
    windows += [make_table_window(list(range(n)), op)
                for n in (1, 5, 9)
                for op in (max, min, lambda x, y, n=n: (x + y) % n,
                           lambda x, y, n=n: x + y if x + y < n else None)]
    for win in windows:
        assert weak_cancellativity_bound(win) == cancellativity_by_scan(win), win


def test_monotonicity_on_words_without_an_in_window_product():
    # Words of length 1: no product lies in the window, so b = 0, which
    # bounds the solutions of s * x = y by 1 in the margin.
    win = make_window(FREE_WORDS, 1, "ab")
    assert weak_cancellativity_bound(win) == 0
    A = GroundSet.from_values(win, ["a"], "A")
    rep = check_density_monotonicity([(A, A)], builtin_word_suffix(win, "a"),
                                      Net((("a",), ("a", "b")), label="w"))
    assert rep.b == 0 and rep.all_ok
    # density 1/2 on both sides, so the margin is the tolerance alone
    assert rep.entries[0].margin == Fraction(1, 50)
    # A word window large enough for a scan to take seconds.
    assert weak_cancellativity_bound(make_window(FREE_WORDS, 9, "ab")) == 1


@settings(max_examples=40)
@given(st.integers(0, 10_000_000))
def test_density_monotone_under_inclusion(seed):
    rng = random.Random(seed)
    win = make_window(ADDITIVE, 100)
    net = interval_net(rng.randint(5, 20))
    big = rng.sample(range(101), rng.randint(2, 30))
    small = rng.sample(big, rng.randint(1, len(big)))
    d_small = upper_density(GroundSet.from_values(win, small), net).value
    d_big = upper_density(GroundSet.from_values(win, big), net).value
    assert d_small <= d_big


def test_check_density_monotonicity_translated_pairs():
    win = make_window(ADDITIVE, 160)
    tr = builtin_right_translations(win)
    net = interval_net(40)
    rng = random.Random(13)
    pairs = []
    for _ in range(20):
        a_vals = sorted(rng.sample(range(50), rng.randint(2, 12)))
        r = rng.randint(0, 40)
        extras = rng.sample(range(100), 3)
        b_vals = sorted({v + r for v in a_vals} | set(extras))
        pairs.append((GroundSet.from_values(win, a_vals, "A"),
                      GroundSet.from_values(win, b_vals, "B")))
    rep = check_density_monotonicity(pairs, tr, net,
                                     tolerance=Fraction(1, 50))
    assert rep.b == 1
    assert rep.all_ok


def test_check_density_monotonicity_rejects_bad_pair():
    win = make_window(ADDITIVE, 100)
    tr = builtin_right_translations(win)
    A = GroundSet.from_values(win, [0, 1], "A")
    evens = GroundSet.from_predicate(win, lambda v: v % 2 == 0, "evens")
    with pytest.raises(UnverifiedPairError):
        check_density_monotonicity([(A, evens)], tr, interval_net(10))


def test_check_density_monotonicity_probes_default_only_when_none():
    win = make_window(ADDITIVE, 100)
    tr = builtin_right_translations(win)
    pair = (GroundSet.from_predicate(win, lambda v: v % 4 == 0, "A"),
            GroundSet.from_predicate(win, lambda v: v % 2 == 0, "B"))
    assert check_density_monotonicity([pair], tr, interval_net(10)).all_ok
    explicit = (GroundSet.from_values(win, [0, 4], "A"), pair[1])
    for pairs in ([pair], [explicit]):  # checked whether A needs probes or not
        for probes in ([], [4, 2], [0, 2]):
            with pytest.raises(InputError,
                               match="^probe sizes must be a non-empty"):
                check_density_monotonicity(pairs, tr, interval_net(10),
                                           probes=probes)


def test_pairs_file_without_probes_probes_predicate_a_at_2_and_4(
        tmp_path, monkeypatch, capsys):
    pairs, family = tmp_path / "pairs.json", tmp_path / "family.json"
    pairs.write_text(json.dumps({
        "window": {"kind": "additive-naturals", "bound": 60},
        "pairs": [{"a": {"predicate": "multiples:4"},
                   "b": {"predicate": "evens"}}]}))
    family.write_text(json.dumps({"builtin": "translations-right"}))
    sizes, probe = [], density.fe_probe

    def spy(A, B, fam, probe_sizes, *args, **kwargs):
        sizes.append(list(probe_sizes))
        return probe(A, B, fam, probe_sizes, *args, **kwargs)

    monkeypatch.setattr(density, "fe_probe", spy)
    assert dispatch(["density", "verify-monotone", "--pairs", str(pairs),
                     "--family", str(family), "--net", "interval:10"]) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"] is True
    assert sizes == [[2, 4]]


def test_check_density_monotonicity_probes_must_fit_in_a():
    win = make_window(ADDITIVE, 100)
    tr = builtin_right_translations(win)
    A = GroundSet.from_predicate(win, lambda v: v % 50 == 0, "A")  # 0, 50, 100
    B = GroundSet.from_predicate(win, lambda v: v % 10 == 0, "B")
    assert check_density_monotonicity([(A, B)], tr, interval_net(10),
                                      probes=[2, 3]).all_ok
    with pytest.raises(InputError, match=r"^A-too-small: probe size 4 "):
        check_density_monotonicity([(A, B)], tr, interval_net(10))


def test_density_of_superset_window_bound_cor():
    """Thick-looking sets reach density close to 1 (b = 1 carrier)."""
    win = make_window(ADDITIVE, 500)
    # contains the interval [100, 160]: every net index up to 60 fits inside
    A = GroundSet.from_predicate(win, lambda v: 100 <= v <= 160 or v % 97 == 0)
    rep = upper_density(A, interval_net(50))
    assert rep.value == 1
