"""The byte-per-element set representation against plain references.

Vector-filled predicate sets are compared with per-element evaluation of
the same predicate, and the array-based detectors and density scan with
brute-force loops over Python sets written from the definitions.  Windows
are seeded, additive and multiplicative, W <= 500 (up to 3000 for sparse
sets in longest_ap), plus small word windows for the density scan.
"""

import itertools
import random
from fractions import Fraction

import pytest

from finembed.carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, GroundSet,
                              make_window, parse_predicate)
from finembed.density import Net, TailWitness, interval_net, upper_density
from finembed.rich import (ProgressionCertificate,
                           is_piecewise_syndetic_window, is_thick_window,
                           longest_ap, verify_certificate)

HUGE = 10 ** 20  # beyond int64: the vector forms must take it as it is


def random_spec(rng: random.Random, W: int, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.35:
        atom = rng.choice(["evens", "odds", "squares", "primes", "all",
                           "multiples", "interval"])
        if atom == "multiples":
            return f"multiples:{rng.choice([1, 2, 3, 7, rng.randrange(1, W + 3), HUGE])}"
        if atom == "interval":
            lo = rng.choice([-5, 0, rng.randrange(W + 1), -HUGE])
            hi = rng.choice([lo + rng.randrange(40), W + 5, HUGE])
            return f"interval:{lo}:{hi}"
        return atom
    comb = rng.choice(["union", "intersect"])
    subs = [random_spec(rng, W, depth - 1) for _ in range(rng.randint(1, 3))]
    return f"{comb}({','.join(subs)})"


def random_window(rng: random.Random, top: int = 500):
    return make_window(rng.choice([ADDITIVE, MULTIPLICATIVE]),
                       rng.randrange(1, top + 1))


def random_set(rng: random.Random, win) -> GroundSet:
    lo = 1 if win.kind == MULTIPLICATIVE else 0
    if rng.random() < 0.4:
        density = rng.choice([0.05, 0.3, 0.7, 0.95])
        return GroundSet.from_values(
            win, [v for v in range(lo, win.bound + 1) if rng.random() < density])
    spec = random_spec(rng, win.bound)
    return GroundSet.from_predicate(win, parse_predicate(spec), spec)


def members(A: GroundSet) -> set:
    return {A.window.payload(e) for e in range(A.window.size)
            if A.contains_enc(e)}


# -- predicate fill ------------------------------------------------------------

def test_vector_fill_matches_per_element_evaluation():
    rng = random.Random(31)
    for _ in range(400):
        win = random_window(rng)
        spec = random_spec(rng, win.bound)
        pred = parse_predicate(spec)
        want = [bool(pred(win.payload(e))) for e in range(win.size)]
        A = GroundSet.from_predicate(win, pred)
        assert A.array().astype(bool).tolist() == want, spec


def test_range_vectors_match_the_scalar_test():
    # vector(hi) called directly and read from lo on: every atom (with HUGE
    # moduli and interval ends) and seeded nested combinators, on ranges at
    # the window starts (payload 0 additive, 1 multiplicative), around
    # 1024, 2048 and 4096 on both kinds, at the top of the largest window,
    # and at random, each empty, one element long and longer, plus every
    # range of small payloads.
    rng = random.Random(34)
    atoms = ["evens", "odds", "squares", "primes", "all", "multiples:1",
             "multiples:7", f"multiples:{HUGE}", "interval:3:17",
             "interval:-5:-1", f"interval:{-HUGE}:5", f"interval:40:{HUGE}",
             f"interval:{-HUGE}:{HUGE}"]
    starts = [0, 1, 2, 3, 4, 1023, 1024, 1025, 2048, 2049, 4096, 4097,
              (1 << 20) - 100]
    for spec in atoms + [random_spec(rng, 5000) for _ in range(60)]:
        pred = parse_predicate(spec)
        for lo in starts + [rng.randrange(5000) for _ in range(3)]:
            for hi in {lo, lo + 1, lo + 2, lo + rng.randrange(3, 600),
                       *range(lo, 16)}:
                got = pred.vector(hi)
                assert got.dtype == bool and len(got) == hi, spec
                got = got[lo:]
                assert got.tolist() == [bool(pred(v)) for v in range(lo, hi)], (
                    spec, lo, hi)


def test_chunked_fill_is_consistent_under_random_access():
    # Windows of a few thousand elements, probed out of order.
    rng = random.Random(32)
    for _ in range(20):
        win = make_window(rng.choice([ADDITIVE, MULTIPLICATIVE]),
                          rng.randrange(1000, 6000))
        spec = random_spec(rng, win.bound)
        pred = parse_predicate(spec)
        A = GroundSet.from_predicate(win, pred)
        for enc in rng.sample(range(win.size), 200):
            assert A.contains_enc(enc) == bool(pred(win.payload(enc))), spec
        assert list(A.iter_enc()) == [e for e in range(win.size)
                                      if pred(win.payload(e))]


def test_custom_predicate_sees_only_the_prefix_asked_for():
    calls = []

    def pred(v):
        calls.append(v)
        return v % 3 == 0

    A = GroundSet.from_predicate(make_window(ADDITIVE, 500), pred)
    assert not A.contains_value(10)
    assert calls == list(range(11))
    assert list(itertools.islice(A.values(), 4)) == [0, 3, 6, 9]
    assert calls == list(range(11))
    assert list(itertools.islice(A.values(), 5)) == [0, 3, 6, 9, 12]
    assert calls == list(range(13))
    assert list(itertools.islice(A.values(), 3)) == [0, 3, 6]
    assert calls == list(range(13))


def test_first_read_fills_a_vector_predicate_whole():
    # A vector fill covers the window at the first read; a plain callable
    # stops at the element asked for.
    win = make_window(ADDITIVE, 100_000)
    evens = GroundSet.from_predicate(win, parse_predicate("evens"))
    plain = GroundSet.from_predicate(win, lambda v: v % 2 == 0)
    assert evens.contains_value(3) is plain.contains_value(3) is False
    assert evens._known_upto == win.size
    assert plain._known_upto == win.encoding(3) + 1
    assert evens.array().tolist() == plain.array().tolist()


def test_word_windows_fill_one_element_at_a_time():
    win = make_window(FREE_WORDS, 6, "ab")
    calls = []

    def pred(w):
        calls.append(w)
        return w.startswith("a")

    pred.vector = lambda v: pytest.fail("no vector fill on word windows")
    A = GroundSet.from_predicate(win, pred)
    assert A.contains_value("ab")
    assert len(calls) == win.encoding("ab") + 1


def test_numeric_windows_fill_builtins_by_vector():
    pred = parse_predicate("union(primes,squares)")
    scalar_calls = []

    def counting(v):
        scalar_calls.append(v)
        return pred(v)

    counting.vector = pred.vector
    A = GroundSet.from_predicate(make_window(MULTIPLICATIVE, 3000), counting)
    assert A.contains_value(2999) and A.count() == len(
        {p for p in range(1, 3001) if pred(p)})
    assert scalar_calls == []


def test_array_bits_count_and_set_algebra_agree():
    rng = random.Random(33)
    for _ in range(60):
        win = random_window(rng)
        A, B = random_set(rng, win), random_set(rng, win)
        encs = [e for e in range(win.size) if A.contains_enc(e)]
        assert A.count() == len(encs)
        assert list(A.iter_enc()) == encs
        # B is untouched so far: bitset() fills a predicate set itself, and
        # packs it once.
        buf, bits = B.bitset()
        assert B.bitset()[1] is bits
        assert buf == bits.to_bytes(len(buf), "little")
        assert [e for e in range(win.size) if bits >> e & 1] == [
            e for e in range(win.size) if B.contains_enc(e)]
        assert members(A.union(B)) == members(A) | members(B)
        assert members(A.intersect(B)) == members(A) & members(B)
    view = A.array()
    with pytest.raises(ValueError):
        view[0] = 1


# -- detectors ------------------------------------------------------------------

def brute_ap(values: set, W: int):
    """(start, stride), length: longest run, then smallest stride, then
    smallest start, over every start and stride."""
    if not values:
        return (), 0
    key, best = (1, -1, -min(values)), (min(values), 1)
    for a in values:
        for d in range(1, W + 1):
            n, x = 0, a
            while x in values:
                n += 1
                x += d
            if (n, -d, -a) > key:
                key, best = (n, -d, -a), (a, d)
    return best, key[0]


def test_longest_ap_matches_brute_force():
    rng = random.Random(34)
    for _ in range(150):
        win = make_window(ADDITIVE, rng.randrange(1, 161))
        A = random_set(rng, win)
        cert = longest_ap(A)
        assert (cert.params, cert.length) == brute_ap(members(A), win.bound)
        assert tuple(cert.realized) == tuple(
            cert.params[0] + i * cert.params[1] for i in range(cert.length))


def test_longest_ap_vector_filter_on_wide_windows():
    # Dense wide windows: hundreds of heads per stride, and records raised
    # at strides well past the first.
    rng = random.Random(35)
    for _ in range(6):
        win = make_window(ADDITIVE, rng.randrange(300, 501))
        A = GroundSet.from_values(
            win, [v for v in range(win.bound + 1) if rng.random() < 0.6])
        cert = longest_ap(A)
        assert (cert.params, cert.length) == brute_ap(members(A), win.bound)


# Runs around the ends of _chain_end's doubling search chunks (64, 128 and
# 256 terms, counted past the two the run test already showed, so the
# first chunk ends at 66 terms here), and runs that end exactly at W, at
# strides 1 to 3.
LONG_CHAINS = [(63, 1, 0), (64, 1, 0), (65, 1, 0), (66, 1, 0), (67, 1, 0),
               (63, 2, 1), (64, 3, 5), (65, 3, 2), (66, 2, 0), (128, 1, 0),
               (129, 2, 0), (256, 1, 3), (300, 2, 0), (450, 1, 0), (513, 1, 0),
               (200, 3, 0)]


@pytest.mark.parametrize("length,stride,slack", LONG_CHAINS)
def test_longest_ap_on_long_chains(length, stride, slack):
    # One chain 4, 4 + stride, ..., the last term slack below W, and 0,
    # which extends it at no stride <= 3.
    a = 4
    W = a + (length - 1) * stride + slack
    chain = range(a, a + length * stride, stride)
    A = GroundSet.from_values(make_window(ADDITIVE, W), [0, *chain])
    cert = longest_ap(A)
    assert (cert.params, cert.length) == brute_ap(members(A), W)
    assert (cert.params, cert.length) == ((a, stride), length)
    assert tuple(cert.realized) == tuple(chain)


def test_longest_ap_on_many_runs_past_the_python_walk():
    # Runs of 65 to 140 consecutive members a gap of 1 to 3 apart: every
    # run is searched with numpy, and at stride 2 and 3 the chains cross
    # the gaps.
    rng = random.Random(47)
    for _ in range(3):
        values, x = [], rng.randrange(3)
        while x < 1100:
            run = rng.randint(65, 140)
            values += range(x, x + run)
            x += run + rng.randint(1, 3)
        W = max(values) + rng.randrange(2)
        A = GroundSet.from_values(make_window(ADDITIVE, W), values)
        cert = longest_ap(A)
        assert (cert.params, cert.length) == brute_ap(members(A), W)


def test_longest_ap_on_sparse_wide_windows():
    # At most 200 members in windows of 1000 to 3000: the scan runs through
    # hundreds of strides with a short record.  Prime-like sets are the
    # primes of the window, a random half of them, and the primes of a
    # stretch near W.
    rng = random.Random(48)
    primes = parse_predicate("primes")
    for kind in ["random", "primes", "half-primes", "top-primes"] * 2:
        W = rng.randrange(1000, 3001)
        if kind == "random":
            values = rng.sample(range(W + 1), rng.randint(1, 200))
        else:
            lo = W - 1400 if kind == "top-primes" else 0
            values = [v for v in range(max(lo, 0), W + 1) if primes(v)][:200]
            if kind == "half-primes":
                values = [v for v in values if rng.random() < 0.5]
        A = GroundSet.from_values(make_window(ADDITIVE, W), values)
        cert = longest_ap(A)
        assert (cert.params, cert.length) == brute_ap(set(values), W), kind


# (members, W, expected): one stride raises the record twice, so its run
# test is repeated with the new record (in the third case the repeat drops
# 20, whose run only ties the record that 10 set).
RAISED_TWICE = [({3, 4, 10, 11, 12}, 20, ((10, 1), 3)),
                ({1, 4, 20, 23, 26, 50}, 60, ((20, 3), 3)),
                ({2, 3, 10, 11, 12, 20, 21, 22, 30, 31, 32, 33}, 40,
                 ((30, 1), 4))]
# Heads below the stride (a < s, so a - s is no element), 0 among them:
# 0, s, 2s sets the record at stride s, then 1, 1 + s, ..., 1 + 3s raises it.
RAISED_TWICE += [({0, s, 2 * s, 1, 1 + s, 1 + 2 * s, 1 + 3 * s}, 1 + 3 * s,
                  ((1, s), 4)) for s in range(3, 10)]


@pytest.mark.parametrize("values,W,want", RAISED_TWICE)
def test_longest_ap_raises_the_record_twice_at_one_stride(values, W, want):
    A = GroundSet.from_values(make_window(ADDITIVE, W), values)
    cert = longest_ap(A)
    assert (cert.params, cert.length) == brute_ap(values, W) == want


@pytest.mark.parametrize("s", range(4, 12))
def test_longest_ap_record_times_stride_equal_to_w(s):
    # s, s + 1, s + 2 sets the record 3 at stride 1; then 0, s, 2s, 3s spans
    # 3s == W, the last stride the scan visits.
    values = {0, s, 2 * s, 3 * s, s + 1, s + 2}
    A = GroundSet.from_values(make_window(ADDITIVE, 3 * s), values)
    cert = longest_ap(A)
    assert (cert.params, cert.length) == brute_ap(values, 3 * s) == ((0, s), 4)


def test_stride_zero_ap_certificate_verifies_as_before():
    # Certificates that did not come from longest_ap: stride 0 realizes as
    # its start repeated (a realization of the wrong length fails), and a
    # negative stride counts down.
    A = GroundSet.from_values(make_window(ADDITIVE, 20), [4, 6, 8])
    ok = ProgressionCertificate("ap", (4, 0), (4, 4, 4), 3)
    assert verify_certificate(ok, A)
    assert not verify_certificate(
        ProgressionCertificate("ap", (4, 0), (4, 4), 3), A)
    assert not verify_certificate(
        ProgressionCertificate("ap", (5, 0), (5, 5), 2), A)
    assert verify_certificate(
        ProgressionCertificate("ap", (8, -2), (8, 6, 4), 3), A)


def brute_thick(values: set, win, L: int):
    """First shift s (canonical order) with F_L * s inside the set."""
    F = [win.payload(e) for e in range(L + 1)]
    for s in win.payloads():
        image = [f + s if win.kind == ADDITIVE else f * s for f in F]
        if all(y <= win.bound and y in values for y in image):
            return s
    return None


def test_thickness_matches_brute_force():
    rng = random.Random(36)
    for _ in range(200):
        win = random_window(rng)
        A = random_set(rng, win)
        probes = sorted(rng.sample(range(min(win.size, 40)),
                                   min(win.size, 40, 4)))
        report = is_thick_window(A, probes)
        values = members(A)
        for L, entry in zip(probes, report.entries):
            shift = brute_thick(values, win, L)
            assert (entry.found, entry.shift) == (shift is not None, shift)


def brute_ps(values: set, win, g: int, L: int):
    W = win.bound
    if win.kind == ADDITIVE:
        # every length-g subinterval of [t, t+L-1] meets the set
        for t in range(0, W - L + 2):
            if all(any(v in values for v in range(u, min(u + g, W + 1)))
                   for u in range(t, t + L - g + 1)):
                return t
        return None
    # every ratio-g subrange [u, u*g] with t <= u <= t*L/g meets the set
    for t in range(1, W // L + 1):
        if all(any(v in values for v in range(u, min(u * g, W) + 1))
               for u in range(t, t * L // g + 1)):
            return t
    return None


def test_piecewise_syndetic_matches_brute_force():
    rng = random.Random(37)
    for _ in range(200):
        win = random_window(rng, 300)
        A = random_set(rng, win)
        g = rng.choice([1, 2, 3, 6, win.bound + 2, HUGE])
        spans = [rng.randint(1, win.bound + 1) for _ in range(3)]
        if win.kind == MULTIPLICATIVE:
            spans.append(rng.choice([win.bound + 1, HUGE]))
        report = is_piecewise_syndetic_window(A, g, spans)
        values = members(A)
        for L, entry in zip(spans, report.entries):
            at = brute_ps(values, win, g, L)
            assert (entry.found, entry.shift) == (at is not None, at), \
                (win, A.label, g, L)


# -- density --------------------------------------------------------------------

def brute_density(values: set, win, net: Net, tail: int):
    """Per net index the best ratio over in-window shifts, seeded with the
    identity (shift 0 or 1 on the numeric carriers, the formal no-op None
    on words) and then taking the first strictly better shift; per tail m
    the best index n >= m (largest n on ties); then the min."""
    identity = None if win.kind == FREE_WORDS else win.payload(0)
    best, skipped = [], 0
    for fn in net.sets:
        top = (Fraction(sum(v in values for v in fn), len(fn)), identity)
        for x in win.payloads():
            image = [v * x if win.kind == MULTIPLICATIVE else v + x
                     for v in fn]  # words concatenate
            if any((len(y) if isinstance(y, str) else y) > win.bound
                   for y in image):
                skipped += 1
                continue
            r = Fraction(sum(y in values for y in image), len(fn))
            if r > top[0]:
                top = (r, x)
        best.append(top)
    witnesses = []
    for m in range(tail, len(net) + 1):
        n = max(range(m, len(net) + 1), key=lambda n: (best[n - 1][0], n))
        witnesses.append(TailWitness(m, n, best[n - 1][1], best[n - 1][0]))
    return min(w.ratio for w in witnesses), tuple(witnesses), skipped


def random_net(rng: random.Random, win) -> Net:
    """An ascending net given as its sets: deltas of 0-3 elements (only the
    first is never empty), each F_i listed in shuffled order, 0 included
    on some additive nets and the window's top on some others."""
    lo = 0 if win.kind == ADDITIVE else 1
    top = win.bound if win.kind == ADDITIVE else min(win.bound, 40)
    pool = rng.sample(range(lo, top + 1), min(top + 1 - lo, rng.randint(1, 14)))
    if rng.random() < 0.3:
        pool = [win.bound] + [v for v in pool if v != win.bound]
    if win.kind == ADDITIVE and rng.random() < 0.3:
        pool = [v for v in pool if v != 0] + [0]
    rng.shuffle(pool)
    sets, fn = [], []
    while pool or not sets:
        take = rng.randint(0 if sets else 1, 3)
        fn = fn + pool[:take]
        pool = pool[take:]
        sets.append(rng.sample(fn, len(fn)))
    return Net(sets, label="random")


def test_upper_density_matches_brute_force():
    rng = random.Random(38)
    for _ in range(120):
        win = random_window(rng, 300)
        A = random_set(rng, win)
        top = win.bound if win.kind == ADDITIVE else min(win.bound, 12)
        net = interval_net(rng.randint(1, min(top, 30)))
        tail = rng.randint(1, len(net))
        report = upper_density(A, net, tail_start=tail)
        assert (report.value, report.witnesses, report.skipped_shifts) == \
            brute_density(members(A), win, net, tail)


def test_upper_density_on_random_nets_matches_brute_force():
    rng = random.Random(41)
    seen = {"zero": 0, "top": 0, "multi": 0}
    for _ in range(150):
        win = random_window(rng, 200)
        A = random_set(rng, win)
        net = random_net(rng, win)
        tail = rng.randint(1, len(net))
        report = upper_density(A, net, tail_start=tail)
        assert (report.value, report.witnesses, report.skipped_shifts) == \
            brute_density(members(A), win, net, tail), (win, A.label, net)
        elems = net.sets[-1]
        seen["zero"] += 0 in elems
        seen["top"] += win.bound in elems
        seen["multi"] += any(len(d) > 1 for d in net.deltas)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("size", [255, 256, 300])
def test_upper_density_counts_past_one_byte(kind, size):
    # Nets of up to 255 elements count in uint8, longer ones in uint16, the
    # membership bytes cast to match; dense sets push the counts to |F_n|.
    rng = random.Random(size)
    W = size + 120 if kind == ADDITIVE else 4 * size
    win = make_window(kind, W)
    lo = 0 if kind == ADDITIVE else 1
    for density in (1.0, 0.97):
        A = GroundSet.from_values(
            win, [v for v in range(lo, W + 1) if rng.random() < density])
        values = members(A)
        net = interval_net(size)
        report = upper_density(A, net)
        for w in report.witnesses:
            image = [v * w.shift if kind == MULTIPLICATIVE else v + w.shift
                     for v in net.sets[w.n - 1]]
            assert w.ratio == Fraction(sum(y in values for y in image), w.n)
        # the last tail has n = size only: its ratio is the best shift's
        shifts = (range(W - size + 1) if kind == ADDITIVE
                  else range(1, W // size + 1))
        best = max(sum(v + x in values if kind == ADDITIVE else v * x in values
                       for v in range(1, size + 1)) for x in shifts)
        assert report.witnesses[-1].ratio == Fraction(best, size)
        if density == 1.0:
            assert report.value == 1


def test_word_window_density_matches_brute_force():
    rng = random.Random(43)
    for _ in range(20):
        win = make_window(FREE_WORDS, rng.randint(1, 3), rng.sample("abc", 2))
        words = list(win.payloads())
        A = GroundSet.from_values(win, rng.sample(words, rng.randint(0, len(words))))
        pool = rng.sample(words, rng.randint(1, min(5, len(words))))
        net = Net([pool[:i] for i in range(1, len(pool) + 1)], label="words")
        tail = rng.randint(1, len(net))
        report = upper_density(A, net, tail_start=tail)
        assert (report.value, report.witnesses, report.skipped_shifts) == \
            brute_density(members(A), win, net, tail)
