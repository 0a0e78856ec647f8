"""Generalized upper density over nets of finite sets, at window scale.

The density of A along a net F_1 <= F_2 <= ... is the largest ratio
|A n (F_n . x)| / |F_n| that keeps being attainable arbitrarily late in the
net, shifts x ranging over the carrier plus a formal identity.  The
finite-scale evaluation keeps the quantifier structure: per tail index m
take the max over n >= m and all in-window shifts, then take the min over
tails.  Values are exact rationals; out-of-window shifts are skipped and
counted rather than silently undercounting.

Three kernels give each net index n its best count |A n F_n . x| and the
first shift x attaining it (the identity wins ties):
- Spans, for the interval net F_n = {1..n} on additive windows.  With the
  members a_0 < ... < a_{m-1} of A in [1, W], L(c) = 1 + min_j (a_{j+c-1} -
  a_j) is the shortest interval holding c members, so index n counts
  max{c : L(c) <= n}, and its first best shift is max(0, a_{j+c-1} - n) for
  the first j whose span a_{j+c-1} - a_j is at most n - 1.  One subtraction
  and one argmin over the members per count c: O(M |A|), M the best count
  at the last index.
- Incremental, for every other numeric net and for dense additive sets:
  counts_n[x] = counts_{n-1}[x] + sum of A[v . x] over the new v in F_n,
  one numpy slice of the membership bytes per v: O(|F_N| W) additive,
  O(sum of W / v) multiplicative.
- Word and table windows keep a count and an overflow mark per shift,
  updated once per new net element: O(|F_N| W) products.
_SPAN_COST and _ADD_COST pick between the first two.  A report keeps the
kernel's three per-index lists, the last tail of each run of tails that
share a witness, and its value, the one Fraction it builds; the runs and the
per-tail witnesses are built only when they are read, so callers that read
only the value build neither.  interval_net builds its one-element deltas
directly, since 1..N repeats nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, TABLE, GroundSet,
                      Payload, Window)
from .embed import YES, check_probe_sizes, fe_decide, fe_probe
from .errors import InputError, UnverifiedPairError
from .families import FamilySpec


@dataclass(frozen=True, init=False)
class Net:
    """An inclusion-ascending chain of finite sets F_1..F_N, stored as its
    increments F_i = F_{i-1} u deltas[i-1], each disjoint from those before
    it (so no F_i repeats an element)."""

    deltas: tuple[tuple[Payload, ...], ...]
    label: str = ""
    _interval = False  # F_n = {1..n}, as built by interval_net

    def __init__(self, sets: Sequence[Sequence[Payload]], label: str = ""):
        deltas, prev = [], frozenset()
        for i, fn in enumerate(sets, start=1):
            members = frozenset(fn)
            if len(members) != len(fn):
                raise InputError(f"net set F_{i} repeats an element")
            if not prev <= members:
                raise InputError(f"net is not ascending at index {i}")
            deltas.append(tuple(v for v in fn if v not in prev))
            prev = members
        if not deltas or not deltas[0]:
            raise InputError("net needs a non-empty F_1")
        object.__setattr__(self, "deltas", tuple(deltas))
        object.__setattr__(self, "label", label)

    @property
    def sets(self) -> tuple[tuple[Payload, ...], ...]:
        """F_1, ..., F_N, each listed as F_{i-1} followed by its delta."""
        return tuple(accumulate(self.deltas))

    def __len__(self) -> int:
        return len(self.deltas)


def interval_net(max_n: int) -> Net:
    """F_n = {1, ..., n}; along this net the density is the finite-scale
    upper Banach density."""
    if max_n < 1:
        raise InputError("net maxN must be >= 1")
    net = Net.__new__(Net)  # 1..N repeats nothing: no check
    object.__setattr__(net, "deltas", tuple(zip(range(1, max_n + 1))))
    object.__setattr__(net, "label", f"interval:{max_n}")
    object.__setattr__(net, "_interval", True)
    return net


@dataclass(frozen=True)
class TailWitness:
    tail: int
    n: int
    shift: Payload | None  # None is the formal identity shift
    ratio: Fraction


@dataclass(frozen=True, eq=False)
class DensityReport:
    """The kernel's per-index best counts |A n F_n . x|, sizes |F_n| and
    first best shifts x, and the last tail of each run of tails that share
    a witness: the run ending at n has witness index n.  Reports compare and
    hash by value, runs, tail_start, skipped_shifts and net_label."""

    value: Fraction
    counts: list[int]
    sizes: list[int]
    shifts: list[Payload | None]
    ends: tuple[int, ...]
    tail_start: int
    skipped_shifts: int
    net_label: str

    @cached_property
    def runs(self) -> tuple[tuple[int, int, Payload | None, Fraction], ...]:
        """One (first tail, n, shift, ratio) per run; the run's last tail
        is n."""
        firsts = (self.tail_start, *(n + 1 for n in self.ends[:-1]))
        return tuple((first, n, self.shifts[n - 1],
                      Fraction(self.counts[n - 1], self.sizes[n - 1]))
                     for first, n in zip(firsts, self.ends))

    @cached_property
    def witnesses(self) -> tuple[TailWitness, ...]:
        """One witness per tail start m, tail_start <= m <= N."""
        return tuple(TailWitness(m, n, shift, ratio)
                     for first, n, shift, ratio in self.runs
                     for m in range(first, n + 1))

    def _key(self) -> tuple:
        return (self.value, self.runs, self.tail_start, self.skipped_shifts,
                self.net_label)

    def __eq__(self, other: object) -> bool:
        if type(other) is not DensityReport:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def upper_density(A: GroundSet, net: Net, tail_start: int = 1) -> DensityReport:
    """Finite-scale generalized upper density of A along the net.

    The net must lie in A's window: an interval net on a numeric window is
    checked by its largest element, any other net by walking its deltas.
    Every reported tail witness satisfies ratio = |A n (F_n . x)| / |F_n| by
    direct counting.  The overall value is the min over the reported tails of
    the per-tail maxima.
    """
    win = A.window
    N = len(net)
    if not 1 <= tail_start <= N:
        raise InputError(f"tail_start must be in 1..{N}")
    numeric = win.kind in (ADDITIVE, MULTIPLICATIVE)
    if not (net._interval and numeric and win.contains_value(N)):
        for i, delta in enumerate(net.deltas, start=1):
            for v in delta:
                if not win.contains_value(v):
                    raise InputError(f"net-exceeds-window at F_{i}: {v!r}")

    if net._interval and win.kind == ADDITIVE and _spans_cheaper(A, N):
        best, skipped = _per_index_best_spans(A, N)
    elif numeric:
        best, skipped = _per_index_best_numeric(A, net)
    else:
        best, skipped = _per_index_best_scan(A, net)
    return _tail_report(best, skipped, tail_start, net.label)


def _tail_report(best, skipped: int, tail_start: int,
                 label: str) -> DensityReport:
    """The report from the per-index best counts |A n F_n . x|, sizes |F_n|
    and shifts x, as three lists."""
    # Suffix maxima realize the (forall m)(exists n >= m) alternation.  They
    # fall as the tail start m grows, so the last tail holds the value.
    # Walking down from the last index, a run of tails ends at each n whose
    # ratio beats every later one (cross-multiplied, so ties keep the later
    # n); the initial top -1/1 loses to any ratio.
    counts, sizes, shifts = best
    ends = []
    top, top_size = -1, 1
    for n, count, size in zip(range(len(counts), tail_start - 1, -1),
                              reversed(counts), reversed(sizes)):
        if count * top_size > top * size:
            top, top_size = count, size
            ends.append(n)
    ends.reverse()
    # the last tail is the last index's alone
    return DensityReport(Fraction(counts[-1], sizes[-1]), counts, sizes,
                         shifts, tuple(ends), tail_start, skipped, label)


# Estimated cost of each kernel in microseconds, on a host where
# perfbench's reference loop takes 1 ms; only the ratios matter.  The
# incremental kernel pays (fixed, per net index, per shift counted), over
# sum of W + 1 - n shifts.  The span kernel pays (fixed, per window
# element, per count, per member per count) over the counts c <= M(N) + 1.
# scripts/density_rule.py fitted (2.3, 1.5, 4e-5) and, for counts that
# need no prefix minima, (10.8, 1.5e-3, 1.9, 1.6e-4); one that needs them
# adds about 6.1 plus 5.2e-4 per member below its argmin (576 seeded sets,
# 2-core x86_64, numpy 2.4).  Random sets need them on about half their
# counts and periodic ones never; the per-count pair (6, 2e-4) lies
# between, and sends small random sets (W <= 400, N < 30) to spans only
# where spans are faster.
_ADD_COST = (2.3, 1.5, 4e-5)
_SPAN_COST = (10.8, 1.5e-3, 6, 2e-4)


def _spans_cheaper(A: GroundSet, N: int) -> bool:
    """Whether the span kernel is estimated cheaper than the incremental one
    on the interval net of N indices.  It runs M(N) + 1 counts.  Every
    window of N elements meets at most two adjacent aligned blocks of N, and
    every block lies in such a window, so M(N) lies between the largest
    block sum and min(N, the largest sum of two adjacent blocks); it is
    counted (one cumulative sum) only when those bounds leave the choice
    open."""
    W = A.window.bound
    fixed, per_elem, per_count, per_member = _SPAN_COST
    add_fixed, per_index, per_shift = _ADD_COST
    afford = (add_fixed + N * (per_index + per_shift * (W + 1 - N / 2))
              - fixed - per_elem * W)
    if afford <= 2 * per_count:  # not even counts 1 and 2
        return False
    mem = A.array()
    blocks = np.add.reduceat(mem[1:], np.arange(0, W, N), dtype=np.int32)
    counts = afford / (per_count + per_member * int(blocks.sum()))
    pairs = blocks[1:] + blocks[:-1] if len(blocks) > 1 else blocks
    if min(N, int(pairs.max())) + 1 < counts:
        return True
    if int(blocks.max()) + 1 >= counts:
        return False
    sums = np.cumsum(mem, dtype=np.int32)
    return int((sums[N:] - sums[:-N]).max()) + 1 < counts


def _per_index_best_spans(A: GroundSet, N: int):
    """Per index of the interval net F_n = {1..n} the best count, n and the
    first best shift, from the spans of consecutive members (module
    docstring); the same answer as _per_index_best_numeric.  Step c finds
    L(c) and the first j of least span, which is j* for n = L(c); for
    L(c) < n < L(c+1), j* is the first j before it whose span is at most
    n - 1, read off the prefix minima of the spans below L(c+1) - 1."""
    a = np.flatnonzero(A.array()[1:]).astype(np.int32) + 1
    m = len(a)
    n = np.arange(1, N + 1)
    first = np.zeros(N, np.intp)  # j* per index, once settled
    lengths: list[int] = []  # L(1), L(2), ...
    prev = None  # (j, spans, L) of the count before
    bufs = np.empty((2, m), np.int32)
    for c in range(1, m + 2):
        if c <= m:
            spans = np.subtract(a[c - 1:], a[:m - c + 1],
                                out=bufs[c & 1, :m - c + 1])
            j = int(spans.argmin())
            L = int(spans[j]) + 1
        else:
            L = N + 1
        if prev is not None:  # settle n in [L(c-1), min(L(c) - 1, N)]
            pj, pspans, pL = prev
            hi = min(L - 1, N)
            first[pL - 1:hi] = pj
            if pj and hi > pL:
                below = np.flatnonzero(pspans[:pj] < hi)
                if len(below):
                    lows = np.minimum.accumulate(pspans[below])[::-1]
                    k = len(below) - np.searchsorted(lows, n[pL - 1:hi - 1],
                                                     "right")
                    first[pL:hi] = np.append(below, pj)[k]
        if L > N:
            break
        lengths.append(L)
        prev = j, spans, L
    counts = np.searchsorted(lengths, n, "right")
    shifts = a[first + counts - 1] - n if m else first
    np.maximum(shifts, 0, out=shifts)
    return ((counts.tolist(), list(range(1, N + 1)), shifts.tolist()),
            N * (N + 1) // 2)


def _per_index_best_numeric(A: GroundSet, net: Net):
    """Per net index the best count |A n F_n . x|, |F_n| and the first shift
    x with that count, by the incremental kernel.  F_n . x stays in the
    window for the first W - max F_n + 1 (additive) or W // max F_n
    (multiplicative) shifts, so counts shrinks to that prefix; shift 0 is
    the identity, so the first argmax keeps it on ties."""
    win = A.window
    W, additive = win.bound, win.kind == ADDITIVE
    counts = np.zeros(win.size, np.min_scalar_type(sum(map(len, net.deltas))))
    # Adds in one dtype: numpy would cast a uint8 slice on every add.
    mem = A.array().astype(counts.dtype, copy=False)
    first = win.payload(0)
    best: list[tuple[int, int, Payload | None]] = []
    skipped = top = size = 0
    for delta in net.deltas:
        for v in delta:
            top = max(top, v)
            k = W - top + 1 if additive else W // top
            counts = counts[:k]
            counts += mem[v:v + k] if additive else mem[v - 1::v][:k]
        size += len(delta)
        x = int(counts.argmax())
        best.append((int(counts[x]), size, first + x))
        skipped += win.size - len(counts)
    return tuple(map(list, zip(*best))), skipped


def _per_index_best_scan(A: GroundSet, net: Net):
    """The per-index best count, |F_n| and shift on word and table windows.
    Each shift keeps its count and whether some element of F_n . x has left
    the window (then it is skipped from that index on), updated once per
    new net element.  The identity shift seeds the best: the genuine
    identity element when the carrier has one, the formal no-op shift
    (reported as None) otherwise; a later shift must count strictly more."""
    win = A.window
    shifts = list(win.payloads())
    counts = [0] * len(shifts)  # -1 once out of the window
    identity = (win.payload(win.identity_enc)
                if win.identity_enc is not None else None)
    best: list[tuple[int, int, Payload | None]] = []
    top = size = skipped = 0
    for delta in net.deltas:
        for v in delta:
            top += A.contains_value(v)
            for e, x in enumerate(shifts):
                if counts[e] >= 0:
                    y = win.op_payload(v, x)
                    counts[e] = (-1 if y is None
                                 else counts[e] + A.contains_value(y))
        size += len(delta)
        most = max(counts)
        best.append((most, size, shifts[counts.index(most)]) if most > top
                    else (top, size, identity))
        skipped += counts.count(-1)
    return tuple(map(list, zip(*best))), skipped


def weak_cancellativity_bound(window: Window) -> int:
    """max over in-window pairs (x, y) of |{s : s * x = y}|, a count of all
    pairs on table windows."""
    if window.kind != TABLE:
        # cancellative: s * x = y has at most one solution s (for words, y
        # less its suffix x), and the first element times itself is a pair
        # with one, except among words of length 1
        return 0 if window.kind == FREE_WORDS and window.bound < 2 else 1
    n = window.size
    pairs = Counter((x, y) for s in range(n) for x in range(n)
                    if (y := window.op_enc(s, x)) is not None)
    return max(pairs.values(), default=0)


@dataclass(frozen=True)
class MonotonicityEntry:
    a_label: str
    b_label: str
    density_a: Fraction
    density_b: Fraction
    margin: Fraction
    ok: bool


@dataclass(frozen=True)
class MonotonicityReport:
    b: int
    tolerance: Fraction
    entries: tuple[MonotonicityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def check_density_monotonicity(pairs: Sequence[tuple[GroundSet, GroundSet]],
                               family: FamilySpec, net: Net,
                               tolerance: Fraction = Fraction(1, 50),
                               probes: Sequence[int] | None = None
                               ) -> MonotonicityReport:
    """Density grows (up to 1/b) along right-translation-style embeddings.

    Each pair is re-established first: explicit A through the full decision,
    predicate A through prefixes of the probe sizes (2 and 4 when probes is
    None), and anything short of "yes" raises UnverifiedPairError.
    """
    sizes = [2, 4] if probes is None else check_probe_sizes(probes)
    win = family.window
    b = weak_cancellativity_bound(win)
    entries: list[MonotonicityEntry] = []
    for A, B in pairs:
        if A.explicit:
            verified = fe_decide(A, B, family).outcome == YES
        else:
            probed = fe_probe(A, B, family, sizes)
            verified = probed.overall == "supported"
        if not verified:
            raise UnverifiedPairError(
                f"unverified-pair: {A.label!r} vs {B.label!r}")
        da = upper_density(A, net).value
        db = upper_density(B, net).value
        # b = 0 (no product in the window) bounds solutions by 1 as well
        margin = db + tolerance - Fraction(1, max(b, 1)) * da
        entries.append(MonotonicityEntry(A.label, B.label, da, db,
                                         margin, margin >= 0))
    return MonotonicityReport(b, tolerance, tuple(entries))
