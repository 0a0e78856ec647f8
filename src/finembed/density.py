"""Generalized upper density over nets of finite sets, at window scale.

The density of A along a net F_1 <= F_2 <= ... is the largest ratio
|A n (F_n . x)| / |F_n| that keeps being attainable arbitrarily late in the
net, shifts x ranging over the carrier plus a formal identity.  The
finite-scale evaluation keeps the quantifier structure: per tail index m
take the max over n >= m and all in-window shifts, then take the min over
tails.  Values are exact rationals; out-of-window shifts are skipped and
counted rather than silently undercounting.

On numeric carriers one incremental kernel counts all shifts at once,
counts_n[x] = counts_{n-1}[x] + sum of A[v . x] over the new v in F_n, with
one numpy slice of the membership bytes per v: O(|F_N| W) additive,
O(sum of W / v) multiplicative.  Word and table windows scan each shift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, TABLE, GroundSet,
                      Payload, Window)
from .embed import YES, fe_decide, fe_probe
from .errors import InputError, UnverifiedPairError
from .families import FamilySpec


@dataclass(frozen=True, init=False)
class Net:
    """An inclusion-ascending chain of finite sets F_1..F_N, stored as its
    increments F_i = F_{i-1} u deltas[i-1], each disjoint from those before
    it (so no F_i repeats an element)."""

    deltas: tuple[tuple[Payload, ...], ...]
    label: str = ""

    def __init__(self, sets: Sequence[Sequence[Payload]], label: str = ""):
        deltas, prev = [], frozenset()
        for i, fn in enumerate(sets, start=1):
            members = frozenset(fn)
            if len(members) != len(fn):
                raise InputError(f"net set F_{i} repeats an element")
            if not prev <= members:
                raise InputError(f"net is not ascending at index {i}")
            deltas.append([v for v in fn if v not in prev])
            prev = members
        self._set(deltas, label)

    @classmethod
    def from_deltas(cls, deltas: Sequence[Sequence[Payload]],
                    label: str = "") -> "Net":
        """The net F_i = F_{i-1} u deltas[i-1]; deltas[0] must be non-empty."""
        net = cls.__new__(cls)
        net._set(deltas, label)
        return net

    def _set(self, deltas: Sequence[Sequence[Payload]], label: str) -> None:
        if not deltas or not deltas[0]:
            raise InputError("net needs a non-empty F_1")
        seen: set = set()
        for i, delta in enumerate(deltas, start=1):
            if not seen.isdisjoint(delta) or len(set(delta)) != len(delta):
                raise InputError(f"net set F_{i} repeats an element")
            seen.update(delta)
        object.__setattr__(self, "deltas", tuple(map(tuple, deltas)))
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
    return Net.from_deltas([(n,) for n in range(1, max_n + 1)],
                           label=f"interval:{max_n}")


@dataclass(frozen=True)
class TailWitness:
    tail: int
    n: int
    shift: Payload | None  # None is the formal identity shift
    ratio: Fraction


@dataclass(frozen=True)
class DensityReport:
    value: Fraction
    witnesses: tuple[TailWitness, ...]
    tail_start: int
    skipped_shifts: int
    net_label: str


def upper_density(A: GroundSet, net: Net, tail_start: int = 1) -> DensityReport:
    """Finite-scale generalized upper density of A along the net.

    Every reported tail witness satisfies ratio = |A n (F_n . x)| / |F_n| by
    direct counting.  The overall value is the min over the reported tails of
    the per-tail maxima.
    """
    win = A.window
    N = len(net)
    if not 1 <= tail_start <= N:
        raise InputError(f"tail_start must be in 1..{N}")
    for i, delta in enumerate(net.deltas, start=1):
        for v in delta:
            if not win.contains_value(v):
                raise InputError(f"net-exceeds-window at F_{i}: {v!r}")

    if win.kind in (ADDITIVE, MULTIPLICATIVE):
        best, skipped = _per_index_best_numeric(A, net)
    else:
        best, skipped = _per_index_best_scan(A, net)

    # Suffix maxima realize the (forall m)(exists n >= m) alternation.  They
    # fall as the tail start m grows, so the last tail holds the value.
    # best[n-1] is (|A n F_n . x|, |F_n|, x); ratios compare cross-multiplied.
    witnesses: list[TailWitness] = []
    top: tuple = ()  # count, |F_n|, n, shift, ratio
    for m in range(N, tail_start - 1, -1):
        count, size, shift = best[m - 1]
        if not top or count * top[1] > top[0] * size:
            top = (count, size, m, shift, Fraction(count, size))
        witnesses.append(TailWitness(m, *top[2:]))
    witnesses.reverse()
    return DensityReport(witnesses[-1].ratio, tuple(witnesses), tail_start,
                         skipped, net.label)


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
    return best, skipped


def _per_index_best_scan(A: GroundSet, net: Net):
    """The per-index best count, |F_n| and shift on word and table windows,
    one shift at a time (None = formal identity)."""
    win = A.window
    best: list[tuple[int, int, Payload | None]] = []
    skipped = 0
    identity = (win.payload(win.identity_enc)
                if win.identity_enc is not None else None)
    for fn in net.sets:
        # Seed with the identity shift: the genuine identity element when the
        # carrier has one, the formal no-op shift (reported as None) otherwise.
        top, top_shift = sum(map(A.contains_value, fn)), identity
        for x in win.payloads():
            image = [win.op_payload(v, x) for v in fn]
            if None in image:
                skipped += 1
            elif (count := sum(map(A.contains_value, image))) > top:
                top, top_shift = count, x
        best.append((top, len(fn), top_shift))
    return best, skipped


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
    predicate A through prefix probes, and anything short of "yes" raises
    UnverifiedPairError.
    """
    win = family.window
    b = weak_cancellativity_bound(win)
    entries: list[MonotonicityEntry] = []
    for A, B in pairs:
        if A.explicit:
            verified = fe_decide(A, B, family).outcome == YES
        else:
            probed = fe_probe(A, B, family, list(probes or [2, 4]))
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
