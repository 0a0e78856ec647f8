"""Generalized upper density over nets of finite sets, at window scale.

The density of A along a net F_1 <= F_2 <= ... is the largest ratio
|A n (F_n . x)| / |F_n| that keeps being attainable arbitrarily late in the
net, shifts x ranging over the carrier plus a formal identity.  The
finite-scale evaluation keeps the quantifier structure: per tail index m
take the max over n >= m and all in-window shifts, then take the min over
tails.  Values are exact rationals; out-of-window shifts are skipped and
counted rather than silently undercounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .carrier import ADDITIVE, GroundSet, Payload, Window
from .embed import YES, fe_decide, fe_probe
from .errors import InputError, UnverifiedPairError
from .families import FamilySpec


@dataclass(frozen=True)
class Net:
    """An inclusion-ascending chain of finite element sets, indexed 1..N."""

    sets: tuple[tuple[Payload, ...], ...]
    label: str = ""

    def __post_init__(self):
        if not self.sets:
            raise InputError("net needs at least one index")
        prev: tuple = ()
        for i, fn in enumerate(self.sets, start=1):
            if not fn:
                raise InputError(f"net set F_{i} is empty")
            # A set that starts with the previous one contains it.
            if (fn[:len(prev)] != prev
                    and not frozenset(prev) <= frozenset(fn)):
                raise InputError(f"net is not ascending at index {i}")
            prev = fn

    def __len__(self) -> int:
        return len(self.sets)


def interval_net(max_n: int) -> Net:
    """F_n = {1, ..., n}; along this net the density is the finite-scale
    upper Banach density."""
    if max_n < 1:
        raise InputError("net maxN must be >= 1")
    return Net(tuple(tuple(range(1, n + 1)) for n in range(1, max_n + 1)),
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
    # The net ascends, so F_N holds every other F_i: check it alone, and
    # walk the net only to name the first offending index.
    if not all(win.contains_value(v) for v in net.sets[-1]):
        for i, fn in enumerate(net.sets, start=1):
            for v in fn:
                if not win.contains_value(v):
                    raise InputError(f"net-exceeds-window at F_{i}: {v!r}")

    best, skipped = _per_index_best(A, net)

    # Suffix maxima realize the (forall m)(exists n >= m) alternation.
    witnesses: list[TailWitness] = []
    running: tuple[Fraction, int, Payload | None] | None = None
    per_tail: list[tuple[Fraction, int, Payload | None]] = [None] * N  # type: ignore
    for n in range(N, 0, -1):
        ratio, shift = best[n - 1]
        if running is None or ratio > running[0]:
            running = (ratio, n, shift)
        per_tail[n - 1] = running
    for m in range(tail_start, N + 1):
        ratio, n, shift = per_tail[m - 1]
        witnesses.append(TailWitness(m, n, shift, ratio))
    value = min(w.ratio for w in witnesses)
    return DensityReport(value, tuple(witnesses), tail_start, skipped,
                         net.label)


def _per_index_best(A: GroundSet, net: Net):
    """For each net index, the best shifted-intersection ratio and a shift
    achieving it (None = formal identity)."""
    win = A.window
    first = tuple(range(1, len(net.sets[-1]) + 1))
    if win.kind == ADDITIVE and all(fn == first[:len(fn)] for fn in net.sets):
        return _per_index_best_intervals(A, net)
    best: list[tuple[Fraction, Payload | None]] = []
    skipped = 0
    identity = (win.payload(win.identity_enc)
                if win.identity_enc is not None else None)
    for fn in net.sets:
        # Seed with the identity shift: the genuine identity element when the
        # carrier has one, the formal no-op shift (reported as None) otherwise.
        top = Fraction(sum(1 for v in fn if A.contains_value(v)), len(fn))
        top_shift: Payload | None = identity
        for x in win.payloads():
            count = 0
            ok = True
            for v in fn:
                y = win.op_payload(v, x)
                if y is None:
                    ok = False
                    break
                if A.contains_value(y):
                    count += 1
            if not ok:
                skipped += 1
                continue
            r = Fraction(count, len(fn))
            if r > top:
                top, top_shift = r, x
        best.append((top, top_shift))
    return best, skipped


def _per_index_best_intervals(A: GroundSet, net: Net):
    """Vectorized scan for interval nets on the additive carrier.

    F_n . x = [1+x, n+x] for the shifts x = 0..W-n that keep it in the
    window.  counts[x] = |A n F_n . x| grows with n one membership slice at
    a time, and one argmax per net index finds the first best shift.  No
    count exceeds the largest |F_n|, which sets the narrowest dtype.
    """
    W = A.window.bound
    mem = A.array()
    counts = np.zeros(W + 1, dtype=np.min_scalar_type(len(net.sets[-1])))
    best: list[tuple[Fraction, Payload | None]] = []
    skipped = 0
    n = 0
    for fn in net.sets:
        while n < len(fn):
            n += 1
            counts = counts[:W - n + 1]
            counts += mem[n:]
        x = int(np.argmax(counts))
        best.append((Fraction(int(counts[x]), n), x))
        skipped += n  # shifts x > W - n push the interval out of the window
    return best, skipped


def weak_cancellativity_bound(window: Window) -> int:
    """max over in-window pairs (x, y) of |{s : s * x = y}|.

    Exhaustive over the window (quadratic in its size).
    """
    counts: dict[tuple[int, int], int] = {}
    top = 0
    for s in range(window.size):
        for x in range(window.size):
            y = window.op_enc(s, x)
            if y is None:
                continue
            key = (x, y)
            c = counts.get(key, 0) + 1
            counts[key] = c
            if c > top:
                top = c
    return top


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
            v = fe_decide(A, B, family)
            verified = v.outcome == YES
        else:
            report = fe_probe(A, B, family, list(probes or [2, 4]))
            verified = report.overall == "supported"
        if not verified:
            raise UnverifiedPairError(
                f"unverified-pair: {A.label!r} vs {B.label!r}")
        da = upper_density(A, net).value
        db = upper_density(B, net).value
        margin = db + tolerance - Fraction(1, b) * da
        entries.append(MonotonicityEntry(A.label, B.label, da, db,
                                         margin, margin >= 0))
    return MonotonicityReport(b, tolerance, tuple(entries))
