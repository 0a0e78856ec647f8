"""Detectors for the structures that make window sets combinatorially rich:
interval thickness, arithmetic progressions, geoarithmetic grids, polynomial
progressions and piecewise syndeticity, each returning a certificate that can
be re-verified by direct formula evaluation.

All "arbitrarily long/large" quantifiers are window-relative here: a detector
only ever claims what it exhibited inside the window, never the infinite
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .carrier import (ADDITIVE, MULTIPLICATIVE, GroundSet, Payload, Window)
from .embed import ProbeReport, fe_probe
from .errors import InputError
from .families import FamilySpec, builtin_right_translations
from .prsearch import poly_coefficients, poly_indices


@dataclass(frozen=True)
class ProgressionCertificate:
    """Generator parameters plus the realized elements inside the host set.

    kinds and parameter layouts:
      ap                params = (start, stride), realized as a range
      gap-grid          params = (r, a, b), one-based grid r^i (a + j b)
                        with 1 <= i, j <= length, realized row-major in i
      gap-grid          params = (b, q, a, d) when indexing == "zero-based":
                        grid b q^j (a + i d) with 0 <= i, j < length
      polynomial        params = dense coefficient vector (a_0, ..., a_d),
                        realized = P(1), ..., P(length)
    """

    kind: str
    params: tuple
    realized: Sequence[Payload]
    length: int
    indexing: str = ""


def verify_certificate(cert: ProgressionCertificate, A: GroundSet) -> bool:
    """Recompute the generator formula and re-check membership in A."""
    expected = _realize(cert.kind, cert.params, cert.length, cert.indexing)
    if expected is None or tuple(expected) != tuple(cert.realized):
        return False
    return all(A.contains_value(v) for v in cert.realized)


def _certificate(kind: str, params: tuple, length: int,
                 indexing: str = "") -> ProgressionCertificate:
    realized = _realize(kind, params, length, indexing)
    return ProgressionCertificate(kind, params, realized, length, indexing)


def _realize(kind: str, params: tuple, k: int,
             indexing: str = "") -> Sequence[int] | None:
    if kind not in ("ap", "gap-grid", "polynomial"):
        return None
    if k == 0:
        return ()
    if kind == "ap":
        a, b = params
        try:
            return range(a, a + k * b, b)
        except (TypeError, ValueError):  # stride 0, or parameters not ints
            return tuple(a + i * b for i in range(k))
    if kind == "gap-grid":
        if indexing == "zero-based":
            b, q, a, d = params
            return tuple(b * q ** j * (a + i * d)
                         for i in range(k) for j in range(k))
        r, a, b = params
        return tuple(r ** i * (a + j * b)
                     for i in range(1, k + 1) for j in range(1, k + 1))
    return tuple(sum(c * x ** i for i, c in enumerate(params))
                 for x in range(1, k + 1))


def _require_additive(A: GroundSet, who: str) -> Window:
    if A.window.kind != ADDITIVE:
        raise InputError(f"{who} needs an additive window")
    return A.window


# -- arithmetic progressions --------------------------------------------------

def _chain_end(arr: np.ndarray, x: int, stride: int) -> int:
    """The first of x, x + stride, ... that is past arr or not a member.

    Searches chunks of 64, 128, ... terms, so the cost follows the run
    rather than the rest of the array."""
    chunk, n = 64, len(arr)
    while x < n:
        view = arr[x:x + chunk * stride:stride]
        i = int(view.argmin())
        if not view[i]:
            return x + i * stride
        x += len(view) * stride
        chunk *= 2
    return x


def _runs(bits: int, stride: int, k: int) -> int:
    """Bit a set iff a, a + stride, ..., a + (k - 1) * stride are all set
    in bits: ANDs of shifts that double the run covered, the last one
    overlapping, so O(log k) word-parallel ops."""
    run, m = bits, 1
    while m < k and run:
        step = min(m, k - m)
        run &= run >> step * stride
        m += step
    return run


def longest_ap(A: GroundSet) -> ProgressionCertificate:
    """A maximum-length arithmetic progression inside A, stride >= 1.

    Ties break toward smaller stride, then smaller start, so output is
    reproducible.  Each stride is tested on A's bitset: _runs marks the
    starts of every progression one term longer than the record, and the
    least of them is followed to the end of its chain, which sets a new
    record; then the test runs again with the new record, and so on.  The
    least start is always a chain's head (start - stride not in A), since
    start - stride would have the longer run.  A progression one term longer
    than the record spans record * stride, which ends the scan at the first
    stride past W / record.
    """
    win = _require_additive(A, "longest_ap")
    W = win.bound
    arr = A.array()
    bits = A.bitset()[1]
    if not bits:
        return _certificate("ap", (), 0)
    best_len, best = 1, ((bits & -bits).bit_length() - 1, 1)
    for stride in range(1, W + 1):
        if best_len * stride > W:
            break
        while starts := _runs(bits, stride, best_len + 1):
            a = (starts & -starts).bit_length() - 1
            x = _chain_end(arr, a + (best_len + 1) * stride, stride)
            best_len, best = (x - a) // stride, (a, stride)
    return _certificate("ap", best, best_len)


# -- geoarithmetic grids ------------------------------------------------------

def _grid_side(mem: memoryview, W: int, c: int, q: int, u: int, d: int) -> int:
    """Largest m with c q^x (u + y d) in the set for all 0 <= x, y < m.

    Grown one ring at a time; only the new ring max(x, y) == m needs
    checking.  Every cell is positive, since c, q, u >= 1.
    """
    m = 0
    while True:
        for x in range(m + 1):
            for y in range(m + 1) if x == m else (m,):
                v = c * q ** x * (u + y * d)
                if v > W or not mem[v]:
                    return m
        m += 1


def longest_gap_grid(A: GroundSet,
                     zero_based: bool = False) -> ProgressionCertificate:
    """The largest full geoarithmetic grid inside A.

    Default is the one-based convention r^i (a + j b), r > 1, b > 0,
    1 <= i, j <= k.  zero_based switches to the grid b q^j (a + i d) with
    0 <= i, j <= n (q > 1, d > 0, a > 0 so no row degenerates to zero),
    reported with length = n + 1.  Both are the one form c q^x (u + y d),
    0 <= x, y < k, which _grid_side grows: the one-based grid has c = q = r,
    u = a + b and d = b.  Ties break along the search order (r, then b, then
    a one-based; q, then b, then a + d, then d zero-based), so a fixed set
    always yields the same certificate.
    """
    win = _require_additive(A, "longest_gap_grid")
    mem = memoryview(A.array())
    W = win.bound
    # Each stream yields (params, (c, q, u, d)) in search order.
    if zero_based:
        # Any positive member m is a one-cell grid (b=1, a=m); larger grids
        # need the (1,1) cell b q (a + d) <= W.  The params are the form.
        smallest = next((v for v in A.values() if v >= 1), None)
        best_k, best = (0, ()) if smallest is None else (1, (1, 2, smallest, 1))
        grids = (((b, q, s - d, d),) * 2
                 for q in range(2, W + 1) for b in range(1, W // q + 1)
                 for s in range(2, W // (b * q) + 1) for d in range(1, s))
    else:
        best_k, best = 0, ()  # any grid needs its first cell r (a + b) <= W
        grids = (((r, a, b), (r, r, a + b, b))
                 for r in range(2, W + 1) for b in range(1, W // r + 1)
                 for a in range(W // r - b + 1))
    for params, form in grids:
        k = _grid_side(mem, W, *form)
        if k > best_k:
            best_k, best = k, params
    return _certificate("gap-grid", best, best_k,
                        indexing="zero-based" if zero_based else "one-based")


# -- polynomial progressions --------------------------------------------------

def longest_poly_progression(A: GroundSet, degree: int,
                             s_coeffs: GroundSet,
                             d_indices: Sequence[int]) -> ProgressionCertificate:
    """Longest run P(1), ..., P(l) inside A over restricted-coefficient
    polynomials: coefficients live in s_coeffs exactly at the d_indices.

    Certificate params are the dense coefficient vector (a_0 ... a_degree);
    ties break toward lexicographically smaller vectors.  D=[0] allows only
    constant polynomials, whose runs have no end, and raises InputError.
    """
    win = _require_additive(A, "longest_poly_progression")
    dset = poly_indices(d_indices, degree)
    if dset == (0,):
        raise InputError("constant-polynomial: D=[0] gives constant "
                         "polynomials, whose runs are unbounded; "
                         "D needs an index >= 1")
    mem = memoryview(A.array())
    W = win.bound

    def run_length(coeffs: tuple[int, ...]) -> int:
        x, l = 1, 0
        while True:
            y = sum(c * x ** i for i, c in zip(dset, coeffs))
            if y > W or not mem[y]:
                return l
            l += 1
            x += 1

    best_l, best_coeffs = 0, None
    # P(1) = sum of the chosen coefficients must stay in the window.
    for coeffs in poly_coefficients(dset, list(s_coeffs.values()), W):
        l = run_length(coeffs)
        if l > best_l:
            best_l, best_coeffs = l, coeffs
    if best_coeffs is None:
        return _certificate("polynomial", (), 0)
    dense = [0] * (degree + 1)
    for i, c in zip(dset, best_coeffs):
        dense[i] = c
    return _certificate("polynomial", tuple(dense), best_l)


# -- thickness / syndeticity / maximality -------------------------------------

@dataclass(frozen=True)
class ShiftProbe:
    length: int
    found: bool
    shift: Payload | None


@dataclass(frozen=True)
class ShiftReport:
    kind: str
    entries: tuple[ShiftProbe, ...]

    @property
    def all_found(self) -> bool:
        return all(e.found for e in self.entries)


def _member_prefix(A: GroundSet) -> np.ndarray:
    """pref[k] = number of members among encodings 0..k-1."""
    return np.concatenate(([0], np.cumsum(A.array(), dtype=np.int64)))


def _first_full_run(ok: np.ndarray) -> Callable[[int], int | None]:
    """first(need): the least t with ok[t], ..., ok[t + need - 1] all true,
    or None, read off the maximal runs of ok, which are found once."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ok != 0, [False]))))
    starts = edges[::2]
    longest = np.maximum.accumulate(edges[1::2] - starts)
    def first(need: int) -> int | None:
        i = int(np.searchsorted(longest, need))  # first run need long
        return int(starts[i]) if i < len(starts) else None
    return first


def is_thick_window(A: GroundSet, probe_intervals: Sequence[int]) -> ShiftReport:
    """Window-scale thickness: for each probe length L, look for a shift s
    with F_L * s inside A, where F_L is the first L+1 canonical elements.

    On the additive carrier this is exactly "A contains an interval of
    length L+1"; yes verdicts carry the first shift found.  On the
    multiplicative carrier a shift is a translation of F_L into A, so the
    translations kernel finds the least one.
    """
    if not probe_intervals:
        raise InputError("probe lengths must be a non-empty list")
    win = A.window
    entries = []
    first_run = _first_full_run(A.array()) if win.kind == ADDITIVE else None
    translations = (builtin_right_translations(win)
                    if win.kind == MULTIPLICATIVE else None)
    for L in probe_intervals:
        if L < 0:
            raise InputError(f"probe length {L} is negative")
        if L + 1 > win.size:
            raise InputError(f"probe length {L} exceeds the window")
        if win.kind == ADDITIVE:  # the first full interval [s, s + L]
            shift = first_run(L + 1)
        elif win.kind == MULTIPLICATIVE:  # F_L = 1..L+1 needs no normalizing
            found, _ = translations._anchored_search(tuple(range(1, L + 2)), A)
            shift = found[0] if found else None
        else:
            shift = _first_shift_by_scan(A, L)
        entries.append(ShiftProbe(L, shift is not None, shift))
    return ShiftReport("thick", tuple(entries))


def _first_shift_by_scan(A: GroundSet, L: int) -> Payload | None:
    win = A.window
    F = [win.payload(e) for e in range(L + 1)]
    for s in win.payloads():
        for f in F:
            y = win.op_payload(f, s)
            if y is None or not A.contains_value(y):
                break
        else:
            return s
    return None


def maximality_probe(A: GroundSet, family: FamilySpec,
                     probe_sizes: Sequence[int]) -> ProbeReport:
    """Probe whether A looks maximal: fe_probe of the window's canonical
    prefixes into A.

    A "no" at any probe certifies A is not maximal at window scale.
    """
    return fe_probe(GroundSet.full(A.window), A, family, probe_sizes)


def is_piecewise_syndetic_window(A: GroundSet, gap_bound: int,
                                 span_probes: Sequence[int]) -> ShiftReport:
    """Bounded gaps on long intervals, at window scale.

    Additive: a span-L probe succeeds at t when every length-gap_bound
    subinterval of [t, t+L-1] meets A.  Multiplicative: gaps are ratios, the
    probe interval is [t, t*L] and every ratio-gap_bound subrange must meet A.
    """
    if gap_bound < 1:
        raise InputError("gap bound must be >= 1")
    if not span_probes:
        raise InputError("span probes must be a non-empty list")
    win = A.window
    if win.kind == ADDITIVE:
        return _ps_additive(A, gap_bound, span_probes)
    if win.kind == MULTIPLICATIVE:
        return _ps_multiplicative(A, gap_bound, span_probes)
    raise InputError("piecewise-syndetic probe needs a numeric window")


def _ps_additive(A: GroundSet, g: int, spans: Sequence[int]) -> ShiftReport:
    W = A.window.bound
    pref = _member_prefix(A)
    # runs of covered u, with some member of A in [u, u+g-1], among the
    # subwindow starts u = 0..W-g+1 that keep the subwindow in the window
    m = max(W - g + 2, 0)
    first_run = _first_full_run(pref[g:g + m] > pref[:m])
    entries = []
    for L in spans:
        if L < 1 or L > W + 1:
            raise InputError(f"span {L} out of range")
        need = L - g + 1  # number of subwindow starts inside the interval
        at = 0 if need <= 0 else first_run(need)
        entries.append(ShiftProbe(L, at is not None, at))
    return ShiftReport("piecewise-syndetic", tuple(entries))


def _ps_multiplicative(A: GroundSet, g: int, spans: Sequence[int]) -> ShiftReport:
    W = A.window.bound
    pref = _member_prefix(A)  # value v sits at encoding v - 1
    # Capping g at W + 1 changes no min(u*g, W) or (t*L)//g below, and
    # keeps the products inside int64.
    g = min(g, W + 1)
    # uncovered[u] for u = 1..W: no member among values u..min(u*g, W);
    # bad[k] counts the uncovered u below k
    u = np.arange(1, W + 1)
    uncovered = pref[np.minimum(u * g, W)] == pref[u - 1]
    bad = np.concatenate(([0, 0], np.cumsum(uncovered, dtype=np.int64)))
    entries = []
    for L in spans:
        if L < 1:
            raise InputError("multiplicative span must be >= 1")
        at = None
        if L <= W:
            # shift t needs u covered for every u in t..(t*L)//g
            t = np.arange(1, W // L + 1)
            hi = np.maximum(t * L // g, t - 1)
            hit = np.flatnonzero(bad[hi + 1] == bad[t])
            at = int(t[hit[0]]) if hit.size else None
        entries.append(ShiftProbe(L, at is not None, at))
    return ShiftReport("piecewise-syndetic", tuple(entries))
