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

from .carrier import (ADDITIVE, MULTIPLICATIVE, GroundSet, Payload, Window)
from .embed import DEFAULT_TUPLE_CAP, EmbedVerdict, embed_finite
from .errors import InputError, parse_int
from .families import FamilySpec


@dataclass(frozen=True)
class ProgressionCertificate:
    """Generator parameters plus the realized elements inside the host set.

    kinds and parameter layouts:
      ap                params = (start, stride)
      gap-grid          params = (r, a, b), one-based grid r^i (a + j b)
                        with 1 <= i, j <= length, realized row-major in i
      gap-grid          params = (b, q, a, d) when indexing == "zero-based":
                        grid b q^j (a + i d) with 0 <= i, j < length
      polynomial        params = dense coefficient vector (a_0, ..., a_d),
                        realized = P(1), ..., P(length)
    """

    kind: str
    params: tuple
    realized: tuple[Payload, ...]
    length: int
    indexing: str = ""


def verify_certificate(cert: ProgressionCertificate, A: GroundSet) -> bool:
    """Recompute the generator formula and re-check membership in A."""
    expected = _realize(cert)
    if expected is None or tuple(expected) != tuple(cert.realized):
        return False
    return all(A.contains_value(v) for v in cert.realized)


def _realize(cert: ProgressionCertificate) -> list[int] | None:
    k = cert.length
    if cert.kind == "ap":
        if k == 0:
            return []
        a, b = cert.params
        return [a + i * b for i in range(k)]
    if cert.kind == "gap-grid":
        if k == 0:
            return []
        if cert.indexing == "zero-based":
            b, q, a, d = cert.params
            return [b * q ** j * (a + i * d)
                    for i in range(k) for j in range(k)]
        r, a, b = cert.params
        return [r ** i * (a + j * b)
                for i in range(1, k + 1) for j in range(1, k + 1)]
    if cert.kind == "polynomial":
        if k == 0:
            return []
        coeffs = cert.params
        return [sum(c * x ** i for i, c in enumerate(coeffs))
                for x in range(1, k + 1)]
    return None


def _require_additive(A: GroundSet, who: str) -> Window:
    if A.window.kind != ADDITIVE:
        raise InputError(f"{who} needs an additive window")
    return A.window


# -- arithmetic progressions --------------------------------------------------

def longest_ap(A: GroundSet) -> ProgressionCertificate:
    """A maximum-length arithmetic progression inside A, stride >= 1.

    Ties break toward smaller stride, then smaller start, so output is
    reproducible.  Chains are walked from their head only (start - stride
    not in A), which keeps the scan at O(W) per stride.
    """
    win = _require_additive(A, "longest_ap")
    members = list(A.values())
    if not members:
        return ProgressionCertificate("ap", (), (), 0)
    bits = A.bits()
    best_len, best = 1, (members[0], 1)
    for stride in range(1, win.bound + 1):
        if best_len * stride > win.bound + stride:
            break  # even the current record no longer fits in the window
        for a in members:
            prev = a - stride
            if prev >= 0 and bits >> prev & 1:
                continue
            x, run = a, 0
            while x <= win.bound and bits >> x & 1:
                run += 1
                x += stride
            if run > best_len:
                best_len, best = run, (a, stride)
    start, stride = best
    realized = tuple(start + i * stride for i in range(best_len))
    return ProgressionCertificate("ap", (start, stride), realized, best_len)


# -- geoarithmetic grids ------------------------------------------------------

def _grid_side(bits: int, bound: int, cell) -> int:
    """Largest k with cell(i, j) in the set for all 1 <= i, j <= k.

    Grown one ring at a time; only the new ring max(i, j) == k needs checking.
    """
    k = 0
    while True:
        nxt = k + 1
        for i in range(1, nxt + 1):
            for j in range(1, nxt + 1):
                if max(i, j) < nxt:
                    continue
                v = cell(i, j)
                if v < 0 or v > bound or not bits >> v & 1:
                    return k
        k = nxt


def longest_gap_grid(A: GroundSet,
                     zero_based: bool = False) -> ProgressionCertificate:
    """The largest full geoarithmetic grid inside A.

    Default is the one-based convention r^i (a + j b), r > 1, b > 0,
    1 <= i, j <= k.  zero_based switches to the grid b q^j (a + i d) with
    0 <= i, j <= n (q > 1, d > 0, a > 0 so no row degenerates to zero),
    reported with length = n + 1.  Ties break along the search order (ratio
    ascending, then stride, then start), so a fixed set always yields the
    same certificate.
    """
    win = _require_additive(A, "longest_gap_grid")
    bits = A.bits()
    W = win.bound
    if zero_based:
        return _longest_grid_zero_based(A, bits, W)
    best_k, best = 0, ()
    for r in range(2, W + 1):
        top = W // r  # the (1,1) cell forces a + b <= W // r
        for b in range(1, top + 1):
            for a in range(0, top - b + 1):
                k = _grid_side(bits, W, lambda i, j: r ** i * (a + j * b))
                if k > best_k:
                    best_k, best = k, (r, a, b)
    realized: tuple[int, ...] = ()
    if best_k:
        r, a, b = best
        realized = tuple(r ** i * (a + j * b)
                         for i in range(1, best_k + 1)
                         for j in range(1, best_k + 1))
    return ProgressionCertificate("gap-grid", best, realized, best_k,
                                  indexing="one-based")


def _longest_grid_zero_based(A: GroundSet, bits: int,
                             W: int) -> ProgressionCertificate:
    """Zero-based grids with a >= 1, so the i = 0 row is never the constant
    zero row; cells stay positive, matching the search pattern's domain."""

    def side(b: int, q: int, a: int, d: int) -> int:
        """Largest n with the full (n+1) x (n+1) zero-based grid present."""
        n = -1
        while True:
            nxt = n + 1
            for i in range(nxt + 1):
                for j in range(nxt + 1):
                    if max(i, j) < nxt:
                        continue
                    v = b * q ** j * (a + i * d)
                    if v > W or not bits >> v & 1:
                        return n
            n = nxt

    best_n, best = -1, ()
    # Any positive member m gives an n = 0 grid (b=1, a=m); rings beyond
    # need the (1,1) cell b q (a + d) <= W, which bounds the whole search.
    smallest = next((v for v in A.values() if v >= 1), None)
    if smallest is not None:
        best_n, best = 0, (1, 2, smallest, 1)
    for q in range(2, W + 1):
        for b in range(1, W // q + 1):
            for s in range(2, W // (b * q) + 1):  # s = a + d, a >= 1
                for d in range(1, s):
                    n = side(b, q, s - d, d)
                    if n > best_n:
                        best_n, best = n, (b, q, s - d, d)
    if best_n < 0:
        return ProgressionCertificate("gap-grid", (), (), 0,
                                      indexing="zero-based")
    b, q, a, d = best
    k = best_n + 1
    realized = tuple(b * q ** j * (a + i * d)
                     for i in range(k) for j in range(k))
    return ProgressionCertificate("gap-grid", best, realized, k,
                                  indexing="zero-based")


# -- polynomial progressions --------------------------------------------------

def longest_poly_progression(A: GroundSet, degree: int,
                             s_coeffs: GroundSet,
                             d_indices: Sequence[int]) -> ProgressionCertificate:
    """Longest run P(1), ..., P(l) inside A over restricted-coefficient
    polynomials: coefficients live in s_coeffs exactly at the d_indices.

    Certificate params are the dense coefficient vector (a_0 ... a_degree);
    ties break toward lexicographically smaller vectors.
    """
    win = _require_additive(A, "longest_poly_progression")
    dset = sorted(set(d_indices))
    if not dset:
        raise InputError("empty-D: need at least one coefficient index")
    if dset[0] < 0 or dset[-1] > degree:
        raise InputError(f"inconsistent-degree: D={dset} vs degree {degree}")
    svals = [v for v in s_coeffs.values()]
    bits = A.bits()
    W = win.bound
    nonconstant = dset[-1] >= 1

    best_l, best_coeffs = 0, None

    def run_length(coeffs: list[int]) -> int:
        x, l = 1, 0
        while True:
            y = sum(c * x ** i for i, c in zip(dset, coeffs))
            if y > W or not bits >> y & 1:
                return l
            l += 1
            x += 1

    def rec(pos: int, budget: int, chosen: list[int]) -> None:
        nonlocal best_l, best_coeffs
        if pos == len(dset):
            if nonconstant and all(c == 0 for i, c in zip(dset, chosen) if i >= 1):
                return
            l = run_length(chosen)
            if l > best_l:
                best_l, best_coeffs = l, list(chosen)
            return
        for v in svals:
            if v > budget:
                break
            chosen.append(v)
            rec(pos + 1, budget - v, chosen)
            chosen.pop()

    # P(1) = sum of the chosen coefficients must stay in the window.
    rec(0, W, [])
    if best_coeffs is None:
        return ProgressionCertificate("polynomial", (), (), 0)
    dense = [0] * (degree + 1)
    for i, c in zip(dset, best_coeffs):
        dense[i] = c
    realized = tuple(sum(c * x ** i for i, c in enumerate(dense))
                     for x in range(1, best_l + 1))
    return ProgressionCertificate("polynomial", tuple(dense), realized, best_l)


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


def is_thick_window(A: GroundSet, probe_intervals: Sequence[int]) -> ShiftReport:
    """Window-scale thickness: for each probe length L, look for a shift s
    with F_L * s inside A, where F_L is the first L+1 canonical elements.

    On the additive carrier this is exactly "A contains an interval of
    length L+1"; yes verdicts carry the first shift found.
    """
    win = A.window
    entries = []
    for L in probe_intervals:
        if L + 1 > win.size:
            raise InputError(f"probe length {L} exceeds the window")
        F = [win.payload(e) for e in range(L + 1)]
        found, shift = False, None
        for s in win.payloads():
            ok = True
            for f in F:
                y = win.op_payload(f, s)
                if y is None or not A.contains_value(y):
                    ok = False
                    break
            if ok:
                found, shift = True, s
                break
        entries.append(ShiftProbe(L, found, shift))
    return ShiftReport("thick", tuple(entries))


def maximality_probe(A: GroundSet, family: FamilySpec,
                     probe_sizes: Sequence[int],
                     bound: int | None = None,
                     tuple_cap: int = DEFAULT_TUPLE_CAP
                     ) -> list[tuple[int, EmbedVerdict]]:
    """Probe whether A looks maximal: every window prefix F must embed in A.

    A "no" at any probe certifies A is not maximal at window scale.
    """
    win = A.window
    out = []
    for p in probe_sizes:
        if p < 1 or p > win.size:
            raise InputError(f"probe size {p} out of range")
        F = [win.payload(e) for e in range(p)]
        out.append((p, embed_finite(F, A, family, bound, tuple_cap)))
    return out


def is_piecewise_syndetic_window(A: GroundSet, gap_bound: int,
                                 span_probes: Sequence[int]) -> ShiftReport:
    """Bounded gaps on long intervals, at window scale.

    Additive: a span-L probe succeeds at t when every length-gap_bound
    subinterval of [t, t+L-1] meets A.  Multiplicative: gaps are ratios, the
    probe interval is [t, t*L] and every ratio-gap_bound subrange must meet A.
    """
    if gap_bound < 1:
        raise InputError("gap bound must be >= 1")
    win = A.window
    if win.kind == ADDITIVE:
        return _ps_additive(A, gap_bound, span_probes)
    if win.kind == MULTIPLICATIVE:
        return _ps_multiplicative(A, gap_bound, span_probes)
    raise InputError("piecewise-syndetic probe needs a numeric window")


def _ps_additive(A: GroundSet, g: int, spans: Sequence[int]) -> ShiftReport:
    W = A.window.bound
    bits = A.bits()
    # covered[u]: some member of A in [u, u+g-1]
    covered = [any(bits >> v & 1 for v in range(u, min(u + g, W + 1)))
               for u in range(W + 1)]
    entries = []
    for L in spans:
        if L < 1 or L > W + 1:
            raise InputError(f"span {L} out of range")
        found, at = False, None
        need = L - g + 1  # number of subwindow starts inside the interval
        if need <= 0:
            found, at = True, 0
        else:
            run = 0
            for u in range(W - g + 2):
                run = run + 1 if covered[u] else 0
                if run >= need:
                    found, at = True, u - need + 1
                    break
        entries.append(ShiftProbe(L, found, at))
    return ShiftReport("piecewise-syndetic", tuple(entries))


def _ps_multiplicative(A: GroundSet, g: int, spans: Sequence[int]) -> ShiftReport:
    W = A.window.bound
    bits = A.bits()

    def covered(u: int) -> bool:
        # value v sits at encoding v - 1 on this carrier
        hi = min(u * g, W)
        return any(bits >> (v - 1) & 1 for v in range(max(u, 1), hi + 1))

    entries = []
    for L in spans:
        if L < 1:
            raise InputError("multiplicative span must be >= 1")
        found, at = False, None
        for t in range(1, W // L + 1):
            hi = (t * L) // g
            if all(covered(u) for u in range(t, hi + 1)):
                found, at = True, t
                break
        entries.append(ShiftProbe(L, found, at))
    return ShiftReport("piecewise-syndetic", tuple(entries))


# -- named set properties (for upward-closure experiments) ---------------------

def set_property(name: str) -> tuple[Callable[[GroundSet], bool], str]:
    """Resolve a named property usable in upward-closure checks.

    contains-ap:<l>        an arithmetic progression of length l
    contains-gap-grid:<k>  a full one-based k x k geoarithmetic grid
    contains-element:<v>   the literal element v
    """
    head, _, arg = name.partition(":")
    if head == "contains-ap":
        l = parse_int(arg, "contains-ap:<l>")
        return (lambda A: longest_ap(A).length >= l), name
    if head == "contains-gap-grid":
        k = parse_int(arg, "contains-gap-grid:<k>")
        return (lambda A: longest_gap_grid(A).length >= k), name
    if head == "contains-element":
        return (lambda A: A.window.contains_value(_parse_arg(arg))
                and A.contains_value(_parse_arg(arg))), name
    raise InputError(f"unknown set property {name!r}")


def _parse_arg(arg: str) -> Payload:
    try:
        return int(arg)
    except ValueError:
        return arg
