"""Function families given as generating pairs.

A family is a single generating map G : S^n x S^k -> S together with a
parameter region R; the family's members are the parameter sections
f_params(tuple) = G(tuple, params).  Built-ins cover right/left translations,
affine maps a + b*x, geoarithmetic maps r^n (a + m*b), restricted-coefficient
polynomials, and the word-suffix maps w -> w a^n; custom families come from a
small closed term catalog so their parameter searches stay analyzable.

Parameter enumeration for a concrete query (F, B) is either

  complete-anchored: a finite candidate list derived from the query itself,
      guaranteed to contain a witness whenever one exists (so an exhausted
      stream soundly refutes), or
  bounded-scan: all parameter tuples up to a magnitude bound, streamed in
      max-norm-then-lexicographic order, with no completeness claim.

Every stream is deterministic, so the first witness found is canonical.
Word-window lists read B's member encodings by rank (Window.split_word) and
decode only candidates; table translations take one pass over r.

Translations on the numeric carriers and affine maps also carry a kernel
that finds the canonical witness and the number of anchored candidates up
to it without listing them (FamilySpec.anchored_search).  Translations AND
one strided slice of B's array per point of F (_translation_kernel).  The
affine kernel reads slope rows of B's bitset with word-parallel ANDs until
the first witness, then finishes the intercepts below it along the shorter
side of the grid, strided numpy columns or more rows (_shift_search).  A
sparse B has a third side: with two anchors, once the rows read cost as
much as B's member pairs would, the kernel stops and walks the anchored
list built from those pairs (_row_limit, _member_pairs), which gives the
same witness and count.  The anchored list stays the reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import combinations, islice, product
from math import inf
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .carrier import (ADDITIVE, FREE_WORDS, MAX_NESTING, MULTIPLICATIVE,
                      TABLE, GroundSet, Payload, Window, _is_prime)
from .errors import BudgetError, InputError, parse_int
from .prsearch import MAX_EXPONENT, degenerate, poly_indices

Params = tuple
Tuple_ = tuple


@dataclass(frozen=True)
class ParamStream:
    """Candidate parameter tuples for one (F, B) query."""

    params: Iterator[Params]
    complete: bool


@dataclass(frozen=True)
class FamilySpec:
    """A function family F(G, R) evaluated over one window."""

    name: str
    window: Window
    arity: int
    param_arity: int
    g: Callable[[Tuple_, Params], Payload | None]  # None encodes overflow
    _r: Callable[[Params], bool]
    _scan_lists: Callable[[int], Sequence[Sequence]] | None = None
    # Anchored candidates in canonical order, without repeats.
    _anchored: Callable[[Tuple_, GroundSet], list[Params]] | None = None
    _explicit_params: tuple[Params, ...] | None = None
    default_bound: int | None = None
    _kernel: (Callable[[Tuple_, GroundSet], tuple[Params | None, int]]
              | None) = None

    # -- evaluation -------------------------------------------------------

    def r_accepts(self, params: Params) -> bool:
        return len(params) == self.param_arity and self._r(params)

    def apply(self, params: Params, tup: Tuple_) -> Payload | None:
        """f_params on an argument tuple of payloads, checked against R and
        the window (g is the same map unchecked); None on overflow."""
        params, tup = tuple(params), tuple(tup)
        if not self.r_accepts(params):
            raise InputError(f"params-outside-R: {params!r} for {self.name}")
        if len(tup) != self.arity:
            raise InputError(
                f"arity-mismatch: expected {self.arity} arguments")
        for p in tup:
            if not self.window.contains_value(p):
                raise InputError(f"element-out-of-window: {p!r}")
        return self.g(tup, params)

    # -- parameter enumeration ---------------------------------------------

    def enumerate_params(self, F: Iterable[Payload],
                         B: GroundSet, bound: int | None = None) -> ParamStream:
        """Stream candidate parameters for "some f maps F^n into B".

        The completeness flag is True only when the stream provably contains
        a witness whenever one exists (anchored mode, or a family whose
        parameter list is explicit); bounded scans always report False.
        R filters every stream here, and an empty stream is a valid result.
        """
        fpay = self._normalize_f(F)
        if self._explicit_params is not None:
            cands: Iterable[Params] = self._explicit_params
        elif self._anchored is not None:
            cands = self._anchored(fpay, B)
        else:
            return ParamStream(self._scan(bound), False)
        return ParamStream(iter([p for p in cands if self._r(p)]), True)

    def anchored_search(self, F: Iterable[Payload],
                        B: GroundSet) -> tuple[Params | None, int] | None:
        """The first anchored candidate mapping F into B, and the number of
        anchored candidates up to and including it in canonical order (all
        of them when there is no witness), found on B's membership without
        listing candidates.  None when the family has no kernel for B, and
        callers walk enumerate_params instead.  Candidates the kernel
        reports are not re-evaluated here; callers verify the witness.
        """
        return self._anchored_search(self._normalize_f(F), B)

    def _anchored_search(self, fpay: Tuple_, B: GroundSet
                         ) -> tuple[Params | None, int] | None:
        """anchored_search on an F that _normalize_f already returned."""
        if self._kernel is None or not self.window.compatible(B.window):
            return None
        return self._kernel(fpay, B)

    def param_sample(self, count: int, bound: int | None = None) -> list[Params]:
        """First count tuples of R in scan order or explicit list order."""
        params = (self._scan(bound) if self._explicit_params is None
                  else filter(self._r, self._explicit_params))
        return list(islice(params, count))

    def _scan(self, bound: int | None) -> Iterator[Params]:
        """R's tuples up to bound in shell order: the one scan rule.

        A bound of None reads as default_bound, or max(W, 64) when that is
        None too; each parameter runs over 0..bound unless _scan_lists
        gives the lists for the bound.  A negative bound is bad input.
        """
        if bound is None:
            bound = (max(self.window.bound, 64) if self.default_bound is None
                     else self.default_bound)
        if bound < 0:
            raise InputError(f"scan bound must be >= 0, got {bound}")
        lists = ([range(bound + 1)] * self.param_arity
                 if self._scan_lists is None else self._scan_lists(bound))
        return filter(self._r, _shell_order(lists))

    def _normalize_f(self, F: Iterable[Payload]) -> Tuple_:
        pays = tuple(F)
        for p in pays:
            if not self.window.contains_value(p):
                raise InputError(f"F-outside-window: {p!r}")
        if not pays:
            raise InputError("F must be non-empty")
        return tuple(sorted(pays, key=self.window.sort_key))

    def __repr__(self) -> str:
        return (f"FamilySpec({self.name}, n={self.arity}, "
                f"k={self.param_arity})")


def _shell_order(lists: Sequence[Sequence]) -> Iterator[Params]:
    """Tuples from the cartesian product of ascending candidate lists,
    ordered by maximum coordinate *rank* first, then lexicographically.

    Small parameters come first, and every finite prefix of the product is
    eventually emitted, so exhaustion order is reproducible.  Shell s walks
    the heads (all lists but the last) cut to rank s; a head with a value at
    rank s takes the last list's cut, any other head its rank-s value only.
    As with itertools.product, no lists give the one tuple () and an empty
    list gives none.  Lists are only sliced, never measured or copied
    whole, so a huge range costs only the shells reached.
    """
    if not all(lists):
        return
    if not lists:
        yield ()
        return
    *heads, last = lists
    tails: list[Params] = []  # the last list's cut, as 1-tuples
    s = 0
    while any(lst[s:s + 1] for lst in lists):
        tails += zip(last[s:s + 1])
        cuts = [lst[:s + 1] for lst in heads]
        ranks = product(*(range(len(cut)) for cut in cuts))
        for head, rank in zip(product(*cuts), ranks):
            if s in rank:
                yield from map(head.__add__, tails)
            elif s < len(tails):
                yield head + tails[s]
        s += 1


def _shift_search(B: GroundSet, slopes: range, anchors: Sequence[int],
                  checks: Sequence[int]
                  ) -> tuple[tuple[int, int] | None, int] | None:
    """The affine maps' kernel: the least (a, s) in (a, s) order with
    a + s*f in B for every f in anchors and checks, s ranging over slopes,
    plus the number of pairs (a, s) <= it with a + s*f in B for every
    anchor f; with no such witness, None and the number of all those
    anchor pairs.  None alone when the rows reach their limit first.

    B lives on an additive window 0..bound (mem: its membership bytes),
    and every slope must keep s*f <= bound for every anchor f.  Row s holds
    the pairs with slope s as an int whose bit a stands for (a, s): the AND
    over f of bits s*f .. s*f+n-1 of B, one word-parallel op per f.  Rows
    are scanned until the first one with a witness (a1, s1).  Later rows
    can only win below bit a1, so what is left is the block a < a1, s > s1,
    finished along its shorter side:

      columns, when few intercepts face many slopes: for each a in turn,
          one strided numpy slice of mem per point, mem[a + f*s] over the
          slopes left, ANDed; the first a with a hit holds the witness;
      rows, otherwise: each row cut to the bits below the best intercept
          so far, until nothing is left below it.

    The count is read off the anchor rows and the anchor columns in the
    end.  Rows are kept while they fit in _ROW_BITS, with no second pass;
    past it only the total of the rows dropped is kept, which is all a "no"
    needs, and a witness reads the dropped rows again, cut at its intercept.

    With two anchors, the rows read (after a first witness too) stop at
    _row_limit(m, bound) for B's m members: past it the caller walks the
    anchored list of m(m-1)/2 pairs instead.  A lone anchor has no limit.
    """
    mem = B.array()
    buf, bits = B.bitset()
    bound, top = len(mem) - 1, max(anchors)
    limit = _row_limit(bits.bit_count(), bound) if len(anchors) == 2 else inf

    def row_of(s: int, offsets: Sequence[int], row: int) -> int:
        n = row.bit_length()
        for f in offsets:
            if not row:
                break
            k = s * f
            # Slicing bytes costs O(n), shifting the int O(bound - k).
            if 2 * n < bound - k:
                row &= int.from_bytes(buf[k >> 3:(k + n + 7) >> 3],
                                      "little") >> (k & 7)
            else:
                row &= bits >> k
        return row

    # Anchor rows read so far, while they fit; the total of those dropped.
    rows: list[int] = []
    keep = _ROW_BITS // (bound + 1)
    best, extra, dropped, scanned = None, 0, 0, 0
    for s in slopes:
        n = bound + 1 - s * top
        if best is not None:
            n = min(n, best[0])
            if not n:
                break
        if scanned == limit:
            return None
        row = row_of(s, anchors, (1 << n) - 1)
        scanned += 1
        if scanned <= keep:
            rows.append(row)
        else:
            dropped += row.bit_count()
        row = row_of(s, checks, row)
        if not row:
            continue
        a = (row & -row).bit_length() - 1
        # Columns stop at the witness intercept, rows run on through the
        # slopes left: go by columns when there are fewer intercepts left.
        if best is None and a < slopes[-1] - s:
            found, extra = _column_search(mem, a, s, anchors, checks)
            best = found or (a, s)
            break
        best = (a, s)
    if best is None:
        return None, dropped + sum(row.bit_count() for row in rows)
    # The dropped rows read again: bits <= a1 up to slope s1, < a1 after.
    a1, s1 = best
    rows += [row_of(s, anchors, (1 << min(bound + 1 - s * top,
                                          a1 + (s <= s1))) - 1)
             for s in slopes[len(rows):scanned]]
    mask = (1 << a1 + 1) - 1
    return best, sum((row & mask).bit_count() for row in rows) + extra


def _column_search(mem: np.ndarray, a1: int, s1: int, anchors: Sequence[int],
                   checks: Sequence[int]) -> tuple[tuple[int, int] | None, int]:
    """The least (a, s) with a < a1 and s > s1 that maps anchors and checks
    into B, read column by column, and the number of anchor pairs in those
    columns up to it (all of them when there is none).

    Column a holds mem[a + f*s] for s1 < s <= (W - a) // top, where W is
    the last index of mem and top the largest anchor, one strided slice per
    nonzero point f; f = 0 reads mem[a] alone.  A check slice that leaves
    the window is shorter, and the AND stops where it ends, since every
    element past W is outside B.
    """
    bound, top = len(mem) - 1, max(anchors)
    count = 0
    for a in range(a1):
        hi = (bound - a) // top
        if hi <= s1:
            break
        if 0 in anchors and not mem[a]:
            continue
        col = None
        for f in anchors:
            if f:
                piece = mem[a + f * (s1 + 1):a + f * hi + 1:f]
                col = piece if col is None else col & piece
        hits = col
        for f in checks:
            piece = mem[a + f * (s1 + 1):a + f * hi + 1:f]
            hits = hits[:len(piece)] & piece[:len(hits)]
        where = np.flatnonzero(hits)
        if where.size:
            j = int(where[0])
            return (a, s1 + 1 + j), count + int(np.count_nonzero(col[:j + 1]))
        count += int(np.count_nonzero(col))
    return None, count


# Rows are kept while the list holds no more bits than this; an affine
# candidate list takes at most _MAX_PAIRS member pairs, or as many
# candidates for a lone anchor.
_ROW_BITS = 1 << 23
_MAX_PAIRS = 1 << 20


def _row_limit(m: int, bound: int) -> float:
    """The rows worth a walk of m members' pairs (scripts/affine_rule.py,
    BENCH_26.json); no limit past the pair budget."""
    pairs = m * (m - 1) // 2
    return (inf if pairs > _MAX_PAIRS
            else int((pairs + 89) / (6.7 + bound / 5300)))


def _member_pairs(B: GroundSet, values: Iterable[Payload]
                  ) -> Iterator[tuple[Payload, Payload]]:
    """B's member pairs (b1, b2), b1 < b2, in lexicographic order, drawn
    from values, B's members ascending: the anchor images of the affine
    candidates.  BudgetError past _MAX_PAIRS, from B's count before values
    is read."""
    m = B.count()
    if m * (m - 1) // 2 > _MAX_PAIRS:
        raise BudgetError(f"budget-exceeded: more than {_MAX_PAIRS} "
                          "member pairs")
    return combinations(values, 2)


# -- built-in families ------------------------------------------------------

def builtin_right_translations(window: Window) -> FamilySpec:
    """f_r(s) = s * r for r ranging over the whole carrier."""
    return _translations(window, right=True)


def builtin_left_translations(window: Window) -> FamilySpec:
    """g_r(s) = r * s for r ranging over the whole carrier."""
    return _translations(window, right=False)


def _translations(window: Window, right: bool) -> FamilySpec:
    def g(tup: Tuple_, params: Params) -> Payload | None:
        (s,), (r,) = tup, params
        return window.op_payload(s, r) if right else window.op_payload(r, s)

    def anchored(fpay: Tuple_, B: GroundSet) -> list[Params]:
        w0 = fpay[0]
        if window.kind == FREE_WORDS:
            return _word_translations(window, w0, B, right)
        if window.kind == TABLE:  # one pass over r: one row of the table
            members = set(B.values())
            return [(r,) for r in window.payloads()
                    if g((w0,), (r,)) in members]
        if window.kind == ADDITIVE:
            return [(b - w0,) for b in B.values() if b >= w0]
        return [(b // w0,) for b in B.values() if b % w0 == 0]

    return FamilySpec(
        name="translations-right" if right else "translations-left",
        window=window, arity=1, param_arity=1,
        g=g, _r=lambda p: window.contains_value(p[0]),
        # Listed only when scanned: anchored queries never scan.
        _scan_lists=lambda bound: [list(window.payloads())],
        _anchored=anchored,
        _kernel=(_translation_kernel
                 if window.kind in (ADDITIVE, MULTIPLICATIVE) else None))


def _translation_kernel(fpay: Tuple_, B: GroundSet
                        ) -> tuple[Params | None, int]:
    """The anchored list's witness and count for translations on a numeric
    window, where left and right agree.  As r runs up from the identity,
    f*r sits at encoding f + r, or f*r - 1 when multiplicative: one slice of
    B's array from f's encoding, stride 1 or f, whose index j stands for the
    r at encoding j.  The candidates are min F's slice; the witnesses are
    the AND of every slice, cut to the last, shortest one (fpay is sorted).
    """
    win, mem = B.window, B.array()
    mul = win.kind == MULTIPLICATIVE
    slices = [mem[win.encoding(f)::f if mul else 1] for f in fpay]
    hits = slices[-1]
    for piece in slices[:-1]:
        hits = hits & piece[:len(hits)]
    j = int(hits.argmax())
    if not hits[j]:
        return None, int(np.count_nonzero(slices[0]))
    return (win.payload(j),), int(np.count_nonzero(slices[0][:j + 1]))


def _word_translations(window: Window, w0: str, B: GroundSet,
                       right: bool) -> list[Params]:
    """Every r with w0*r (resp. r*w0) in B, in window's encoding order,
    read off B's membership by rank (letters as base-a digits): the words
    w0*r with |r| = k are the a^k encodings from rank rank(w0) a^k, the
    words r*w0 those of stride a^|w0| from rank(w0), each at rank(r)."""
    win = B.window
    _require_kind(win, FREE_WORDS, "B of word translations")
    if not win.contains_value(w0):  # nor is any member that holds it
        return []
    n0, rank0 = win.split_word(win.encoding(w0))
    a, mem = len(win.alphabet), B.array()  # type: ignore[arg-type]
    cands: list[Params] = []
    for k in range(1, win.bound - n0 + 1):
        lo, step = (rank0 * a ** k, 1) if right else (rank0, a ** n0)
        lo += win.join_word(n0 + k, 0)
        ranks = np.flatnonzero(mem[lo:lo + step * a ** k:step]).tolist()
        cands += [(win.payload(win.join_word(k, r)),) for r in ranks]
    if win.alphabet != window.alphabet:  # B's ranks are in another order
        cands = sorted(filter(lambda p: window.contains_value(p[0]), cands),
                       key=lambda p: window.encoding(p[0]))
    return cands


def builtin_affine(window: Window) -> FamilySpec:
    """f_{a,b}(x) = a + b*x with slope b >= 1, on the additive carrier.

    Anchored enumeration: with two anchor points f1 < f2 in F, every witness
    (a, b) sends them to some pair (beta1, beta2) in B^2 and is recovered by
    solving the two linear equations; singleton F admits a direct solve.
    Each candidate comes from exactly one pair, so the candidates with slope
    b are the set bits a of (B >> b*f1) & (B >> b*f2), which is what the
    bitset kernel scans, slope by slope.
    """
    _require_kind(window, ADDITIVE, "affine")

    def g(tup: Tuple_, params: Params) -> Payload | None:
        (x,), (a, b) = tup, params
        y = a + b * x
        return y if y <= window.bound else None

    def candidates(fs: list[int], B: GroundSet,
                   values: Iterable[Payload]) -> list[Params]:
        """The anchored list for the distinct points fs, ascending, with
        values B's members ascending (B.values() or a list of them)."""
        if len(fs) >= 2:
            f1, den = fs[0], fs[1] - fs[0]
            cands = []
            for b1, b2 in _member_pairs(B, values):
                if not (b2 - b1) % den and b1 >= (s := (b2 - b1) // den) * f1:
                    cands.append((b1 - s * f1, s))
        else:
            x, values = fs[0], list(values)
            # x = 0 gives one candidate per member, at most the window size
            if x and sum(beta // x for beta in values) > _MAX_PAIRS:
                raise BudgetError(f"budget-exceeded: more than {_MAX_PAIRS} "
                                  "anchored candidates")
            cands = [(beta - s * x, s) for beta in values
                     for s in (range(1, beta // x + 1) if x else (1,))]
        return sorted(cands)

    def anchored(fpay: Tuple_, B: GroundSet) -> list[Params]:
        # a repeated point is no second anchor
        return candidates(sorted(set(fpay)), B, B.values())

    def kernel(fpay: Tuple_, B: GroundSet) -> tuple[Params | None, int]:
        fs = sorted(set(fpay))
        anchors, checks = fs[:2], fs[2:]
        # Slope s has candidates only while s * (largest anchor) <= W; a
        # lone anchor at 0 admits the slope-1 candidates alone.
        top = anchors[-1]
        slopes = range(1, window.bound // top + 1 if top else 2)
        found = _shift_search(B, slopes, anchors, checks)
        if found is not None:
            return found
        # The rows reached their limit: the pair list is the cheaper side.
        values = list(B.values())  # B listed once for pairs and membership
        members = set(values)
        cands = candidates(fs, B, values)
        for rank, (a, s) in enumerate(cands, 1):
            for f in checks:
                if a + s * f not in members:
                    break
            else:
                return (a, s), rank
        return None, len(cands)

    return FamilySpec(
        name="affine", window=window, arity=1, param_arity=2,
        g=g, _r=lambda p: p[0] >= 0 and p[1] >= 1,
        _anchored=anchored, _kernel=kernel)


def builtin_geoarithmetic(window: Window) -> FamilySpec:
    """f_{r,a,b}(n, m) = r^n (a + m*b) with r > 1, b > 0.

    No anchored candidate derivation is known for this shape, so queries use
    a bounded scan and negative answers stay "unknown".
    """
    _require_kind(window, ADDITIVE, "geoarithmetic")

    def g(tup: Tuple_, params: Params) -> Payload | None:
        (n, m), (r, a, b) = tup, params
        if n * (r.bit_length() - 1) > window.bound.bit_length():
            return None
        y = r ** n * (a + m * b)
        return y if y <= window.bound else None

    return FamilySpec(
        name="geoarithmetic", window=window, arity=2, param_arity=3,
        g=g, _r=lambda p: p[0] >= 2 and p[1] >= 0 and p[2] >= 1)


def builtin_polynomial(s_coeffs: GroundSet, d_indices: Iterable[int],
                       degree: int) -> FamilySpec:
    """Polynomials sum a_i x^i whose coefficients sit in s_coeffs exactly at
    the indices in d_indices (zero elsewhere), degree capped at `degree`.

    When d_indices reaches past the constant term, the all-constant parameter
    tuples are excluded so every member is a genuine non-constant polynomial.
    """
    window = s_coeffs.window
    _require_kind(window, ADDITIVE, "polynomial")
    dset = poly_indices(d_indices, degree)

    def g(tup: Tuple_, params: Params) -> Payload | None:
        (x,) = tup
        y = sum(a * x ** i for i, a in zip(dset, params))
        return y if y <= window.bound else None

    def r(params: Params) -> bool:
        return (all(a in s_coeffs for a in params)
                and not degenerate(dset, params))

    def scan_lists(bound: int) -> Sequence[Sequence]:
        vals = [v for v in s_coeffs.values() if v <= bound]
        return [vals] * len(dset)

    return FamilySpec(
        name=f"polynomial(D={list(dset)})", window=window,
        arity=1, param_arity=len(dset),
        g=g, _r=r, _scan_lists=scan_lists)


def builtin_word_suffix(window: Window, letter: str) -> FamilySpec:
    """f_j(w) = w letter^j over the free-word carrier, j >= 0."""
    _require_kind(window, FREE_WORDS, "word-suffix")
    if letter not in (window.alphabet or ()):
        raise InputError(f"letter-not-in-alphabet: {letter!r}")

    def g(tup: Tuple_, params: Params) -> Payload | None:
        (w,), (j,) = tup, params
        out = w + letter * j
        return out if len(out) <= window.bound else None

    def anchored(fpay: Tuple_, B: GroundSet) -> list[Params]:
        # One membership test per j, for the words w0 letter^j of B's window.
        w0, win = fpay[0], B.window
        if not win.contains_value(w0):  # nor is any word that starts with it
            return []
        return [(j,) for j in range(win.bound - len(w0) + 1)
                if win.contains_value(w := w0 + letter * j)
                and B.contains_value(w)]

    return FamilySpec(
        name=f"word-suffix({letter})", window=window, arity=1, param_arity=1,
        g=g, _r=lambda p: p[0] >= 0, _anchored=anchored,
        default_bound=window.bound)


def _require_kind(window: Window, kind: str, name: str) -> None:
    if window.kind != kind:
        raise InputError(f"wrong-carrier: {name} needs {kind}, "
                         f"got {window.kind}")


# -- custom families from the term catalog -----------------------------------

_TOKEN = re.compile(r"\s*(\d+|slot\d+|param\d+|[()+*^])")


def _tokenize(term: str) -> list[str]:
    toks, pos = [], 0
    while pos < len(term):
        m = _TOKEN.match(term, pos)
        if not m:
            raise InputError(f"malformed-term: cannot read {term[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    return toks


class _TermParser:
    """sum := prod (+ prod)* ; prod := pow (* pow)* ; pow := atom (^ pow)?"""

    def __init__(self, toks: list[str], n: int, k: int):
        self.toks, self.pos, self.n, self.k, self.depth = toks, 0, n, k, 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def eat(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.sum()
        if self.pos != len(self.toks):
            raise InputError(f"malformed-term: trailing {self.toks[self.pos:]}")
        return node

    def sum(self):
        parts = [self.prod()]
        while self.peek() == "+":
            self.eat()
            parts.append(self.prod())
        return ("+", parts) if len(parts) > 1 else parts[0]

    def prod(self):
        parts = [self.pow()]
        while self.peek() == "*":
            self.eat()
            parts.append(self.pow())
        return ("*", parts) if len(parts) > 1 else parts[0]

    def pow(self):
        if self.depth == MAX_NESTING:
            raise InputError(f"malformed-term: nested above {MAX_NESTING}")
        self.depth += 1
        node = self.atom()
        if self.peek() == "^":
            self.eat()
            node = ("^", [node, self.pow()])
        self.depth -= 1
        return node

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise InputError("malformed-term: unexpected end")
        if tok == "(":
            self.eat()
            node = self.sum()
            if self.peek() != ")":
                raise InputError("malformed-term: missing )")
            self.eat()
            return node
        self.eat()
        if tok.isdigit():
            return ("const", parse_int(tok, "a term constant"))
        if tok.startswith("slot"):
            i = parse_int(tok[4:], "a slot index")
            if i >= self.n:
                raise InputError(f"arity-mismatch: {tok} with n={self.n}")
            return ("slot", i)
        if tok.startswith("param"):
            j = parse_int(tok[5:], "a param index")
            if j >= self.k:
                raise InputError(f"arity-mismatch: {tok} with k={self.k}")
            return ("param", j)
        raise InputError(f"malformed-term: {tok!r}")


def _eval_term(node, slots: Tuple_, params: Params) -> int:
    op = node[0]
    if op == "const":
        return node[1]
    if op == "slot":
        return slots[node[1]]
    if op == "param":
        return params[node[1]]
    vals = [_eval_term(ch, slots, params) for ch in node[1]]
    if op == "+":
        return sum(vals)
    if op == "*":
        out = 1
        for v in vals:
            out *= v
        return out
    base, exp = vals
    if exp < 0 or (exp > MAX_EXPONENT and base > 1):
        raise InputError("term exponent out of range")
    return base ** exp


_R_CATALOG: dict[str, Callable[[Params], bool]] = {
    "N": lambda p: all(isinstance(v, int) and v >= 0 for v in p),
    "all": lambda p: True,
    "positive": lambda p: all(isinstance(v, int) and v >= 1 for v in p),
    "primes": lambda p: all(isinstance(v, int) and _is_prime(v) for v in p),
}


def make_family_from_pair(window: Window, n: int, k: int, term: str,
                          r_spec: str = "N",
                          bound: int | None = None) -> FamilySpec:
    """Family from a term over slot0..slot{n-1} and param0..param{k-1}.

    Terms compose integer constants with +, * and ^ (standard precedence,
    right-associative power); r_spec names a region from the catalog
    (N, all, positive, primes).  Custom terms only get bounded-scan
    enumeration: anchored completeness needs the per-builtin derivations.
    """
    if window.kind not in (ADDITIVE, MULTIPLICATIVE):
        raise InputError("pair families need a numeric carrier")
    if n < 1 or k < 0:
        raise InputError("arity-mismatch: need n >= 1, k >= 0")
    if r_spec not in _R_CATALOG:
        raise InputError(f"unknown parameter region {r_spec!r}")
    node = _TermParser(_tokenize(term), n, k).parse()
    region = _R_CATALOG[r_spec]

    def g(tup: Tuple_, params: Params) -> Payload | None:
        y = _eval_term(node, tup, params)
        return y if window.contains_value(y) else None

    return FamilySpec(
        name=f"pair[{term}]", window=window, arity=n, param_arity=k,
        g=g, _r=region, default_bound=bound)


# -- derived families ---------------------------------------------------------

def restrict_params(base: FamilySpec, params_list: Iterable[Params],
                    name: str | None = None) -> FamilySpec:
    """The subfamily with parameters drawn from an explicit finite list.

    Enumeration walks exactly that list, so it is trivially complete.
    """
    plist = tuple(tuple(p) for p in params_list)
    for p in plist:
        if not base.r_accepts(p):
            raise InputError(f"params-outside-R: {p!r}")
    pset = set(plist)
    return FamilySpec(
        name=name or f"{base.name}|{len(plist)} params",
        window=base.window, arity=base.arity, param_arity=base.param_arity,
        g=base.g, _r=lambda p: p in pset, _explicit_params=plist)


def filter_params(base: FamilySpec, pred: Callable[[Params], bool],
                  name: str) -> FamilySpec:
    """The subfamily of base whose parameters also satisfy pred.

    pred joins R, which enumerate_params applies to base's complete lists;
    they stay complete, as the subfamily's witnesses are a subset of the
    base family's.  The kernel knows nothing of pred, so it is dropped.
    """
    return replace(base, name=name, _r=lambda p: base._r(p) and pred(p),
                   _kernel=None)
