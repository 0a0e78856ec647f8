"""Partition-regularity engine: complete backtracking searches for
pattern-avoiding colorings, Ramsey-style thresholds, strong-PR probes on
explicit sets, and experiments with homogeneous diophantine equations.

A pattern is a finite matcher: it enumerates every instance (a set of
integers that must not end up monochromatic) inside [1..N].  Every search,
over [1..N] or over an explicit set, runs through one engine (_search): a
complete backtracking with color-relabeling symmetry breaking (a fresh color
index may only be introduced after all smaller ones), so "forced" outcomes
are exhaustion proofs and avoiding colorings come out canonical and
lexicographically least.  Threshold scans run the same search with forward
checking on color masks (_ForwardCheck): the same colorings, fewer nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import compress, groupby, islice, product, repeat
from operator import add, and_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, InputError, parse_int

DEFAULT_INSTANCE_BUDGET = 500_000
DEFAULT_NODE_BUDGET = 2_000_000

VARS = "xyzw"

# The largest exponent a term, a polynomial or a degree may ask for.
MAX_EXPONENT = 64


# -- polynomials ---------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial in up to four variables x, y, z, w."""

    monomials: tuple[tuple[int, tuple[int, ...]], ...]
    nvars: int

    def evaluate(self, values: Sequence[int]) -> int:
        if len(values) != self.nvars:
            raise InputError(f"expected {self.nvars} values")
        total = 0
        for coeff, exps in self.monomials:
            term = coeff
            for v, e in zip(values, exps):
                term *= v ** e
            total += term
        return total

    @property
    def monomial_degrees(self) -> tuple[int, ...]:
        return tuple(sum(exps) for _, exps in self.monomials)

    @property
    def degree(self) -> int:
        return max(self.monomial_degrees, default=0)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.monomial_degrees)) <= 1

    def __str__(self) -> str:
        parts = []
        for coeff, exps in sorted(self.monomials, key=lambda m: m[1],
                                  reverse=True):
            body = "*".join(
                f"{VARS[i]}^{e}" if e > 1 else VARS[i]
                for i, e in enumerate(exps) if e)
            mag = abs(coeff)
            head = "" if (mag == 1 and body) else str(mag)
            stars = "*" if head and body else ""
            parts.append(("-" if coeff < 0 else "+") + head + stars + body)
        text = "".join(parts) or "0"
        return text.lstrip("+")


_MONO = re.compile(r"^(\d+)?((?:\*?[xyzw](?:\^\d+)?)*)$")
_FACTOR = re.compile(r"([xyzw])(?:\^(\d+))?")


def parse_polynomial(text: str) -> Polynomial:
    """Parse monomials in x, y, z, w joined by + and -, e.g. x^2+y^2-z^2."""
    clean = text.replace(" ", "").replace("−", "-")
    if not clean:
        raise InputError("empty polynomial")
    if clean[0] not in "+-":
        clean = "+" + clean
    chunks = re.findall(r"[+-][^+-]+", clean)
    if "".join(chunks) != clean:
        raise InputError(f"cannot parse polynomial {text!r}")
    terms: dict[tuple[int, ...], int] = {}
    used = 0
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        m = _MONO.match(chunk[1:])
        if not m or not chunk[1:]:
            raise InputError(f"cannot parse monomial {chunk!r}")
        coeff = sign * parse_int(m.group(1) or "1", "a coefficient")
        exps = [0, 0, 0, 0]
        for var, power in _FACTOR.findall(m.group(2) or ""):
            idx = VARS.index(var)
            exps[idx] += parse_int(power or "1", "an exponent")
            if exps[idx] > MAX_EXPONENT:
                raise InputError(f"exponent-out-of-range: {var}^{exps[idx]} "
                                 f"> {MAX_EXPONENT} in {chunk!r}")
            used = max(used, idx + 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    nvars = max(used, 1)
    monos = tuple(sorted(
        (c, exps[:nvars]) for exps, c in terms.items() if c != 0))
    return Polynomial(monos, nvars)


def poly_indices(d_indices: Iterable[int], degree: int) -> tuple[int, ...]:
    """The coefficient indices D of a restricted-coefficient polynomial of
    degree at most `degree` <= MAX_EXPONENT, sorted and de-duplicated; the
    one check of D for the polynomial family, detector and pattern."""
    dset = tuple(sorted(set(d_indices)))
    if not dset:
        raise InputError("empty-D: need at least one coefficient index")
    if degree > MAX_EXPONENT:
        raise InputError(f"degree-out-of-range: {degree} > {MAX_EXPONENT}")
    if dset[0] < 0 or dset[-1] > degree:
        raise InputError(f"inconsistent-degree: D={list(dset)} vs degree {degree}")
    return dset


def degenerate(dset: Sequence[int], coeffs: Sequence[int]) -> bool:
    """A constant member of a family whose D reaches past the constant
    term; such families hold only genuine non-constant polynomials."""
    return dset[-1] >= 1 and all(c == 0 for i, c in zip(dset, coeffs) if i)


def poly_coefficients(dset: Sequence[int], values: Sequence[int],
                      total: int) -> Iterator[tuple[int, ...]]:
    """Coefficient vectors for the indices dset, each entry drawn from the
    ascending list values, with entry sum <= total (P(1) <= total), in
    ascending lexicographic order and without the degenerate constants."""

    def rec(pos: int, left: int, prefix: tuple[int, ...]):
        if pos == len(dset):
            if not degenerate(dset, prefix):
                yield prefix
            return
        for v in values:
            if v > left:
                break
            yield from rec(pos + 1, left - v, prefix + (v,))

    return rec(0, total, ())


# -- patterns ------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """A named instance matcher over initial segments [1..N].

    _between(lo, hi) yields the instances inside [1..hi] whose largest
    element is at least lo, before deduplication (the same for any larger
    hi): by largest element for AP, Schur and grids, else by filtering.
    """

    label: str
    _between: Callable[[int, int], Iterator[tuple[int, ...]]]

    def instances(self, n: int,
                  budget: int = DEFAULT_INSTANCE_BUDGET) -> list[tuple[int, ...]]:
        """All instances inside [1..n], as sorted tuples of distinct values,
        deduplicated and in lexicographic order.

        The enumerator is drawn from at most budget + 1 times, counting
        instances before deduplication, and one more than budget raises
        BudgetError, so the budget bounds the enumeration itself.
        """
        return self.draw(1, n, budget)[1]

    def draw(self, lo: int, hi: int, budget: int = DEFAULT_INSTANCE_BUDGET,
             drawn: int = 0) -> tuple[int, list[tuple[int, ...]]]:
        """(drawn plus the raw count of the instances whose largest element
        lies in [lo..hi], those instances sorted and deduplicated).  A total
        over budget raises at N = hi, so drawing [N..N] for N = 1, 2, ...
        with the total carried raises where instances(N, budget) would."""
        raw = list(islice(self._between(lo, hi), budget - drawn + 1))
        drawn += len(raw)
        if drawn > budget:
            raise BudgetError(f"pattern-instance-overflow: more than {budget} "
                              f"instances for {self.label} at N={hi}")
        return drawn, sorted(set(raw))


def ap_pattern(length: int) -> Pattern:
    """Arithmetic progressions of the given length, stride >= 1 (the
    degenerate stride-0 progression is excluded)."""
    if length < 2:
        raise InputError("AP pattern needs length >= 2")
    span = length - 1

    def between(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        for d in range(1, (hi - 1) // span + 1):
            a = lo - span * d  # the start whose last term is lo
            for a in range(a if a > 1 else 1, hi - span * d + 1):
                yield tuple(range(a, a + length * d, d))

    return Pattern(f"ap:{length}", between)


def schur_pattern() -> Pattern:
    """Triples {x, y, x+y}; x equal to y allowed."""

    def between(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        for x in range(1, hi // 2 + 1):
            if 2 * x >= lo:
                yield x, 2 * x
            for y in range(max(x + 1, lo - x), hi - x + 1):
                yield x, y, x + y

    return Pattern("schur", between)


def gap_grid_pattern(n_index: int, strict: bool = False) -> Pattern:
    """Zero-based geoarithmetic grids b q^j (a + i d), 0 <= i, j <= n_index,
    with q > 1 and d > 0 so the grid is never a single repeated point, and
    a >= 1, found by factoring the largest cell b q^n_index (a + n_index d).

    strict additionally requires q and d themselves in the same cell, the
    stronger form of the grid partition statement.
    """
    if n_index < 1:
        raise InputError("grid index bound must be >= 1 (0 is a single cell)")
    indices = range(n_index + 1)

    def between(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        for n in range(lo, hi + 1):
            for q in range(2, n + 1):
                rest, left = divmod(n, q ** n_index)  # b (a + n_index d)
                if not rest:
                    break
                if left:
                    continue
                for b in range(1, rest // (n_index + 1) + 1):
                    top, left = divmod(rest, b)  # a + n_index d
                    if left:
                        continue
                    for d in range(1, (top - 1) // n_index + 1):
                        a = top - n_index * d
                        inst = {b * q ** j * (a + i * d)
                                for i in indices for j in indices}
                        if strict:
                            inst |= {q, d}
                        yield tuple(sorted(inst))

    label = f"gap-grid:{n_index}" + (":strict" if strict else "")
    return Pattern(label, between)


def poly_progression_pattern(length: int, degree: int,
                             d_indices: Sequence[int]) -> Pattern:
    """Runs P(1), ..., P(length) of restricted-coefficient polynomials."""
    if length < 2:
        raise InputError("progression length must be >= 2")
    dset = poly_indices(d_indices, degree)

    def between(lo: int, n: int) -> Iterator[tuple[int, ...]]:
        # P(1) = sum of coefficients must land in [1..n]
        for coeffs in poly_coefficients(dset, range(n + 1), n):
            run = set()
            for x in range(1, length + 1):
                y = sum(c * x ** i for i, c in zip(dset, coeffs))
                if not 1 <= y <= n:
                    break
                run.add(y)
            else:
                if max(run) >= lo:
                    yield tuple(sorted(run))

    return Pattern(f"poly:{length}:{degree}:{','.join(map(str, dset))}",
                   between)


def equation_pattern(poly: Polynomial, distinct: bool = False) -> Pattern:
    """Solution sets of P(a_1, ..., a_v) = 0 with entries in [1..N].

    Variables may repeat values unless distinct is set; zero never occurs
    because the search range starts at 1.  The instance budget counts
    solutions, not candidate tuples.  An isolated variable (alone in its one
    monomial, like z in x^2+y^2-z^2) is read from a table of its values for
    each of the N^(v-1) values of the rest, evaluated a row at a time;
    otherwise P itself is evaluated in N^(v-1) rows of N values, so a sparse
    equation such as x*y-z*w costs N^v values whatever the budget.
    """
    if poly.nvars < 1:
        raise InputError("zero-variables: the equation needs a variable")

    def between(lo: int, n: int) -> Iterator[tuple[int, ...]]:
        for sol in _solutions(poly, range(1, n + 1)):
            if max(sol) >= lo and (not distinct or len(set(sol)) == len(sol)):
                yield tuple(sorted(set(sol)))

    label = f"equation:{poly}" + (":distinct" if distinct else "")
    return Pattern(label, between)


def _solutions(poly: Polynomial,
               domain: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Solutions of P = 0 with every entry in the ascending, distinct
    domain, in lexicographic order.

    When some variable v is isolated, i.e. occurs only in one monomial
    c*v^e that holds no other variable, v is read from the table
    {-c*z^e: [z, ...]} over the domain for each value of Q, the sum of the
    other monomials, else Q is P and the table {0: [()]}; Q is evaluated
    a row at a time (_row), over the last variable other than v.
    """
    vals = list(domain)
    k = _isolated_variable(poly)
    roots: dict[int, list[tuple[int, ...]]] = {}
    if k is None:
        k, rest, roots[0] = poly.nvars, poly.monomials, [()]  # v past the end
    else:
        c, exps = next(mono for mono in poly.monomials if mono[1][k])
        for z in vals:  # ascending, so each list of roots is too
            roots.setdefault(-c * z ** exps[k], []).append((z,))
        rest = [mono for mono in poly.monomials if not mono[1][k]]
    walked = poly.nvars - (k < poly.nvars)  # the variables other than v
    if not walked:  # Q is a constant
        yield from roots.get(sum(m[0] for m in rest), ())
        return
    inner = walked - 1 if k == walked else walked
    powers = {e: [v ** e for v in vals]
              for e in {0}.union(*(es for _, es in rest))}
    # a row holds one head when v is not last, else one head per value
    for _, outers in groupby(product(vals, repeat=walked - 1),
                             key=lambda outer: outer[:k]):
        block = []
        for outer in outers:
            point = outer + (1,)  # the row's slot and v's read 1, as 1 ** e
            row = _row(rest, point[:k] + (1,) + point[k:], inner, powers)
            for t in compress(range(len(row)), map(roots.__contains__, row)):
                walk = outer + (vals[t],)
                block += [walk[:k] + z + walk[k:] for z in roots[row[t]]]
        block.sort()
        yield from block


def _row(rest: Sequence[tuple[int, tuple[int, ...]]], point: tuple[int, ...],
         inner: int, powers: dict[int, list[int]]) -> list[int]:
    """The monomials of rest at point, slot inner running over the domain."""
    row: Iterable[int] = repeat(0, len(powers[0]))
    for coeff, exps in rest:
        for v, e in zip(point, exps):
            coeff *= v ** e
        row = map(add, row, map(coeff.__mul__, powers[exps[inner]]))
    return list(row)


def _isolated_variable(poly: Polynomial) -> int | None:
    """The last variable that occurs in exactly one monomial, alone there
    and with a nonzero coefficient."""
    for k in reversed(range(poly.nvars)):
        holders = [(c, exps) for c, exps in poly.monomials if exps[k]]
        if (len(holders) == 1 and holders[0][0]
                and sum(map(bool, holders[0][1])) == 1):
            return k
    return None


def parse_pattern(spec: str) -> Pattern:
    """CLI pattern syntax: ap:<l>, schur, gap-grid:<n>[:strict],
    poly:<l>:<d>:<D-comma-list>."""
    parts = spec.split(":")
    head = parts[0]
    if head == "ap" and len(parts) == 2:
        return ap_pattern(parse_int(parts[1], "ap:<l>"))
    if head == "schur" and len(parts) == 1:
        return schur_pattern()
    if head == "gap-grid" and len(parts) in (2, 3):
        strict = len(parts) == 3 and parts[2] == "strict"
        if len(parts) == 3 and not strict:
            raise InputError(f"unknown pattern flag {parts[2]!r}")
        return gap_grid_pattern(parse_int(parts[1], "gap-grid:<n>"), strict)
    if head == "poly" and len(parts) == 4:
        what = "poly:<l>:<d>:<D>"
        d_indices = [parse_int(x, what) for x in parts[3].split(",")]
        return poly_progression_pattern(parse_int(parts[1], what),
                                        parse_int(parts[2], what), d_indices)
    raise InputError(f"unknown pattern {spec!r}")


# -- coloring search -----------------------------------------------------------

@dataclass(frozen=True)
class ColoringCertificate:
    """Either an explicit pattern-avoiding coloring or an exhaustion record."""

    outcome: str  # avoiding | forced
    elements: tuple[int, ...]
    colors: tuple[int, ...] | None
    nodes: int
    exhaustive: bool
    pattern: str
    n: int
    r: int


def _backtrack(order: Sequence[int], instances: Iterable[tuple[int, ...]],
               r: int, node_budget: int) -> tuple[list[int] | None, int]:
    """Complete search for a coloring of the positions of order with no
    monochromatic instance: (the least one in the search order, or None when
    every coloring fails; the node count).

    A new color index is allowed only once all smaller ones are in use
    (color-relabeling symmetry), so no more colors than positions open.
    Each instance is stored at its last position as a bitmask of its other
    positions, and each color keeps the mask of the positions it holds: the
    instance is monochromatic in c exactly when m & held[c] == m.  The
    search runs on an explicit stack, one color cursor per position, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    bit_of = {v: 1 << p for p, v in enumerate(order)}
    by_last: list[list[int]] = [[] for _ in bit_of]
    for inst in instances:
        m = sum(map(bit_of.__getitem__, inst))  # distinct: sum is OR
        last = m.bit_length() - 1
        by_last[last].append(m ^ (1 << last))
    size = len(by_last)
    colors = [0] * size
    used = [0] * (size + 1)  # used[i]: colors in use on positions before i
    held = [0] * min(r, size)
    nodes = i = c = 0
    while i < size:
        u = used[i]
        top = u if u < r else r - 1
        ends_here = by_last[i]
        while c <= top:
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(f"budget-exceeded: {nodes} search nodes")
            mask = held[c]
            for m in ends_here:
                if m & mask == m:
                    break
            else:
                break
            c += 1
        if c <= top:  # c is free at i: assign it and go one deeper
            held[c] |= 1 << i
            colors[i] = c
            used[i + 1] = u + 1 if c == u else u
            i, c = i + 1, 0
        elif i == 0:
            break
        else:  # every color failed at i: retract i - 1, try its next one
            i -= 1
            c = colors[i]
            held[c] ^= 1 << i
            c += 1
    return (colors if i == size else None), nodes


class _ForwardCheck:
    """Complete search with forward checking over positions that may be
    appended between runs: the engine of ramsey_threshold.

    The variable order, ascending colors and color-relabeling symmetry
    breaking are _backtrack's, as is the explicit stack.  Each instance is
    filed under its second-largest position s, as the mask of its cells
    below s and the bit of its last position.  forb[c] masks the positions
    that coloring c would close an instance on.  Trying c at i is one node:
    it fails when forb[c] has i's bit, or, once all r colors are in use,
    when it adds to forb[c] a position that every other mask holds.  A
    success ORs those positions into forb[c] and saves the mask it replaced,
    which a retraction restores.  Cutting only prefixes with no avoiding
    extension, run() stops where _backtrack would, after fewer nodes.

    run() stops at the least coloring of every position and keeps its
    state.  Appended instances end at appended positions.  One filed under a
    colored position whose lower cells share its color joins that color's
    mask, and the saved mask of every later position of that color.  No
    prefix that sorts before that coloring gains an avoiding extension, so
    the next run() resumes from the coloring a fresh search stops at.

    _search stays on _backtrack (ROADMAP item 11): this engine with its
    wipeout test off matches it node for node but is slower at r = 2.
    """

    def __init__(self, r: int, node_budget: int):
        self.r = r
        self.node_budget = node_budget
        self.bit_of: dict[int, int] = {}
        self.filed: list[list[tuple[int, int]]] = []
        self.forb: list[int] = []
        self.saved: list[int] = []  # forb[colors[i]] before i took it
        self.colors: list[int] = []
        self.used = [0]  # used[i]: colors in use on positions before i
        self.held: list[int] = []
        self.nodes = 0
        self.i = self.c = 0

    def add(self, values: Iterable[int],
            instances: Iterable[tuple[int, ...]]) -> None:
        """Append positions for the values, in search order, then the
        instances, of two cells or more, each ending at a position appended."""
        bit_of, filed, forb, saved, colors, held, i = (
            self.bit_of, self.filed, self.forb, self.saved, self.colors,
            self.held, self.i)
        for v in values:
            bit_of[v] = 1 << len(colors)
            filed.append([])
            saved.append(0)
            colors.append(0)
            self.used.append(0)
        # no more colors open than positions: a huge r allocates no more
        held += [0] * (min(self.r, len(colors)) - len(held))
        forb += [0] * (len(held) - len(forb))
        for inst in instances:
            m = sum(map(bit_of.__getitem__, inst))  # distinct: sum is OR
            last = 1 << m.bit_length() - 1
            m ^= last
            s = m.bit_length() - 1
            m ^= 1 << s
            filed[s].append((m, last))
            c = colors[s]
            if s < i and m & held[c] == m:
                forb[c] |= last
                for t in range(s + 1, i):
                    if colors[t] == c:
                        saved[t] |= last

    def run(self) -> bool:
        """Resume the search: True once every position is colored, False
        when no coloring is left."""
        filed, forb, saved, colors, used, held = (
            self.filed, self.forb, self.saved, self.colors, self.used,
            self.held)
        r, node_budget, nodes = self.r, self.node_budget, self.nodes
        size = len(colors)
        i, c = self.i, self.c
        while i < size:
            u = used[i]
            top = u if u < r else r - 1
            below = filed[i]
            while c <= top:
                nodes += 1
                if nodes > node_budget:
                    raise BudgetError(f"budget-exceeded: {nodes} search nodes")
                f = forb[c]
                if not f >> i & 1:
                    h, hit = held[c], 0
                    for m, last in below:
                        if m & h == m:
                            hit |= last
                    forb[c] = f | hit
                    # with a color still unopened no later position fills up
                    if (not hit or u < r and c < r - 1
                            or not reduce(and_, forb, hit)):
                        saved[i] = f
                        break
                    forb[c] = f
                c += 1
            if c <= top:  # c holds at i: assign it and go one deeper
                held[c] |= 1 << i
                colors[i] = c
                used[i + 1] = u + 1 if c == u else u
                i, c = i + 1, 0
            elif i == 0:
                break
            else:  # every color failed at i: retract i - 1, try its next one
                i -= 1
                c = colors[i]
                held[c] ^= 1 << i
                forb[c] = saved[i]
                c += 1
        self.nodes, self.i, self.c = nodes, i, c
        return i == size


def _canonicalize(colors: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in colors)


def _search(elements: Sequence[int], pattern: Pattern, r: int,
            instance_budget: int, node_budget: int,
            reverse: bool) -> ColoringCertificate:
    """The coloring engine behind every partition-regularity search but the
    threshold scan: all r-colorings of the ascending elements, against the
    pattern's instances that lie inside them."""
    if r < 1 or not elements:
        raise InputError("need n >= 1 and r >= 1")
    if elements[0] < 1:
        raise InputError("pattern search elements must be >= 1")
    n = elements[-1]
    instances = pattern.instances(n, instance_budget)
    if len(elements) < n:  # a set with gaps keeps the instances inside it
        inside = set(elements)
        instances = [inst for inst in instances if inside.issuperset(inst)]
    colors, nodes = _backtrack(elements[::-1] if reverse else elements,
                               instances, r, node_budget)
    elements = tuple(elements)
    if colors is None:
        return ColoringCertificate("forced", elements, None, nodes, True,
                                   pattern.label, n, r)
    colors = colors[::-1] if reverse else colors
    return ColoringCertificate("avoiding", elements, _canonicalize(colors),
                               nodes, False, pattern.label, n, r)


def find_avoiding_coloring(n: int, r: int, pattern: Pattern,
                           instance_budget: int = DEFAULT_INSTANCE_BUDGET,
                           node_budget: int = DEFAULT_NODE_BUDGET,
                           reverse: bool = False) -> ColoringCertificate:
    """Search all r-colorings of [1..n] for one avoiding the pattern.

    Returns an explicit coloring (canonicalized; in forward order it is the
    lexicographically least canonical one) or a forced record backed by
    exhaustive search.  reverse flips the assignment order, which must not
    change the verdict.
    """
    return _search(range(1, n + 1), pattern, r, instance_budget, node_budget,
                   reverse)


def verify_coloring(cert: ColoringCertificate, pattern: Pattern) -> bool:
    """Independent full re-scan: no instance inside the colored set may be
    monochromatic.  Only meaningful for avoiding certificates."""
    if cert.outcome != "avoiding" or cert.colors is None:
        return False
    color = dict(zip(cert.elements, cert.colors))
    if any(c >= cert.r for c in cert.colors):
        return False
    eset = set(cert.elements)
    for inst in pattern.instances(max(cert.elements)):
        if all(v in eset for v in inst):
            if len({color[v] for v in inst}) == 1:
                return False
    return True


@dataclass(frozen=True)
class ThresholdResult:
    threshold: int | None  # least forced N, None if not reached
    nmax: int
    pattern: str
    r: int


def ramsey_threshold(pattern: Pattern, r: int, nmax: int,
                     instance_budget: int = DEFAULT_INSTANCE_BUDGET,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> ThresholdResult:
    """Least N <= nmax at which no avoiding coloring exists.

    Once some N is forced every larger N is too (its colorings restrict),
    so the scan stops at the first forced verdict.  One forward-checking
    search (_ForwardCheck) resumes across N: step N adds N and the
    instances whose largest element is N, and goes on from the lex-least
    avoiding coloring of [1..N-1], which step N-1 stopped at as a fresh
    search of [1..N-1] would.  node_budget bounds the nodes of the whole
    scan, which never outnumber those of find_avoiding_coloring(N), so the
    scan raises no earlier than a fresh search per N would.  Step N draws only
    the instances ending at N and counts instance_budget over [1..N], so it
    overflows at the N a fresh search would.
    """
    if nmax < 1:
        raise InputError("nmax must be >= 1")
    if r < 1:
        raise InputError("need n >= 1 and r >= 1")
    search, drawn = _ForwardCheck(r, node_budget), 0
    for n in range(1, nmax + 1):
        drawn, new = pattern.draw(n, n, instance_budget, drawn)
        if (n,) in new:  # n alone is an instance: no color is left for it
            return ThresholdResult(n, nmax, pattern.label, r)
        search.add([n], new)
        if not search.run():
            return ThresholdResult(n, nmax, pattern.label, r)
    return ThresholdResult(None, nmax, pattern.label, r)


def strong_pr_probe(a_values: Iterable[int], pattern: Pattern, r: int,
                    instance_budget: int = DEFAULT_INSTANCE_BUDGET,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    reverse: bool = False) -> ColoringCertificate:
    """Partition the explicit set A itself: forced when every r-partition of
    A leaves a monochromatic instance inside A, else an avoiding partition."""
    return _search(tuple(sorted(set(a_values))), pattern, r, instance_budget,
                   node_budget, reverse)


# -- homogeneous equations -----------------------------------------------------

def homogeneous_pr_check(poly: Polynomial, r: int, n: int,
                         distinct: bool = False, strict: bool = True,
                         instance_budget: int = DEFAULT_INSTANCE_BUDGET,
                         node_budget: int = DEFAULT_NODE_BUDGET
                         ) -> ColoringCertificate:
    """Homogeneity check followed by the avoiding-coloring search for the
    equation pattern of P = 0 over [1..n].

    strict mode rejects non-homogeneous polynomials outright; otherwise the
    search still runs, and the caller reads poly.is_homogeneous.
    """
    pattern = equation_pattern(poly, distinct)
    if strict and not poly.is_homogeneous:
        raise InputError(f"non-homogeneous-rejected: degrees "
                         f"{tuple(sorted(set(poly.monomial_degrees)))}")
    return find_avoiding_coloring(n, r, pattern, instance_budget, node_budget)
