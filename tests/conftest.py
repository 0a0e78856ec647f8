"""Shared independent oracles for cross-checking the fast implementations.

Everything here is deliberately naive: plain loops over the raw definitions,
no reuse of the library's parameter derivations or detectors.
"""

from __future__ import annotations

import os

from hypothesis import settings

# pyproject's pythonpath puts src/ on this process's path; the CLI tests
# that spawn `python -m finembed` need it on the children's path as well.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("ci", settings(max_examples=200, deadline=None))
settings.register_profile("dev", settings(max_examples=60, deadline=None))
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "dev"))


def brute_longest_ap(values: set[int], bound: int) -> int:
    """Max AP length inside values, by walking every (start, stride) pair."""
    if not values:
        return 0
    best = 1
    for a in values:
        for d in range(1, bound + 1):
            length, x = 0, a
            while x <= bound and x in values:
                length += 1
                x += d
            if length > best:
                best = length
    return best


def brute_longest_gap_grid(values: set[int], bound: int) -> tuple:
    """(k, params, realized) for the largest one-based grid r^i (a + j b),
    1 <= i, j <= k, inside values, by trying every (r, a, b, k) from scratch.

    params = (r, a, b) is the first best in the order r, then b, then a;
    realized lists the cells row-major in i.  (0, (), ()) when no cell fits.
    """
    best, params = 0, ()
    for r in range(2, bound + 1):
        top = bound // r
        for b in range(1, top + 1):
            for a in range(0, top - b + 1):
                k = 1
                while True:
                    ok = all(
                        r ** i * (a + j * b) <= bound
                        and r ** i * (a + j * b) in values
                        for i in range(1, k + 1) for j in range(1, k + 1))
                    if not ok:
                        break
                    if k > best:
                        best, params = k, (r, a, b)
                    k += 1
    if not best:
        return 0, (), ()
    r, a, b = params
    return best, params, tuple(r ** i * (a + j * b) for i in range(1, best + 1)
                               for j in range(1, best + 1))


def blind_translation_scan(f_vals, b_vals: set[int], bound: int,
                           additive: bool, window_bound: int):
    """First r <= bound with every f * r inside b_vals, by direct arithmetic."""
    lo = 0 if additive else 1
    for r in range(lo, bound + 1):
        ok = True
        for f in f_vals:
            y = f + r if additive else f * r
            if y > window_bound or y not in b_vals:
                ok = False
                break
        if ok:
            return (r,)
    return None


def blind_affine_scan(f_vals, b_vals: set[int], bound: int,
                      window_bound: int):
    """First (a, b) with a, b <= bound, b >= 1, mapping every f to b_vals."""
    for a in range(bound + 1):
        for b in range(1, bound + 1):
            ok = True
            for f in f_vals:
                y = a + b * f
                if y > window_bound or y not in b_vals:
                    ok = False
                    break
            if ok:
                return (a, b)
    return None


def brute_instances_ap(length: int, n: int) -> list[tuple[int, ...]]:
    """One instance per (start, stride >= 1), before deduplication."""
    out = []
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            vals = [a + i * d for i in range(length)]
            if vals[-1] <= n:
                out.append(tuple(vals))
    return out


def brute_instances_schur(n: int) -> list[tuple[int, ...]]:
    """One instance per pair x <= y, before deduplication."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x + y <= n:
                out.append(tuple(sorted({x, y, x + y})))
    return out


def brute_instances_gap_grid(n_index: int, n: int,
                             strict: bool = False) -> list[tuple[int, ...]]:
    """One instance per grid b q^j (a + i d), 0 <= i, j <= n_index, inside
    [1..n] (q >= 2, b, d >= 1, a >= 0 with every cell >= 1), before
    deduplication: the nested-loop enumerator the grid pattern used to run,
    walking q, b, d and a upward until the largest cell passes n."""
    out = []
    qtop = n_index  # exponent of the largest power-of-q cell
    for q in range(2, n + 1):
        if q ** qtop > n:
            break
        for b in range(1, n + 1):
            if b * q ** qtop > n:  # the (0, qtop) cell needs a >= 1
                break
            for d in range(1, n + 1):
                if b * q ** qtop * n_index * d > n:  # (qtop, qtop) cell
                    break
                for a in range(0, n + 1):
                    cells = [b * q ** j * (a + i * d)
                             for i in range(n_index + 1)
                             for j in range(n_index + 1)]
                    if max(cells) > n:
                        break
                    if min(cells) < 1:
                        continue
                    inst = set(cells)
                    if strict:
                        inst |= {q, d}
                    out.append(tuple(sorted(inst)))
    return out


def brute_instances_equation(poly, n: int,
                             distinct: bool = False) -> set[tuple[int, ...]]:
    import itertools
    out = set()
    for tup in itertools.product(range(1, n + 1), repeat=poly.nvars):
        if poly.evaluate(tup) == 0:
            if distinct and len(set(tup)) != len(tup):
                continue
            out.add(tuple(sorted(set(tup))))
    return out


def count_shifted_intersection(a_set, window, fn, shift) -> int:
    """|A n (F_n . x)| by elementwise application of the window operation."""
    count = 0
    for v in fn:
        y = v if shift is None else window.op_payload(v, shift)
        if y is not None and a_set.contains_value(y):
            count += 1
    return count


def reference_backtrack(elements, r, instances, node_budget, reverse):
    """Pre-change reference for prsearch._backtrack: the recursive search
    that rescans every instance ending at the current position with a
    generator, kept verbatim so the bitmask kernel can be compared with it
    node for node (same colors, same node count, same budget error)."""
    from finembed.errors import BudgetError
    order = list(elements)
    if reverse:
        order.reverse()
    pos_of = {v: i for i, v in enumerate(order)}
    by_last = [[] for _ in order]
    for inst in instances:
        poss = sorted(pos_of[v] for v in inst)
        by_last[poss[-1]].append(tuple(poss))
    colors = [-1] * len(order)
    nodes = 0

    def rec(i, used):
        nonlocal nodes
        if i == len(order):
            return True
        for c in range(min(r - 1, used) + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(f"budget-exceeded: {nodes} search nodes")
            colors[i] = c
            if not any(all(colors[p] == c for p in ps) for ps in by_last[i]):
                if rec(i + 1, max(used, c + 1)):
                    return True
        colors[i] = -1
        return False

    if rec(0, 0):
        by_element = [colors[pos_of[v]] for v in elements]
        return by_element, nodes
    return None, nodes


def reference_tail_report(best, skipped, tail_start, label):
    """Pre-change reference for density._tail_report: one witness per tail,
    built tail by tail from the per-index best (count, |F_n|, shift) tuples,
    kept verbatim but for returning its fields as a namespace."""
    from fractions import Fraction
    from types import SimpleNamespace

    from finembed.density import TailWitness
    witnesses = []
    top = ()  # count, |F_n|, n, shift, ratio
    for m in range(len(best), tail_start - 1, -1):
        count, size, shift = best[m - 1]
        if not top or count * top[1] > top[0] * size:
            top = (count, size, m, shift, Fraction(count, size))
        witnesses.append(TailWitness(m, *top[2:]))
    witnesses.reverse()
    return SimpleNamespace(value=witnesses[-1].ratio,
                           witnesses=tuple(witnesses), tail_start=tail_start,
                           skipped_shifts=skipped, net_label=label)


def reference_density_json(report) -> dict:
    """Pre-change reference for jsonio.density_report_to_json: one dict per
    tail witness, each ratio converted on its own."""
    from finembed.jsonio import rational
    return {
        "value": rational(report.value),
        "tail_start": report.tail_start,
        "net": report.net_label,
        "skipped_shifts": report.skipped_shifts,
        "witnesses": [
            {
                "tail": w.tail,
                "n": w.n,
                "shift": "1" if w.shift is None else w.shift,
                "ratio": rational(w.ratio),
            }
            for w in report.witnesses
        ],
    }


def reference_certificate_json(cert) -> dict:
    """Pre-change reference for jsonio.certificate_to_json: realized as a
    plain list, for json.dumps to encode element by element."""
    out = {
        "kind": cert.kind,
        "params": list(cert.params),
        "realized": list(cert.realized),
        "length": cert.length,
    }
    if cert.indexing:
        out["indexing"] = cert.indexing
    return out


def reference_word_translations(w0: str, B, right: bool):
    """Pre-change reference for the anchored translation list on word
    windows: each member b of B, decoded to its string, solved for r with
    w0 r = b (right) or r w0 = b (left) by comparing letters."""
    cands = []
    for b in B.values():
        if b == w0:
            continue
        if right and b.startswith(w0):
            cands.append((b[len(w0):],))
        elif not right and b.endswith(w0):
            cands.append((b[:-len(w0)],))
    return cands


def reference_word_suffix(w0: str, letter: str, B):
    """Pre-change reference for the anchored word-suffix list: each member
    b of B that is w0 followed by letters `letter` only gives (j,)."""
    cands = []
    for b in B.values():
        if b == w0:
            cands.append((0,))
        elif b.startswith(w0) and set(b[len(w0):]) == {letter}:
            cands.append((len(b) - len(w0),))
    return cands


def reference_table_translations(window, w0, B, right: bool):
    """Pre-change reference for the anchored translation list on table
    windows: for each member b of B, every r with w0 r = b (right) or
    r w0 = b (left), one scan of the window per member."""
    return [(r,) for b in B.values() for r in window.payloads()
            if (window.op_payload(w0, r) if right
                else window.op_payload(r, w0)) == b]


def reference_affine_candidates(fpay, B):
    """Pre-change reference for the anchored affine list with two anchors:
    every ordered pair (b1, b2) of members solved for the map sending the
    two least points of F to them, kept when the slope is a positive integer
    and the intercept non-negative, then sorted."""
    f1, f2 = sorted(set(fpay))[:2]
    cands = []
    for b1 in B.values():
        for b2 in B.values():
            num = b2 - b1
            if num > 0 and num % (f2 - f1) == 0:
                slope = num // (f2 - f1)
                if b1 - slope * f1 >= 0:
                    cands.append((b1 - slope * f1, slope))
    return sorted(cands)


def reference_maximality_probe(A, family, sizes):
    """The window-prefix loop that maximality_probe replaced: for each size
    p, embed the first p elements of the window, in encoding order, into A."""
    from finembed.embed import embed_finite
    win = A.window
    return [(p, embed_finite([win.payload(e) for e in range(p)], A, family))
            for p in sizes]
