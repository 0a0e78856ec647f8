"""Independent answer checks for the benchmark.

Every output the program prints is re-checked here from its JSON form:

  yes witnesses          finembed.verify_witness on freshly built sets
  progression certs      finembed.verify_certificate
  avoiding colorings     finembed.verify_coloring
  density witnesses      direct recount against a membership array
  complete "no" answers  a blind scan over every parameter in the window
  forced / thresholds    known values, or a blind scan over all colorings
  shift probes           a blind scan for the first valid shift

Membership is evaluated from the set's JSON description by this module's own
predicate evaluator, not by the program's.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from finembed import (ColoringCertificate, EmbedWitness, ProgressionCertificate,
                      jsonio, parse_pattern, verify_certificate, verify_coloring,
                      verify_witness)

# Least N at which every r-coloring of [1..N] has a monochromatic instance.
# ap:3/ap:4 are van der Waerden numbers, schur is S(r)+1; gap-grid:1 with two
# colors was computed by exhaustive search and is cross-checked below by an
# avoiding coloring at N-1.
KNOWN_THRESHOLDS = {
    ("ap:3", 2): 9, ("ap:3", 3): 27, ("ap:4", 2): 35,
    ("schur", 2): 5, ("schur", 3): 14, ("gap-grid:1", 2): 24,
}


class CheckError(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# -- membership -------------------------------------------------------------

def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _sieve(top: int) -> np.ndarray:
    is_p = np.ones(top + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return is_p


def predicate_array(spec: str, top: int) -> np.ndarray:
    """mem[v] for v in 0..top under the JSON set format's predicate language."""
    spec = spec.strip()
    for comb, fold in (("union", np.logical_or), ("intersect", np.logical_and)):
        if spec.startswith(comb + "(") and spec.endswith(")"):
            subs = [predicate_array(p, top) for p in _split_top(spec[len(comb) + 1:-1])]
            return fold.reduce(subs)
    v = np.arange(top + 1)
    head, *args = [s.strip() for s in spec.split(":")]
    if head == "evens":
        return v % 2 == 0
    if head == "odds":
        return v % 2 == 1
    if head == "multiples":
        return v % int(args[0]) == 0
    if head == "interval":
        return (v >= int(args[0])) & (v <= int(args[1]))
    if head == "primes":
        return _sieve(top)
    if head == "squares":
        return np.isin(v, np.arange(math.isqrt(top) + 1) ** 2)
    if head == "all":
        return np.ones(top + 1, dtype=bool)
    raise ValueError(f"unknown predicate {spec!r}")


class Members:
    """Membership of one set file, evaluated independently of finembed."""

    def __init__(self, set_obj: dict):
        win = set_obj["window"]
        self.kind, self.bound = win["kind"], win["bound"]
        self.alphabet = win.get("alphabet")
        body = set_obj["set"]
        if self.kind == "free-words":
            self.words = frozenset(body["explicit"])
            self.arr = None
            return
        top = self.bound
        if "explicit" in body:
            arr = np.zeros(top + 1, dtype=bool)
            arr[list(body["explicit"])] = True
        else:
            arr = predicate_array(body["predicate"], top)
        if self.kind == "multiplicative-naturals":
            arr = arr.copy()
            arr[0] = False
        self.arr = arr

    def __contains__(self, v) -> bool:
        if self.arr is None:
            return v in self.words
        return isinstance(v, int) and 0 <= v <= self.bound and bool(self.arr[v])

    def payloads(self) -> list:
        """The window's elements in canonical order."""
        if self.kind == "additive-naturals":
            return list(range(self.bound + 1))
        if self.kind == "multiplicative-naturals":
            return list(range(1, self.bound + 1))
        return [("".join(w)) for n in range(1, self.bound + 1)
                for w in itertools.product(self.alphabet, repeat=n)]

    def members(self) -> list:
        if self.arr is None:
            return [w for w in self.payloads() if w in self.words]
        return [v for v in self.payloads() if self.arr[v]]

    def op(self, x, y):
        """Window product, or None on overflow."""
        if self.kind == "additive-naturals":
            z = x + y
            return z if z <= self.bound else None
        if self.kind == "multiplicative-naturals":
            z = x * y
            return z if z <= self.bound else None
        z = x + y
        return z if len(z) <= self.bound else None


# -- embeddability ------------------------------------------------------------

def _blind_has_member(F: list, B: Members, family: dict) -> bool:
    """Does any family member map F into B?  Scans every parameter whose
    image can stay in the window."""
    name = family["builtin"]
    if name == "affine":
        arr, W = B.arr, B.bound
        lo, hi = min(F), max(F)
        if hi == lo:  # a single point x: slope 1 reaches every member >= x
            return bool(arr[lo:].any())
        for b in range(1, W // hi + 1):
            n = W - b * hi + 1  # intercepts a = 0..W - b*hi
            ok = np.ones(n, dtype=bool)
            for f in F:
                ok &= arr[b * f: b * f + n]
            if ok.any():
                return True
        return False
    if name in ("translations-right", "translations-left"):
        if B.kind == "additive-naturals":
            W = B.bound
            n = W - max(F) + 1
            ok = np.ones(max(n, 0), dtype=bool)
            for f in F:
                ok &= B.arr[f: f + n]
            return bool(ok.any())
        right = name == "translations-right"
        for r in B.payloads():
            prods = [B.op(f, r) if right else B.op(r, f) for f in F]
            if all(p is not None and p in B for p in prods):
                return True
        return False
    if name == "word-suffix":
        letter = family["args"]["letter"]
        return any(all(len(f) + j <= B.bound and f + letter * j in B for f in F)
                   for j in range(B.bound + 1))
    raise CheckError(f"no blind scan for family {name!r}")


def check_verdict(verdict: dict, F: list, b_obj: dict, family_obj: dict,
                  B: Members) -> None:
    """A yes re-verifies through verify_witness, a no must survive a blind
    scan, and unknown is never acceptable for these complete families."""
    if verdict["outcome"] == "yes":
        w = verdict["witness"]
        require(list(w["F"]) == list(F), "witness F is not the queried set")
        ground = jsonio.ground_set_from_json(b_obj)
        family = jsonio.family_from_json(family_obj, ground.window)
        witness = EmbedWitness(tuple(w["F"]), tuple(w["params"]), tuple(w["image"]))
        require(verify_witness(witness, ground, family), "witness fails verify_witness")
        require(all(v in B for v in w["image"]), "witness image leaves B")
    elif verdict["outcome"] == "no":
        require(verdict["complete"], "no from an incomplete stream")
        require(not _blind_has_member(F, B, family_obj), "blind scan finds a witness")
    else:
        raise CheckError(f"unexpected outcome {verdict['outcome']!r}")


def check_decide(out: dict, a_obj: dict, b_obj: dict, family_obj: dict) -> None:
    F = sorted(a_obj["set"]["explicit"], key=Members(a_obj).payloads().index) \
        if a_obj["window"]["kind"] == "free-words" else sorted(a_obj["set"]["explicit"])
    check_verdict(out, F, b_obj, family_obj, Members(b_obj))


def check_probe(out: dict, a_obj: dict, b_obj: dict, family_obj: dict,
                sizes: list[int]) -> None:
    A, B = Members(a_obj), Members(b_obj)
    members = A.members()
    require([p["size"] for p in out["probes"]] == sizes, "probe sizes differ")
    outcomes = []
    for probe in out["probes"]:
        F = members[:probe["size"]]
        require(probe["F"] == F, "probe F is not the canonical prefix of A")
        check_verdict(probe["verdict"], F, b_obj, family_obj, B)
        outcomes.append(probe["verdict"]["outcome"])
    want = ("refuted" if "no" in outcomes else
            "supported" if all(o == "yes" for o in outcomes) else "inconclusive")
    require(out["overall"] == want, "overall does not match the probes")


# -- richness -------------------------------------------------------------------

def check_certificate(out: dict, set_obj: dict, min_length: int = 1) -> None:
    cert = ProgressionCertificate(out["kind"], tuple(out["params"]),
                                  tuple(out["realized"]), out["length"],
                                  out.get("indexing", ""))
    require(verify_certificate(cert, jsonio.ground_set_from_json(set_obj)),
            "certificate fails verify_certificate")
    A = Members(set_obj)
    require(all(v in A for v in out["realized"]), "certificate leaves the set")
    require(out["length"] >= min_length, "progression shorter than known")


def _first_thick_shift(A: Members, L: int):
    F = A.payloads()[:L + 1]
    if A.kind == "additive-naturals":
        n = A.bound - L + 1
        ok = np.ones(max(n, 0), dtype=bool)
        for f in F:
            ok &= A.arr[f: f + n]
        hits = np.flatnonzero(ok)
        return int(hits[0]) if hits.size else None
    for s in A.payloads():
        prods = [A.op(f, s) for f in F]
        if all(p is not None and p in A for p in prods):
            return s
    return None


def _first_ps_start(A: Members, g: int, L: int):
    W = A.bound
    if A.kind == "additive-naturals":
        need = L - g + 1
        if need <= 0:
            return 0
        cs = np.concatenate([[0], np.cumsum(A.arr)])
        u = np.arange(W - g + 2)
        covered = cs[np.minimum(u + g, W + 1)] - cs[u] > 0
        run = 0
        for i, c in enumerate(covered.tolist()):
            run = run + 1 if c else 0
            if run >= need:
                return i - need + 1
        return None
    cs = np.concatenate([[0], np.cumsum(A.arr)])

    def covered(u: int) -> bool:
        return cs[min(u * g, W) + 1] - cs[u] > 0

    for t in range(1, W // L + 1):
        if all(covered(u) for u in range(t, (t * L) // g + 1)):
            return t
    return None


def check_shift_report(out: dict, set_obj: dict, kind: str, lengths: list[int],
                       gap: int = 0) -> None:
    """Every probe's shift must be the first valid one; a miss must have none."""
    A = Members(set_obj)
    require(out["kind"] == kind, "wrong report kind")
    require([p["length"] for p in out["probes"]] == lengths, "probe lengths differ")
    for p in out["probes"]:
        first = (_first_thick_shift(A, p["length"]) if kind == "thick"
                 else _first_ps_start(A, gap, p["length"]))
        require(p["found"] == (first is not None), "found flag wrong")
        require(p["shift"] == first, f"shift {p['shift']} is not the first ({first})")
    require(out["all_found"] == all(p["found"] for p in out["probes"]),
            "all_found wrong")


# -- density ----------------------------------------------------------------------

def _ratio(text: str):
    num, den = text.split("/")
    return int(num), int(den)


def check_density(out: dict, set_obj: dict, net_max: int) -> None:
    """Recount |A n F_n . shift| for every tail witness of an interval net."""
    A = Members(set_obj)
    cs = np.concatenate([[0], np.cumsum(A.arr)])
    require(len(out["witnesses"]) == net_max - out["tail_start"] + 1,
            "witness count")
    best = None
    for w in out["witnesses"]:
        n, shift = w["n"], w["shift"]
        require(w["tail"] <= n <= net_max, "witness index outside its tail")
        if A.kind == "additive-naturals":
            x = 0 if shift == "1" else shift
            require(n + x <= A.bound, "witness interval leaves the window")
            count = int(cs[n + x + 1] - cs[1 + x])
        else:
            x = 1 if shift == "1" else shift
            require(n * x <= A.bound, "witness interval leaves the window")
            count = sum(1 for k in range(1, n + 1) if k * x in A)
        r = w["ratio"]
        num, den = (r, 1) if isinstance(r, int) else _ratio(r)
        require(count * den == num * n, f"recount {count}/{n} != {r}")
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    v = out["value"]
    vn, vd = (v, 1) if isinstance(v, int) else _ratio(v)
    require(vn * best[1] == best[0] * vd, "value is not the least tail ratio")


# -- partition regularity ---------------------------------------------------------

def _pattern_instances(spec: str, n: int) -> list[tuple[int, ...]]:
    """Instances in [1..n], enumerated here for the blind coloring scan."""
    head, *args = spec.split(":")
    if head == "ap":
        k = int(args[0])
        return [tuple(a + i * d for i in range(k))
                for d in range(1, n // (k - 1) + 1)
                for a in range(1, n - (k - 1) * d + 1)]
    if head == "schur":
        return [tuple(sorted({x, y, x + y}))
                for x in range(1, n + 1) for y in range(x, n - x + 1)]
    raise CheckError(f"no blind scan for pattern {spec!r}")


def blind_forced(spec: str, n: int, r: int) -> bool:
    """Exhaustive: does every r-coloring of [1..n] hold a monochromatic
    instance?  Only for small n."""
    insts = _pattern_instances(spec, n)
    for rest in itertools.product(range(r), repeat=n - 1):
        colors = (0,) + rest
        if not any(len({colors[v - 1] for v in inst}) == 1 for inst in insts):
            return False
    return True


def check_coloring(out: dict, spec: str, n: int, r: int, pattern=None) -> None:
    require(out["N"] == n and out["colors"] == r, "N or colors differ")
    require(out["elements"] == list(range(1, n + 1)), "elements differ")
    known = KNOWN_THRESHOLDS.get((spec, r))
    if out["outcome"] == "avoiding":
        cert = ColoringCertificate("avoiding", tuple(out["elements"]),
                                   tuple(out["coloring"]), out["nodes"],
                                   out["exhaustive"], out["pattern"], n, r)
        require(verify_coloring(cert, pattern or parse_pattern(spec)),
                "coloring fails verify_coloring")
        require(known is None or n < known, "avoiding at or past the known threshold")
    elif out["outcome"] == "forced":
        require(out["exhaustive"] and out["coloring"] is None, "forced without exhaustion")
        if known is not None:
            require(n >= known, "forced below the known threshold")
        else:
            require(n <= 14 and blind_forced(spec, n, r), "forced fails the blind scan")
    else:
        raise CheckError(f"unexpected outcome {out['outcome']!r}")


def check_threshold(out: dict, spec: str, r: int, nmax: int) -> None:
    require(out["pattern"] == spec and out["colors"] == r and out["nmax"] == nmax,
            "threshold header differs")
    require(out["threshold"] == KNOWN_THRESHOLDS[(spec, r)],
            f"threshold {out['threshold']} differs from the known value")


def parse(text: str) -> dict:
    return json.loads(text)
