"""Deciding finite embeddability between window sets, with witnesses.

A set A embeds into B over a family when every finite F inside A admits some
family member mapping F^n into B.  For explicit finite A the single query
F = A settles the whole relation (images of subsets are subsets of images),
so the decision procedure is: stream candidate parameters for (F, B), verify
each by direct evaluation, and report the first witness in stream order.
Families with a kernel (translations on the numeric carriers, affine maps)
jump straight to that witness and count the candidates before it.

Verdicts are three-valued: "no" is reserved for exhausted *complete* streams,
bounded scans that find nothing return "unknown", and a bounded scan that
would examine more than _MAX_SCAN parameters raises BudgetError instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .carrier import GroundSet, Payload
from .errors import (BudgetError, InputError, UnionEmbeddingError,
                     UnverifiedPairError)
from .families import FamilySpec, Params

# n >= 2 image computation enumerates |F|^n tuples; cap |F| to keep that sane.
DEFAULT_TUPLE_CAP = 12

# Parameters a bounded (incomplete) scan examines before BudgetError;
# complete streams are bounded by their own candidate lists.
_MAX_SCAN = 1 << 23

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class EmbedWitness:
    """The finite set, the parameters, and the verified image inside B."""

    F: tuple[Payload, ...]
    params: Params
    image: tuple[Payload, ...]


@dataclass(frozen=True)
class SearchStats:
    params_examined: int
    complete: bool


@dataclass(frozen=True)
class EmbedVerdict:
    outcome: str  # yes | no | unknown
    witness: EmbedWitness | None
    stats: SearchStats

    def __bool__(self) -> bool:
        return self.outcome == YES


def image_of(family: FamilySpec, params: Params,
             fpay: Sequence[Payload]) -> tuple[Payload, ...] | None:
    """f_params(F^n) as a sorted payload tuple, or None if any value
    overflows the window."""
    out = set()
    for tup in itertools.product(fpay, repeat=family.arity):
        y = family.g(tup, params)
        if y is None:
            return None
        out.add(y)
    return tuple(sorted(out, key=family.window.sort_key))


def embed_finite(F: Iterable[Payload], B: GroundSet, family: FamilySpec,
                 bound: int | None = None) -> EmbedVerdict:
    """Is there a family member mapping F^n into B?

    The reported witness is the first one in the family's canonical
    parameter enumeration order, making results deterministic.
    """
    fpay = family._normalize_f(F)
    if family.arity >= 2 and len(fpay) > DEFAULT_TUPLE_CAP:
        raise InputError(
            f"|F|={len(fpay)} exceeds the tuple cap {DEFAULT_TUPLE_CAP} for "
            f"arity {family.arity}: |F|^{family.arity} tuples per candidate")
    tuples = list(itertools.product(fpay, repeat=family.arity))

    def image_in_b(params: Params) -> tuple[Payload, ...] | None:
        image = set()
        for tup in tuples:
            y = family.g(tup, params)
            if y is None or not B.contains_value(y):
                return None
            image.add(y)
        return tuple(sorted(image, key=family.window.sort_key))

    # A kernel, where the family has one, finds the same canonical
    # witness and count as walking the anchored list below; its witness is
    # still checked by direct evaluation.
    found = family._anchored_search(fpay, B)
    if found is not None:
        params, examined = found
        stats = SearchStats(examined, True)
        if params is None:
            return EmbedVerdict(NO, None, stats)
        image = image_in_b(params)
        if image is None:
            raise RuntimeError(
                f"{family.name} kernel returned {params!r}, which does not "
                f"map {fpay!r} into {B.label!r}")
        return EmbedVerdict(YES, EmbedWitness(fpay, params, image), stats)
    stream = family.enumerate_params(fpay, B, bound)
    examined, budget = 0, None if stream.complete else _MAX_SCAN
    for params in stream.params:
        if examined == budget:
            raise BudgetError(f"budget-exceeded: more than {_MAX_SCAN} "
                              "parameters scanned")
        examined += 1
        image = image_in_b(params)
        if image is not None:
            witness = EmbedWitness(fpay, params, image)
            return EmbedVerdict(YES, witness, SearchStats(examined, stream.complete))
    outcome = NO if stream.complete else UNKNOWN
    return EmbedVerdict(outcome, None, SearchStats(examined, stream.complete))


def fe_decide(A: GroundSet, B: GroundSet, family: FamilySpec,
              bound: int | None = None) -> EmbedVerdict:
    """Decide A <=_family B for an explicit finite A.

    F = A is the hardest finite subset: any f with f(A^n) inside B also maps
    every smaller F^n inside B.
    """
    if not A.explicit:
        raise InputError("A-not-explicit: fe_decide needs an explicit finite set")
    avals = list(A.values())
    if not avals:
        raise InputError("A must be non-empty")
    return embed_finite(avals, B, family, bound)


def verify_witness(witness: EmbedWitness, B: GroundSet,
                   family: FamilySpec) -> bool:
    """Re-check a witness by direct evaluation and membership queries."""
    if not family.r_accepts(witness.params):
        return False
    img = image_of(family, witness.params, witness.F)
    if img is None or set(img) != set(witness.image):
        return False
    return all(B.contains_value(y) for y in img)


# -- probing predicate sets ---------------------------------------------------

@dataclass(frozen=True)
class ProbeEntry:
    size: int
    F: tuple[Payload, ...]
    verdict: EmbedVerdict


@dataclass(frozen=True)
class ProbeReport:
    entries: tuple[ProbeEntry, ...]

    @property
    def refutation(self) -> ProbeEntry | None:
        return next((e for e in self.entries if e.verdict.outcome == NO), None)

    @property
    def overall(self) -> str:
        if self.refutation is not None:
            return "refuted"
        if all(e.verdict.outcome == YES for e in self.entries):
            return "supported"
        return "inconclusive"


def check_probe_sizes(probe_sizes: Sequence[int]) -> list[int]:
    """probe_sizes as a list, which must be non-empty, ascending and
    positive."""
    sizes = list(probe_sizes)
    if not sizes or sizes != sorted(sizes) or sizes[0] < 1:
        raise InputError("probe sizes must be a non-empty ascending list "
                         "of positive integers")
    return sizes


def fe_probe(A: GroundSet, B: GroundSet, family: FamilySpec,
             probe_sizes: Sequence[int], bound: int | None = None
             ) -> ProbeReport:
    """Probe A <=_family B through canonical-order prefixes of A.

    A "no" at any probe is a witnessed counterexample to the whole relation;
    all-yes is evidence only, since larger finite subsets remain unchecked.
    Every probe size must be at most |A|.
    """
    probe_sizes = check_probe_sizes(probe_sizes)
    pool = tuple(itertools.islice(A.values(), probe_sizes[-1]))
    if not pool:
        raise InputError("A-empty: nothing to probe")
    if len(pool) < probe_sizes[-1]:
        p = next(p for p in probe_sizes if p > len(pool))
        raise InputError(f"A-too-small: probe size {p} exceeds |A| = "
                         f"{len(pool)}")
    return ProbeReport(tuple(
        ProbeEntry(p, pool[:p], embed_finite(pool[:p], B, family, bound))
        for p in probe_sizes))


# -- structural criteria ------------------------------------------------------

@dataclass(frozen=True)
class UnionSplitResult:
    index: int  # 1-based, matching the "some i <= k" reading
    verdict: EmbedVerdict
    per_family: tuple[str, ...]


def check_union_split(A: GroundSet, B: GroundSet,
                      families: Sequence[FamilySpec]) -> UnionSplitResult:
    """Find one family of the union that already embeds A into B.

    For explicit finite A the union relation holds iff some single family
    embeds it, so the index always exists when the precondition does.
    Families are tried in order and the scan stops at the first success;
    later families are reported as "skipped".
    """
    outcomes: list[str] = []
    for i, fam in enumerate(families):
        v = fe_decide(A, B, fam)
        outcomes.append(v.outcome)
        if v.outcome == YES:
            outcomes.extend("skipped" for _ in families[i + 1:])
            return UnionSplitResult(i + 1, v, tuple(outcomes))
    raise UnionEmbeddingError(
        f"union-embedding-fails: per-family outcomes {tuple(outcomes)}")


@dataclass(frozen=True)
class CriterionEntry:
    F: tuple[Payload, ...]
    f_params: Params | None
    g_params: Params | None
    status: str  # satisfied | violated | unknown | skipped-overflow
    h_params: Params | None


# The criterion status of each embed outcome.
_STATUS = {YES: "satisfied", NO: "violated", UNKNOWN: "unknown"}


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    entries: tuple[CriterionEntry, ...]

    @property
    def satisfied(self) -> bool:
        return all(e.status != "violated" for e in self.entries)


def check_transitive_criterion(family: FamilySpec,
                               sample_F: Sequence[Iterable[Payload]],
                               params_per_side: int = 4) -> CriterionReport:
    """Transitivity test: for each sampled F and members f, g, look for an
    h with h(F^n) inside g([f(F^n)]^n).

    Triples whose intermediate images overflow the window are skipped (the
    composition is not observable at this scale), and counted.
    """
    sample_params = family.param_sample(params_per_side)
    entries: list[CriterionEntry] = []
    for F in sample_F:
        fpay = family._normalize_f(F)
        for pf in sample_params:
            mid = image_of(family, pf, fpay)
            if mid is None or (family.arity >= 2
                               and len(mid) > DEFAULT_TUPLE_CAP):
                entries.append(CriterionEntry(fpay, pf, None,
                                              "skipped-overflow", None))
                continue
            for pg in sample_params:
                target = image_of(family, pg, mid)
                if target is None:
                    entries.append(CriterionEntry(fpay, pf, pg,
                                                  "skipped-overflow", None))
                    continue
                tset = GroundSet.from_values(family.window, target,
                                             label="g(f(F)^n)")
                v = embed_finite(fpay, tset, family)
                h = v.witness.params if v.witness else None
                entries.append(CriterionEntry(fpay, pf, pg, _STATUS[v.outcome], h))
    return CriterionReport("transitive", tuple(entries))


def check_reflexive_criterion(family: FamilySpec,
                              sample_F: Sequence[Iterable[Payload]]
                              ) -> CriterionReport:
    """Reflexivity test: each sampled F must admit f with f(F^n) inside F."""
    entries: list[CriterionEntry] = []
    for F in sample_F:
        fpay = family._normalize_f(F)
        fset = GroundSet.from_values(family.window, fpay, label="F")
        v = embed_finite(fpay, fset, family)
        entries.append(CriterionEntry(
            fpay, None, None, _STATUS[v.outcome],
            v.witness.params if v.witness else None))
    return CriterionReport("reflexive", tuple(entries))


# -- upward-closed set properties ---------------------------------------------

@dataclass(frozen=True)
class ClosureEntry:
    a_label: str
    b_label: str
    a_has_property: bool
    b_has_property: bool
    status: str  # transfers | violated | vacuous


@dataclass(frozen=True)
class ClosureReport:
    property_name: str
    entries: tuple[ClosureEntry, ...]

    @property
    def counterexamples(self) -> tuple[ClosureEntry, ...]:
        return tuple(e for e in self.entries if e.status == "violated")


def check_upward_closed(prop: Callable[[GroundSet], bool], prop_name: str,
                        pairs: Sequence[tuple[GroundSet, GroundSet]],
                        family: FamilySpec) -> ClosureReport:
    """Does membership in the property transfer from A to B along A <= B?

    Every pair is re-verified to embed before being used; a pair that fails
    raises UnverifiedPairError rather than polluting the report.
    """
    entries: list[ClosureEntry] = []
    for A, B in pairs:
        v = fe_decide(A, B, family)
        if v.outcome != YES:
            raise UnverifiedPairError(
                f"unverified-pair: {A.label!r} does not provably embed in "
                f"{B.label!r} (outcome {v.outcome})")
        a_in, b_in = prop(A), prop(B)
        status = ("transfers" if b_in else "violated") if a_in else "vacuous"
        entries.append(ClosureEntry(A.label, B.label, a_in, b_in, status))
    return ClosureReport(prop_name, tuple(entries))
