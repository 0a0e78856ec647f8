"""In-memory tracing of finembed's layers, installed from outside the package.

The tracer wraps public entry points of each layer (module functions and
class methods) for the duration of a traced pass and restores the originals
afterwards, so untraced passes run the unmodified program.  Two kinds of
records are kept:

  spans       one record per call: id, parent span, query id, layer, name,
              start and end (perf_counter seconds).
  aggregates  per-element calls (membership tests, predicate fill) are far
              too frequent for one span each; they are counted and timed in
              aggregate under their nearest enclosing span.

Self time is derived after the run: a span's duration minus the durations of
its child spans and of the aggregated calls made directly inside it.
"""

from __future__ import annotations

import operator
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from finembed import carrier, cli, density, embed, families, jsonio, prsearch, rich, verify

perf_counter = time.perf_counter

# Groups of (layer, name) used to build the per-layer metrics.
MATERIALIZE = ("GroundSet._extend", "GroundSet.from_values")
CONTAINS = ("GroundSet.contains_enc", "Window.contains_value")
BUILDERS = ("builtin_affine", "builtin_right_translations",
            "builtin_left_translations", "builtin_word_suffix",
            "builtin_geoarithmetic", "builtin_polynomial",
            "make_family_from_pair", "restrict_params", "filter_params")
PARSERS = ("load_json", "window_from_json", "set_body_from_json",
           "ground_set_from_json", "family_from_json", "net_from_spec",
           "pairs_from_json")
SERIALIZERS = ("verdict_to_json", "probe_report_to_json",
               "certificate_to_json", "shift_report_to_json",
               "density_report_to_json", "monotonicity_report_to_json",
               "coloring_to_json", "threshold_to_json", "dumps")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # (span id, layer, name, direct) -> [calls, inclusive s, self s]
        self.aggs: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple, float] = defaultdict(float)
        # frames: [span id or None for an aggregate, child seconds, nearest span id]
        self._stack: list[list] = []
        self._next_id = 0
        self.qid: str | None = None
        self._restore: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[(self.qid, name)] += value

    def _span_wrapper(self, layer: str, name: str, fn: Callable,
                      after: Callable | None) -> Callable:
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else None
            stack.append([sid, 0.0, sid])
            qid = self.qid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, qid, layer, name, t0, t1))
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _agg_wrapper(self, layer: str, name: str, fn: Callable,
                     before: Callable | None, after: Callable | None) -> Callable:
        stack, aggs = self._stack, self.aggs

        def traced(*args, **kwargs):
            top = stack[-1] if stack else None
            span_id = top[2] if top is not None else None
            direct = top is not None and top[0] is not None
            frame = [None, 0.0, span_id]
            stack.append(frame)
            state = before(args) if before is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = aggs[(span_id, layer, name, direct)]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[1]
                if top is not None:
                    top[1] += t1 - t0
            if after is not None:
                after(self, args, state)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, orig: Callable, wrapped: Callable) -> None:
        """Point every finembed module attribute that holds orig at wrapped."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "finembed"
                                   or modname.startswith("finembed.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append(
                        lambda m=mod, a=attr, o=orig: setattr(m, a, o))

    def _wrap_function(self, module, name: str, layer: str,
                       after: Callable | None = None) -> None:
        orig = getattr(module, name)
        self._replace_everywhere(orig, self._span_wrapper(layer, name, orig, after))

    def _wrap_method(self, cls, name: str, layer: str, *, aggregate: bool = False,
                     before: Callable | None = None,
                     after: Callable | None = None) -> None:
        raw = cls.__dict__[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        label = f"{cls.__name__}.{name}"
        if aggregate:
            wrapped = self._agg_wrapper(layer, label, fn, before, after)
        else:
            wrapped = self._span_wrapper(layer, label, fn, after)
        setattr(cls, name, classmethod(wrapped) if is_classmethod else wrapped)
        self._restore.append(lambda: setattr(cls, name, raw))

    def install(self) -> None:
        GS, Win = carrier.GroundSet, carrier.Window
        # Predicate sets fill lazily inside membership tests and bits(); the
        # private _extend is the one place where that fill happens.
        self._wrap_method(GS, "_extend", "carrier", aggregate=True,
                          before=lambda a: a[0]._known_upto,
                          after=lambda t, a, known: t.count(
                              "carrier.materialized_elems", a[1] + 1 - known))
        self._wrap_method(GS, "from_values", "carrier",
                          after=lambda t, a, r: t.count(
                              "carrier.materialized_elems", r.count()))
        self._wrap_method(GS, "contains_enc", "carrier", aggregate=True)
        self._wrap_method(Win, "contains_value", "carrier", aggregate=True)

        self._wrap_method(families.FamilySpec, "enumerate_params", "families",
                          after=_count_candidates)
        for name in BUILDERS:
            self._wrap_function(families, name, "families")

        self._wrap_function(embed, "embed_finite", "embed", after=lambda t, a, r:
                            t.count("embed.params_examined", r.stats.params_examined))
        for name in ("fe_decide", "fe_probe", "verify_witness"):
            self._wrap_function(embed, name, "embed")

        for name in ("longest_ap", "is_thick_window", "is_piecewise_syndetic_window",
                     "longest_gap_grid", "longest_poly_progression",
                     "verify_certificate"):
            self._wrap_function(rich, name, "rich")

        self._wrap_function(density, "upper_density", "density", after=_count_shifts)
        for name in ("interval_net", "check_density_monotonicity"):
            self._wrap_function(density, name, "density")

        self._wrap_method(prsearch.Pattern, "instances", "prsearch",
                          after=lambda t, a, r: t.count("prsearch.instances", len(r)))
        count_nodes = (lambda t, a, r: t.count("prsearch.nodes", r.nodes))
        for name in ("find_avoiding_coloring", "strong_pr_probe"):
            self._wrap_function(prsearch, name, "prsearch", after=count_nodes)
        for name in ("ramsey_threshold", "homogeneous_pr_check", "verify_coloring"):
            self._wrap_function(prsearch, name, "prsearch")

        for name in PARSERS:
            self._wrap_function(jsonio, name, "jsonio")
        for name in SERIALIZERS[:-1]:
            self._wrap_function(jsonio, name, "jsonio")
        self._wrap_function(jsonio, "dumps", "jsonio", after=lambda t, a, r:
                            t.count("jsonio.bytes_out", len(r.encode())))

        self._wrap_function(cli, "dispatch", "cli")
        self._wrap_function(verify, "run_suite", "verify", after=_count_checks)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- derivation ---------------------------------------------------------

    def self_times(self) -> list[tuple[str | None, str, str, float]]:
        """(query id, layer, name, self seconds) for every span and aggregate."""
        child = defaultdict(float)
        qid_of = {}
        for sid, parent, qid, _l, _n, t0, t1 in self.spans:
            qid_of[sid] = qid
            if parent is not None:
                child[parent] += t1 - t0
        out = []
        for (sid, layer, name, direct), (_c, incl, own) in self.aggs.items():
            if direct:
                child[sid] += incl
            out.append((qid_of.get(sid), layer, name, own))
        for sid, _p, qid, layer, name, t0, t1 in self.spans:
            out.append((qid, layer, name, t1 - t0 - child[sid]))
        return out

    def embed_scan_seconds(self) -> float:
        """Time inside embed_finite spent examining parameters: inclusive
        embed_finite time minus its candidate enumeration."""
        total = 0.0
        scans = set()
        for sid, _p, _q, _l, name, t0, t1 in self.spans:
            if name == "embed_finite":
                total += t1 - t0
                scans.add(sid)
        for _sid, parent, _q, _l, name, t0, t1 in self.spans:
            if name == "FamilySpec.enumerate_params" and parent in scans:
                total -= t1 - t0
        return total

    def agg_calls(self, names: tuple[str, ...]) -> int:
        return sum(rec[0] for (_s, _l, name, _d), rec in self.aggs.items()
                   if name in names)

    def threshold_steps(self) -> int:
        names = {sid: name for sid, _p, _q, _l, name, _a, _b in self.spans}
        return sum(1 for _s, parent, _q, _l, name, _a, _b in self.spans
                   if name == "find_avoiding_coloring"
                   and names.get(parent) == "ramsey_threshold")

    def dump(self) -> dict[str, Any]:
        return {
            "span_fields": ["id", "parent", "query", "layer", "name", "start", "end"],
            "spans": self.spans,
            "aggregates": [
                {"span": sid, "layer": layer, "name": name, "direct": direct,
                 "calls": c, "inclusive_s": incl, "self_s": own}
                for (sid, layer, name, direct), (c, incl, own) in self.aggs.items()],
        }


def _count_candidates(tracer: Tracer, args, stream) -> None:
    # Complete streams iterate a list, whose remaining length is known up
    # front; bounded scans are generators and report 0 here.
    tracer.count("families.candidates", operator.length_hint(stream.params))


def _count_shifts(tracer: Tracer, args, report) -> None:
    ground, net = args[0], args[1]
    tracer.count("density.shift_evals",
                 len(net) * ground.window.size - report.skipped_shifts)


def _count_checks(tracer: Tracer, args, result) -> None:
    report, _ok = result
    tracer.count("verify.checks", sum(entry.get("instances", 1)
                                      for entries in report["suites"].values()
                                      for entry in entries))
