"""JSON input formats (sets, families, pair lists) and output serialization.

All numeric JSON output is exact: integers stay integers and non-integral
rationals become "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .carrier import (FREE_WORDS, GroundSet, Window, make_window,
                      parse_predicate)
from .density import DensityReport, MonotonicityReport, Net, interval_net
from .embed import EmbedVerdict, ProbeReport
from .errors import InputError, parse_int
from .families import (FamilySpec, builtin_affine, builtin_geoarithmetic,
                       builtin_left_translations, builtin_polynomial,
                       builtin_right_translations, builtin_word_suffix,
                       make_family_from_pair)
from .prsearch import ColoringCertificate, ThresholdResult
from .rich import ProgressionCertificate, ShiftReport


def load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def window_from_json(obj: Any) -> Window:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("window object needs a 'kind' field")
    if "bound" not in obj:
        raise InputError("window object needs a 'bound' field")
    kind, bound = obj["kind"], obj["bound"]
    if not _is_int(bound):
        raise InputError("window 'bound' must be an integer")
    alphabet = obj.get("alphabet")
    if kind == FREE_WORDS and alphabet is None:
        raise InputError("free-words window needs an 'alphabet' field")
    return make_window(kind, bound, alphabet)


def set_body_from_json(window: Window, body: Any, label: str = "") -> GroundSet:
    if not isinstance(body, dict):
        raise InputError("set body must be an object")
    if "explicit" in body:
        values = body["explicit"]
        if not isinstance(values, list):
            raise InputError("'explicit' must be a list of elements")
        # bool is an int subclass: true would otherwise read as element 1
        if any(isinstance(v, bool) for v in values):
            raise InputError("'explicit' elements must be numbers or words, "
                             "not booleans")
        parsed = [window.payload(window.parse(str(v)).encoding)
                  if isinstance(v, str) else v for v in values]
        return GroundSet.from_values(window, parsed,
                                     label=label or body.get("label", ""))
    if "predicate" in body:
        pred = parse_predicate(body["predicate"])
        return GroundSet.from_predicate(
            window, pred, label=label or body.get("label", body["predicate"]))
    raise InputError("set body needs 'explicit' or 'predicate'")


def ground_set_from_json(obj: Any) -> GroundSet:
    if not isinstance(obj, dict) or "window" not in obj or "set" not in obj:
        raise InputError("set file needs 'window' and 'set' fields")
    window = window_from_json(obj["window"])
    return set_body_from_json(window, obj["set"], obj.get("label", ""))


def family_from_json(obj: Any, window: Window) -> FamilySpec:
    if not isinstance(obj, dict):
        raise InputError("family must be an object")
    if "builtin" in obj:
        name = obj["builtin"]
        args = _object(obj.get("args", {}), "family 'args'")
        if name == "affine":
            return builtin_affine(window)
        if name == "geoarithmetic":
            return builtin_geoarithmetic(window)
        if name == "translations-right":
            return builtin_right_translations(window)
        if name == "translations-left":
            return builtin_left_translations(window)
        if name == "polynomial":
            for key in ("degree", "D", "coeffs"):
                if key not in args:
                    raise InputError(f"polynomial family needs args.{key}")
            d = args["D"]
            if not isinstance(d, list) or not all(map(_is_int, d)):
                raise InputError(
                    "polynomial args.D must be a list of integers")
            degree = _int(args["degree"], "polynomial args.degree")
            coeffs = set_body_from_json(window, args["coeffs"], "coeffs")
            return builtin_polynomial(coeffs, d, degree)
        if name == "word-suffix":
            if "letter" not in args:
                raise InputError("word-suffix family needs args.letter")
            return builtin_word_suffix(
                window, _str(args["letter"], "word-suffix args.letter"))
        raise InputError(f"unknown builtin family {name!r}")
    if "pair" in obj:
        spec = _object(obj["pair"], "family 'pair'")
        for key in ("n", "k", "term"):
            if key not in spec:
                raise InputError(f"pair family needs {key!r}")
        enum = _object(spec.get("enum", {}), "pair family 'enum'")
        bound = enum.get("bound")
        if bound is not None:
            bound = _int(bound, "pair family enum.bound")
        return make_family_from_pair(
            window, _int(spec["n"], "pair family 'n'"),
            _int(spec["k"], "pair family 'k'"),
            _str(spec["term"], "pair family 'term'"),
            r_spec=_str(spec.get("R", "N"), "pair family 'R'"),
            mode=enum.get("mode", "bounded-scan"),
            bound=bound)
    raise InputError("family needs 'builtin' or 'pair'")


def _is_int(value: Any) -> bool:
    # bool is an int subclass, but true is no count or index
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, what: str) -> int:
    if not _is_int(value):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def _object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    return value


def net_from_spec(spec: str) -> Net:
    head, _, arg = spec.partition(":")
    if head == "interval":
        return interval_net(parse_int(arg, "net interval:<maxN>"))
    raise InputError(f"unknown net spec {spec!r}")


def pairs_from_json(obj: Any) -> tuple[Window, list[tuple[GroundSet, GroundSet]], list[int]]:
    if not isinstance(obj, dict) or "window" not in obj or "pairs" not in obj:
        raise InputError("pairs file needs 'window' and 'pairs'")
    window = window_from_json(obj["window"])
    pairs = []
    for i, entry in enumerate(obj["pairs"]):
        if "a" not in entry or "b" not in entry:
            raise InputError(f"pair {i} needs 'a' and 'b'")
        a = set_body_from_json(window, entry["a"], entry.get("label_a", f"A{i}"))
        b = set_body_from_json(window, entry["b"], entry.get("label_b", f"B{i}"))
        pairs.append((a, b))
    return window, pairs, list(obj.get("probes", [2, 4]))


# -- output serialization ------------------------------------------------------

def rational(x: Fraction) -> int | str:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def verdict_to_json(v: EmbedVerdict) -> dict:
    out: dict[str, Any] = {
        "outcome": v.outcome,
        "complete": v.stats.complete,
        "params_examined": v.stats.params_examined,
        "witness": None,
    }
    if v.witness is not None:
        out["witness"] = {
            "F": list(v.witness.F),
            "params": list(v.witness.params),
            "image": list(v.witness.image),
        }
    return out


def probe_report_to_json(report: ProbeReport) -> dict:
    return {
        "overall": report.overall,
        "probes": [
            {
                "size": e.size,
                "F": list(e.F),
                "randomized": e.randomized,
                "verdict": verdict_to_json(e.verdict),
            }
            for e in report.entries
        ],
    }


def certificate_to_json(cert: ProgressionCertificate) -> dict:
    out: dict[str, Any] = {
        "kind": cert.kind,
        "params": list(cert.params),
        "realized": list(cert.realized),
        "length": cert.length,
    }
    if cert.indexing:
        out["indexing"] = cert.indexing
    return out


def shift_report_to_json(report: ShiftReport) -> dict:
    return {
        "kind": report.kind,
        "all_found": report.all_found,
        "probes": [
            {"length": e.length, "found": e.found,
             "shift": e.shift}
            for e in report.entries
        ],
    }


def density_report_to_json(report: DensityReport) -> dict:
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


def monotonicity_report_to_json(report: MonotonicityReport) -> dict:
    return {
        "b": report.b,
        "tolerance": rational(report.tolerance),
        "all_ok": report.all_ok,
        "pairs": [
            {
                "a": e.a_label,
                "b": e.b_label,
                "density_a": rational(e.density_a),
                "density_b": rational(e.density_b),
                "margin": rational(e.margin),
                "ok": e.ok,
            }
            for e in report.entries
        ],
    }


def coloring_to_json(cert: ColoringCertificate) -> dict:
    return {
        "outcome": cert.outcome,
        "pattern": cert.pattern,
        "N": cert.n,
        "colors": cert.r,
        "elements": list(cert.elements),
        "coloring": list(cert.colors) if cert.colors is not None else None,
        "nodes": cert.nodes,
        "exhaustive": cert.exhaustive,
    }


def threshold_to_json(res: ThresholdResult) -> dict:
    return {
        "threshold": res.threshold,
        "nmax": res.nmax,
        "pattern": res.pattern,
        "colors": res.r,
    }


def dumps(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no float formatting surprises."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
