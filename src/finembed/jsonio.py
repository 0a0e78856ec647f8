"""JSON input formats (sets, families, pair lists) and output serialization.

All numeric JSON output is exact: integers stay integers and non-integral
rationals become "p/q" strings.

dumps is the one serializer.  Realized elements and density witnesses, long
by design, reach it as top-level _Fragments of JSON text encoded ahead by
_int_text: long ranges (an AP, a run of tails) in numpy, other int lists
joined, the rest by json.  The bytes are those json.dumps writes.

Importing this module loads no other layer and no numpy: a reader
imports the layers it builds (carrier, density, families) at its first
call, and numpy loads only in _int_text's range kernel.  So the `pr`
writers run without numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import InputError, parse_int

if TYPE_CHECKING:
    from .carrier import GroundSet, Window
    from .density import DensityReport, MonotonicityReport, Net
    from .embed import EmbedVerdict, ProbeReport
    from .families import FamilySpec
    from .prsearch import ColoringCertificate, ThresholdResult
    from .rich import ProgressionCertificate, ShiftReport


def load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or JSON
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


_REQUIRED = object()
_EMPTY: dict = {}  # default of optional object fields; never written to
_ELEMENT = (int, str)  # a set element: a number or a word
_NOUNS = {int: "an integer", str: "a string", list: "a list",
          dict: "an object", _ELEMENT: "a number or word"}


def _field(obj: Any, key: str, kind: type, default: Any = _REQUIRED,
           where: str = "", item: type | tuple[type, ...] | None = None
           ) -> Any:
    """obj[key], checked to have JSON type kind, and each element type item
    when it is a list.  A JSON integer is never a boolean.  A missing or
    null field reads as default, and is an error when there is none.  Every
    field of an input file is read here; where names obj in messages.
    """
    if type(obj) is not dict:
        raise InputError(f"{where} must be an object")
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InputError(f"{where} needs {key!r}")
        return default
    # bool is an int subclass, but true is no count, index or element
    if not isinstance(value, kind) or type(value) is bool:
        raise InputError(
            f"{where} {key!r} must be {_NOUNS[kind]}, got {value!r}")
    if item is not None:
        for v in value:
            if not isinstance(v, item) or type(v) is bool:
                raise InputError(f"{where} {key!r} has an element that "
                                 f"is not {_NOUNS[item]}: {v!r}")
    return value


# The layers the readers build, each imported by the first reader that
# needs it and kept here: an import statement run on every call would
# cost about 1 us a call, a few percent of a small decide.
carrier = density = families = None


def window_from_json(obj: Any) -> Window:
    global carrier
    if carrier is None:
        from . import carrier
    kind = _field(obj, "kind", str, where="window")
    alphabet = _REQUIRED if kind == carrier.FREE_WORDS else None
    return carrier.make_window(
        kind, _field(obj, "bound", int, where="window"),
        _field(obj, "alphabet", list, alphabet, "window", str))


def set_body_from_json(window: Window, body: Any, label: str = "") -> GroundSet:
    global carrier
    if carrier is None:
        from . import carrier
    values = _field(body, "explicit", list, None, "set body", _ELEMENT)
    if values is not None:
        numerals = window.sort_key is None  # words need no parse
        try:  # each element converted once
            encs = [window.encoding(window.parse(v) if numerals
                                    and type(v) is str else v) for v in values]
        except InputError:
            for v in values:  # a bad string is reported before a bad number
                if type(v) is str:
                    window.encoding(window.parse(v))
            raise
        return carrier.GroundSet.from_encodings(
            window, encs, label=label or _field(body, "label", str, "",
                                                "set body"))
    spec = _field(body, "predicate", str, None, "set body")
    if spec is None:
        raise InputError("set body needs 'explicit' or 'predicate'")
    return carrier.GroundSet.from_predicate(
        window, carrier.parse_predicate(spec),
        label=label or _field(body, "label", str, spec, "set body"))


def ground_set_from_json(obj: Any) -> GroundSet:
    where = "set file"
    window = window_from_json(_field(obj, "window", dict, where=where))
    return set_body_from_json(window, _field(obj, "set", dict, where=where),
                              _field(obj, "label", str, "", where))


_PLAIN_BUILTINS = {  # builtin name -> its builder's name in families
    "affine": "builtin_affine",
    "geoarithmetic": "builtin_geoarithmetic",
    "translations-right": "builtin_right_translations",
    "translations-left": "builtin_left_translations",
}


def family_from_json(obj: Any, window: Window) -> FamilySpec:
    global families
    if families is None:
        from . import families
    name = _field(obj, "builtin", str, None, "family")
    if name is not None:
        args = _field(obj, "args", dict, _EMPTY, "family")
        if name in _PLAIN_BUILTINS:
            return getattr(families, _PLAIN_BUILTINS[name])(window)
        if name == "polynomial":
            where = "polynomial family 'args'"
            d = _field(args, "D", list, where=where, item=int)
            degree = _field(args, "degree", int, where=where)
            coeffs = set_body_from_json(
                window, _field(args, "coeffs", dict, where=where), "coeffs")
            return families.builtin_polynomial(coeffs, d, degree)
        if name == "word-suffix":
            return families.builtin_word_suffix(window, _field(
                args, "letter", str, where="word-suffix family 'args'"))
        raise InputError(f"unknown builtin family {name!r}")
    spec = _field(obj, "pair", dict, None, "family")
    if spec is None:
        raise InputError("family needs 'builtin' or 'pair'")
    where = "pair family"
    enum = _field(spec, "enum", dict, _EMPTY, where)
    n, k, term, r_spec, mode, bound = (
        _field(spec, "n", int, where=where), _field(spec, "k", int, where=where),
        _field(spec, "term", str, where=where),
        _field(spec, "R", str, "N", where),
        _field(enum, "mode", str, "bounded-scan", "pair family 'enum'"),
        _field(enum, "bound", int, None, "pair family 'enum'"))
    if mode != "bounded-scan":
        raise InputError(f"pair families support bounded-scan only, got {mode!r}")
    return families.make_family_from_pair(window, n, k, term, r_spec, bound)


def net_from_spec(spec: str, window: Window) -> Net:
    global carrier, density
    if density is None:
        from . import carrier, density
    head, _, arg = spec.partition(":")
    if head != "interval":
        raise InputError(f"unknown net spec {spec!r}")
    max_n = parse_int(arg, "net interval:<maxN>")
    # checked before building; a numeric window holds 1..W and no W + 1,
    # other windows are searched (a word window holds no number)
    if max_n >= 1 and not window.contains_value(max_n):
        numeric = (carrier.ADDITIVE, carrier.MULTIPLICATIVE)
        v = (window.bound + 1 if window.kind in numeric
             else next(v for v in range(1, max_n + 1)
                       if not window.contains_value(v)))
        raise InputError(f"net-exceeds-window at F_{v}: {v!r}")
    return density.interval_net(max_n)


def pairs_from_json(obj: Any) -> tuple[
        Window, list[tuple[GroundSet, GroundSet]], list[int] | None]:
    """The window, the (A, B) pairs, and the probe sizes or None."""
    window = window_from_json(_field(obj, "window", dict, where="pairs file"))
    pairs = []
    for i, entry in enumerate(_field(obj, "pairs", list, where="pairs file",
                                     item=dict)):
        where = f"pair {i}"
        a = set_body_from_json(window, _field(entry, "a", dict, where=where),
                               _field(entry, "label_a", str, f"A{i}", where))
        b = set_body_from_json(window, _field(entry, "b", dict, where=where),
                               _field(entry, "label_b", str, f"B{i}", where))
        pairs.append((a, b))
    return window, pairs, _field(obj, "probes", list, None, "pairs file", int)


# -- output serialization ------------------------------------------------------

@dataclass(slots=True)
class _Fragment:  # JSON text that dumps writes as is; json rejects it
    text: str


def _make_encode() -> Callable[[Any], str]:
    """json.dumps(value, sort_keys=True, separators=(",", ":")) as one
    function.  JSONEncoder.encode builds a fresh C encoder on every call;
    this builds it once, without cycle markers (payloads are acyclic).
    Without the C accelerator it is JSONEncoder.encode, whose pure-Python
    _make_iterencode path writes the same text."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    iterencode = make(None, encoder.default,
                      json.encoder.encode_basestring_ascii, None, ":", ",",
                      True, False, True)
    return lambda value: "".join(iterencode(value, 0))


_encode = _make_encode()
# json or join is as fast up to here: crossovers on x86_64 at 400 to 1,100
# values for AP certificates, 200 to 400 for density runs (BENCH_19.json)
_INT_TEXT_MIN = 800
_POWERS = [10 ** k for k in range(1, 19)]  # digit-width edges


def _scalar(value: Any) -> str:  # json's text, an int's without the encoder
    return str(value) if type(value) is int else _encode(value)


def _int_text(values: Sequence[int], sep: str = ",") -> str:
    """json's text for list(values), brackets dropped, sep between items;
    an ascending int64 range past _INT_TEXT_MIN is encoded in numpy, each
    digit width as one (count, width + len(sep)) array of bytes."""
    if (type(values) is range and len(values) > _INT_TEXT_MIN
            and values.start >= 0 and values.step >= 1
            and values[-1] < 2 ** 63):  # numpy wraps past int64
        import numpy as np
        # not arange(start, stop, step): its float length can miss a term
        a = np.arange(len(values), dtype=np.int64) * values.step + values.start
        raw, blocks = sep.encode(), []
        w0, w1 = len(str(values.start)), len(str(values[-1]))
        edges = [0, *np.searchsorted(a, _POWERS[w0 - 1:w1 - 1]), len(a)]
        for width, lo, hi in zip(range(w0, w1 + 1), edges, edges[1:]):
            x = a[lo:hi].astype(np.uint32 if width < 10 else np.uint64)
            out = np.empty((hi - lo, width + len(raw)), np.uint8)
            out[:, width:] = np.frombuffer(raw, np.uint8)
            for col in range(width - 1, -1, -1):
                q = x // 10
                out[:, col] = x - q * 10 + 48
                x = q
            blocks.append(out.tobytes())
        return b"".join(blocks)[:-len(raw) or None].decode()
    if type(values) is range or {int}.issuperset(map(type, values)):
        return sep.join(map(str, values))
    return json.dumps(list(values), separators=(sep, ":"))[1:-1]


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
                "randomized": False,
                "verdict": verdict_to_json(e.verdict),
            }
            for e in report.entries
        ],
    }


def certificate_to_json(cert: ProgressionCertificate) -> dict:
    out: dict[str, Any] = {
        "kind": cert.kind,
        "params": list(cert.params),
        "realized": (_Fragment(f"[{_int_text(cert.realized)}]")
                     if len(cert.realized) > _INT_TEXT_MIN
                     else list(cert.realized)),
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
    """The report with one tail object per tail, written a run at a time
    from the kernel's integer lists; report.runs is not read."""
    runs = []  # a run's tail objects differ only in "tail", their last key
    first = report.tail_start
    for n in report.ends:
        count, size = report.counts[n - 1], report.sizes[n - 1]
        g = gcd(count, size)  # count // g over size // g, as rational writes
        ratio = (str(count // g) if size == g
                 else f'"{count // g}/{size // g}"')
        shift = report.shifts[n - 1]
        prefix = (f'{{"n":{n},"ratio":{ratio},"shift":'
                  f'{_scalar("1" if shift is None else shift)},"tail":')
        runs.append(prefix + _int_text(range(first, n + 1), "}," + prefix))
        first = n + 1
    return {
        "value": rational(report.value),
        "tail_start": report.tail_start,
        "net": report.net_label,
        "skipped_shifts": report.skipped_shifts,
        "witnesses": _Fragment("[" + "},".join(runs) + "}]" if runs else "[]"),
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
    """Deterministic JSON, keys sorted; top-level _Fragments written as is."""
    if type(payload) is not dict or _Fragment not in map(
            type, payload.values()):
        return _encode(payload)
    return "{" + ",".join(
        f"{_encode(k)}:{v.text if type(v) is _Fragment else _encode(v)}"
        for k, v in sorted(payload.items())) + "}"
