import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

import finembed
from finembed.cli import dispatch


def load_schemas():
    schema_dir = Path(finembed.__file__).parent / "schemas"
    return {path.name: json.loads(path.read_text())
            for path in schema_dir.glob("*.schema.json")}


SCHEMAS = load_schemas()
REGISTRY = Registry().with_resources(
    (name, Resource.from_contents(schema, default_specification=DRAFT7))
    for name, schema in SCHEMAS.items())


def validate(payload, schema_name: str):
    validator = jsonschema.Draft7Validator(SCHEMAS[schema_name],
                                           registry=REGISTRY)
    validator.validate(payload)


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    win = {"kind": "additive-naturals", "bound": 60}
    return {
        "a": write("a.json", {"window": win, "set": {"explicit": [0, 2]},
                              "label": "A"}),
        "b": write("b.json", {"window": win, "set": {"explicit": [5, 7, 9]},
                              "label": "B"}),
        "evens": write("evens.json", {"window": win,
                                      "set": {"predicate": "evens"}}),
        "translations": write("fam_tr.json", {"builtin": "translations-right"}),
        "affine": write("fam_af.json", {"builtin": "affine"}),
        "pairs": write("pairs.json", {
            "window": win,
            "pairs": [
                {"a": {"explicit": [0, 2, 4]}, "b": {"explicit": [3, 5, 7]}},
                {"a": {"explicit": [1, 2]}, "b": {"explicit": [1, 2, 50]}},
            ],
        }),
        "dir": tmp_path,
    }


def test_embed_cli_matches_documented_payload(capsys, files):
    code, payload = run_cli(capsys, "embed", "--set-a", files["a"],
                            "--set-b", files["b"], "--family",
                            files["translations"])
    assert code == 0
    assert payload["outcome"] == "yes" and payload["complete"] is True
    assert payload["witness"] == {"F": [0, 2], "params": [5], "image": [5, 7]}
    validate(payload, "embed_verdict.schema.json")


def test_embed_cli_probes(capsys, files):
    code, payload = run_cli(capsys, "embed", "--set-a", files["evens"],
                            "--set-b", files["evens"], "--family",
                            files["translations"], "--probes", "2,3")
    assert code == 0 and payload["overall"] == "supported"
    validate(payload, "probe_report.schema.json")


def test_rich_cli_detectors(capsys, files):
    code, payload = run_cli(capsys, "rich", "--set", files["evens"],
                            "--detect", "ap")
    assert code == 0 and payload["length"] == 31
    validate(payload, "rich_certificate.schema.json")

    code, payload = run_cli(capsys, "rich", "--set", files["evens"],
                            "--detect", "gap")
    assert code == 0
    validate(payload, "rich_certificate.schema.json")

    code, payload = run_cli(capsys, "rich", "--set", files["evens"],
                            "--detect", "poly", "--d", "1", "--D", "1")
    assert code == 0 and payload["length"] == 30
    validate(payload, "rich_certificate.schema.json")

    code, payload = run_cli(capsys, "rich", "--set", files["evens"],
                            "--detect", "thick", "--probes", "0,1")
    assert code == 0
    validate(payload, "shift_report.schema.json")

    code, payload = run_cli(capsys, "rich", "--set", files["evens"],
                            "--detect", "ps", "--g", "2", "--spans", "10,30")
    assert code == 0 and payload["all_found"] is True
    validate(payload, "shift_report.schema.json")


def test_density_cli_report(capsys, files):
    code, payload = run_cli(capsys, "density", "--set", files["evens"],
                            "--net", "interval:30", "--tail", "28")
    assert code == 0 and payload["value"] == "1/2"
    assert len(payload["witnesses"]) == 3
    validate(payload, "density_report.schema.json")


def test_density_cli_monotone(capsys, files):
    code, payload = run_cli(capsys, "density", "verify-monotone",
                            "--pairs", files["pairs"], "--family",
                            files["translations"], "--net", "interval:10",
                            "--tol", "0.02")
    assert code == 0 and payload["all_ok"] is True and payload["b"] == 1
    validate(payload, "density_monotone.schema.json")


def test_density_cli_rejects_bad_net(capsys, files):
    code, payload = run_cli(capsys, "density", "--set", files["evens"],
                            "--net", "interval:0")
    assert code == 2 and payload is None


def test_density_cli_monotone_violation_exits_one(capsys, tmp_path, files):
    # affine embeddings do not preserve density (only translation-style
    # families do), so a stretched pair is an honest reported violation
    pairs = tmp_path / "stretch.json"
    pairs.write_text(json.dumps({
        "window": {"kind": "additive-naturals", "bound": 60},
        "pairs": [{"a": {"explicit": list(range(11))},
                   "b": {"explicit": list(range(0, 21, 2))}}],
    }))
    code, payload = run_cli(capsys, "density", "verify-monotone",
                            "--pairs", str(pairs), "--family",
                            files["affine"], "--net", "interval:10",
                            "--tol", "0.02")
    assert code == 1
    assert payload["all_ok"] is False
    validate(payload, "density_monotone.schema.json")


def test_embed_cli_on_word_carrier(capsys, tmp_path):
    win = {"kind": "free-words", "bound": 4, "alphabet": ["a", "b"]}
    a = tmp_path / "wa.json"
    a.write_text(json.dumps({"window": win, "set": {"explicit": ["b", "ba"]}}))
    b = tmp_path / "wb.json"
    b.write_text(json.dumps({"window": win,
                             "set": {"explicit": ["baa", "baaa", "ab"]}}))
    fam = tmp_path / "wf.json"
    fam.write_text(json.dumps({"builtin": "word-suffix",
                               "args": {"letter": "a"}}))
    code, payload = run_cli(capsys, "embed", "--set-a", str(a),
                            "--set-b", str(b), "--family", str(fam))
    assert code == 0
    assert payload["outcome"] == "yes"
    assert payload["witness"]["params"] == [2]
    assert payload["witness"]["image"] == ["baa", "baaa"]
    validate(payload, "embed_verdict.schema.json")


def test_pr_cli(capsys):
    code, payload = run_cli(capsys, "pr", "threshold", "--pattern", "ap:3",
                            "--colors", "2", "--nmax", "20")
    assert code == 0 and payload["threshold"] == 9
    validate(payload, "pr_threshold.schema.json")

    code, payload = run_cli(capsys, "pr", "search", "--pattern", "schur",
                            "--colors", "2", "--n", "4")
    assert code == 0 and payload["coloring"] == [0, 1, 1, 0]
    validate(payload, "pr_coloring.schema.json")

    code, payload = run_cli(capsys, "pr", "equation", "--poly", "x^2+y^2-z^2",
                            "--colors", "2", "--n", "30")
    assert code == 0 and payload["outcome"] == "avoiding"
    assert payload["homogeneous"] is True
    validate(payload, "pr_coloring.schema.json")


@pytest.mark.parametrize("command", [
    ["search", "--pattern", "ap:3", "--n", "9"],
    ["threshold", "--pattern", "ap:3", "--nmax", "9"],
    ["equation", "--poly", "x+y-z", "--n", "5"]], ids=lambda c: c[0])
def test_pr_cli_more_colors_than_positions(capsys, command):
    """Symmetry breaking never opens more colors than positions, so a huge
    --colors answers like --colors 9 and echoes only its own value."""
    huge = 10 ** 20
    code, payload = run_cli(capsys, "pr", *command, "--colors", str(huge))
    assert code == 0 and payload.pop("colors") == huge
    code, same = run_cli(capsys, "pr", *command, "--colors", "9")
    assert code == 0 and same.pop("colors") == 9
    assert payload == same


def test_pr_cli_strict_homogeneous_rejects(capsys):
    code, payload = run_cli(capsys, "pr", "equation", "--poly", "x+y-z-1",
                            "--colors", "2", "--n", "10",
                            "--strict-homogeneous")
    assert code == 2 and payload is None


def test_verify_cli_passes_and_validates(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "listona",
                            "--seed", "7", "--budget", "tiny")
    assert code == 0
    assert payload["seed"] == 7
    assert payload["results"]["ok"] is True
    validate(payload, "verify_report.schema.json")


def test_verify_cli_unknown_suite(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "nope", "--budget", "tiny")
    assert code == 2


def test_verify_budget_defaults_to_small(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "strong-pr",
                            "--seed", "1")
    assert code == 0 and payload["results"]["budget"] == "small"
    assert payload["command"][-2:] == ["--budget", "small"]


def test_malformed_json_names_the_problem(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "rich", "--set", str(bad), "--detect", "ap")
    assert code == 2


def test_missing_field_diagnostic(capsys, tmp_path):
    p = tmp_path / "noset.json"
    p.write_text(json.dumps({"window": {"kind": "additive-naturals",
                                        "bound": 5}}))
    code, _ = run_cli(capsys, "rich", "--set", str(p), "--detect", "ap")
    assert code == 2


def test_cli_determinism_same_bytes():
    cmd = [sys.executable, "-m", "finembed", "verify", "--suite",
           "upward-closed", "--seed", "3", "--budget", "tiny"]
    one = subprocess.run(cmd, capture_output=True, check=True).stdout
    two = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert one == two


def test_entry_point_module_runs():
    out = subprocess.run(
        [sys.executable, "-m", "finembed", "pr", "threshold", "--pattern",
         "schur", "--colors", "2", "--nmax", "10"],
        capture_output=True, check=True)
    assert json.loads(out.stdout)["threshold"] == 5


def assert_input_error(capsys, *argv):
    """Bad input exits 2 with one "error:" line and no traceback."""
    code = dispatch(list(argv))
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("spec", ["ap:x", "gap-grid:y", "poly:3:2:0,z"])
def test_pr_cli_malformed_pattern_numbers(capsys, spec):
    assert_input_error(capsys, "pr", "search", "--pattern", spec,
                       "--colors", "2", "--n", "9")
    assert_input_error(capsys, "pr", "threshold", "--pattern", spec,
                       "--colors", "2", "--nmax", "9")


@pytest.mark.parametrize("predicate", ["multiples:0x", "interval:a:b",
                                       "union(evens,interval:3:b)"])
def test_cli_malformed_predicate_numbers(capsys, tmp_path, predicate):
    p = tmp_path / "set.json"
    p.write_text(json.dumps({"window": {"kind": "additive-naturals",
                                        "bound": 20},
                             "set": {"predicate": predicate}}))
    assert_input_error(capsys, "rich", "--set", str(p), "--detect", "ap")


def test_cli_rejects_boolean_elements(capsys, tmp_path, files):
    from finembed.carrier import make_window
    from finembed.errors import InputError
    from finembed.jsonio import set_body_from_json
    with pytest.raises(InputError):
        set_body_from_json(make_window("additive-naturals", 10),
                           {"explicit": [True, 3]})
    p = tmp_path / "bools.json"
    p.write_text(json.dumps({"window": {"kind": "additive-naturals",
                                        "bound": 60},
                             "set": {"explicit": [True, 3]}}))
    assert_input_error(capsys, "embed", "--set-a", str(p), "--set-b",
                       files["b"], "--family", files["translations"])
    p.write_text(json.dumps({"window": {"kind": "additive-naturals",
                                        "bound": True},
                             "set": {"explicit": [1]}}))
    assert_input_error(capsys, "rich", "--set", str(p), "--detect", "ap")


def test_rich_poly_with_only_constant_polynomials_exits_two(files):
    # D=[0] leaves only constant polynomials, whose runs never end: the
    # detector must refuse the input instead of walking x = 1, 2, ...
    proc = subprocess.run(
        [sys.executable, "-m", "finembed", "rich", "--set", files["evens"],
         "--detect", "poly", "--d", "1", "--D", "0"],
        capture_output=True, timeout=60)
    err = proc.stderr.decode().strip().splitlines()
    assert proc.returncode == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "unbounded" in err[0]


def test_closed_stdout_keeps_exit_code_without_traceback():
    # `finembed verify | head -c 10`: the reader is gone before the payload
    # is written.
    proc = subprocess.Popen(
        [sys.executable, "-m", "finembed", "verify", "--suite", "listona",
         "--budget", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipe" not in err, err


POLY = {"degree": 2, "D": [0, 2], "coeffs": {"explicit": [1, 2]}}
PAIR = {"n": 1, "k": 1, "term": "slot0+param0"}


@pytest.mark.parametrize("family", [
    {"builtin": "polynomial", "args": 5},
    {"builtin": "polynomial", "args": {**POLY, "degree": "x"}},
    {"builtin": "polynomial", "args": {**POLY, "degree": True}},
    {"builtin": "polynomial", "args": {**POLY, "D": "ab"}},
    {"builtin": "polynomial", "args": {**POLY, "D": [0, "2"]}},
    {"builtin": "word-suffix", "args": {"letter": 5}},
    {"pair": 5},
    {"pair": {**PAIR, "n": "1"}},
    {"pair": {**PAIR, "k": False}},
    {"pair": {**PAIR, "enum": 5}},
    {"pair": {**PAIR, "enum": {"bound": "x"}}},
    {"pair": {**PAIR, "R": ["N"]}},
    {"pair": {**PAIR, "term": 5}},
], ids=lambda fam: json.dumps(fam, separators=(",", ":")))
def test_cli_malformed_family_fields(capsys, tmp_path, files, family):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(family))
    assert_input_error(capsys, "embed", "--set-a", files["a"], "--set-b",
                       files["b"], "--family", str(p))


def test_cli_well_formed_families_still_answer(capsys, tmp_path, files):
    for family in ({"builtin": "polynomial", "args": POLY},
                   {"pair": {**PAIR, "R": "positive",
                             "enum": {"bound": 10}}}):
        p = tmp_path / "family.json"
        p.write_text(json.dumps(family))
        code, payload = run_cli(capsys, "embed", "--set-a", files["a"],
                                "--set-b", files["b"], "--family", str(p))
        assert code == 0 and payload["outcome"] in ("yes", "unknown")


def test_cli_pair_family_enum_mode_is_bounded_scan_only(capsys, tmp_path,
                                                        files):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"pair": {**PAIR, "enum": {
        "mode": "complete-anchored"}}}))
    code = dispatch(["embed", "--set-a", files["a"], "--set-b", files["b"],
                     "--family", str(p)])
    assert code == 2
    assert capsys.readouterr().err == ("error: pair families support "
                                       "bounded-scan only, got "
                                       "'complete-anchored'\n")


# -- the input contract: every malformed input exits 2 --------------------

WIN = {"kind": "additive-naturals", "bound": 30}
SET_FILE = {"window": WIN, "set": {"explicit": [1, 2, 3, 5, 8]}, "label": "S"}
PAIRS_FILE = {"window": WIN,
              "pairs": [{"a": {"explicit": [0, 2, 4]},
                         "b": {"explicit": [3, 5, 7]},
                         "label_a": "A", "label_b": "B"}],
              "probes": [2, 4]}
PREDICATE_PAIRS = {"window": WIN,
                   "pairs": [{"a": {"predicate": "multiples:4"},
                              "b": {"predicate": "evens"}}],
                   "probes": ["x"]}
TRANSLATIONS = {"builtin": "translations-right"}
WORDS = {"kind": "free-words", "bound": 3, "alphabet": ["a", "b"]}


def run_files(argv: list[str], files: dict, workdir: Path) -> tuple[int, str, str]:
    """dispatch(argv) in-process, "{NAME}" in argv standing for a file
    holding files[NAME] (bytes as they are, anything else as JSON)."""
    paths = {}
    for name, content in files.items():
        path = workdir / f"{name}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        paths[name] = str(path)
    argv = [arg.format(**paths) if arg.startswith("{") else arg
            for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def with_set(**body) -> dict:
    return {**SET_FILE, "set": body}


RICH = ["rich", "--set", "{S}", "--detect", "ap"]
MONOTONE = ["density", "verify-monotone", "--pairs", "{P}", "--family", "{F}",
            "--net", "interval:8"]
EMBED = ["embed", "--set-a", "{A}", "--set-b", "{B}", "--family", "{F}"]

MALFORMED = {
    "predicate-not-a-string": (RICH, {"S": with_set(predicate=5)}),
    "alphabet-not-a-list": (RICH, {"S": {**SET_FILE, "window": {
        **WORDS, "alphabet": 5}}}),
    "alphabet-of-numbers": (RICH, {"S": {**SET_FILE, "window": {
        **WORDS, "alphabet": [1, 2]}}}),
    "pairs-not-a-list": (MONOTONE, {"P": {**PAIRS_FILE, "pairs": 7},
                                    "F": TRANSLATIONS}),
    "pair-not-an-object": (MONOTONE, {"P": {**PAIRS_FILE, "pairs": [5]},
                                      "F": TRANSLATIONS}),
    "probes-not-a-list": (MONOTONE, {"P": {**PAIRS_FILE, "probes": 3},
                                     "F": TRANSLATIONS}),
    "probes-of-strings": (MONOTONE, {"P": PREDICATE_PAIRS,
                                     "F": TRANSLATIONS}),
    "label-not-a-string": (MONOTONE, {"P": {**PAIRS_FILE, "pairs": [
        {**PAIRS_FILE["pairs"][0], "label_a": 5}]}, "F": TRANSLATIONS}),
    "set-b-without-set": (EMBED, {"A": SET_FILE, "B": {"foo": 1},
                                  "F": TRANSLATIONS}),
    "set-b-not-an-object": (EMBED, {"A": SET_FILE, "B": [1, 2],
                                    "F": TRANSLATIONS}),
    "tol-not-a-number": (MONOTONE + ["--tol", "abc"],
                         {"P": PAIRS_FILE, "F": TRANSLATIONS}),
    "tol-divides-by-zero": (MONOTONE + ["--tol", "1/0"],
                            {"P": PAIRS_FILE, "F": TRANSLATIONS}),
    "set-path-is-a-directory": (["rich", "--set", ".", "--detect", "ap"], {}),
    "set-file-not-utf8": (RICH, {"S": b'{"label": "\xff"}'}),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_two_with_one_error_line(tmp_path, monkeypatch,
                                                       name):
    argv, files = MALFORMED[name]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_files(argv, files, tmp_path)
    lines = err.strip().splitlines()
    assert (code, out) == (2, "")
    assert len(lines) == 1 and lines[0].startswith("error:"), err


# Inputs nested past the recursion limit, asking for huge powers or windows,
# or holding numerals past int()'s digit limit are refused when parsed,
# before any work.
DEEP_PREDICATE = "union(" * 2000 + "evens" + ")" * 2000
OVERSIZED = {
    "predicate-nested-2000-deep": (
        RICH, {"S": with_set(predicate=DEEP_PREDICATE)}),
    "coefficient-predicate-nested-2000-deep": (
        ["rich", "--set", "{S}", "--detect", "poly", "--s-coeffs",
         DEEP_PREDICATE], {"S": SET_FILE}),
    "term-nested-3000-deep": (EMBED, {
        "A": SET_FILE, "B": SET_FILE, "F": {"pair": {
            "n": 1, "k": 1, "term": "(" * 3000 + "slot0+param0" + ")" * 3000}}}),
    "term-constant-of-5000-digits": (EMBED, {
        "A": SET_FILE, "B": SET_FILE, "F": {"pair": {
            "n": 1, "k": 1, "term": "slot0+" + "9" * 5000}}}),
    "power-chain-3000-long": (EMBED, {
        "A": SET_FILE, "B": SET_FILE, "F": {"pair": {
            "n": 1, "k": 0, "term": "^".join(["slot0"] * 3000)}}}),
    "exponent-99999999": (["pr", "equation", "--poly", "x^99999999",
                           "--colors", "2", "--n", "3"], {}),
    "exponent-of-5000-digits": (["pr", "equation", "--poly", "x^" + "9" * 5000,
                                 "--colors", "2", "--n", "3"], {}),
    "degree-100000": (["rich", "--set", "{S}", "--detect", "poly", "--d",
                       "100000", "--D", "1"], {"S": SET_FILE}),
    "pattern-degree-100000": (["pr", "search", "--pattern", "poly:3:100000:1",
                               "--colors", "2", "--n", "10"], {}),
    "word-window-bound-20000": (RICH, {"S": {"window": {
        **WORDS, "bound": 20000}, "set": {"explicit": ["a"]}}}),
    "word-window-bound-1000000": (RICH, {"S": {"window": {
        **WORDS, "bound": 10 ** 6}, "set": {"explicit": ["a"]}}}),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_input_exits_two_before_any_work(tmp_path, name):
    argv, files = OVERSIZED[name]
    started = time.monotonic()
    code, out, err = run_files(argv, files, tmp_path)
    assert time.monotonic() - started < 5
    lines = err.strip().splitlines()
    assert (code, out) == (2, "")
    assert len(lines) == 1 and lines[0].startswith("error:"), err


# Usage errors that argparse finds itself, before any handler runs.
USAGE_ERRORS = {
    "colors-not-an-int": ["pr", "search", "--pattern", "ap:3", "--colors",
                          "x", "--n", "5"],
    "tail-not-an-int": ["density", "--set", "{S}", "--tail", "x"],
    "probes-that-look-like-an-option": ["rich", "--set", "{S}", "--detect",
                                        "thick", "--probes", "-x"],
    "required-option-missing": ["pr", "search", "--pattern", "ap:3",
                                "--n", "5"],
    "unknown-subcommand": ["bogus", "--set", "{S}"],
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_exits_two_with_one_error_line(tmp_path, name):
    code, out, err = run_files(USAGE_ERRORS[name], {"S": SET_FILE}, tmp_path)
    lines = err.strip().splitlines()
    assert (code, out) == (2, "")
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_help_still_prints_usage_and_exits_zero(tmp_path):
    code, out, err = run_files(["rich", "--help"], {}, tmp_path)
    assert code == 0 and err == ""
    assert out.startswith("usage: finembed rich") and "--probes" in out


def test_one_parser_serves_every_call_without_carrying_state(tmp_path):
    from finembed.cli import build_parser
    build_parser.cache_clear()
    files = {"S": {**SET_FILE, "set": {"predicate": "interval:2:20"}}}
    code, out, err = run_files(USAGE_ERRORS["colors-not-an-int"], files,
                               tmp_path)
    assert (code, out) == (2, "") and err.startswith("error:")
    code, out, _ = run_files(["pr", "search", "--pattern", "ap:3",
                              "--colors", "2", "--n", "8"], files, tmp_path)
    assert code == 0 and json.loads(out)["outcome"] == "avoiding"
    thick = ["rich", "--set", "{S}", "--detect", "thick"]
    code, out, _ = run_files(thick + ["--probes", "1,2"], files, tmp_path)
    assert [e["length"] for e in json.loads(out)["probes"]] == [1, 2]
    code, out, _ = run_files(thick, files, tmp_path)
    assert [e["length"] for e in json.loads(out)["probes"]] == [1, 2, 4, 8]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("probes", ["-1", "2,-3"])
def test_negative_thick_probe_is_rejected(capsys, files, probes):
    from finembed.carrier import GroundSet, make_window
    from finembed.errors import InputError
    from finembed.rich import is_thick_window
    for win in (make_window("additive-naturals", 20),
                make_window("free-words", 3, ["a", "b"])):
        with pytest.raises(InputError, match="negative"):
            is_thick_window(GroundSet.from_predicate(win, lambda v: True),
                            [int(p) for p in probes.split(",")])
    assert_input_error(capsys, "rich", "--set", files["evens"], "--detect",
                       "thick", "--probes", probes)


def test_negative_embed_probe_is_rejected(capsys, files):
    # a size of -1 used to probe every prefix element but the last
    assert_input_error(capsys, "embed", "--set-a", files["evens"], "--set-b",
                       files["evens"], "--family", files["translations"],
                       "--probes=-1,2")


@pytest.mark.parametrize("action", [[], ["verify-monotone"]])
def test_long_interval_net_is_rejected_before_it_is_built(
        capsys, monkeypatch, files, action):
    from finembed import density
    built = []
    real = density.interval_net
    monkeypatch.setattr(density, "interval_net",
                        lambda n: built.append(n) or real(n))
    where = (["--pairs", files["pairs"], "--family", files["translations"]]
             if action else ["--set", files["evens"]])
    assert_input_error(capsys, "density", *action, *where,
                       "--net", "interval:1000000")
    assert built == []
    dispatch(["density", *action, *where, "--net", "interval:61"])
    assert capsys.readouterr().err.startswith(
        "error: net-exceeds-window at F_61: 61")
    dispatch(["density", *action, *where, "--net", "interval:60"])
    assert built == [60]


# Valid invocations whose files and options the fuzz test below corrupts,
# each with the schema of its answer.  Windows stay small,
# and integers drawn below stay small, so that every run is cheap: the
# property is about the type and shape of inputs, not their size.
FUZZ_BASES = [
    (RICH, {"S": SET_FILE}, "rich_certificate"),
    (["rich", "--set", "{S}", "--detect", "thick", "--probes", "1,2"],
     {"S": SET_FILE}, "shift_report"),
    (["rich", "--set", "{S}", "--detect", "ps", "--g", "2", "--spans", "4,8"],
     {"S": with_set(predicate="interval:2:20")}, "shift_report"),
    (["rich", "--set", "{S}", "--detect", "poly", "--d", "1", "--D", "1",
      "--s-coeffs", "evens"], {"S": SET_FILE}, "rich_certificate"),
    (["rich", "--set", "{S}", "--detect", "thick", "--probes", "1"],
     {"S": {"window": WORDS, "set": {"explicit": ["a", "ab", "b"]}}},
     "shift_report"),
    (EMBED, {"A": with_set(explicit=[0, 2]), "B": SET_FILE,
             "F": TRANSLATIONS}, "embed_verdict"),
    (EMBED, {"A": with_set(explicit=[1, 2]), "B": SET_FILE,
             "F": {"builtin": "polynomial", "args": POLY}}, "embed_verdict"),
    (EMBED, {"A": with_set(explicit=[1]), "B": SET_FILE,
             "F": {"pair": {**PAIR, "R": "N",
                            "enum": {"mode": "bounded-scan", "bound": 8}}}},
     "embed_verdict"),
    (EMBED, {"A": {"window": WORDS, "set": {"explicit": ["b"]}},
             "B": {"window": WORDS, "set": {"explicit": ["ba", "baa"]}},
             "F": {"builtin": "word-suffix", "args": {"letter": "a"}}},
     "embed_verdict"),
    (EMBED + ["--probes", "2,3"],
     {"A": with_set(predicate="multiples:4"), "B": with_set(predicate="evens"),
      "F": TRANSLATIONS}, "probe_report"),
    (["density", "--set", "{S}", "--net", "interval:10", "--tail", "2"],
     {"S": SET_FILE}, "density_report"),
    (MONOTONE + ["--tol", "1/50"], {"P": PAIRS_FILE, "F": TRANSLATIONS},
     "density_monotone"),
    (EMBED + ["--bound", "6"], {"A": with_set(explicit=[0, 2]),
                                "B": SET_FILE, "F": TRANSLATIONS},
     "embed_verdict"),
    (["pr", "search", "--pattern", "ap:3", "--colors", "2", "--n", "8"], {},
     "pr_coloring"),
    (["pr", "threshold", "--pattern", "ap:3", "--colors", "2", "--nmax", "9"],
     {}, "pr_threshold"),
    (["verify", "--suite", "strong-pr", "--seed", "1", "--budget", "tiny"],
     {}, "verify_report"),
]
# Options parsed by finembed itself, and options argparse converts to int.
OPTIONS = {"--probes", "--spans", "--D", "--s-coeffs", "--net", "--tol",
           "--colors", "--n", "--nmax", "--tail", "--d", "--g", "--bound",
           "--seed"}
SCALARS = (st.none() | st.booleans() | st.integers(-2, 6)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=6)
           | st.sampled_from(["a", "b", "evens", "interval:1:5", "free-words",
                              "additive-naturals", "affine", "polynomial",
                              "word-suffix", "slot0*param0", "bounded-scan"]))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=6), inner,
                                              max_size=3)),
    max_leaves=6)
OPTION_TEXT = (st.text(max_size=8)
               | st.lists(st.integers(-3, 12), max_size=3).map(
                   lambda ints: ",".join(map(str, ints)))
               | st.sampled_from(["interval:5", "interval:-1", "interval:",
                                  "1/3", "1/0", "-1", "evens", "union()"]))


def json_paths(value, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from json_paths(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from json_paths(sub, path + (i,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@given(data=st.data())
def test_corrupted_inputs_exit_zero_or_two(data, tmp_path_factory):
    argv, files, schema = data.draw(st.sampled_from(FUZZ_BASES))
    argv, files = list(argv), dict(files)
    options = [i for i, arg in enumerate(argv) if arg in OPTIONS]
    if options and (not files or data.draw(st.booleans())):
        # --opt=text, so that argparse takes text beginning with "-" as
        # the value and not as an option
        i = data.draw(st.sampled_from(options))
        argv[i:i + 2] = [f"{argv[i]}={data.draw(OPTION_TEXT)}"]
    else:
        name = data.draw(st.sampled_from(sorted(files)))
        path = data.draw(st.sampled_from(list(json_paths(files[name]))))
        files[name] = replaced(files[name], path, data.draw(JSON_VALUES))
    code, out, err = run_files(argv, files, tmp_path_factory.mktemp("fuzz"))
    if code == 2:
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1, err
        assert lines[0].startswith("error:") and "Traceback" not in err
        return
    # exit 1 is an answer too: a density-monotonicity violation found
    assert code == 0 or (code == 1 and schema == "density_monotone"), err
    validate(json.loads(out), f"{schema}.schema.json")

