"""The import graph follows the subcommand: `import finembed` loads no
submodule, its public names resolve lazily to the objects their submodules
define, and `finembed pr` (with --help and usage errors) runs without ever
importing numpy."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import finembed

# The names finembed exported when its __init__ imported every submodule.
EXPORTS = {
    "carrier": ["ADDITIVE", "FREE_WORDS", "MULTIPLICATIVE", "TABLE",
                "GroundSet", "Window", "make_table_window", "make_window",
                "op_apply", "parse_predicate"],
    "density": ["DensityReport", "Net", "check_density_monotonicity",
                "interval_net", "upper_density", "weak_cancellativity_bound"],
    "embed": ["EmbedVerdict", "EmbedWitness", "check_reflexive_criterion",
              "check_transitive_criterion", "check_union_split",
              "check_upward_closed", "embed_finite", "fe_decide", "fe_probe",
              "verify_witness"],
    "errors": ["BudgetError", "InputError", "UnionEmbeddingError",
               "UnverifiedPairError"],
    "families": ["FamilySpec", "builtin_affine", "builtin_geoarithmetic",
                 "builtin_left_translations", "builtin_polynomial",
                 "builtin_right_translations", "builtin_word_suffix",
                 "filter_params", "make_family_from_pair", "restrict_params"],
    "prsearch": ["ColoringCertificate", "Pattern", "Polynomial", "ap_pattern",
                 "equation_pattern", "find_avoiding_coloring",
                 "gap_grid_pattern", "homogeneous_pr_check", "parse_pattern",
                 "parse_polynomial", "poly_progression_pattern",
                 "ramsey_threshold", "schur_pattern", "strong_pr_probe",
                 "verify_coloring"],
    "rich": ["ProgressionCertificate", "is_piecewise_syndetic_window",
             "is_thick_window", "longest_ap", "longest_gap_grid",
             "longest_poly_progression", "maximality_probe",
             "verify_certificate"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_eager_exports():
    assert sorted(finembed.__all__) == sorted(name for _m, name in NAMES)
    assert len(set(finembed.__all__)) == len(finembed.__all__)


@pytest.mark.parametrize("module,name", NAMES)
def test_each_name_is_its_submodules_object(module, name):
    sub = importlib.import_module(f"finembed.{module}")
    assert getattr(finembed, name) is getattr(sub, name)
    assert name in dir(finembed)


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        finembed.no_such_name
    from finembed import carrier, prsearch
    assert carrier.GroundSet is finembed.GroundSet
    assert prsearch.__name__ == "finembed.prsearch"


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60)


def test_bare_import_loads_no_submodule():
    proc = run_python("-c", "import sys, finembed; print(sorted("
                      "m for m in sys.modules if m.startswith('finembed')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['finembed']"


def imported(stderr: str) -> set[str]:
    """The modules `python -X importtime` reports in stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


@pytest.mark.parametrize("argv,code", [
    (["pr", "threshold", "--pattern", "ap:3", "--colors", "2",
      "--nmax", "10"], 0),
    (["pr", "search", "--pattern", "schur", "--colors", "2", "--n", "4"], 0),
    (["pr", "equation", "--poly", "x+y-z", "--colors", "2", "--n", "5"], 0),
    (["--help"], 0),
    (["pr", "threshold", "--pattern", "ap:3", "--colors", "x",
      "--nmax", "10"], 2),
    (["pr", "search", "--pattern", "nope", "--colors", "2", "--n", "4"], 2),
])
def test_pr_path_never_imports_numpy(argv, code):
    proc = run_python("-X", "importtime", "-m", "finembed", *argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    names = imported(proc.stderr)
    assert "finembed.cli" in names
    assert not {n for n in names if n.split(".")[0] == "numpy"}
    assert not names & {"finembed.carrier", "finembed.families",
                        "finembed.density", "finembed.embed", "finembed.rich",
                        "finembed.verify"}


def test_a_set_subcommand_still_loads_numpy(tmp_path):
    # the other side of the boundary: reading a set needs the carrier
    path = tmp_path / "s.json"
    path.write_text('{"window": {"kind": "additive-naturals", "bound": 20},'
                    ' "set": {"predicate": "evens"}}')
    proc = run_python("-X", "importtime", "-m", "finembed", "rich",
                      "--set", str(path), "--detect", "ap")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert {"numpy", "finembed.carrier", "finembed.rich"} <= imported(
        proc.stderr)
