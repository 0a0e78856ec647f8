"""finembed: finite-scale embeddability between sets in semigroup windows,
progression-richness detectors, generalized upper density, and
partition-regularity certificate searches.

The public names below resolve lazily: `import finembed` loads no
submodule, and the first access to a name imports the one submodule that
defines it and caches the name here (PEP 562).  So `finembed.prsearch`'s
searches, like the `finembed pr` subcommand, run without numpy.
"""

from importlib import import_module

_EXPORTS = {
    "carrier": ("ADDITIVE", "FREE_WORDS", "MULTIPLICATIVE", "TABLE",
                "GroundSet", "Window", "make_table_window", "make_window",
                "op_apply", "parse_predicate"),
    "density": ("DensityReport", "Net", "check_density_monotonicity",
                "interval_net", "upper_density",
                "weak_cancellativity_bound"),
    "embed": ("EmbedVerdict", "EmbedWitness", "check_reflexive_criterion",
              "check_transitive_criterion", "check_union_split",
              "check_upward_closed", "embed_finite", "fe_decide", "fe_probe",
              "verify_witness"),
    "errors": ("BudgetError", "InputError", "UnionEmbeddingError",
               "UnverifiedPairError"),
    "families": ("FamilySpec", "builtin_affine", "builtin_geoarithmetic",
                 "builtin_left_translations", "builtin_polynomial",
                 "builtin_right_translations", "builtin_word_suffix",
                 "filter_params", "make_family_from_pair",
                 "restrict_params"),
    "prsearch": ("ColoringCertificate", "Pattern", "Polynomial",
                 "ap_pattern", "equation_pattern", "find_avoiding_coloring",
                 "gap_grid_pattern", "homogeneous_pr_check", "parse_pattern",
                 "parse_polynomial", "poly_progression_pattern",
                 "ramsey_threshold", "schur_pattern", "strong_pr_probe",
                 "verify_coloring"),
    "rich": ("ProgressionCertificate", "is_piecewise_syndetic_window",
             "is_thick_window", "longest_ap", "longest_gap_grid",
             "longest_poly_progression", "maximality_probe",
             "verify_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule name falls through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
