"""finembed: finite-scale embeddability between sets in semigroup windows,
progression-richness detectors, generalized upper density, and
partition-regularity certificate searches."""

from .carrier import (ADDITIVE, FREE_WORDS, MULTIPLICATIVE, TABLE, GroundSet,
                      Window, make_table_window, make_window, op_apply,
                      parse_predicate)
from .density import (DensityReport, Net, check_density_monotonicity,
                      interval_net, upper_density, weak_cancellativity_bound)
from .embed import (EmbedVerdict, EmbedWitness, check_reflexive_criterion,
                    check_transitive_criterion, check_union_split,
                    check_upward_closed, embed_finite, fe_decide, fe_probe,
                    verify_witness)
from .errors import BudgetError, InputError, UnionEmbeddingError, UnverifiedPairError
from .families import (FamilySpec, builtin_affine, builtin_geoarithmetic,
                       builtin_left_translations, builtin_polynomial,
                       builtin_right_translations, builtin_word_suffix,
                       filter_params, make_family_from_pair, restrict_params)
from .prsearch import (ColoringCertificate, Pattern, Polynomial, ap_pattern,
                       equation_pattern, find_avoiding_coloring,
                       gap_grid_pattern, homogeneous_pr_check, parse_pattern,
                       parse_polynomial, poly_progression_pattern,
                       ramsey_threshold, schur_pattern, strong_pr_probe,
                       verify_coloring)
from .rich import (ProgressionCertificate, is_piecewise_syndetic_window,
                   is_thick_window, longest_ap, longest_gap_grid,
                   longest_poly_progression, maximality_probe,
                   verify_certificate)

__version__ = "0.1.0"
