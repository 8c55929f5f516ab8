"""Analysis, testing, rounding and correction of approximate generalized
polymorphisms of predicates on finite product spaces.

The command line front end and the batch experiment harness live in
polymorph.cli, which the package root does not import.
"""

from .corrector import (AgreementReport, BlrDecoding, CharacterFit,
                        CorrectionResult, FractionalCorrection,
                        PeelingResult, TransitionChain, blr_decode_uniform,
                        correct_alphabet, correct_fractional_nand,
                        correct_general, correct_monotone,
                        friedgut_regev_lift, markov_agreement,
                        nearest_character, peel_affine_relations,
                        round_general_cell, second_eigenvalue)
from .errors import (DomainError, PolymorphError, ResourceError,
                     UnsupportedError, ValidationError)
from .funcspace import (FunctionTable, Measure, PartialAssignment,
                        ProductMeasure, character, constant, dictator,
                        distance, expectation, from_values, load_function,
                        save_function)
from .harmonics import (Decomposition, fourier_expand, low_degree_influence,
                        noise_stability, noisy_influence)
from .polytest import (ColumnRestriction, Counterexample, ViolationReport,
                       draw_restriction, is_generalized_polymorphism,
                       joint_output_distribution, joint_value_probability,
                       violation_exact, violation_mc, violation_probability)
from .predicates import (Predicate, StarLaw, affine_relations,
                         classify_short_relations, flexible_coordinates,
                         full_predicate, load_predicate, maxterms,
                         nae_predicate, nand_predicate, one_hot_predicate,
                         parity_predicate, save_predicate, star_law,
                         validate)
from .regularity import (RegularityCertificate, build_junta_lowdeg,
                         build_junta_noisy, cell_regular_fraction,
                         potential, regular_cell_mask)

__all__ = [
    "AgreementReport", "BlrDecoding", "CharacterFit", "ColumnRestriction",
    "CorrectionResult", "Counterexample", "Decomposition", "DomainError",
    "FractionalCorrection", "FunctionTable", "Measure", "PartialAssignment",
    "PeelingResult", "PolymorphError", "Predicate", "ProductMeasure",
    "RegularityCertificate", "ResourceError", "StarLaw", "TransitionChain",
    "UnsupportedError", "ValidationError", "ViolationReport",
    "affine_relations", "blr_decode_uniform", "build_junta_lowdeg",
    "build_junta_noisy", "cell_regular_fraction", "character",
    "classify_short_relations", "constant", "correct_alphabet",
    "correct_fractional_nand", "correct_general", "correct_monotone",
    "dictator", "distance", "draw_restriction", "expectation",
    "flexible_coordinates", "fourier_expand", "friedgut_regev_lift",
    "from_values", "full_predicate", "is_generalized_polymorphism",
    "joint_output_distribution", "joint_value_probability", "load_function",
    "load_predicate", "low_degree_influence", "markov_agreement", "maxterms",
    "nae_predicate", "nand_predicate", "nearest_character", "noise_stability",
    "noisy_influence", "one_hot_predicate", "parity_predicate",
    "peel_affine_relations", "potential", "regular_cell_mask",
    "round_general_cell", "save_function", "save_predicate",
    "second_eigenvalue", "star_law", "validate", "violation_exact",
    "violation_mc", "violation_probability",
]

__version__ = "0.1.0"
