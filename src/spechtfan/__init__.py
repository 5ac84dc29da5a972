"""Exact computation of initial ideals, fans, and state polytopes of Specht ideals."""

from .combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    dominance_leq,
    dominated_partitions,
    enumerate_partitions,
    hat,
    min_gap_k,
    standard_tableaux,
)
from .errors import CapacityError, TheoremViolationError
from .fan import (
    FanSummary,
    elimination_identity_check,
    enumerate_fan,
    monotonicity_check,
    order_class_predictor,
    theorem_count,
)
from .oracle import certify_groebner, elimination_polynomial_check, marked_basis, reduce
from .polyring import Polynomial, leading_monomial
from .polytope import braid_refinement_check, pnk_vertices, vertex_ideal_bijection
from .specht import (
    MonomialIdeal,
    closed_form_initial_monomial,
    gap_condition_audit,
    initial_ideal,
    lex_groebner_generators,
    minimalize,
    specht_polynomial,
    universal_groebner_generators,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Partition",
    "Tableau",
    "VariableOrder",
    "dominance_leq",
    "dominated_partitions",
    "enumerate_partitions",
    "hat",
    "min_gap_k",
    "standard_tableaux",
    "CapacityError",
    "TheoremViolationError",
    "Polynomial",
    "leading_monomial",
    "MonomialIdeal",
    "minimalize",
    "specht_polynomial",
    "closed_form_initial_monomial",
    "initial_ideal",
    "lex_groebner_generators",
    "universal_groebner_generators",
    "gap_condition_audit",
    "FanSummary",
    "enumerate_fan",
    "theorem_count",
    "order_class_predictor",
    "monotonicity_check",
    "elimination_identity_check",
    "pnk_vertices",
    "vertex_ideal_bijection",
    "braid_refinement_check",
    "marked_basis",
    "reduce",
    "certify_groebner",
    "elimination_polynomial_check",
    "run_verification",
]
