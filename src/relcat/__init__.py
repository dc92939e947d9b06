"""Exact calculus of subspace relations over F_q, the interpolation
category they span, and its specializations to finite-rank matrix
representations."""

from .category import (
    Morphism,
    compose,
    dual,
    gram,
    identity,
    mu_morphism,
    orbit_expand,
    orbit_invert,
    permutation,
    phi,
    symmetry,
    t_inv,
    t_iso,
    tensor,
    trace,
)
from .concrete import ConcreteMap, f_r_matrix, independence_check, rel_infty_stability, specialize
from .dsl import eval_formal, parse, parse_poly, parse_program
from .field import Fq, parse_q
from .frobenius import (
    FrobeniusData,
    check_axioms,
    frobenius_axiom_terms,
    hat_f,
    standard_target,
    term_eval,
)
from .matrix import MatFq, enumerate_subspaces, gaussian_binomial
from .poly import PolyQ
from .relations import (
    Relation,
    generator_relation,
    is_rel_infty,
    knop_diamond,
    product,
    rel_infty_normal_form,
    sigma_relation,
    star,
)
from .terms import decompose_generators

# the public API: every name imported above, and no submodule
__all__ = [
    "Morphism", "compose", "dual", "gram", "identity", "mu_morphism", "orbit_expand",
    "orbit_invert", "permutation", "phi", "symmetry", "t_inv", "t_iso", "tensor", "trace",
    "ConcreteMap", "f_r_matrix", "independence_check", "rel_infty_stability", "specialize",
    "eval_formal", "parse", "parse_poly", "parse_program",
    "Fq", "parse_q",
    "FrobeniusData", "check_axioms", "frobenius_axiom_terms", "hat_f", "standard_target",
    "term_eval",
    "MatFq", "enumerate_subspaces", "gaussian_binomial",
    "PolyQ",
    "Relation", "generator_relation", "is_rel_infty", "knop_diamond", "product",
    "rel_infty_normal_form", "sigma_relation", "star",
    "decompose_generators",
]
__version__ = "0.1.0"
