"""Exact calculus of subspace relations over F_q, the interpolation
category they span, and its specializations to finite-rank matrix
representations.

Importing the package loads no submodule: each public name is imported
from its submodule on first access (PEP 562), so ``relcat.cli`` and other
callers pay only for the layers they use.
"""

from importlib import import_module as _import_module

# the public API, grouped by the submodule that defines each name; no
# submodule is itself a public name
_EXPORTS = {
    "category": (
        "Morphism", "compose", "dual", "gram", "identity", "mu_morphism", "orbit_expand",
        "orbit_invert", "permutation", "phi", "symmetry", "t_inv", "t_iso", "tensor", "trace",
    ),
    "concrete": (
        "ConcreteMap", "f_r_matrix", "independence_check", "rel_infty_stability", "specialize",
    ),
    "dsl": ("eval_formal", "parse", "parse_poly", "parse_program"),
    "field": ("Fq", "parse_q"),
    "frobenius": (
        "FrobeniusData", "check_axioms", "frobenius_axiom_terms", "hat_f", "standard_target",
        "term_eval",
    ),
    "matrix": ("MatFq", "enumerate_subspaces", "gaussian_binomial"),
    "poly": ("PolyQ",),
    "relations": (
        "Relation", "generator_relation", "is_rel_infty", "knop_diamond", "product",
        "rel_infty_normal_form", "sigma_relation", "star",
    ),
    "terms": ("decompose_generators",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its submodule on first access, then keep it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
