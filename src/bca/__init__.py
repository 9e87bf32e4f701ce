"""Boundary condition analysis for the model expression (-i)^m y^(m) on [0, 1].

Decide whether boundary conditions are dissipative, self-adjoint and
Birkhoff-regular; normalize them; convert between the matrix form and
the contraction parametrization; and cross-check every formula against
an exact rational-arithmetic oracle.

The names of ``__all__`` load their module on first use (PEP 562), so
``import bca`` and the exact-only paths (``bca verify``) never import
numpy.  Each name is looked up in its module on every access, never
copied here, so ``bca.normalize is bca.bc_core.normalize`` always holds.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bc_core": (
        "BoundaryConditionSystem", "NormalizedSystem", "StructuralReport", "normalize", "orders_multiset",
        "rank_profile_orders", "structural_report", "truncate_leading", "validate",
    ),
    "contraction": (
        "CanonicalMaps", "ContractionParametrization", "canonical_maps", "contraction_roundtrip_defect",
        "from_contraction", "to_contraction",
    ),
    "forms": (
        "DissipativityVerdict", "build_M", "dissipativity_verdict", "dual_gram", "gram_on_nullspace",
        "selfadjoint_verdict",
    ),
    "numerics": ("Definiteness", "hermitian_classify", "operator_norm", "subspace_distance"),
    "polyoracle": (
        "BoundaryVector", "RationalComplex", "RationalComplexPolynomial", "boundary_vector_of",
        "hermite_interpolant", "l0_inner_product", "sample_dissipativity", "verify_boundary_form_identity",
        "verify_canonical_identity", "verify_identities",
    ),
    "regularity": ("RegularityReport", "ordered_roots", "regularity_verdict", "row_span_verdict", "span_verdict"),
    "tolerances": ("DEFAULT_TOLERANCES", "TolerancePolicy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
