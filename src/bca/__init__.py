"""Boundary condition analysis for the model expression (-i)^m y^(m) on [0, 1].

Decide whether boundary conditions are dissipative, self-adjoint and
Birkhoff-regular; normalize them; convert between the matrix form and
the contraction parametrization; and cross-check every formula against
an exact rational-arithmetic oracle.
"""

__version__ = "0.1.0"

from .bc_core import (
    BoundaryConditionSystem,
    NormalizedSystem,
    StructuralReport,
    normalize,
    orders_multiset,
    rank_profile_orders,
    row_order,
    structural_report,
    truncate_leading,
    validate,
)
from .contraction import (
    CanonicalMaps,
    ContractionParametrization,
    canonical_maps,
    contraction_roundtrip_defect,
    from_contraction,
    to_contraction,
)
from .forms import (
    DissipativityVerdict,
    build_M,
    dissipativity_verdict,
    dual_gram,
    gram_on_nullspace,
    selfadjoint_verdict,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    Definiteness,
    TolerancePolicy,
    hermitian_classify,
    operator_norm,
    subspace_distance,
)
from .polyoracle import (
    BoundaryVector,
    RationalComplex,
    RationalComplexPolynomial,
    boundary_vector_of,
    hermite_interpolant,
    l0_inner_product,
    sample_dissipativity,
    verify_boundary_form_identity,
    verify_canonical_identity,
)
from .regularity import RegularityReport, ordered_roots, regularity_verdict

__all__ = [
    "__version__",
    "BoundaryConditionSystem",
    "NormalizedSystem",
    "StructuralReport",
    "normalize",
    "orders_multiset",
    "rank_profile_orders",
    "row_order",
    "structural_report",
    "truncate_leading",
    "validate",
    "CanonicalMaps",
    "ContractionParametrization",
    "canonical_maps",
    "contraction_roundtrip_defect",
    "from_contraction",
    "to_contraction",
    "DissipativityVerdict",
    "build_M",
    "dissipativity_verdict",
    "dual_gram",
    "gram_on_nullspace",
    "selfadjoint_verdict",
    "DEFAULT_TOLERANCES",
    "Definiteness",
    "TolerancePolicy",
    "hermitian_classify",
    "operator_norm",
    "subspace_distance",
    "BoundaryVector",
    "RationalComplex",
    "RationalComplexPolynomial",
    "boundary_vector_of",
    "hermite_interpolant",
    "l0_inner_product",
    "sample_dissipativity",
    "verify_boundary_form_identity",
    "verify_canonical_identity",
    "RegularityReport",
    "ordered_roots",
    "regularity_verdict",
]
