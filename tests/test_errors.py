"""Every input error is an ``InvalidInput``, and every ``InvalidInput`` is a
``ValueError``: one family for callers and for the CLI to catch."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    BoundaryVector,
    ContractionParametrization,
    RationalComplexPolynomial,
    TolerancePolicy,
    hermite_interpolant,
    hermitian_classify,
    l0_inner_product,
    operator_norm,
    ordered_roots,
    sample_dissipativity,
    verify_boundary_form_identity,
)
from bca import exact, numerics, polyoracle
from bca.errors import BadShape, DimensionMismatch, InvalidInput

CASES = [
    pytest.param(lambda: exact.boundary_form(0), BadShape, id="closed-form-order"),
    pytest.param(lambda: ordered_roots(0), BadShape, id="ordered-roots-order"),
    pytest.param(lambda: hermite_interpolant(0, BoundaryVector(0, ())), BadShape, id="hermite-order"),
    # BoundaryVector(0, ()) is refused on its own, so give hermite_interpolant a valid target
    pytest.param(
        lambda: hermite_interpolant(0, polyoracle.random_boundary_vector(1, 0, 0)), BadShape, id="hermite-order-valid-target"
    ),
    pytest.param(
        lambda: hermite_interpolant(2, polyoracle.random_boundary_vector(1, 0, 0)),
        DimensionMismatch,
        id="hermite-target-order",
    ),
    pytest.param(lambda: l0_inner_product(RationalComplexPolynomial([]), 0), BadShape, id="l0-order"),
    pytest.param(lambda: BoundaryVector(2, ()), BadShape, id="boundary-vector-length"),
    pytest.param(lambda: BoundaryVector(True, (polyoracle.QC_ZERO,) * 2), BadShape, id="boundary-vector-order-bool"),
    pytest.param(lambda: polyoracle.random_boundary_vector(2.0, 0, 0), BadShape, id="random-vector-order-float"),
    pytest.param(lambda: polyoracle.random_boundary_vector(0, 0, 0), BadShape, id="random-vector-order-zero"),
    pytest.param(lambda: verify_boundary_form_identity(17, 1, 0), BadShape, id="identity-order"),
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), 0, 0), InvalidInput, id="sample-count"),
    # counts and orders follow cli._parse_order's rule: no bool, no non-integer
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), True, 0), InvalidInput, id="sample-count-bool"),
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), 2.5, 0), InvalidInput, id="sample-count-float"),
    pytest.param(lambda: polyoracle.verify_identities(2.0, 1, 0), BadShape, id="identity-order-float"),
    pytest.param(lambda: polyoracle.verify_identities(True, 1, 0), BadShape, id="identity-order-bool"),
    pytest.param(lambda: verify_boundary_form_identity(2, True, 0), InvalidInput, id="identity-count-bool"),
    pytest.param(lambda: exact.boundary_form(True), BadShape, id="closed-form-order-bool"),
    pytest.param(lambda: BoundaryConditionSystem(2.0, [[1, 0, 0, 0], [0, 0, 1, 0]]), BadShape, id="system-order-float"),
    pytest.param(lambda: TolerancePolicy(rank_tol=1.0), InvalidInput, id="tolerance"),
    # a tolerance is a real number; anything else is refused before it is compared
    pytest.param(lambda: TolerancePolicy(None), InvalidInput, id="tolerance-none"),
    pytest.param(lambda: TolerancePolicy("1e-9"), InvalidInput, id="tolerance-string"),
    pytest.param(lambda: TolerancePolicy(1j), InvalidInput, id="tolerance-complex"),
    pytest.param(lambda: numerics.as_complex_matrix([[math.inf]]), BadShape, id="nonfinite-matrix"),
    # malformed exact parts of a system
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=[[(math.inf, 0), (0, 0)]]), BadShape, id="exact-inf"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=[[(math.nan, 0), (0, 0)]]), BadShape, id="exact-nan"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=[[(1, 0, 0), (0, 0)]]), BadShape, id="exact-triple"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=[[1 + 0j, 0j]]), BadShape, id="exact-complex"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=[[(10**400, 0), (0, 0)]]), BadShape, id="exact-overflow"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[1, 0]], exact=5), BadShape, id="exact-not-rows"),
    # number strings are the CLI's grammar: the library reads no text, neither numpy's nor Fraction's
    pytest.param(lambda: BoundaryConditionSystem(1, [["1_0", "2j"]]), BadShape, id="system-number-strings"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[Fraction(1), "2"]]), BadShape, id="system-object-text"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[b"1", b"0"]]), BadShape, id="system-bytes"),
    pytest.param(
        lambda: BoundaryConditionSystem(1, [[0.5, 0]], exact=[[("1/2", "0"), ("0", 0)]]), BadShape, id="exact-strings"
    ),
    pytest.param(
        lambda: BoundaryConditionSystem(1, [[0.0, 1]], exact=[[("1e-200000", 0), (1, 0)]]),
        BadShape,
        id="exact-string-exponent",
    ),
    # an exact part's reduced numerator and denominator are capped at the CLI's digit limit
    pytest.param(
        lambda: BoundaryConditionSystem(1, [[0.0, 1]], exact=[[(Decimal("1e-200000"), 0), (1, 0)]]),
        BadShape,
        id="exact-decimal-over-cap",
    ),
    pytest.param(
        lambda: BoundaryConditionSystem(1, [[0.0, 1]], exact=[[(Fraction(1, 10**200000), 0), (1, 0)]]),
        BadShape,
        id="exact-fraction-over-cap",
    ),
    # arrays numpy cannot read as rectangular complex matrices
    pytest.param(lambda: BoundaryConditionSystem(1, [[1], [2, 3]]), BadShape, id="system-ragged"),
    pytest.param(lambda: BoundaryConditionSystem(1, [["a", "b"]]), BadShape, id="system-strings"),
    pytest.param(lambda: BoundaryConditionSystem(1, [[10**400, 0]]), BadShape, id="system-int-overflow"),
    pytest.param(lambda: ContractionParametrization(2, [[1, 0], [0]]), BadShape, id="contraction-ragged"),
    pytest.param(lambda: hermitian_classify([[1, 0], [0]]), BadShape, id="hermitian-ragged"),
    pytest.param(lambda: operator_norm("abc"), BadShape, id="norm-string"),
    # 0-D and 1-D coefficients fail the 2-D check of the shared coercion
    pytest.param(lambda: BoundaryConditionSystem(1, 5), DimensionMismatch, id="system-scalar"),
    pytest.param(lambda: BoundaryConditionSystem(1, [1, 0]), DimensionMismatch, id="system-vector"),
]


@pytest.mark.parametrize("call, error", CASES)
def test_input_errors_are_invalid_input_and_value_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)


def test_malformed_exact_part_names_its_row():
    with pytest.raises(BadShape, match=r"^exact\[1\] must hold \(re, im\) pairs"):
        BoundaryConditionSystem(1, [[1, 0]], exact=[[(1, 0), (0, 0)], [(math.nan, 0), (0, 0)]])
    with pytest.raises(BadShape, match=r"^exact must be a sequence of rows, got int$"):
        BoundaryConditionSystem(1, [[1, 0]], exact=5)
    with pytest.raises(BadShape, match=r"^exact\[1\] must hold .*: a numerator or denominator has more than 4300 digits$"):
        BoundaryConditionSystem(2, [[1, 0, 0, 0], [0, 0, 1, 0]], exact=[[(1, 0)] + [(0, 0)] * 3, [(0, 0)] * 2 + [(1, 0), (1, 10**4300)]])


def test_an_exact_part_at_the_digit_cap_is_kept():
    largest = 10**4300 - 1  # 4300 digits
    system = BoundaryConditionSystem(1, [[0.0, 1]], exact=[[(Fraction(1, largest), 0), (1, 0)]])
    assert system.exact[0][0][0] == Fraction(1, largest)


def test_numpy_integers_are_counts_and_orders():
    system = helpers.dirichlet_m2()
    assert sample_dissipativity(system, np.int64(3), 0) == sample_dissipativity(system, 3, 0)
    assert polyoracle.verify_identities(np.int32(2), np.int64(1), 0) == polyoracle.verify_identities(2, 1, 0)
    assert exact.boundary_form(np.int64(3)) == exact.boundary_form(3)
