"""Every input error is an ``InvalidInput``, and every ``InvalidInput`` is a
``ValueError``: one family for callers and for the CLI to catch."""

import math

import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    BoundaryVector,
    RationalComplexPolynomial,
    TolerancePolicy,
    hermite_interpolant,
    l0_inner_product,
    ordered_roots,
    sample_dissipativity,
    verify_boundary_form_identity,
)
from bca import exact, numerics, polyoracle
from bca.errors import BadShape, DimensionMismatch, InvalidInput

CASES = [
    pytest.param(lambda: exact.boundary_block(0), BadShape, id="closed-form-order"),
    pytest.param(lambda: ordered_roots(0), BadShape, id="ordered-roots-order"),
    pytest.param(lambda: hermite_interpolant(0, BoundaryVector(0, ())), BadShape, id="hermite-order"),
    pytest.param(
        lambda: hermite_interpolant(2, polyoracle.random_boundary_vector(1, 0, 0)),
        DimensionMismatch,
        id="hermite-target-order",
    ),
    pytest.param(lambda: l0_inner_product(RationalComplexPolynomial([]), 0), BadShape, id="l0-order"),
    pytest.param(lambda: BoundaryVector(2, ()), BadShape, id="boundary-vector-length"),
    pytest.param(lambda: verify_boundary_form_identity(17, 1, 0), BadShape, id="identity-order"),
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), 0, 0), InvalidInput, id="sample-count"),
    # counts and orders follow cli._parse_order's rule: no bool, no non-integer
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), True, 0), InvalidInput, id="sample-count-bool"),
    pytest.param(lambda: sample_dissipativity(helpers.dirichlet_m2(), 2.5, 0), InvalidInput, id="sample-count-float"),
    pytest.param(lambda: polyoracle.verify_identities(2.0, 1, 0), BadShape, id="identity-order-float"),
    pytest.param(lambda: polyoracle.verify_identities(True, 1, 0), BadShape, id="identity-order-bool"),
    pytest.param(lambda: verify_boundary_form_identity(2, True, 0), InvalidInput, id="identity-count-bool"),
    pytest.param(lambda: exact.boundary_block(True), BadShape, id="closed-form-order-bool"),
    pytest.param(lambda: BoundaryConditionSystem(2.0, [[1, 0, 0, 0], [0, 0, 1, 0]]), BadShape, id="system-order-float"),
    pytest.param(lambda: TolerancePolicy(rank_tol=1.0), InvalidInput, id="tolerance"),
    pytest.param(lambda: numerics.as_complex_matrix([[math.inf]]), BadShape, id="nonfinite-matrix"),
]


@pytest.mark.parametrize("call, error", CASES)
def test_input_errors_are_invalid_input_and_value_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)


def test_numpy_integers_are_counts_and_orders():
    system = helpers.dirichlet_m2()
    assert sample_dissipativity(system, np.int64(3), 0) == sample_dissipativity(system, 3, 0)
    assert polyoracle.verify_identities(np.int32(2), np.int64(1), 0) == polyoracle.verify_identities(2, 1, 0)
    assert exact.boundary_block(np.int64(3)) == exact.boundary_block(3)
