import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    NormalizedSystem,
    normalize,
    orders_multiset,
    rank_profile_orders,
    structural_report,
    truncate_leading,
    validate,
)
from bca.errors import (
    BadShape,
    DependentRows,
    NotNormalized,
    OddOrderUnsupported,
)
from bca.numerics import row_span_basis, subspace_distance


class TestValidate:
    def test_dirichlet_ok(self):
        validate(helpers.dirichlet_m2())

    def test_duplicate_rows_rejected(self):
        system = BoundaryConditionSystem(2, [[1, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(DependentRows):
            validate(system)

    def test_zero_row_rejected(self):
        with pytest.raises(DependentRows):
            validate(BoundaryConditionSystem(1, [[0, 0]]))

    def test_bad_shape_rejected_at_construction(self):
        with pytest.raises(BadShape):
            BoundaryConditionSystem(2, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(BadShape):
            BoundaryConditionSystem(1, [[np.inf, 0]])

    def test_exact_coefficients_round_to_coeffs(self):
        exact = [[(1, 0), (Fraction(-3, 5), Fraction(-4, 5))]]
        system = BoundaryConditionSystem(1, [[1, -0.6 - 0.8j]], exact=exact)
        assert system.exact_coeffs == (((Fraction(1), Fraction(0)), (Fraction(-3, 5), Fraction(-4, 5))),)
        assert helpers.transport(1, 0.5).exact_coeffs == (((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0))),)
        with pytest.raises(BadShape):
            BoundaryConditionSystem(1, [[1, -0.5 - 0.8j]], exact=exact)
        with pytest.raises(BadShape):
            BoundaryConditionSystem(1, [[1, -0.6 - 0.8j]], exact=[exact[0][:1]])

    def test_exact_fractions_are_kept_and_other_parts_converted(self):
        part = Fraction(-3, 5)
        system = BoundaryConditionSystem(1, [[1, -0.6 - 0.8j]], exact=[[(1, "0"), (part, Fraction(-4, 5))]])
        assert system.exact[0][1][0] is part
        assert [type(value) for pair in system.exact[0] for value in pair] == [Fraction] * 4


class TestNormalize:
    def test_one_elimination_step(self):
        # {y'(0) + y'(1) + y(0) = 0, y'(0) + y'(1) = 0} -> orders (1, 0)
        system = BoundaryConditionSystem(2, [[1, 1, 0, 1], [0, 1, 0, 1]])
        result = normalize(system)
        assert result.orders == (1, 0)
        low = result.base.coeffs[1]
        assert abs(low[0]) == pytest.approx(1.0)  # the surviving y(0) term
        assert np.allclose(low[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [-1070, -500, 0, 500, 1000])
    def test_power_of_two_row_scaling_changes_no_bit(self, k):
        # small Gaussian integers times 2^k stay exact down to the subnormals
        rng = np.random.default_rng(17)
        systems = [np.array([[1, 1, 0, 1], [0, 1, 0, 1]], dtype=complex)]
        for m in range(1, 7):
            for _ in range(10):
                parts = rng.integers(-3, 4, size=(2, m, 2 * m)) * (rng.random((2, m, 2 * m)) < 0.6)
                systems.append(parts[0] + 1j * parts[1])
        checked = 0
        for coeffs in systems:
            m = coeffs.shape[0]
            try:
                expected = normalize(BoundaryConditionSystem(m, coeffs))
            except DependentRows:
                continue
            scaled = np.empty_like(coeffs)
            scaled.real, scaled.imag = np.ldexp(coeffs.real, k), np.ldexp(coeffs.imag, k)
            result = normalize(BoundaryConditionSystem(m, scaled))
            assert result.orders == expected.orders
            assert result.base.coeffs.tobytes() == expected.base.coeffs.tobytes()
            assert np.array(result.leading).tobytes() == np.array(expected.leading).tobytes()
            checked += 1
        assert checked > 40

    def test_dirichlet_unchanged(self):
        result = normalize(helpers.dirichlet_m2())
        assert result.orders == (0, 0)
        assert np.array_equal(result.base.coeffs, helpers.dirichlet_m2().coeffs)

    def test_leading_pairs_are_read_from_the_rows(self):
        rng = np.random.default_rng(14)
        for m in range(1, 7):
            result = normalize(helpers.random_system(rng, m))
            assert [f.name for f in dataclasses.fields(result)] == ["base", "orders"]
            rows = result.base.coeffs
            expected = [(rows[j, k], rows[j, m + k]) for j, k in enumerate(result.orders)]
            assert result.leading == tuple(expected)

    def test_odd_example_unchanged(self):
        system = helpers.odd_irregular(2)
        result = normalize(system)
        assert result.orders == (2, 2, 1)
        assert np.array_equal(result.base.coeffs, system.coeffs)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for m in range(1, 7):
            for _ in range(10):
                system = helpers.random_system(rng, m)
                once = normalize(system)
                twice = normalize(once.base)
                assert once.orders == twice.orders
                assert subspace_distance(
                    row_span_basis(once.base.coeffs),
                    row_span_basis(twice.base.coeffs),
                ) <= 1e-9

    def test_row_span_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            system = helpers.random_system(rng, m)
            result = normalize(system)
            assert subspace_distance(
                row_span_basis(system.coeffs), row_span_basis(result.base.coeffs)
            ) <= 1e-9

    def test_class_structure_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            result = normalize(helpers.random_system(rng, m))
            orders = result.orders
            assert all(orders[j] >= orders[j + 1] for j in range(m - 1))
            assert all(orders[j] > orders[j + 2] for j in range(m - 2))
            for j in range(m - 1):
                if orders[j] == orders[j + 1]:
                    pair_matrix = np.array(
                        [list(result.leading[j]), list(result.leading[j + 1])]
                    )
                    sigma = np.linalg.svd(pair_matrix, compute_uv=False)
                    assert sigma[-1] > 1e-8 * sigma[0]

    def test_leading_pairs_nonzero(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            result = normalize(helpers.random_system(rng, m))
            for alpha, beta in result.leading:
                assert max(abs(alpha), abs(beta)) > 1e-10

    def test_no_least_squares(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("normalize called np.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        rng = np.random.default_rng(17)
        for m in range(1, 7):
            # generic rows all have order m - 1, so every order class is rebuilt
            result = normalize(helpers.random_system(rng, m))
            assert result.orders == rank_profile_orders(result.base)

    def test_flushes_residue_beyond_the_order(self):
        # the 1e-11 entry of y''(0) in the first row is below tolerance;
        # eliminating y'(0) leaves a row of largest entry 0.01, whose
        # rescaling would lift that residue above tolerance, so it is
        # flushed and every row keeps the order it is given
        system = BoundaryConditionSystem(
            3, [[0, 1, 1e-11, 0, 0, 0], [0.01, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
        )
        result = normalize(system)
        assert result.orders == rank_profile_orders(system) == (2, 1, 0)
        m = system.m
        for row, k in zip(result.base.coeffs, result.orders):
            assert max(abs(row[k]), abs(row[m + k])) > 0
            assert not row[k + 1 : m].any() and not row[m + k + 1 :].any()

    def test_dependent_rows_rejected(self):
        system = BoundaryConditionSystem(2, [[1, 0, 1, 0], [2, 0, 2, 0]])
        with pytest.raises(DependentRows):
            normalize(system)


ONES_M2 = BoundaryConditionSystem(2, np.ones((2, 4)))


class TestNormalizedSystem:
    @pytest.mark.parametrize(
        "base, orders",
        [
            pytest.param(ONES_M2, (0, 1), id="increasing"),
            pytest.param(ONES_M2, (2, 0), id="order-m"),
            pytest.param(ONES_M2, (5, 0), id="order-beyond-the-row"),
            pytest.param(BoundaryConditionSystem(2, [[1, 0, 1, 0], [0, 1, 0, 1]]), (1, 0), id="zero-leading-pair"),
            pytest.param(ONES_M2, (1,), id="too-short"),
            pytest.param(ONES_M2, (1, 0, 0), id="too-long"),
            pytest.param(BoundaryConditionSystem(3, np.ones((3, 6))), (0, 0, 0), id="three-rows-share-an-order"),
        ],
    )
    def test_not_minimal_form_rejected_at_construction(self, base, orders):
        with pytest.raises(NotNormalized):
            NormalizedSystem(base=base, orders=orders)

    def test_leading_read_once(self):
        norm = normalize(helpers.dirichlet_m2())
        assert norm.leading is norm.leading


class TestOrdersMultiset:
    def test_dirichlet(self):
        assert orders_multiset(helpers.dirichlet_m2()) == (0, 0)

    def test_odd_example(self):
        assert orders_multiset(helpers.odd_irregular(2)) == (2, 2, 1)

    def test_invariance_and_rank_profile_oracle(self):
        rng = np.random.default_rng(16)
        system = helpers.odd_irregular(2)
        reference = orders_multiset(system)
        assert reference == rank_profile_orders(system)
        for _ in range(10):
            r = helpers.random_recombination(rng, system.m)
            mixed = helpers.recombined(system, r)
            assert orders_multiset(mixed) == reference
            assert rank_profile_orders(mixed) == reference

    def test_rank_profile_of_rows_near_double_range(self):
        # the squared norm of the unscaled derivative-1 column block lies
        # beyond the double range
        system = BoundaryConditionSystem(2, [[1e300, 1e300, 0, 0], [0, 1e-300, 1e-300, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank_profile_orders(system) == orders_multiset(system) == (1, 0)


class TestTruncateLeading:
    def test_drops_lower_terms(self):
        # y'(0) + 3 y(0) + y(1) = 0 has order 1 -> y'(0) = 0
        row = BoundaryConditionSystem(2, [[3, 1, 1, 0], [0, 0, 0, 1]])
        result = truncate_leading(normalize(row))
        # first row keeps only the order-1 pair (1, 0)
        top = result.coeffs[0]
        assert abs(top[1]) > 0 and abs(top[0]) == 0 and abs(top[2]) == 0

    def test_odd_example_unchanged(self):
        system = helpers.odd_irregular(2)
        result = truncate_leading(normalize(system))
        assert np.array_equal(result.coeffs, system.coeffs)

    def test_cross_coupled_rows(self):
        # {y'(0) + y(1) = 0, y'(1) + y(0) = 0} -> {y'(0) = 0, y'(1) = 0}
        system = BoundaryConditionSystem(2, [[0, 1, 1, 0], [1, 0, 0, 1]])
        result = truncate_leading(normalize(system))
        nonzero = np.abs(result.coeffs) > 0
        assert nonzero.sum() == 2
        assert nonzero[0, 1] or nonzero[1, 1]  # a pure y'(0) row survives
        assert nonzero[0, 3] or nonzero[1, 3]  # and a pure y'(1) row


class TestStructuralReport:
    def test_dirichlet_rank_sums(self):
        report = structural_report(normalize(helpers.dirichlet_m2()))
        assert report.rank_sums == (2,)
        assert report.pairing_defects == ()

    def test_periodic_pairing(self):
        report = structural_report(normalize(helpers.periodic_m2()))
        assert report.rank_sums == (2,)
        assert len(report.pairing_defects) == 1
        assert report.pairing_defects[0] <= 1e-12

    def test_odd_order_unsupported(self):
        with pytest.raises(OddOrderUnsupported):
            structural_report(normalize(helpers.odd_irregular(2)))

    def test_non_dissipative_reported_as_is(self):
        # a non-dissipative system may violate the rank-sum pattern; the
        # report carries raw counts without judging them
        system = BoundaryConditionSystem(2, [[0, 1, 0, 0], [0, 0, 1, 0]])
        report = structural_report(normalize(system))
        assert sum(report.rank_sums) == 2
