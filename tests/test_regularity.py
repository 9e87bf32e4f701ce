import cmath

import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    NormalizedSystem,
    normalize,
    ordered_roots,
    regularity_verdict,
)
from bca.errors import NotNormalized

SQRT3 = 3**0.5


def characteristic_determinant(norm, s):
    """The boundary determinant at s (s != 0), entry by entry: row j,
    column c (1-based) is ``w omega_c^k_j``, with w read off below."""
    m = norm.base.m
    mu = (m + 1) // 2

    def weight(alpha, beta, column):
        if column < mu:
            return alpha
        if column == mu:
            return alpha + s * beta
        if column == mu + 1 and m % 2 == 0:
            return alpha + beta / s
        return beta

    matrix = [
        [weight(alpha, beta, c) * omega**k for c, omega in enumerate(ordered_roots(m), 1)]
        for (alpha, beta), k in zip(norm.leading, norm.orders)
    ]
    return complex(np.linalg.det(np.array(matrix)))


class TestOrderedRoots:
    def test_m1(self):
        roots = ordered_roots(1)
        assert roots == pytest.approx((-1 + 0j,))

    def test_m2(self):
        roots = ordered_roots(2)
        assert roots[0] == pytest.approx(1j)
        assert roots[1] == pytest.approx(-1j)

    def test_m3(self):
        roots = ordered_roots(3)
        assert roots[0] == pytest.approx(-1 + 0j)
        assert roots[1] == pytest.approx(cmath.exp(1j * cmath.pi / 3))
        assert roots[2] == pytest.approx(cmath.exp(-1j * cmath.pi / 3))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_roots_of_minus_one_with_product_identity(self, m):
        roots = ordered_roots(m)
        for omega in roots:
            assert abs(omega**m + 1) <= 1e-12
        product = np.prod(roots)
        assert abs(product - (-1) ** m) <= 1e-10

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sort_keys_strictly_increase(self, m):
        roots = ordered_roots(m)
        twist = cmath.exp(1j * cmath.pi / (2 * m))
        keys = [(w * twist).real for w in roots]
        assert all(b - a > 1e-9 for a, b in zip(keys, keys[1:]))

    def test_matches_a_float_sort_of_the_twisted_roots(self):
        for m in range(1, 201):
            roots = [cmath.exp(1j * cmath.pi * (2 * j - 1) / m) for j in range(1, m + 1)]
            twist = cmath.exp(1j * cmath.pi / (2 * m))
            expected = tuple(sorted(roots, key=lambda w: (w * twist).real))
            assert ordered_roots(m) == expected, m

    def test_large_order_does_not_raise(self):
        # neighbouring float keys here differ by less than 1e-9
        m = 100_000
        omegas = ordered_roots(m)
        assert len(omegas) == m
        assert omegas[0] == cmath.exp(1j * cmath.pi * (m - 1) / m)  # j = m/2 has key 1


class TestThetaCoefficients:
    def test_dirichlet(self):
        report = regularity_verdict(normalize(helpers.dirichlet_m2()))
        assert report.parity == "even"
        assert report.theta_minus1 == pytest.approx(1.0, abs=1e-12)
        assert abs(report.theta_0) <= 1e-12
        assert report.theta_1 == pytest.approx(-1.0, abs=1e-12)

    def test_neumann(self):
        report = regularity_verdict(normalize(helpers.neumann_m2()))
        assert report.theta_minus1 == pytest.approx(1.0, abs=1e-12)
        assert abs(report.theta_0) <= 1e-12
        assert report.theta_1 == pytest.approx(-1.0, abs=1e-12)

    def test_odd_example(self):
        report = regularity_verdict(normalize(helpers.odd_irregular(2)))
        assert report.parity == "odd"
        assert report.theta_minus1 is None
        assert abs(report.theta_0) <= 1e-12 * report.scale
        assert report.theta_1 == pytest.approx(1j * SQRT3, abs=1e-12)

    def test_refit_matches_fresh_evaluation(self):
        rng = np.random.default_rng(51)
        for m in range(1, 9):
            systems = [helpers.random_system(rng, m), helpers.random_dissipative(rng, m)]
            if m % 2 == 1:
                systems.append(helpers.odd_irregular((m + 1) // 2))
            for system in systems:
                norm = normalize(system)
                report = regularity_verdict(norm)
                for s in (3.0, -0.5 + 2j):
                    predicted = report.theta_0 + s * report.theta_1
                    if report.theta_minus1 is not None:
                        predicted += report.theta_minus1 / s
                    actual = characteristic_determinant(norm, s)
                    assert abs(actual - predicted) <= 1e-12 * abs(s) * report.scale, (m, s)

    @pytest.mark.parametrize(
        "system",
        [pytest.param(helpers.odd_irregular(n), id=f"odd-irregular-n{n}") for n in range(1, 6)]
        + [
            pytest.param(helpers.dirichlet_m2(), id="dirichlet"),
            pytest.param(helpers.neumann_m2(), id="neumann"),
        ],
    )
    def test_structural_zero_theta_0_is_exact(self, system):
        assert regularity_verdict(normalize(system)).theta_0 == 0


class TestRegularityVerdict:
    def test_odd_example_irregular(self):
        report = regularity_verdict(normalize(helpers.odd_irregular(2)))
        assert report.regular is False
        assert report.regular_strict is False
        assert report.theta_1_nonzero and not report.theta_0_nonzero

    def test_dirichlet_regular(self):
        report = regularity_verdict(normalize(helpers.dirichlet_m2()))
        assert report.regular and report.regular_strict

    def test_neumann_regular(self):
        report = regularity_verdict(normalize(helpers.neumann_m2()))
        assert report.regular and report.regular_strict

    def test_row_scaling_leaves_verdict(self):
        rng = np.random.default_rng(52)
        norm = normalize(helpers.dirichlet_m2())
        reference = regularity_verdict(norm)
        for _ in range(10):
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-3:
                continue
            coeffs = norm.base.coeffs.copy()
            coeffs[0] *= c
            scaled = NormalizedSystem(base=BoundaryConditionSystem(2, coeffs), orders=norm.orders)
            report = regularity_verdict(scaled)
            assert report.regular == reference.regular
            assert report.regular_strict == reference.regular_strict

    def test_verdict_invariant_under_renormalization_path(self):
        rng = np.random.default_rng(53)
        for system in (
            helpers.dirichlet_m2(),
            helpers.odd_irregular(2),
            helpers.random_dissipative(rng, 2),
            helpers.random_dissipative(rng, 4),
        ):
            reference = regularity_verdict(normalize(system))
            for _ in range(5):
                r = helpers.random_recombination(rng, system.m)
                report = regularity_verdict(normalize(helpers.recombined(system, r)))
                assert report.regular == reference.regular
                assert report.regular_strict == reference.regular_strict

    def test_not_normalized_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=norm.base, orders=(0, 1)))

    def test_zero_leading_pair_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        coeffs = norm.base.coeffs.copy()
        k = norm.orders[0]
        coeffs[0, [k, 2 + k]] = 0
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=BoundaryConditionSystem(2, coeffs), orders=norm.orders))

    def test_order_out_of_range_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=norm.base, orders=(2, 0)))


# The boundary determinant of each of these systems vanishes identically,
# so the verdict is irregular however the rows are mixed.
SPARSE_M5 = [
    [0, 0, 0, 2, -1, -1, 0, 0, 0, 0],
    [2, 2, 0, 0, -2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, -1, 0, 0, 0, 0],
    [0, 0, 2, 0, 2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, -1],
]
# normalizes to y'(0) + y'(1) = 0 and y(1) - y(0) = 0
SPARSE_M2 = [[0, -2, 1, -2], [-2, 0, 2, 0]]


def conditioned_mixing(rng, m: int, cond: float) -> np.ndarray:
    """U diag(sigma) W* with random unitary U, W and cond(T) = ``cond``."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    w, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, m)) @ w.conj().T


class TestIdenticallyZeroDeterminant:
    def test_sparse_m5_raw_and_mixed(self):
        system = BoundaryConditionSystem(5, SPARSE_M5)
        raw = regularity_verdict(normalize(system))
        assert normalize(system).orders == (4, 4, 3, 2, 1)
        assert raw.regular is False and raw.regular_strict is False
        rng = np.random.default_rng(61)
        for cond in (1e2, 1e5):
            for _ in range(10):
                mixed = helpers.recombined(system, conditioned_mixing(rng, 5, cond))
                report = regularity_verdict(normalize(mixed))
                assert report.regular is False and report.regular_strict is False, cond

    def test_sparse_m2_unmixed(self):
        norm = normalize(BoundaryConditionSystem(2, SPARSE_M2))
        assert norm.orders == (1, 0)
        report = regularity_verdict(norm)
        assert report.regular is False and report.regular_strict is False

    def test_scale_bounds_every_theta(self):
        rng = np.random.default_rng(62)
        for m in range(1, 7):
            report = regularity_verdict(normalize(helpers.random_system(rng, m)))
            thetas = [report.theta_minus1, report.theta_0, report.theta_1]
            assert all(abs(t) <= report.scale * (1 + 1e-12) for t in thetas if t is not None)
