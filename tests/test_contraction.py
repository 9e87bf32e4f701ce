from fractions import Fraction

import numpy as np
import pytest

import helpers
from bca import (
    DEFAULT_TOLERANCES,
    BoundaryConditionSystem,
    NormalizedSystem,
    TolerancePolicy,
    canonical_maps,
    contraction_roundtrip_defect,
    dissipativity_verdict,
    from_contraction,
    operator_norm,
    selfadjoint_verdict,
    subspace_distance,
    to_contraction,
    validate,
)
from bca import exact, forms, numerics
from bca.contraction import CanonicalMaps, ContractionParametrization
from bca.errors import BadShape, DependentRows, DimensionMismatch, NotAContraction, NotDissipative

R2 = 1 / np.sqrt(2)


class TestCanonicalMaps:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_rows_of_p_and_q_are_orthonormal(self, m):
        maps = canonical_maps(m)
        rows = np.vstack([maps.P, maps.Q])
        assert np.abs(rows @ rows.conj().T - np.eye(2 * m)).max() <= 1e-14

    def test_even_m2(self):
        maps = canonical_maps(2)
        assert np.array_equal(maps.P, np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex))
        assert np.array_equal(maps.Q, np.array([[0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex))

    def test_odd_m1(self):
        maps = canonical_maps(1)
        assert np.allclose(maps.P, [[R2, R2]])
        assert np.allclose(maps.Q, [[1j * R2, -1j * R2]])

    def test_odd_m3(self):
        maps = canonical_maps(3)
        expected_p = np.zeros((3, 6), dtype=complex)
        expected_p[0, 1] = R2
        expected_p[0, 4] = R2
        expected_p[1, 0] = 1.0
        expected_p[2, 3] = 1.0
        expected_q = np.zeros((3, 6), dtype=complex)
        expected_q[0, 1] = 1j * R2
        expected_q[0, 4] = -1j * R2
        expected_q[1, 2] = -1j
        expected_q[2, 5] = 1j
        assert np.allclose(maps.P, expected_p)
        assert np.allclose(maps.Q, expected_q)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_built_once_per_order_and_read_only(self, m):
        maps = canonical_maps(m)
        assert canonical_maps(m) is maps
        for mat in (maps.P, maps.Q):
            with pytest.raises(ValueError):
                mat[0, 0] = 5.0

    @staticmethod
    def integer_components(m):
        p_rows, q_rows, weight_sq = exact.canonical_components(m)
        return numerics.gaussian_matrix(p_rows, 2 * m), numerics.gaussian_matrix(q_rows, 2 * m), weight_sq

    @pytest.mark.parametrize("m", range(1, 17))
    def test_stacked_map_is_well_conditioned(self, m):
        # P P* = Q Q* = I and P Q* = 0, checked on the integer parts, whose
        # entries 0, +-1 and +-i make these products exact in floats
        p_int, q_int, weight_sq = self.integer_components(m)
        inverse_weights = np.diag([float(1 / w) for w in weight_sq])
        assert np.array_equal(p_int @ p_int.conj().T, inverse_weights)
        assert np.array_equal(q_int @ q_int.conj().T, inverse_weights)
        assert np.array_equal(p_int @ q_int.conj().T, np.zeros((m, m)))

    @pytest.mark.parametrize("m", range(1, 17))
    def test_integer_components_are_gaussian_integers(self, m):
        p_int, q_int, weight_sq = self.integer_components(m)
        for mat in (p_int, q_int):
            assert np.array_equal(mat.real, np.round(mat.real))
            assert np.array_equal(mat.imag, np.round(mat.imag))
        # 1/2 on the odd middle row (row 0), 1 on every other row
        assert weight_sq == (Fraction(1, 2),) * (m % 2) + (Fraction(1),) * (m - m % 2)


class TestContractionParametrization:
    def test_rejects_expansion(self):
        with pytest.raises(NotAContraction):
            ContractionParametrization(1, [[1.5]])

    def test_rejects_bad_shape(self):
        with pytest.raises(NotAContraction):
            ContractionParametrization(2, [[0.0]])

    @pytest.mark.parametrize("V", [[0.5], [[]]])
    def test_rejects_a_non_matrix(self, V):
        with pytest.raises(DimensionMismatch):
            ContractionParametrization(1, V)

    def test_accepts_boundary_norm(self):
        ContractionParametrization(2, np.eye(2))

    @pytest.mark.parametrize(
        "m, V", [(True, [[0.5]]), (2.0, np.eye(2) / 2), (0, [[0.5]])], ids=["bool", "float", "zero"]
    )
    def test_rejects_an_order_that_is_not_a_positive_integer(self, m, V):
        # the check that BoundaryConditionSystem makes, before V is read
        with pytest.raises(BadShape, match="order must be"):
            ContractionParametrization(m, V)


class TestToContraction:
    def test_right_end_gives_zero(self):
        con = to_contraction(helpers.transport(0, 1))
        assert np.allclose(con.V, [[0.0]], atol=1e-12)

    def test_balanced_transport_gives_one(self):
        con = to_contraction(helpers.transport(1, 1))
        assert np.allclose(con.V, [[1.0]], atol=1e-12)

    def test_dirichlet_gives_identity(self):
        con = to_contraction(helpers.dirichlet_m2())
        assert np.allclose(con.V, np.eye(2), atol=1e-12)
        assert operator_norm(con.V) == pytest.approx(1.0, abs=1e-12)

    def test_not_dissipative_rejected(self):
        with pytest.raises(NotDissipative):
            to_contraction(helpers.transport(1, 0))

    def test_passed_verdict_gives_the_same_v(self):
        rng = np.random.default_rng(47)
        for m in (1, 2, 3, 6):
            system = helpers.random_dissipative(rng, m)
            verdict = dissipativity_verdict(system)
            assert to_contraction(system, verdict=verdict).V.tobytes() == to_contraction(system).V.tobytes()

    def test_passed_verdict_is_not_recomputed(self, monkeypatch):
        verdict = dissipativity_verdict(helpers.transport(1, 0))
        monkeypatch.setattr(forms, "dissipativity_verdict", lambda *args: pytest.fail("recomputed"))
        with pytest.raises(NotDissipative):
            to_contraction(helpers.transport(1, 0), verdict=verdict)

    def test_passed_verdict_does_not_skip_the_rank_check(self):
        # the null space is taken only at rank m, whatever verdict is passed
        dependent = BoundaryConditionSystem(2, [[1, 0, 0, 1], [2, 0, 0, 2]])
        verdict = forms.DissipativityVerdict(dissipative=True, selfadjoint=False, gram_eigenvalues=(0.0, 0.0))
        with pytest.raises(DependentRows, match="rows have numerical rank 1 < 2"):
            to_contraction(dependent, verdict=verdict)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_v_is_bit_identical_to_the_numpy_pinv_route(self, m):
        # reference: V as numpy's pinv builds it, from a second SVD of Z_plus
        rng = np.random.default_rng(100 + m)
        tol = DEFAULT_TOLERANCES
        for _ in range(6):
            system = helpers.recombined(helpers.random_dissipative(rng, m), helpers.random_recombination(rng, m))
            maps = canonical_maps(m)
            basis = system.nullspace(tol)
            z_plus = (maps.Q + 1j * maps.P) @ basis
            z_minus = (maps.Q - 1j * maps.P) @ basis
            expected = z_minus @ np.linalg.pinv(z_plus, rcond=tol.rank_tol)
            assert to_contraction(system, tol).V.tobytes() == expected.tobytes()


class TestFromContraction:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_rows_are_independent_by_their_gram(self, m):
        # C C* = 2 (V V* + I) >= 2 I: the rows are independent for every
        # contraction, so from_contraction needs no rank check
        rng = np.random.default_rng(200 + m)
        unitary, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        contractions = [
            np.zeros((m, m)), np.eye(m), -np.eye(m), np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m))),
            unitary, raw * ((1 + 1e-9 - 1e-14) / np.linalg.norm(raw, 2)),  # at the bound, less SVD rounding
        ]
        for v in contractions:
            con = ContractionParametrization(m, v)
            system = from_contraction(con)
            gram = system.coeffs @ system.coeffs.conj().T
            assert np.abs(gram - 2 * (con.V @ con.V.conj().T + np.eye(m))).max() <= 1e-12
            validate(system, TolerancePolicy(rank_tol=1e-2))

    def test_zero_recovers_right_end(self):
        system = from_contraction(ContractionParametrization(1, [[0.0]]))
        target = helpers.transport(0, 1)
        assert subspace_distance(system.nullspace(), target.nullspace()) <= 1e-12

    def test_identity_pins_low_derivatives(self):
        system = from_contraction(ContractionParametrization(2, np.eye(2)))
        assert subspace_distance(system.nullspace(), helpers.dirichlet_m2().nullspace()) <= 1e-12

    def test_minus_identity_pins_high_derivatives(self):
        system = from_contraction(ContractionParametrization(2, -np.eye(2)))
        assert subspace_distance(system.nullspace(), helpers.neumann_m2().nullspace()) <= 1e-12

    def test_always_dissipative(self):
        rng = np.random.default_rng(41)
        for m in (1, 2, 3, 4):
            for _ in range(20):
                system = from_contraction(helpers.random_contraction(rng, m))
                assert dissipativity_verdict(system).dissipative


class TestRoundtrip:
    @pytest.mark.parametrize(
        "system",
        [helpers.transport(0, 1), helpers.dirichlet_m2(), helpers.odd_irregular(2)],
        ids=["right-end", "dirichlet", "odd-example"],
    )
    def test_named_systems(self, system):
        assert contraction_roundtrip_defect(system) <= 1e-9

    def test_random_dissipative(self):
        rng = np.random.default_rng(42)
        for m in (1, 2, 3):
            for _ in range(10):
                system = helpers.random_dissipative(rng, m)
                assert contraction_roundtrip_defect(system) <= 1e-9

    def test_contraction_matrix_recovered(self):
        rng = np.random.default_rng(43)
        for m in (1, 2, 3):
            con = helpers.random_contraction(rng, m)
            again = to_contraction(from_contraction(con))
            assert np.allclose(con.V, again.V, atol=1e-10)

    def test_selfadjoint_yields_isometry(self):
        rng = np.random.default_rng(44)
        for system in (
            helpers.dirichlet_m2(),
            helpers.neumann_m2(),
            helpers.periodic_m2(),
            helpers.transport(1, 1),
        ):
            assert selfadjoint_verdict(system)
            v_mat = to_contraction(system).V
            gram = v_mat.conj().T @ v_mat
            assert np.allclose(gram, np.eye(system.m), atol=1e-8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: helpers.dirichlet_m2(),
        lambda: NormalizedSystem(helpers.dirichlet_m2(), (0, 0)),
        lambda: ContractionParametrization(2, np.eye(2) / 2),
        lambda: CanonicalMaps(2, canonical_maps(2).P.copy(), canonical_maps(2).Q.copy()),
    ],
    ids=["system", "normalized", "contraction", "maps"],
)
def test_objects_holding_arrays_compare_and_hash_by_identity(build):
    # equal twins compare unequal without comparing their arrays
    first, twin = build(), build()
    assert first == first and not first != first
    assert first != twin and not first == twin
    assert {first, twin, first} == {first, twin} and len({first, twin}) == 2
