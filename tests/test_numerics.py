import numpy as np
import pytest

from bca.bc_core import BoundaryConditionSystem
from bca.errors import DependentRows, DimensionMismatch, NonHermitianInput
from bca.numerics import (
    DEFAULT_TOLERANCES,
    Definiteness,
    TolerancePolicy,
    hermitian_classify,
    operator_norm,
    row_span_basis,
    subspace_distance,
    svd_rank,
)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.definiteness_tol == 1e-9
        assert tol.rank_tol == 1e-10
        assert tol.zero_tol == 1e-10

    @pytest.mark.parametrize("bad", [-1e-3, 0.5, 1.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(definiteness_tol=bad)


class TestHermitianClassify:
    def test_zero_matrix(self):
        assert hermitian_classify(np.zeros((2, 2))) is Definiteness.ZERO

    def test_nsd_diagonal(self):
        assert hermitian_classify(np.diag([0.0, -1.0])) is Definiteness.NSD

    def test_indefinite_signature(self):
        assert hermitian_classify(np.diag([1.0, -1.0])) is Definiteness.INDEFINITE

    def test_psd(self):
        assert hermitian_classify(np.diag([2.0, 0.0])) is Definiteness.PSD

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            hermitian_classify(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            hermitian_classify(np.zeros((2, 3)))

    def test_negation_swaps_psd_nsd(self):
        rng = np.random.default_rng(5)
        swap = {
            Definiteness.PSD: Definiteness.NSD,
            Definiteness.NSD: Definiteness.PSD,
            Definiteness.ZERO: Definiteness.ZERO,
            Definiteness.INDEFINITE: Definiteness.INDEFINITE,
        }
        for _ in range(50):
            n = int(rng.integers(1, 5))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm = (raw + raw.conj().T) / 2
            if rng.random() < 0.3:
                herm = herm @ herm.conj().T  # force PSD sometimes
            assert hermitian_classify(-herm) is swap[hermitian_classify(herm)]

    def test_unitary_congruence_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm = (raw + raw.conj().T) / 2
            u = random_unitary(rng, n)
            assert hermitian_classify(u.conj().T @ herm @ u) is hermitian_classify(herm)


class TestSvdRank:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0, 0, 0], [1 - 1j, 0, -1 - 1j, -2 + 1j]],
            [[1, 2, 3, 4], [1 / 3, 2 / 3, 1, 4 / 3]],
        ],
        ids=["zero-row", "third-of-a-row"],
    )
    def test_rounding_is_no_rank_at_rank_tol_zero(self, rows):
        # the rows are exactly dependent; their computed sigma_min is
        # rounding (about 1e-16 of ||sigma||, not 0), below the 2 k eps floor
        sigma = np.linalg.svd(np.asarray(rows, dtype=np.complex128), compute_uv=False)
        assert svd_rank(sigma, TolerancePolicy(0.0, 0.0, 0.0)) == len(rows) - 1

    @pytest.mark.parametrize("rank", [1, 2, 4], ids=["rank-1", "rank-2", "full"])
    def test_counts_the_rank_of_a_product(self, rank):
        rng = np.random.default_rng(12)
        for _ in range(10):
            left = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            right = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
            assert svd_rank(np.linalg.svd(left @ right, compute_uv=False)) == rank


class TestNullspace:
    def test_coordinate_kill(self):
        basis = BoundaryConditionSystem(1, [[1.0, 0.0]]).nullspace()
        assert basis.shape == (2, 1)
        assert subspace_distance(basis, np.array([[0.0], [1.0]])) <= 1e-12

    def test_other_coordinate(self):
        basis = BoundaryConditionSystem(1, [[0.0, 1.0]]).nullspace()
        assert subspace_distance(basis, np.array([[1.0], [0.0]])) <= 1e-12

    def test_transport_kernel(self):
        basis = BoundaryConditionSystem(1, [[1.0, 1.0]]).nullspace()
        target = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert subspace_distance(basis, target) <= 1e-12

    def test_residual_and_dimension_count(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            cols = 2 * m
            mat = rng.normal(size=(m, cols)) + 1j * rng.normal(size=(m, cols))
            if rng.random() < 0.4 and m > 1:
                mat[-1] = mat[0] * (1 + 2j)  # plant a dependency: no null space below rank m
                with pytest.raises(DependentRows, match=f"rows have numerical rank {m - 1} < {m}"):
                    BoundaryConditionSystem(m, mat).nullspace()
                continue
            basis = BoundaryConditionSystem(m, mat).nullspace()
            sigma = np.linalg.svd(mat, compute_uv=False)
            rank = int(np.sum(sigma > DEFAULT_TOLERANCES.rank_tol * np.linalg.norm(mat)))
            assert rank == m and basis.shape[1] == cols - m
            for col in basis.T:
                assert np.linalg.norm(mat @ col) <= 1e-9 * np.linalg.norm(mat)
            gram = basis.conj().T @ basis
            assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-12)


class TestSubspaceDistance:
    def test_identical(self):
        basis = np.array([[1.0], [0.0]])
        assert subspace_distance(basis, basis) == 0.0

    def test_orthogonal(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        mixed = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert subspace_distance(e1, mixed) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_distance(np.eye(2), np.eye(3))

    def test_row_span_invariant_under_recombination(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mat = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            r = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if np.linalg.cond(r) > 1e3:
                continue
            assert subspace_distance(
                row_span_basis(mat), row_span_basis(r @ mat)
            ) <= 1e-10


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert operator_norm(np.diag([0.5, -0.25])) == pytest.approx(0.5, abs=1e-14)

    def test_nilpotent(self):
        assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
            2.0, abs=1e-14
        )

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c = complex(rng.normal(), rng.normal())
            assert operator_norm(c * mat) == pytest.approx(
                abs(c) * operator_norm(mat), rel=1e-12, abs=1e-12
            )
