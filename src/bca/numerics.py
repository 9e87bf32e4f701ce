"""Small dense complex linear algebra with explicit tolerance policies.

Every verdict in the package reduces to a handful of primitives collected
here: Hermitian definiteness classification, SVD ranks and row spans,
subspace comparison and the spectral norm.  All functions are pure and
safe for concurrent use.  The tolerance policy they take is defined in
:mod:`bca.tolerances` and re-exported here.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import BadShape, DimensionMismatch, NonHermitianInput
from .tolerances import DEFAULT_TOLERANCES, TolerancePolicy  # re-exported


class Definiteness(Enum):
    ZERO = "zero"
    PSD = "psd"
    NSD = "nsd"
    INDEFINITE = "indefinite"


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a 2-D complex128 array with finite entries."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DimensionMismatch(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise BadShape("matrix entries must be finite")
    return mat


def hermitian_spectrum(
    matrix, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> tuple[Definiteness, np.ndarray]:
    """Definiteness class and ascending eigenvalues of a Hermitian matrix.

    The class thresholds eigenvalues of the Hermitian part at
    ``tol.definiteness_tol * max(1, ||G||_F)``.  ZERO means every
    eigenvalue is below threshold in magnitude; callers that accept
    "<= 0" should treat both NSD and ZERO as a hit.

    Raises ``NonHermitianInput`` if the matrix departs from its adjoint
    by more than ``tol.zero_tol`` relative.
    """
    mat = as_complex_matrix(matrix)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {mat.shape}")
    scale = max(1.0, float(np.linalg.norm(mat)))
    if float(np.linalg.norm(mat - mat.conj().T)) > tol.zero_tol * scale:
        raise NonHermitianInput("matrix is not Hermitian within zero_tol")
    eigenvalues = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    tau = tol.definiteness_tol * scale
    if np.all(np.abs(eigenvalues) <= tau):
        return Definiteness.ZERO, eigenvalues
    if np.all(eigenvalues >= -tau):
        return Definiteness.PSD, eigenvalues
    if np.all(eigenvalues <= tau):
        return Definiteness.NSD, eigenvalues
    return Definiteness.INDEFINITE, eigenvalues


def hermitian_classify(
    matrix, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> Definiteness:
    """Classify a Hermitian matrix as ZERO, PSD, NSD or INDEFINITE
    (the class of :func:`hermitian_spectrum`)."""
    return hermitian_spectrum(matrix, tol)[0]


def svd_rank(sigma: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Number of singular values above ``tol.rank_tol * ||C||_F``, where
    ``||C||_F`` is the 2-norm of all of ``C``'s singular values ``sigma``."""
    return int(np.sum(sigma > tol.rank_tol * float(np.linalg.norm(sigma))))


def numerical_rank(matrix, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Number of singular values above ``tol.rank_tol * ||C||_F``."""
    return svd_rank(np.linalg.svd(as_complex_matrix(matrix), compute_uv=False), tol)


def rank_and_pinv(matrix, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> tuple[int, np.ndarray]:
    """Rank (as :func:`numerical_rank`) and pseudo-inverse of ``C`` from one SVD, the
    latter built step for step, and so bit for bit, as ``np.linalg.pinv(C, rcond=tol.rank_tol)``."""
    u, sigma, vt = np.linalg.svd(as_complex_matrix(matrix).conjugate(), full_matrices=False)
    inverse = np.divide(1, sigma, out=np.zeros_like(sigma), where=sigma > tol.rank_tol * np.amax(sigma))
    return svd_rank(sigma, tol), np.matmul(vt.T, inverse[:, None] * u.T)


def row_span_basis(matrix, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the rows of ``C``."""
    _, sigma, vh = np.linalg.svd(as_complex_matrix(matrix))
    return vh[: svd_rank(sigma, tol)].T.copy()


def subspace_distance(basis1, basis2) -> float:
    """Sine of the largest principal angle between two column spans.

    Both arguments must carry orthonormal columns and equal column
    counts.  Computed as ``||(I - B1 B1*) B2||_2``, which stays accurate
    for nearly identical spans (no cancellation near zero).
    """
    b1 = as_complex_matrix(basis1)
    b2 = as_complex_matrix(basis2)
    if b1.shape != b2.shape:
        raise DimensionMismatch(f"basis shapes differ: {b1.shape} vs {b2.shape}")
    residual = b2 - b1 @ (b1.conj().T @ b2)
    sine = float(np.linalg.norm(residual, 2))
    return min(1.0, sine)


def operator_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    mat = as_complex_matrix(matrix)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def gaussian_matrix(rows, columns: int) -> np.ndarray:
    """The complex128 matrix of sparse Gaussian-integer rows (each row's
    nonzero ``(re, im)`` int pairs by column, as :mod:`bca.exact` builds
    them); every entry converts exactly."""
    mat = np.zeros((len(rows), columns), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, (re, im) in row.items():
            mat[i, j] = complex(re, im)
    return mat
