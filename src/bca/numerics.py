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

EPS = float(np.finfo(np.float64).eps)  # machine epsilon of the doubles every SVD runs in


class Definiteness(Enum):
    ZERO = "zero"
    PSD = "psd"
    NSD = "nsd"
    INDEFINITE = "indefinite"


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a 2-D complex128 array with finite entries;
    anything numpy cannot read as a rectangular complex array is ``BadShape``,
    and so is text: number strings are the CLI's grammar, not numpy's."""
    try:
        mat = np.asarray(entries)
        if mat.dtype.kind in "USO" and any(isinstance(v, (str, bytes)) for v in mat.flat):
            raise TypeError("text is not a number (number strings are read only by the CLI)")
        mat = mat.astype(np.complex128, copy=False)
    except (TypeError, ValueError, OverflowError) as error:
        raise BadShape(f"expected a rectangular array of numbers: {error}") from None
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


def svd_rank(sigma: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCES, norm: float | None = None) -> int:
    """Number of singular values above ``max(tol.rank_tol, 2 k EPS) * ||C||_F``,
    where ``||C||_F`` is the 2-norm of all k of ``C``'s singular values
    ``sigma``: one below ``2 k EPS`` of it is rounding, even at rank_tol 0.
    For C a block of a larger matrix, ``norm`` is that matrix's ``||.||_F``,
    so the block's rank is judged at the scale of the whole."""
    floor = max(tol.rank_tol, 2 * sigma.size * EPS)
    return int(np.sum(sigma > floor * (float(np.linalg.norm(sigma)) if norm is None else norm)))


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
