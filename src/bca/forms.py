"""Boundary sesquilinear form machinery and dissipativity verdicts.

For the model expression ``(-i)^m y^(m)`` on [0, 1] the imaginary part of
the quadratic form is carried entirely by boundary data:
``2 Im(L0 y, y) = yh M yh*`` where ``yh`` is the row vector of derivatives
0..m-1 at both endpoints and M is block-diagonal: an antidiagonal
Hermitian block B at x = 0 and -B at x = 1.  Conditions are dissipative
exactly when this form is positive semidefinite on their solution
subspace; the same test can be run on the coefficient rows, where
dissipativity shows up as negative semidefiniteness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exact, numerics
from .bc_core import BoundaryConditionSystem
from .numerics import DEFAULT_TOLERANCES, Definiteness, TolerancePolicy


@dataclass(frozen=True)
class DissipativityVerdict:
    dissipative: bool
    selfadjoint: bool
    gram_eigenvalues: tuple[float, ...]


@functools.lru_cache(maxsize=32)
def build_M(m: int) -> np.ndarray:
    """Read-only 2m x 2m boundary form matrix with ``2 Im(L0 y, y) = yh M yh*``:
    the nonzeros of :func:`bca.exact.boundary_form` as numpy, built once per
    order, so it is the conversion of the very rows the exact oracle certifies.

    Blocks B and -B, with B antidiagonal: ``B[p, m-1-p] = -i^(m+1) (-1)^p``.
    Entries are exact Gaussian integers (0, +-1, +-i).  B is Hermitian and
    unitary, so the spectrum is {+1, -1}, each with multiplicity m.
    """
    matrix = numerics.gaussian_matrix(exact.boundary_form(m)[0], 2 * m)
    matrix.setflags(write=False)
    return matrix


def gram_on_nullspace(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Gram matrix of the boundary form on the solution subspace.

    With N the orthonormal null-space basis of ``[A | B]`` (columns are
    boundary vectors transposed), the form value of a row vector yh is
    ``yh M yh*``, so the Gram matrix is ``N^t M conj(N)`` -- an m x m
    Hermitian matrix.
    """
    basis = system.nullspace(tol)
    gram = basis.T @ build_M(system.m) @ np.conj(basis)
    return (gram + gram.conj().T) / 2.0


def dissipativity_verdict(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> DissipativityVerdict:
    """Dissipative iff the null-space Gram is PSD (ZERO counts; Im >= 0 is
    non-strict); self-adjoint iff the form vanishes identically there."""
    classification, eigenvalues = numerics.hermitian_spectrum(
        gram_on_nullspace(system, tol), tol
    )
    return DissipativityVerdict(
        dissipative=classification in (Definiteness.PSD, Definiteness.ZERO),
        selfadjoint=classification is Definiteness.ZERO,
        gram_eigenvalues=tuple(float(v) for v in eigenvalues),
    )


def dual_gram(system: BoundaryConditionSystem) -> np.ndarray:
    """Gram matrix of the boundary form on the conjugated coefficient rows.

    ``G_L = conj(C) M C^t`` for the rows C of ``[A | B]``, each first
    scaled by a power of two (``system.binary_scaled``): a congruence, so
    the inertia is kept, and rows near either end of the double range
    neither overflow nor vanish.  Dissipativity of the
    system is equivalent to ``G_L <= 0``; this is the coefficient-side
    dual of :func:`gram_on_nullspace` and is kept consistent with it by
    property tests.
    """
    rows = system.binary_scaled
    gram = np.conj(rows) @ build_M(system.m) @ rows.T
    return (gram + gram.conj().T) / 2.0


def selfadjoint_verdict(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> bool:
    """True iff the boundary form vanishes identically on the solution space."""
    return dissipativity_verdict(system, tol).selfadjoint
