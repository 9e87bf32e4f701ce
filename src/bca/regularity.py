"""Birkhoff regularity of normalized boundary conditions.

The characteristic boundary determinant is assembled from the ordered
m-th roots of -1 and the normalized rows' leading data (alpha_j, beta_j,
k_j); as a function of the auxiliary variable s it is exactly a Laurent
polynomial with support {0, 1} for odd m and {-1, 0, 1} for even m.  The
determinant is linear in each column, so each coefficient is itself one
determinant (multilinear expansion of the columns that carry s), and the
verdict thresholds them relative to an a priori Hadamard bound of the
leading data, never relative to the values being tested.

For even order two readings of the verdict exist: "at least one of
theta_-1, theta_1 nonzero" and the stricter "both nonzero".  The report
carries the individual nonzero flags and both verdicts so callers can
apply either.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .bc_core import NormalizedSystem
from .numerics import DEFAULT_TOLERANCES, TolerancePolicy


@dataclass(frozen=True)
class RegularityReport:
    """Laurent data of the boundary determinant plus the verdicts.

    ``theta_minus1`` and ``theta_minus1_nonzero`` are None for odd order.
    ``regular`` follows the parity-specific rule (odd: both theta_0 and
    theta_1 nonzero; even: at least one of theta_minus1, theta_1 nonzero);
    ``regular_strict`` requires both for even order and coincides with
    ``regular`` for odd.
    """

    parity: str
    theta_minus1: complex | None
    theta_0: complex
    theta_1: complex
    scale: float
    theta_minus1_nonzero: bool | None
    theta_0_nonzero: bool
    theta_1_nonzero: bool
    regular: bool
    regular_strict: bool


def ordered_roots(m: int) -> tuple[complex, ...]:
    """Roots ``omega_j = exp(i pi (2j-1)/m)`` sorted by ``Re(omega e^{i pi / 2m})``.

    That key is ``cos(pi (4j-1)/2m) = -cos(pi |4j-1-2m| / 2m)``, which
    rises with the integer ``|4j-1-2m|`` (always below 2m), so the order
    is the sort of j by that integer.  No two j share it: for j != j'
    that would need ``4(j + j') = 4m + 2``.
    """
    exact._check_order(m)
    order = sorted(range(1, m + 1), key=lambda j: abs(4 * j - 1 - 2 * m))
    return tuple(cmath.exp(1j * cmath.pi * (2 * j - 1) / m) for j in order)


def _column_matrices(norm: NormalizedSystem) -> tuple[np.ndarray, np.ndarray]:
    """``A_alpha[j, c] = alpha_j omega_c^k_j`` and ``A_beta[j, c] = beta_j omega_c^k_j``."""
    omegas = np.array(ordered_roots(norm.base.m))
    powers = omegas ** np.array(norm.orders)[:, None]
    alpha, beta = np.array(norm.leading, dtype=np.complex128).T
    return alpha[:, None] * powers, beta[:, None] * powers


def _determinant(a_alpha: np.ndarray, a_beta: np.ndarray, *middle: np.ndarray) -> complex:
    """Determinant whose column c is column c of its source: ``a_alpha``
    before mu = (m+1)//2 (1-based), then ``middle``, then ``a_beta``."""
    sources = [a_alpha] * ((len(a_alpha) - 1) // 2) + list(middle)
    sources += [a_beta] * (len(a_alpha) - len(sources))
    matrix = np.column_stack([x[:, c] for c, x in enumerate(sources)])
    return complex(np.linalg.det(matrix))


def regularity_verdict(
    norm: NormalizedSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> RegularityReport:
    """Laurent coefficients of the boundary determinant, their nonzero
    flags and the regular/irregular verdicts.

    The determinant is linear in each column, so expanding the columns
    that depend on s gives every theta as one determinant.  Odd order:
    theta_0 takes column mu from ``A_alpha``, theta_1 from ``A_beta``.
    Even order, with x in column mu and y in column mu + 1:
    theta_-1 = det(alpha, beta), theta_0 = det(alpha, alpha) +
    det(beta, beta) and theta_1 = det(beta, alpha).  Every theta is the
    determinant of a matrix whose row j has m entries of modulus at most
    ``max(|alpha_j|, |beta_j|)``, so ``scale = prod_j sqrt(m) *
    max(|alpha_j|, |beta_j|)`` bounds every |theta| (Hadamard); a theta
    counts as nonzero when its magnitude exceeds ``tol.zero_tol * scale``.
    """
    m = norm.base.m
    a, b = _column_matrices(norm)
    if m % 2 == 1:
        theta_minus1, theta_0, theta_1 = None, _determinant(a, b, a), _determinant(a, b, b)
    else:
        theta_minus1 = _determinant(a, b, a, b)
        theta_0 = _determinant(a, b, a, a) + _determinant(a, b, b, b)
        theta_1 = _determinant(a, b, b, a)
    scale = math.prod(math.sqrt(m) * max(abs(x), abs(y)) for x, y in norm.leading)
    threshold = tol.zero_tol * scale
    flags = [None if t is None else abs(t) > threshold for t in (theta_minus1, theta_0, theta_1)]
    theta_minus1_nonzero, theta_0_nonzero, theta_1_nonzero = flags
    if m % 2 == 1:
        regular = strict = theta_0_nonzero and theta_1_nonzero
    else:
        regular = theta_minus1_nonzero or theta_1_nonzero
        strict = theta_minus1_nonzero and theta_1_nonzero
    parity = "odd" if m % 2 == 1 else "even"
    return RegularityReport(parity, theta_minus1, theta_0, theta_1, scale, *flags, regular, strict)
