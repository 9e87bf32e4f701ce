"""Birkhoff regularity of normalized boundary conditions.

The characteristic boundary determinant is assembled from the ordered
m-th roots of -1 and the normalized rows' leading data (alpha_j, beta_j,
k_j); as a function of the auxiliary variable s it is exactly a Laurent
polynomial with support {0, 1} for odd m and {-1, 0, 1} for even m.  The
coefficients are recovered by exact interpolation at fixed sample points
and the verdict thresholds them relative to an a priori Hadamard bound
of the leading data, never relative to the values being tested.

For even order two readings of the verdict exist: "at least one of
theta_-1, theta_1 nonzero" and the stricter "both nonzero".  The report
carries the individual nonzero flags and both verdicts so callers can
apply either.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .bc_core import NormalizedSystem
from .errors import NotNormalized, OrderingDegeneracy
from .numerics import DEFAULT_TOLERANCES, TolerancePolicy

_ODD_POINTS = (1.0, 2.0)
_EVEN_POINTS = (1.0, -1.0, 2.0)


@dataclass(frozen=True)
class OmegaOrder:
    """The m-th roots of -1 in the canonical strictly increasing order."""

    m: int
    omegas: tuple[complex, ...]


@dataclass(frozen=True)
class RegularityReport:
    """Laurent data of the boundary determinant plus the verdicts.

    ``theta_minus1`` is None for odd order.  ``regular`` follows the
    parity-specific rule (odd: both theta_0 and theta_1 nonzero; even: at
    least one of theta_minus1, theta_1 nonzero); ``regular_strict``
    requires both for even order and coincides with ``regular`` for odd.
    Verdict fields are None until a tolerance has been applied.
    """

    parity: str
    theta_minus1: complex | None
    theta_0: complex
    theta_1: complex
    scale: float
    theta_minus1_nonzero: bool | None = None
    theta_0_nonzero: bool | None = None
    theta_1_nonzero: bool | None = None
    regular: bool | None = None
    regular_strict: bool | None = None


def ordered_roots(m: int) -> OmegaOrder:
    """Roots ``exp(i pi (2j-1)/m)`` sorted by ``Re(omega e^{i pi / 2m})``.

    The sort keys are provably distinct; a gap below 1e-9 raises
    ``OrderingDegeneracy`` defensively.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    roots = [cmath.exp(1j * cmath.pi * (2 * j - 1) / m) for j in range(1, m + 1)]
    twist = cmath.exp(1j * cmath.pi / (2 * m))
    keyed = sorted(((root * twist).real, root) for root in roots)
    for (key_a, _), (key_b, _) in zip(keyed, keyed[1:]):
        if key_b - key_a <= 1e-9:
            raise OrderingDegeneracy("root ordering keys nearly collide")
    return OmegaOrder(m=m, omegas=tuple(root for _, root in keyed))


def _check_normalized(norm: NormalizedSystem) -> None:
    orders = norm.orders
    m = norm.base.m
    if len(orders) != m:
        raise NotNormalized("order list length does not match the system")
    if any(orders[j] < orders[j + 1] for j in range(m - 1)):
        raise NotNormalized("orders are not sorted descending")
    if any(orders[j] <= orders[j + 2] for j in range(m - 2)):
        raise NotNormalized("more than two rows share an order")
    for alpha, beta in norm.leading:
        if alpha == 0 and beta == 0:
            raise NotNormalized("a leading coefficient pair vanishes")


def boundary_determinant(norm: NormalizedSystem, s: complex) -> complex:
    """Evaluate the characteristic boundary determinant at s (s != 0)."""
    _check_normalized(norm)
    m = norm.base.m
    omegas = ordered_roots(m).omegas
    odd = m % 2 == 1
    mu = (m + 1) // 2 if odd else m // 2
    matrix = np.zeros((m, m), dtype=np.complex128)
    for j in range(m):
        alpha, beta = norm.leading[j]
        k = norm.orders[j]
        for c in range(1, m + 1):
            power = omegas[c - 1] ** k
            if c < mu:
                matrix[j, c - 1] = alpha * power
            elif c == mu:
                matrix[j, c - 1] = (alpha + s * beta) * power
            elif not odd and c == mu + 1:
                matrix[j, c - 1] = (alpha + beta / s) * power
            else:
                matrix[j, c - 1] = beta * power
    return complex(np.linalg.det(matrix))


def theta_coefficients(norm: NormalizedSystem) -> RegularityReport:
    """Laurent coefficients of the boundary determinant (verdict unset).

    Odd order: support {0, 1}, sampled at s in {1, 2}.  Even order:
    support {-1, 0, 1}, sampled at s in {1, -1, 2}.  Every theta is the
    determinant of a matrix whose row j has m entries of modulus at most
    ``max(|alpha_j|, |beta_j|)``, so ``scale = prod_j sqrt(m) *
    max(|alpha_j|, |beta_j|)`` bounds every |theta| (Hadamard) and
    serves the relative zero tests.
    """
    m = norm.base.m
    odd = m % 2 == 1
    points = _ODD_POINTS if odd else _EVEN_POINTS
    support = (0, 1) if odd else (-1, 0, 1)
    values = [boundary_determinant(norm, s) for s in points]
    coeffs = numerics.laurent_fit(support, points, values)
    return RegularityReport(
        parity="odd" if odd else "even",
        theta_minus1=None if odd else coeffs[-1],
        theta_0=coeffs[0],
        theta_1=coeffs[1],
        scale=math.prod(math.sqrt(m) * max(abs(a), abs(b)) for a, b in norm.leading),
    )


def regularity_verdict(
    norm: NormalizedSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> RegularityReport:
    """Attach nonzero flags and the regular/irregular verdicts.

    A coefficient counts as nonzero when its magnitude exceeds
    ``tol.zero_tol * scale``.
    """
    report = theta_coefficients(norm)
    threshold = tol.zero_tol * report.scale
    theta_0_nonzero = abs(report.theta_0) > threshold
    theta_1_nonzero = abs(report.theta_1) > threshold
    if report.parity == "odd":
        theta_minus1_nonzero = None
        regular = strict = theta_0_nonzero and theta_1_nonzero
    else:
        theta_minus1_nonzero = abs(report.theta_minus1) > threshold
        regular = theta_minus1_nonzero or theta_1_nonzero
        strict = theta_minus1_nonzero and theta_1_nonzero
    return dataclasses.replace(
        report,
        theta_minus1_nonzero=theta_minus1_nonzero,
        theta_0_nonzero=theta_0_nonzero,
        theta_1_nonzero=theta_1_nonzero,
        regular=regular,
        regular_strict=strict,
    )
