"""Birkhoff regularity from the row span.

The characteristic boundary determinant, built from the ordered m-th
roots of -1, is a Laurent polynomial in s with support {0, 1} for odd m
and {-1, 0, 1} for even m.  Its coefficient theta_t is ``det(L R_t)``
(two summed for theta_0 at even m), with L the leading truncation of the
minimal form and R_t a 2m x m matrix of ordered-root powers.  Cauchy-Binet
replaces the multilinear expansion: for any rows C of the span, with
orders k_j, ``det(C D(z) R_t)`` with ``D(z) = diag(z^derivative)`` is
``sum_S p_S(C) z^weight(S) det R_t[S, :]`` over the m-column sets S.  Its
z^w coefficient, w = sum k_j, takes only the top-weight minors, which a
row transform T scales by det T, so it is det T times theta_t: the
thetas are read from the input's own rows, with no normalization, and
thresholded against an a priori bound that scales by |det T| too.  The
z^w coefficient is a Fourier sum over the rows' weight range, so where
that range is wide, or a rank decision of the orders lies near its
threshold, :func:`span_verdict` normalizes instead.

For even order two readings of the verdict exist: "at least one of
theta_-1, theta_1 nonzero" and the stricter "both nonzero".  The report
carries the individual nonzero flags and both verdicts so callers can
apply either.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bc_core, exact
from .bc_core import BoundaryConditionSystem, NormalizedSystem
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


_STACK_ENTRIES = 1 << 18  # per stack of determinants (4 MB): a large m runs in batches
# The row span is read while N m^3 <= 2^13, N the rows' whole weight range,
# a bound on the points of the Fourier sum: beyond, normalizing and one
# determinant per R_t is faster (measured for m = 2..64 on banded, dense
# and mixed rows).
_FOURIER_BUDGET = 1 << 13
# How far each rank decision of the profile must clear its threshold for
# its orders to stand in for normalize's (see bc_core._rank_profile).
_CLEAR_RANK = 1e4


@functools.lru_cache(maxsize=32)
def _root_matrices(m: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The read-only stack of R_t, and per theta (theta_-1 at even m,
    theta_0, theta_1) the indices of the R_t whose determinants it sums.

    Column c of R_t holds ``omega_c^d`` at the rows d of one endpoint's
    block and 0 at the other's: x = 0 before column mu = (m+1)//2
    (1-based), then the columns of s, then x = 1.  Those are column mu at
    x = 0 for theta_0 and at x = 1 for theta_1 (odd m); columns mu, mu + 1
    at (0, 1) for theta_-1, (0, 0) plus (1, 1) for theta_0 and (1, 0) for
    theta_1 (even m).  The columns are orthogonal with norm sqrt(m).
    """
    powers = np.array(ordered_roots(m)) ** np.arange(m)[:, None]  # powers[d, c] = omega_c^d
    if m % 2 == 1:
        middles, groups = ((0,), (1,)), ((0,), (1,))
    else:
        middles, groups = ((0, 1), (0, 0), (1, 1), (1, 0)), ((0,), (1, 2), (3,))
    head = (m - 1) // 2
    stack = np.zeros((len(middles), 2 * m, m), dtype=np.complex128)
    for matrix, middle in zip(stack, middles):
        for c, end in enumerate((0,) * head + middle + (1,) * (m - head - len(middle))):
            matrix[end * m : (end + 1) * m, c] = powers[:, c]
    stack.setflags(write=False)
    return stack, groups


def _weight_range(rows: np.ndarray) -> tuple[int, int]:
    """The sums over ``rows`` of each row's lowest and of its highest
    derivative with a nonzero entry: ``det(rows D(z) R)`` has no z-degree
    outside them."""
    m = len(rows)
    derivative = np.arange(2 * m) % m
    nonzero = rows != 0
    lowest = np.where(nonzero, derivative, m).min(axis=1)
    highest = np.where(nonzero, derivative, -1).max(axis=1)
    return int(lowest.sum()), int(highest.sum())


def _top_coefficients(rows: np.ndarray, orders, stack: np.ndarray) -> np.ndarray:
    """Per 2m x m matrix R of ``stack``, the z^w coefficient (w = sum of
    ``orders``) of ``det(rows D(z) R)``.  Its z-degrees lie in [the rows'
    lowest weight (:func:`_weight_range`), w], a range of N, so the
    coefficient is the Fourier sum of its values at the N-th roots of
    unity, one stacked determinant."""
    m = len(orders)
    derivative = np.arange(2 * m) % m
    top = sum(orders)
    n = top - _weight_range(rows)[0] + 1
    roots = np.exp(2j * np.pi / n * np.arange(n))  # the points z_p; z_p^d is roots[p d mod n]
    points = np.arange(n)[:, None]
    columns = stack.transpose(1, 0, 2).reshape(2 * m, -1)  # the matrices side by side: one product
    step = max(1, _STACK_ENTRIES // (len(stack) * m * m))
    values = []
    for p in range(0, n, step):
        scaled = rows * roots[points[p : p + step] * derivative % n][:, None]  # rows D(z_p)
        products = (scaled.reshape(-1, 2 * m) @ columns).reshape(-1, m, len(stack), m)
        values.append(np.linalg.det(products.transpose(2, 0, 1, 3)))
    return np.concatenate(values, axis=1) @ roots[-points[:, 0] * top % n] / n


def _report(m: int, dets: list[complex], scale: float, tol: TolerancePolicy) -> RegularityReport:
    """The report of ``dets``, one determinant per R_t of
    :func:`_root_matrices`, against the a priori bound ``scale`` of each:
    a theta is nonzero above ``tol.zero_tol * scale`` times its number of
    determinants."""
    _, groups = _root_matrices(m)
    thetas = [None] * (m % 2) + [sum(dets[i] for i in group) for group in groups]
    terms = [None] * (m % 2) + [len(group) for group in groups]
    flags = [None if t is None else abs(t) > tol.zero_tol * count * scale for t, count in zip(thetas, terms)]
    theta_minus1_nonzero, theta_0_nonzero, theta_1_nonzero = flags
    if m % 2 == 1:
        regular = strict = theta_0_nonzero and theta_1_nonzero
    else:
        regular = theta_minus1_nonzero or theta_1_nonzero
        strict = theta_minus1_nonzero and theta_1_nonzero
    parity = "odd" if m % 2 == 1 else "even"
    return RegularityReport(parity, *thetas, scale, *flags, regular, strict)


def regularity_verdict(
    norm: NormalizedSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> RegularityReport:
    """Laurent coefficients of the boundary determinant of a normalized
    system, their nonzero flags and the regular/irregular verdicts: each
    theta is ``det(L R_t)`` (two summed for theta_0 at even m) for the
    leading truncation L (:func:`bc_core.truncate_leading`), whose row j is
    ``alpha_j`` at column k_j and ``beta_j`` at m + k_j, so no Fourier sum
    is needed.  R_t has orthogonal columns of norm sqrt(m), so ``scale =
    m^(m/2) prod sigma_i(L)`` bounds each |det(L R_t)|.  Rows of L of
    different orders are orthogonal and an order is held at most twice, in
    adjacent rows, so the product runs over the orders: |det| of the two
    pairs of an order held twice, the norm of the pair of one held once."""
    m = norm.base.m
    orders = np.array(norm.orders)
    alpha, beta = np.array(norm.leading, dtype=np.complex128).T
    stack = _root_matrices(m)[0]
    dets = np.linalg.det(alpha[:, None] * stack[:, orders] + beta[:, None] * stack[:, m + orders]).tolist()
    by_order = itertools.groupby(zip(norm.orders, norm.leading), key=lambda row: row[0])
    held = [[pair for _, pair in rows] for _, rows in by_order]
    volume = math.prod(
        abs(p[0][0] * p[1][1] - p[1][0] * p[0][1]) if len(p) == 2 else math.hypot(*map(abs, p[0])) for p in held
    )
    return _report(m, dets, m ** (m / 2) * volume, tol)


def row_span_verdict(
    system: BoundaryConditionSystem, orders: tuple[int, ...], tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> RegularityReport:
    """The report of :func:`regularity_verdict` with no normalization, read
    from ``system.binary_scaled``, whose minimal form has ``orders``
    (:func:`rank_profile_orders`), and from the system's cached SVD.  Each
    theta and ``scale`` are the minimal form's times det T and |det T|, for
    the row transform T between them, so each ratio |theta| / scale and
    each verdict are the same.

    By Cauchy-Binet the minors of R_t have squares summing to m^m (R_t* R_t
    = m I), so by Cauchy-Schwarz ``scale = m^(m/2) sqrt(sum |p_S(rows)|^2)``
    over the top-weight column sets S bounds each determinant.  That sum is
    ``prod sigma_i`` times the z^w coefficient for ``R = V*`` (V the right
    singular vectors), whose minors are the conjugates of V's; for a
    leading truncation ``scale`` is ``m^(m/2) prod sigma_i``."""
    m = system.m
    sigma, vh = system._svd
    stack = np.concatenate([_root_matrices(m)[0], vh[:m].conj().T[None]])
    *dets, top = _top_coefficients(system.binary_scaled, orders, stack).tolist()
    return _report(m, dets, m ** (m / 2) * math.sqrt(math.prod(sigma.tolist()) * abs(top)), tol)


def span_verdict(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> tuple[tuple[int, ...], RegularityReport]:
    """The orders of the system's minimal form and its regularity report.

    They are read from the row span (:func:`row_span_verdict` on the rank
    profile's orders) when the Fourier sum is cheap, ``N m^3 <= 2^13`` for
    N the rows' whole weight range (:func:`_weight_range`), and each rank
    decision of the profile clears its threshold by a factor 1e4;
    otherwise from :func:`bc_core.normalize` and
    :func:`regularity_verdict`, so that near a threshold the orders are
    the ones ``normalize`` gives."""
    lowest, highest = _weight_range(system.binary_scaled)
    if (highest - lowest + 1) * system.m**3 <= _FOURIER_BUDGET:
        orders = bc_core._rank_profile(system, tol, _CLEAR_RANK)
        if orders is not None:
            return orders, row_span_verdict(system, orders, tol)
    normalized = bc_core.normalize(system, tol)
    return normalized.orders, regularity_verdict(normalized, tol)
