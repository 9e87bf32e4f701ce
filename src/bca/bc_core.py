"""Boundary condition systems: representation, normalization, order bookkeeping.

A system of order ``m`` is an ``m x 2m`` complex matrix ``C = [A | B]``;
row ``j`` encodes the linear form
``U_j(y) = sum_k a_jk y^(k)(0) + b_jk y^(k)(1)``.  Normalization rewrites
the rows (preserving their span) so that the sum of row orders is minimal:
at most two rows share an order and rows sharing an order have linearly
independent leading coefficient pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact, numerics
from .errors import BadShape, DependentRows, NotNormalized, OddOrderUnsupported
from .numerics import DEFAULT_TOLERANCES, TolerancePolicy


def _binary_scaled_rows(coeffs: np.ndarray) -> np.ndarray:
    """Each row scaled by a power of two so that its largest real or
    imaginary part lies in [1, 2): exact in binary, keeps the row span, and
    keeps rows near either end of the double range from overflowing."""
    top = np.maximum(np.abs(coeffs.real), np.abs(coeffs.imag)).max(axis=1)
    shift = (1 - np.frexp(top)[1])[:, None]
    return np.ldexp(coeffs.real, shift) + 1j * np.ldexp(coeffs.imag, shift)


def _fraction(part) -> Fraction:
    return part if type(part) is Fraction else Fraction(part)  # a Fraction is kept, not rebuilt


@dataclass(frozen=True)
class BoundaryConditionSystem:
    """Order ``m`` plus the ``m x 2m`` coefficient matrix ``[A | B]``."""

    m: int
    coeffs: np.ndarray
    # The input's exact coefficients as (re, im) Fraction pairs, each
    # rounding to its entry of coeffs; None when coeffs are the data.
    exact: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        exact._check_order(self.m)
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.m, 2 * self.m):
            raise BadShape(
                f"expected coefficient shape {(self.m, 2 * self.m)}, got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs.real)) or not np.all(np.isfinite(coeffs.imag)):
            raise BadShape("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.exact is not None:
            pairs = tuple(tuple((_fraction(re), _fraction(im)) for re, im in row) for row in self.exact)
            rounded = [[complex(float(re), float(im)) for re, im in row] for row in pairs]
            if rounded != coeffs.tolist():
                raise BadShape("exact coefficients must round to coeffs")
            object.__setattr__(self, "exact", pairs)

    @property
    def exact_coeffs(self) -> tuple:
        """``coeffs`` as exact (re, im) Fraction pairs: the input's own
        rationals when it gave them, else the exact value of each double."""
        if self.exact is not None:
            return self.exact
        return tuple(tuple((Fraction(z.real), Fraction(z.imag)) for z in row) for row in self.coeffs)

    @property
    def a(self) -> np.ndarray:
        """Endpoint-0 coefficient block."""
        return self.coeffs[:, : self.m]

    @property
    def b(self) -> np.ndarray:
        """Endpoint-1 coefficient block."""
        return self.coeffs[:, self.m :]

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Singular values and right singular vectors of ``coeffs``, its
        rows first scaled by :func:`_binary_scaled_rows`; computed once per
        system; each consumer applies its own cutoff."""
        _, sigma, vh = np.linalg.svd(_binary_scaled_rows(self.coeffs))
        return sigma, vh

    def nullspace(self, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
        """Orthonormal basis (as columns) of ``{x : C x = 0}``."""
        sigma, vh = self._svd
        return vh[numerics.svd_rank(sigma, tol) :].conj().T


@dataclass(frozen=True)
class NormalizedSystem:
    """A system in minimal form with per-row orders.

    Construction checks minimal form and raises ``NotNormalized`` unless
    ``orders`` holds m orders in 0..m-1, nonincreasing, bounded by the
    order-gap rule ``orders[j] > orders[j+2]``, with no leading pair zero.
    """

    base: BoundaryConditionSystem
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = self.orders
        if len(orders) != self.base.m:
            raise NotNormalized("order list length does not match the system")
        if any(k < k_next for k, k_next in zip(orders, orders[1:])):
            raise NotNormalized("orders are not sorted descending")
        if any(k <= k_after for k, k_after in zip(orders, orders[2:])):
            raise NotNormalized("more than two rows share an order")
        if orders[-1] < 0 or orders[0] >= self.base.m:
            raise NotNormalized("an order lies outside 0..m-1")
        if any(alpha == 0 and beta == 0 for alpha, beta in self.leading):
            raise NotNormalized("a leading coefficient pair vanishes")

    @cached_property
    def leading(self) -> tuple[tuple[complex, complex], ...]:
        """Per row, the coefficient pair of ``y^(k_j)`` at the two endpoints."""
        m = self.base.m
        return tuple((complex(r[k]), complex(r[m + k])) for r, k in zip(self.base.coeffs, self.orders))


@dataclass(frozen=True)
class StructuralReport:
    """Diagnostics for even order: order-count sums and leading-pair defects."""

    rank_sums: tuple[int, ...]
    pairing_defects: tuple[float, ...]


def validate(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> None:
    """Check that the rows are linearly independent (numerical rank m)."""
    rank = numerics.svd_rank(system._svd[0], tol)
    if rank < system.m:
        raise DependentRows(f"rows have numerical rank {rank} < {system.m}")


def normalize(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> NormalizedSystem:
    """Rewrite the system in minimal form, preserving its row span.

    Rows are scaled to unit largest entry, after :func:`_binary_scaled_rows`
    (so subnormal rows do not overflow), then one pass over the
    derivative index k = m-1, ..., 0 builds the column rank profile: the
    rows without an order vanish beyond k, and those whose (a_k, b_k)
    pair is nonzero get order k when their pairs are linearly
    independent.  Otherwise they are replaced by ``U* R`` (U from the SVD
    of their pairs, so the row span is kept) with the entries beyond k,
    all below tolerance, flushed: the first rank rows get order k and
    the others, their order-k pair zeroed, wait for a lower k.  Rows
    already in minimal form are left untouched.
    """
    validate(system, tol)
    m = system.m
    scaled = _binary_scaled_rows(system.coeffs)
    rows = scaled / np.abs(scaled).max(axis=1, keepdims=True)
    orders = np.full(m, -1)
    derivative = np.arange(2 * m) % m  # derivative index of each column
    for k in range(m - 1, -1, -1):
        pending = np.flatnonzero(orders < 0)
        pairs = rows[np.ix_(pending, [k, m + k])]
        nonzero = np.abs(pairs).max(axis=1) > tol.zero_tol * np.abs(rows[pending]).max(axis=1)
        active, pairs = pending[nonzero], pairs[nonzero]
        if active.size == 0:
            continue
        u, sigma, _ = np.linalg.svd(pairs)
        rank = numerics.svd_rank(sigma, tol)
        if rank < active.size:
            mixed = u.conj().T @ rows[active]
            mixed[:, derivative > k] = 0.0
            mixed[rank:, derivative == k] = 0.0
            rows[active] = mixed / np.abs(mixed).max(axis=1, keepdims=True)
        orders[active[:rank]] = k
    if np.any(orders < 0):
        raise DependentRows("a row vanished during normalization")

    by_order = sorted(range(m), key=lambda i: (-orders[i], i))
    rows = rows[by_order]
    orders = tuple(int(orders[i]) for i in by_order)
    return NormalizedSystem(base=BoundaryConditionSystem(m, rows), orders=orders)


def orders_multiset(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> tuple[int, ...]:
    """Multiset of row orders of the normalized system, sorted descending."""
    return normalize(system, tol).orders


def rank_profile_orders(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> tuple[int, ...]:
    """Order multiset derived from column-rank profiles, without normalizing.

    ``#{j : k_j > t}`` equals the rank of the submatrix formed by the
    columns of derivative index > t at both endpoints; differencing the
    profile yields the multiset.  The blocks are taken of the rows scaled
    by :func:`_binary_scaled_rows`, which keeps every block's rank and
    keeps rows near either end of the double range from overflowing.
    Serves as an independent cross-check of :func:`orders_multiset`.
    """
    validate(system, tol)
    m = system.m
    scaled = _binary_scaled_rows(system.coeffs)
    count_above = [m]  # number of rows with order > t for t = -1..m-1
    for t in range(m - 1):
        cols = list(range(t + 1, m)) + list(range(m + t + 1, 2 * m))
        count_above.append(numerics.numerical_rank(scaled[:, cols], tol))
    count_above.append(0)
    orders: list[int] = []
    for t in range(m):
        orders.extend([t] * (count_above[t] - count_above[t + 1]))
    return tuple(sorted(orders, reverse=True))


def truncate_leading(normalized: NormalizedSystem) -> BoundaryConditionSystem:
    """Keep only each row's order-k coefficient pair, zeroing lower terms."""
    m = normalized.base.m
    coeffs = np.zeros((m, 2 * m), dtype=np.complex128)
    for j, (k, (alpha, beta)) in enumerate(zip(normalized.orders, normalized.leading)):
        coeffs[j, k] = alpha
        coeffs[j, m + k] = beta
    return BoundaryConditionSystem(m, coeffs)


def structural_report(normalized: NormalizedSystem) -> StructuralReport:
    """Even-order structure diagnostics; no verdict is attached.

    ``rank_sums[j]`` counts rows of order ``j`` plus rows of order
    ``m-1-j``.  Where a single row sits at order ``k`` and a single row
    at the partner order ``m-1-k``, the defect
    ``|alpha_j conj(alpha_j') - beta_j conj(beta_j')|`` is reported.
    """
    m = normalized.base.m
    if m % 2 != 0:
        raise OddOrderUnsupported("rank-sum diagnostics require even order")
    n = m // 2
    counts = Counter(normalized.orders)
    leading = normalized.leading
    rank_sums = tuple(counts[j] + counts[m - 1 - j] for j in range(n))
    defects: list[float] = []
    for j, k in enumerate(normalized.orders):
        partner_order = m - 1 - k
        if k <= partner_order:
            continue
        if counts[k] == 1 and counts[partner_order] == 1:
            j_partner = normalized.orders.index(partner_order)
            alpha, beta = leading[j]
            alpha_p, beta_p = leading[j_partner]
            defects.append(
                float(abs(alpha * np.conj(alpha_p) - beta * np.conj(beta_p)))
            )
    return StructuralReport(rank_sums=rank_sums, pairing_defects=tuple(defects))
