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


@dataclass(frozen=True, eq=False)
class BoundaryConditionSystem:
    """Order ``m`` plus the ``m x 2m`` coefficient matrix ``[A | B]``."""

    m: int
    coeffs: np.ndarray
    # The input's exact coefficients as (re, im) Fraction pairs, each
    # rounding to its entry of coeffs; None when coeffs are the data, as
    # for a file of doubles only.
    exact: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        exact._check_order(self.m)
        coeffs = numerics.as_complex_matrix(self.coeffs).copy()  # private: the caller's array stays writable
        if coeffs.shape != (self.m, 2 * self.m):
            raise BadShape(f"expected coefficient shape {(self.m, 2 * self.m)}, got {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.exact is not None:
            pairs, rounded = [], []
            if not hasattr(type(self.exact), "__iter__"):
                raise BadShape(f"exact must be a sequence of rows, got {type(self.exact).__name__}")
            for j, row in enumerate(self.exact):
                try:  # a Fraction part is kept, not rebuilt; int true division rounds correctly
                    row = tuple(tuple(z) for z in row)  # read once, whatever iterables hold it
                    if any(isinstance(v, (str, bytes)) for z in row for v in z):
                        raise TypeError("text is not a number (number strings are read only by the CLI)")
                    pairs.append(tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in z) for z in row))
                    if any(max(abs(v.numerator), v.denominator) >= exact._DIGIT_CAP for z in pairs[-1] for v in z):
                        raise ValueError(f"a numerator or denominator has more than {exact._MAX_DIGITS} digits")
                    rounded.append([complex(re.numerator / re.denominator, im.numerator / im.denominator)
                                    for re, im in pairs[-1]])
                except (TypeError, ValueError, OverflowError) as error:
                    raise BadShape(f"exact[{j}] must hold (re, im) pairs in the double range: {error}") from None
            if rounded != coeffs.tolist():
                raise BadShape("exact coefficients must round to coeffs")
            object.__setattr__(self, "exact", tuple(pairs))

    @property
    def a(self) -> np.ndarray:
        """Endpoint-0 coefficient block."""
        return self.coeffs[:, : self.m]

    @property
    def b(self) -> np.ndarray:
        """Endpoint-1 coefficient block."""
        return self.coeffs[:, self.m :]

    @cached_property
    def binary_scaled(self) -> np.ndarray:
        """Read-only ``coeffs``, each row times a power of two that puts its
        largest real or imaginary part in [1, 2): exact, keeps the row span,
        and keeps rows near either end of the double range from overflowing."""
        top = np.maximum(np.abs(self.coeffs.real), np.abs(self.coeffs.imag)).max(axis=1)
        shift = (1 - np.frexp(top)[1])[:, None]
        rows = np.ldexp(self.coeffs.real, shift) + 1j * np.ldexp(self.coeffs.imag, shift)
        rows.setflags(write=False)
        return rows

    @cached_property
    def integer_rows(self) -> tuple:
        """Gaussian-integer rows with the span of the input's own rationals,
        else of the exact value of each double (:func:`exact._integer_rows`)."""
        pairs = self.exact or [[(z.real, z.imag) for z in row] for row in self.coeffs.tolist()]
        return tuple(tuple(row) for row in exact._integer_rows(pairs))

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Singular values and right singular vectors of :attr:`binary_scaled`,
        computed once per system; :func:`validate` reads the rank from it."""
        _, sigma, vh = np.linalg.svd(self.binary_scaled)
        return sigma, vh

    def nullspace(self, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
        """Orthonormal basis (as m columns) of ``{x : C x = 0}``; raises
        ``DependentRows`` (from :func:`validate`) below rank m."""
        validate(self, tol)
        return self._svd[1][self.m :].conj().T


@dataclass(frozen=True, eq=False)
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

    Rows are scaled to unit largest entry, after ``system.binary_scaled``
    (so subnormal rows do not overflow), then one pass over the
    derivative index k = m-1, ..., 0 builds the column rank profile: the
    rows without an order vanish beyond k, and those whose (a_k, b_k)
    pair is nonzero get order k when their pairs are linearly
    independent.  Otherwise they are replaced by ``U* R`` (U from the SVD
    of their pairs, so the row span is kept) with the entries beyond k,
    all below tolerance, flushed: the first rank rows get order k and
    the others, their order-k pair zeroed, wait for a lower k, at the
    latest that of their largest entry (``DependentRows`` if no entry is
    left).  Rows already in minimal form are left untouched.
    """
    validate(system, tol)
    m = system.m
    rows = system.binary_scaled / np.abs(system.binary_scaled).max(axis=1, keepdims=True)
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
            scale = np.abs(mixed).max(axis=1, keepdims=True)
            if not scale.all():
                raise DependentRows("a row vanished during normalization")
            rows[active] = mixed / scale
        orders[active[:rank]] = k

    by_order = np.argsort(-orders, kind="stable")  # highest order first, ties in row order
    orders = tuple(orders[by_order].tolist())
    return NormalizedSystem(base=BoundaryConditionSystem(m, rows[by_order]), orders=orders)


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
    profile yields the multiset.  The blocks are taken of
    ``system.binary_scaled``, which keeps every block's rank and keeps
    rows near either end of the double range from overflowing, and each
    block's rank is judged at the scale of all the rows, so entries of a
    row below ``rank_tol`` of the system, as rounding leaves them, carry no
    order.  Serves as an independent cross-check of :func:`orders_multiset`.
    """
    return _rank_profile(system, tol, 1.0)


def _rank_profile(
    system: BoundaryConditionSystem, tol: TolerancePolicy, margin: float
) -> tuple[int, ...] | None:
    """The orders of :func:`rank_profile_orders`, or None when some block's
    rank differs between thresholds ``margin`` times lower and higher.

    :func:`normalize` tests each pair against its own row and the pairs of
    one order against each other, not a block against all the rows, so
    near the threshold the two can disagree.  At margin 1e4 no order
    differed on 4,460 seeded systems (m = 2..6, one derivative per row
    plus entries of relative size 1e-16 to 1e-4, half of them mixed).
    """
    validate(system, tol)
    m = system.m
    norm = float(np.linalg.norm(system._svd[0]))
    count_above = [m]  # number of rows with order > t for t = -1..m-1
    for t in range(m - 1):
        cols = list(range(t + 1, m)) + list(range(m + t + 1, 2 * m))
        sigma = np.linalg.svd(system.binary_scaled[:, cols], compute_uv=False)
        rank = numerics.svd_rank(sigma, tol, norm)
        if numerics.svd_rank(sigma, tol, norm / margin) != numerics.svd_rank(sigma, tol, norm * margin):
            return None
        count_above.append(rank)
    count_above.append(0)
    return tuple(t for t in range(m - 1, -1, -1) for _ in range(count_above[t] - count_above[t + 1]))


def truncate_leading(normalized: NormalizedSystem) -> BoundaryConditionSystem:
    """Keep only each row's order-k coefficient pair, zeroing lower terms."""
    m = normalized.base.m
    cols = np.array(normalized.orders)[:, None] + [0, m]  # row j's columns k_j and m + k_j
    coeffs = np.zeros((m, 2 * m), dtype=np.complex128)
    coeffs[np.arange(m)[:, None], cols] = normalized.leading
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
    counts = Counter(normalized.orders)
    pair_of = dict(zip(normalized.orders, normalized.leading))  # read only for orders held once
    rank_sums = tuple(counts[j] + counts[m - 1 - j] for j in range(m // 2))
    defects: list[float] = []
    for k in range(m - 1, m // 2 - 1, -1):  # each order above its partner m-1-k, highest first
        if counts[k] == 1 and counts[m - 1 - k] == 1:
            (alpha, beta), (alpha_p, beta_p) = pair_of[k], pair_of[m - 1 - k]
            defects.append(float(abs(alpha * np.conj(alpha_p) - beta * np.conj(beta_p))))
    return StructuralReport(rank_sums=rank_sums, pairing_defects=tuple(defects))
