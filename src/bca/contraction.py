"""Canonical boundary coordinates and the contraction parametrization.

Boundary data splits into a low-order part ``y^ = P yh^t`` and a
quasi-derivative high-order part ``yv = Q yh^t`` chosen so that
``Im(L0 y, y) = Im<yv, y^>`` holds exactly.  Dissipative conditions are
then precisely the kernels of ``(V - I) yv + i (V + I) y^`` for matrices
V with operator norm at most 1; unitary V corresponds to self-adjoint
conditions.

For odd order the summed first components carry a 1/sqrt(2) weight and
the high-order vector is globally negated relative to the naive
quasi-derivative stacking; this is the unique scaling under which the
identity above holds (certified exactly by the rational oracle).  The
integer parts of the maps and the squared row weights ``w^2`` in {1/2, 1}
are exposed separately; both are exact in binary, so exact-arithmetic
consumers never meet the irrational sqrt(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import forms, numerics
from .bc_core import BoundaryConditionSystem, validate
from .errors import NotAContraction, NotDissipative, RankDeficiency
from .numerics import DEFAULT_TOLERANCES, TolerancePolicy


@dataclass(frozen=True)
class CanonicalMaps:
    """Row maps onto the low/high canonical coordinates: y^ = P yh^t, yv = Q yh^t."""

    m: int
    P: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class ContractionParametrization:
    """An m x m matrix with operator norm <= 1 (up to 1e-9 slack)."""

    m: int
    V: np.ndarray

    def __post_init__(self) -> None:
        mat = numerics.as_complex_matrix(self.V)
        if mat.shape != (self.m, self.m):
            raise NotAContraction(f"expected shape {(self.m, self.m)}, got {mat.shape}")
        norm = numerics.operator_norm(mat)
        if norm > 1.0 + 1e-9:
            raise NotAContraction(f"operator norm {norm!r} exceeds 1")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "V", mat)


def integer_canonical_components(
    m: int,
) -> tuple[np.ndarray, np.ndarray, tuple[Fraction, ...]]:
    """Gaussian-integer map rows plus squared row weights.

    The actual maps are ``P = diag(w) P_int`` and ``Q = diag(w) Q_int``
    with ``w = sqrt(weight_sq)``; every entry of the returned matrices is
    one of 0, +-1, +-i and therefore exact in floating point.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    p_int = np.zeros((m, 2 * m), dtype=np.complex128)
    q_int = np.zeros((m, 2 * m), dtype=np.complex128)
    if m % 2 == 0:
        n = m // 2
        weight_sq = tuple(Fraction(1) for _ in range(m))
        for i in range(n):
            p_int[i, i] = 1.0
            p_int[n + i, m + i] = 1.0
            sign = (-1) ** (n - 1 - i)
            q_int[i, 2 * n - 1 - i] = sign
            q_int[n + i, m + 2 * n - 1 - i] = -sign
    else:
        n = (m + 1) // 2
        weight_sq = (Fraction(1, 2),) + tuple(Fraction(1) for _ in range(m - 1))
        p_int[0, n - 1] = 1.0
        p_int[0, m + n - 1] = 1.0
        q_int[0, n - 1] = 1j
        q_int[0, m + n - 1] = -1j
        for r in range(1, n):
            k = r - 1
            p_int[r, k] = 1.0
            p_int[n - 1 + r, m + k] = 1.0
            sign = (-1) ** (n - 1 - k)
            q_int[r, 2 * n - 2 - k] = 1j * sign
            q_int[n - 1 + r, m + 2 * n - 2 - k] = -1j * sign
    return p_int, q_int, weight_sq


def canonical_maps(m: int) -> CanonicalMaps:
    """Floating-point canonical maps with the odd-case sqrt(1/2) weights applied."""
    p_int, q_int, weight_sq = integer_canonical_components(m)
    weights = np.sqrt(np.array([float(w) for w in weight_sq]))
    return CanonicalMaps(m=m, P=weights[:, None] * p_int, Q=weights[:, None] * q_int)


def to_contraction(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> ContractionParametrization:
    """Contraction V with ``V(yv + i y^) = yv - i y^`` on the solution space.

    Requires a dissipative system.  With N the null-space basis, V is
    ``Z_minus pinv(Z_plus)`` for ``Z_pm = (Q +- iP) N``; off the range of
    ``Z_plus`` the map is extended by zero.  ``Z_plus`` losing rank
    despite a dissipative verdict signals a tolerance conflict and raises
    ``RankDeficiency`` rather than being patched over.
    """
    verdict = forms.dissipativity_verdict(system, tol)
    if not verdict.dissipative:
        raise NotDissipative("system is not dissipative; no contraction exists")
    maps = canonical_maps(system.m)
    basis = system.nullspace(tol)
    z_plus = (maps.Q + 1j * maps.P) @ basis
    z_minus = (maps.Q - 1j * maps.P) @ basis
    if numerics.numerical_rank(z_plus, tol) < system.m:
        raise RankDeficiency(
            "forward coordinate map lost rank on a dissipative system"
        )
    v_mat = z_minus @ np.linalg.pinv(z_plus, rcond=tol.rank_tol)
    try:
        return ContractionParametrization(m=system.m, V=v_mat)
    except NotAContraction as exc:
        # dissipative verdict and norm bound disagree: a tolerance conflict
        raise RankDeficiency(str(exc)) from exc


def from_contraction(
    con: ContractionParametrization, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> BoundaryConditionSystem:
    """Boundary conditions ``(V - I) yv + i (V + I) y^ = 0`` as a system.

    The resulting rows are always independent and the system is always
    dissipative.
    """
    maps = canonical_maps(con.m)
    eye = np.eye(con.m)
    coeffs = (con.V - eye) @ maps.Q + 1j * (con.V + eye) @ maps.P
    system = BoundaryConditionSystem(con.m, coeffs)
    validate(system, tol)
    return system


def contraction_roundtrip_defect(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> float:
    """Subspace distance between the solution spaces of the system and of
    ``from_contraction(to_contraction(system))``."""
    rebuilt = from_contraction(to_contraction(system, tol), tol)
    return numerics.subspace_distance(system.nullspace(tol), rebuilt.nullspace(tol))
