"""Canonical boundary coordinates and the contraction parametrization.

Boundary data splits into a low-order part ``y^ = P yh^t`` and a
quasi-derivative high-order part ``yv = Q yh^t`` chosen so that
``Im(L0 y, y) = Im<yv, y^>`` holds exactly.  Dissipative conditions are
then precisely the kernels of ``(V - I) yv + i (V + I) y^`` for matrices
V with operator norm at most 1; unitary V corresponds to self-adjoint
conditions.

The maps are the integer closed form :func:`bca.exact.canonical_components`
converted to numpy: at each endpoint derivative k pairs with derivative
m-1-k, with a sign alternating in k and between the endpoints, times i for
odd m.  Odd m adds the middle derivatives of both endpoints as one row of
weight 1/sqrt(2), the unique scaling under which the identity holds
(certified exactly by the rational oracle on the same closed form).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exact, forms, numerics
from .bc_core import BoundaryConditionSystem
from .errors import NotAContraction, NotDissipative, RankDeficiency
from .numerics import DEFAULT_TOLERANCES, TolerancePolicy


@dataclass(frozen=True, eq=False)
class CanonicalMaps:
    """Row maps onto the low/high canonical coordinates: y^ = P yh^t, yv = Q yh^t."""

    m: int
    P: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True, eq=False)
class ContractionParametrization:
    """An m x m matrix with operator norm <= 1 (up to 1e-9 slack)."""

    m: int
    V: np.ndarray

    def __post_init__(self) -> None:
        exact._check_order(self.m)
        mat = numerics.as_complex_matrix(self.V)
        if mat.shape != (self.m, self.m):
            raise NotAContraction(f"expected shape {(self.m, self.m)}, got {mat.shape}")
        norm = numerics.operator_norm(mat)
        if norm > 1.0 + 1e-9:
            raise NotAContraction(f"operator norm {norm!r} exceeds 1")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "V", mat)


@functools.lru_cache(maxsize=32)
def canonical_maps(m: int) -> CanonicalMaps:
    """The closed form :func:`bca.exact.canonical_components` in floating
    point, with the odd-case sqrt(1/2) weights applied.  Built once per
    order and shared, so P and Q are read-only."""
    p_rows, q_rows, weight_sq = exact.canonical_components(m)
    weights = np.sqrt(np.array(weight_sq, dtype=float))[:, None]
    maps = weights * np.stack([numerics.gaussian_matrix(rows, 2 * m) for rows in (p_rows, q_rows)])
    maps.setflags(write=False)  # P and Q are views of it
    return CanonicalMaps(m=m, P=maps[0], Q=maps[1])


def to_contraction(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES,
    verdict: forms.DissipativityVerdict | None = None,
) -> ContractionParametrization:
    """Contraction V with ``V(yv + i y^) = yv - i y^`` on the solution space.

    Requires a dissipative system: ``verdict``, the system's
    :func:`~bca.forms.dissipativity_verdict` under ``tol``, is computed if
    not passed.  With N the null-space basis, V is ``Z_minus Z_plus^-1``
    for ``Z_pm = (Q +- iP) N``, from one SVD of ``Z_plus``.  ``Z_plus``
    of rank below m (:func:`bca.numerics.svd_rank`) despite a dissipative
    verdict signals a tolerance conflict and raises ``RankDeficiency``
    rather than being patched over.
    """
    if verdict is None:
        verdict = forms.dissipativity_verdict(system, tol)
    if not verdict.dissipative:
        raise NotDissipative("system is not dissipative; no contraction exists")
    maps = canonical_maps(system.m)
    basis = system.nullspace(tol)
    z_plus = (maps.Q + 1j * maps.P) @ basis
    z_minus = (maps.Q - 1j * maps.P) @ basis
    u, sigma, vt = np.linalg.svd(z_plus.conjugate(), full_matrices=False)
    if numerics.svd_rank(sigma, tol) < system.m:
        raise RankDeficiency("forward coordinate map lost rank on a dissipative system")
    # np.linalg.pinv(z_plus, rcond=tol.rank_tol) step for step, so bit for bit: at rank m it cuts no value
    inverse = vt.T @ ((1 / sigma)[:, None] * u.T)
    try:
        return ContractionParametrization(m=system.m, V=z_minus @ inverse)
    except NotAContraction as exc:
        # dissipative verdict and norm bound disagree: a tolerance conflict
        raise RankDeficiency(str(exc)) from exc


def from_contraction(con: ContractionParametrization) -> BoundaryConditionSystem:
    """Boundary conditions ``(V - I) yv + i (V + I) y^ = 0`` as a system.

    The rows of ``[P; Q]`` are orthonormal, so the rows C satisfy
    ``C C* = 2 (V V* + I)``: always independent, and the system is always
    dissipative.
    """
    maps = canonical_maps(con.m)
    eye = np.eye(con.m)
    return BoundaryConditionSystem(con.m, (con.V - eye) @ maps.Q + 1j * (con.V + eye) @ maps.P)


def contraction_roundtrip_defect(
    system: BoundaryConditionSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> float:
    """Subspace distance between the solution spaces of the system and of
    ``from_contraction(to_contraction(system))``."""
    rebuilt = from_contraction(to_contraction(system, tol))
    return numerics.subspace_distance(system.nullspace(tol), rebuilt.nullspace(tol))
