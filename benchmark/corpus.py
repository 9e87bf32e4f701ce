"""Seeded corpus of boundary-condition systems with ground-truth verdicts.

One corpus serves every workload.  It holds four kinds of systems for the
orders m = 1..8:

* ``float``   -- dissipative systems built from a random contraction V
  through the canonical coordinates, ``(V - I) yv + i (V + I) y^ = 0``.
  Unitary V gives a self-adjoint system; ``||V|| < 1`` a dissipative one
  that is not self-adjoint.  The coefficients are doubles, so the exact
  oracle sees null spaces with ~52-bit denominators.
* ``generic`` -- random complex Gaussian systems, mostly not dissipative.
* ``exact``   -- small-integer and ``"p/q"`` systems whose verdicts follow
  from their construction: Dirichlet and Neumann (even m), periodic,
  quasi-periodic with the unimodular phase 3/5 + 4/5 i, the odd-irregular
  family n = 1..4, sparse integer systems and the m = 5 system whose
  boundary determinant vanishes identically.  Their null spaces have
  denominators of a few bits.
* ``mixed``   -- a copy of each exact system mixed by a seeded row
  transform T with cond(T) of 1e2 or 1e5.  Verdicts must not change.

The canonical coordinates are written out here rather than taken from
``bca.contraction``, so the ground truth does not depend on the code it
checks.  Every random draw comes from a generator keyed by the seed and
the case name, so the same seed gives the same corpus and adding a case
does not disturb the others.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ORDERS = range(1, 9)
KINDS = ("float", "generic", "exact", "mixed")
PHASE = (Fraction(3, 5), Fraction(4, 5))
# Sparse integer system at m = 5 with an identically vanishing boundary
# determinant; row mixing flips its regularity verdict at the seed.
DEFECT1 = (
    (0, 0, 0, 2, -1, -1, 0, 0, 0, 0),
    (2, 2, 0, 0, -2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, -1, 0, 0, 0, 0),
    (0, 0, 2, 0, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, 0, 0, 0, -1),
)
MIX_CONDITIONS = (1e2, 1e5)

SELF_ADJOINT = {"dissipative": True, "selfadjoint": True}
STRICTLY_REGULAR = {"regular": True, "regular_strict": True}


@dataclass(frozen=True, eq=False)
class Case:
    """One input system.

    ``exact`` holds (re, im) Fraction pairs for ``p/q``-encoded systems
    and is None for float-encoded ones.  ``truth`` holds only the
    verdicts the construction determines.  ``contraction`` is the V a
    float-kind system was built from.
    """

    name: str
    kind: str
    m: int
    coeffs: np.ndarray
    truth: dict
    exact: tuple | None = None
    original: str | None = None
    contraction: np.ndarray | None = None

    @property
    def encoding(self) -> str:
        return "float" if self.exact is None else "p/q"

    def document(self) -> dict:
        """The CLI input object ``{"m": .., "conditions": [..]}``."""
        if self.exact is None:
            cells = [[[float(z.real), float(z.imag)] for z in row] for row in self.coeffs]
        else:
            cells = [[[str(re), str(im)] for re, im in row] for row in self.exact]
        m = self.m
        return {
            "m": m,
            "conditions": [{"a": row[:m], "b": row[m:]} for row in cells],
        }

    def document_text(self) -> str:
        return json.dumps(self.document())


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _exact_case(name: str, m: int, rows, truth: dict) -> Case:
    """A system from integer or (re, im) Fraction entries."""
    exact = tuple(
        tuple(
            (Fraction(v[0]), Fraction(v[1])) if isinstance(v, tuple) else (Fraction(v), Fraction(0))
            for v in row
        )
        for row in rows
    )
    coeffs = np.array(
        [[complex(float(re), float(im)) for re, im in row] for row in exact]
    )
    return Case(name=name, kind="exact", m=m, coeffs=coeffs, truth=dict(truth), exact=exact)


def canonical_maps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row maps P, Q with ``Im(L0 y, y) = Im<Q yh, P yh>`` (module docstring
    of ``bca.contraction``; odd m weights the summed first row by 1/sqrt 2)."""
    p = np.zeros((m, 2 * m), dtype=complex)
    q = np.zeros((m, 2 * m), dtype=complex)
    if m % 2 == 0:
        n = m // 2
        for i in range(n):
            sign = (-1) ** (n - 1 - i)
            p[i, i] = p[n + i, m + i] = 1
            q[i, 2 * n - 1 - i] = sign
            q[n + i, m + 2 * n - 1 - i] = -sign
        return p, q
    n = (m + 1) // 2
    w = np.sqrt(0.5)
    p[0, n - 1] = p[0, m + n - 1] = w
    q[0, n - 1], q[0, m + n - 1] = 1j * w, -1j * w
    for r in range(1, n):
        k = r - 1
        sign = (-1) ** (n - 1 - k)
        p[r, k] = p[n - 1 + r, m + k] = 1
        q[r, 2 * n - 2 - k] = 1j * sign
        q[n - 1 + r, m + 2 * n - 2 - k] = -1j * sign
    return p, q


def float_case(seed: int, m: int, unitary: bool) -> Case:
    name = f"float-{'unitary' if unitary else 'contraction'}-m{m}"
    rng = _rng(seed, name)
    raw = _gaussian(rng, (m, m))
    if unitary:
        v, r = np.linalg.qr(raw)
        v = v * (np.diag(r) / np.abs(np.diag(r)))
    else:
        v = raw * (rng.uniform(0.3, 0.9) / np.linalg.norm(raw, 2))
    p, q = canonical_maps(m)
    eye = np.eye(m)
    coeffs = (v - eye) @ q + 1j * (v + eye) @ p
    truth = {"dissipative": True, "selfadjoint": unitary}
    return Case(name=name, kind="float", m=m, coeffs=coeffs, truth=truth, contraction=v)


def generic_case(seed: int, m: int) -> Case:
    """Random system; at m = 1 it is the transport condition a y(0) + b y(1),
    dissipative exactly when |b| >= |a| (drawn away from the boundary)."""
    name = f"generic-m{m}"
    rng = _rng(seed, name)
    while True:
        coeffs = _gaussian(rng, (m, 2 * m))
        if m > 1:
            return Case(name, "generic", m, coeffs, {"selfadjoint": False})
        a, b = abs(coeffs[0, 0]), abs(coeffs[0, 1])
        if abs(a - b) > 0.05 * max(a, b):
            truth = {"dissipative": bool(b > a), "selfadjoint": False}
            return Case(name, "generic", m, coeffs, truth)


def dirichlet(m: int) -> Case:
    """y^(k)(0) = y^(k)(1) = 0 for k < m/2: separated, so strictly regular."""
    rows = []
    for k in range(m // 2):
        rows.append([int(c == k) for c in range(2 * m)])
        rows.append([int(c == m + k) for c in range(2 * m)])
    return _exact_case(f"exact-dirichlet-m{m}", m, rows, SELF_ADJOINT | STRICTLY_REGULAR)


def neumann(m: int) -> Case:
    """y^(k)(0) = y^(k)(1) = 0 for m/2 <= k < m."""
    rows = []
    for k in range(m // 2, m):
        rows.append([int(c == k) for c in range(2 * m)])
        rows.append([int(c == m + k) for c in range(2 * m)])
    return _exact_case(f"exact-neumann-m{m}", m, rows, SELF_ADJOINT | STRICTLY_REGULAR)


def quasi_periodic(m: int, phase) -> Case:
    """y^(k)(1) = c y^(k)(0) for every k; self-adjoint whenever |c| = 1,
    because the two blocks of the boundary form cancel."""
    minus_c = (-phase[0], -phase[1])
    rows = [
        [minus_c if c == k else int(c == m + k) for c in range(2 * m)] for k in range(m)
    ]
    family = "periodic" if phase == (1, 0) else "quasiperiodic"
    return _exact_case(f"exact-{family}-m{m}", m, rows, SELF_ADJOINT)


def odd_irregular(n: int) -> Case:
    """Order m = 2n - 1: y^(k)(0) = y^(k)(1) = 0 for k = n..2n-2 and
    y^(n-1)(1) = 0.  The form is |y^(n-1)(0)|^2 / 2, so the system is
    dissipative but not self-adjoint, and theta_0 vanishes (acceptance 03)."""
    m = 2 * n - 1
    rows = []
    for k in range(2 * n - 2, n - 1, -1):
        rows.append([int(c == k) for c in range(2 * m)])
        rows.append([int(c == m + k) for c in range(2 * m)])
    rows.append([int(c == m + n - 1) for c in range(2 * m)])
    truth = {"dissipative": True, "selfadjoint": False, "regular": False, "regular_strict": False}
    return _exact_case(f"exact-oddirregular-n{n}", m, rows, truth)


def sparse_integer(seed: int, m: int) -> Case:
    name = f"exact-sparse-m{m}"
    rng = _rng(seed, name)
    while True:
        rows = rng.choice([-2, -1, 0, 0, 0, 0, 1, 2], size=(m, 2 * m))
        if np.linalg.matrix_rank(rows) == m:
            return _exact_case(name, m, rows.tolist(), {})


def defect1() -> Case:
    truth = {"regular": False, "regular_strict": False}
    return _exact_case("exact-defect1-m5", 5, DEFECT1, truth)


def mixed_copy(seed: int, original: Case) -> Case:
    """``T @ C`` with T = U diag(sigma) W*, sigma log-spaced down to 1/cond."""
    name = "mixed-" + original.name.removeprefix("exact-")
    rng = _rng(seed, name)
    m = original.m
    cond = MIX_CONDITIONS[int(rng.integers(len(MIX_CONDITIONS)))]
    u, _ = np.linalg.qr(_gaussian(rng, (m, m)))
    w, _ = np.linalg.qr(_gaussian(rng, (m, m)))
    sigma = np.geomspace(1.0, 1.0 / cond, m) if m > 1 else np.ones(1)
    transform = (u * sigma) @ w.conj().T
    return Case(
        name=name,
        kind="mixed",
        m=m,
        coeffs=transform @ original.coeffs,
        truth=dict(original.truth),
        original=original.name,
    )


def exact_cases(seed: int) -> list[Case]:
    cases = []
    for m in ORDERS:
        if m % 2 == 0:
            cases += [dirichlet(m), neumann(m)]
        cases.append(quasi_periodic(m, (1, 0)))
        cases.append(quasi_periodic(m, PHASE))
        if m % 2 == 1:
            cases.append(odd_irregular((m + 1) // 2))
        cases.append(sparse_integer(seed, m))
    cases.append(defect1())
    return cases


def build_corpus(seed: int) -> list[Case]:
    """All cases for ``seed``, ordered by kind and then by order m."""
    exact = exact_cases(seed)
    return (
        [float_case(seed, m, unitary) for m in ORDERS for unitary in (True, False)]
        + [generic_case(seed, m) for m in ORDERS]
        + exact
        + [mixed_copy(seed, case) for case in exact]
    )


def kind_shares(cases) -> dict[str, float]:
    """Share of each kind among ``cases`` (by count)."""
    total = len(cases)
    return {kind: sum(c.kind == kind for c in cases) / total for kind in KINDS}
