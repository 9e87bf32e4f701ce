"""Exact-arithmetic ground truth for the boundary form identities.

Everything here runs in Gaussian-rational arithmetic: polynomial test
functions with exact coefficients, two-point Hermite interpolation that
realizes any prescribed boundary vector, and exact integration of
``(L0 y, y) = integral of (-i)^m y^(m) conj(y)`` over [0, 1].  The inner
product is linear in its first argument.  Because every quantity is
exact, identity checks report a defect that must be literally zero --
there is no tolerance anywhere in this module.

Sampling is driven by a counter-based generator (SHA-256 of
``seed:tag:index``), so samples are independent of evaluation order and
reproducible across platforms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import contraction, forms
from .bc_core import BoundaryConditionSystem
from .errors import DegenerateSystem


class RationalComplex:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "RationalComplex":
        # Fraction(float) is exact, so float data converts losslessly.
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    def __add__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, RationalComplex):
            return RationalComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return RationalComplex(self.re * Fraction(other), self.im * Fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalComplex") -> "RationalComplex":
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero rational complex")
        return RationalComplex(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalComplex)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"RationalComplex({self.re}, {self.im})"


QC_ZERO = RationalComplex(0, 0)
QC_ONE = RationalComplex(1, 0)
MAX_ORDER = 8  # the largest order the identity suites accept


def _minus_i_power(m: int) -> RationalComplex:
    return (
        RationalComplex(1, 0),
        RationalComplex(0, -1),
        RationalComplex(-1, 0),
        RationalComplex(0, 1),
    )[m % 4]


class RationalComplexPolynomial:
    """Polynomial on [0, 1] with RationalComplex coefficients (index = power)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def derivative(self) -> "RationalComplexPolynomial":
        return RationalComplexPolynomial(
            [c * k for k, c in enumerate(self.coefficients)][1:]
        )

    def conjugated(self) -> "RationalComplexPolynomial":
        # valid as the conjugate function because x is real on [0, 1]
        return RationalComplexPolynomial([c.conjugate() for c in self.coefficients])

    def __add__(self, other: "RationalComplexPolynomial") -> "RationalComplexPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        out = []
        for k in range(size):
            a = self.coefficients[k] if k < len(self.coefficients) else QC_ZERO
            b = other.coefficients[k] if k < len(other.coefficients) else QC_ZERO
            out.append(a + b)
        return RationalComplexPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, RationalComplexPolynomial):
            if not self.coefficients or not other.coefficients:
                return RationalComplexPolynomial([])
            out = [QC_ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] = out[i + j] + a * b
            return RationalComplexPolynomial(out)
        scalar = other if isinstance(other, RationalComplex) else RationalComplex(other)
        return RationalComplexPolynomial([c * scalar for c in self.coefficients])

    __rmul__ = __mul__

    def __call__(self, x) -> RationalComplex:
        acc = QC_ZERO
        for c in reversed(self.coefficients):
            acc = acc * RationalComplex(x) + c
        return acc

    def integral_unit_interval(self) -> RationalComplex:
        """Exact integral over [0, 1]."""
        acc = QC_ZERO
        for k, c in enumerate(self.coefficients):
            acc = acc + c * Fraction(1, k + 1)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalComplexPolynomial)
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"RationalComplexPolynomial({list(self.coefficients)!r})"


@dataclass(frozen=True)
class BoundaryVector:
    """Derivatives 0..m-1 at x=0 followed by the same at x=1 (length 2m)."""

    m: int
    components: tuple[RationalComplex, ...]

    def __post_init__(self) -> None:
        if len(self.components) != 2 * self.m:
            raise ValueError(
                f"boundary vector of order {self.m} needs {2 * self.m} components"
            )


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    max_defect: Fraction
    samples: int


@dataclass(frozen=True)
class DissipativitySampleReport:
    all_nonnegative: bool
    min_value: Fraction
    samples: int


def _rref(rows: list[list[RationalComplex]]) -> tuple[list[list[RationalComplex]], list[int]]:
    """Gauss-Jordan reduced row echelon form over RationalComplex, pivoting on
    the largest modulus; returns the rows and each leading row's pivot column."""
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = max(range(r, len(rows)), key=lambda i: rows[i][col].abs_squared())
        if rows[pivot][col].is_zero():
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i == r or rows[i][col].is_zero():
                continue
            factor = rows[i][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def hermite_interpolant(m: int, target: BoundaryVector) -> RationalComplexPolynomial:
    """Unique polynomial of degree <= 2m-1 matching the boundary vector.

    Derivatives 0..m-1 at x=0 pin the low coefficients directly
    (``c_k = t_k / k!``); the derivatives at x=1 leave an m x m exact
    linear system for the high coefficients.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if target.m != m:
        raise ValueError(f"target has order {target.m}, expected {m}")
    low = [target.components[k] * Fraction(1, math.factorial(k)) for k in range(m)]
    augmented = []
    for k in range(m):
        # the k-th derivative of x^p at x = 1 is p!/(p-k)! = perm(p, k)
        known = sum((low[i] * math.perm(i, k) for i in range(k, m)), QC_ZERO)
        rhs = target.components[m + k] - known
        augmented.append([RationalComplex(math.perm(m + j, k)) for j in range(m)] + [rhs])
    # the system is nonsingular, so its RREF is [I | solution]
    solved, _ = _rref(augmented)
    return RationalComplexPolynomial(low + [row[m] for row in solved])


def boundary_vector_of(y: RationalComplexPolynomial, m: int) -> BoundaryVector:
    """Exact derivatives 0..m-1 of y at both endpoints."""
    at0, at1 = [], []
    current = y
    for _ in range(m):
        at0.append(current(Fraction(0)))
        at1.append(current(Fraction(1)))
        current = current.derivative()
    return BoundaryVector(m=m, components=tuple(at0 + at1))


def l0_inner_product(y: RationalComplexPolynomial, m: int) -> RationalComplex:
    """Exact value of ``integral_0^1 (-i)^m y^(m)(x) conj(y(x)) dx``."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    deriv = y
    for _ in range(m):
        deriv = deriv.derivative()
    product = deriv * y.conjugated()
    return _minus_i_power(m) * product.integral_unit_interval()


def _stream_fraction(seed: int, tag: str, index: int) -> Fraction:
    digest = hashlib.sha256(f"{seed}:{tag}:{index}".encode()).digest()
    numerator = int.from_bytes(digest[:4], "big") % 19 - 9
    denominator = digest[4] % 4 + 1
    return Fraction(numerator, denominator)


def random_rational_complex(seed: int, tag: str, index: int) -> RationalComplex:
    """Deterministic small rational complex value (counter-based stream)."""
    return RationalComplex(
        _stream_fraction(seed, tag, 2 * index),
        _stream_fraction(seed, tag, 2 * index + 1),
    )


def random_boundary_vector(m: int, seed: int, index: int) -> BoundaryVector:
    tag = f"bv{index}"
    return BoundaryVector(
        m=m,
        components=tuple(random_rational_complex(seed, tag, j) for j in range(2 * m)),
    )


def _exact_matrix(float_matrix: np.ndarray) -> list[list[RationalComplex]]:
    return [[RationalComplex.from_complex(z) for z in row] for row in float_matrix]


def _form_value(
    matrix: list[list[RationalComplex]], vector: tuple[RationalComplex, ...]
) -> RationalComplex:
    """Row-vector quadratic form ``v M v*`` in exact arithmetic."""
    acc = QC_ZERO
    for p, vp in enumerate(vector):
        if vp.is_zero():
            continue
        row = matrix[p]
        for q, vq in enumerate(vector):
            entry = row[q]
            if entry.is_zero() or vq.is_zero():
                continue
            acc = acc + vp * entry * vq.conjugate()
    return acc


def verify_boundary_form_identity(
    m: int, sample_count: int, seed: int
) -> IdentityReport:
    """Check ``2 Im(L0 y, y) = yh M yh*`` exactly on sampled rationals.

    Each sample draws a small rational boundary vector, realizes it by its
    Hermite interpolant, computes both sides exactly and requires literal
    equality; the reported defect is the largest absolute difference.
    """
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {m}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    exact_form = _exact_matrix(forms.build_M(m).matrix)
    max_defect = Fraction(0)
    for index in range(sample_count):
        bv = random_boundary_vector(m, seed, index)
        y = hermite_interpolant(m, bv)
        lhs = 2 * l0_inner_product(y, m).im
        rhs = _form_value(exact_form, bv.components)
        defect = abs(lhs - rhs.re) + abs(rhs.im)
        max_defect = max(max_defect, defect)
    return IdentityReport(
        passed=max_defect == 0, max_defect=max_defect, samples=sample_count
    )


def verify_canonical_identity(m: int, sample_count: int, seed: int) -> IdentityReport:
    """Check ``Im(L0 y, y) = Im<yv, y^>`` exactly on sampled rationals.

    The canonical maps enter through their Gaussian-integer components
    and squared row weights, so the odd-case sqrt(1/2) factors appear
    only as the exact rational 1/2 of a doubled product.
    """
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {m}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    p_int, q_int, weight_sq = contraction.integer_canonical_components(m)
    p_rows = _exact_matrix(p_int)
    q_rows = _exact_matrix(q_int)
    max_defect = Fraction(0)
    for index in range(sample_count):
        bv = random_boundary_vector(m, seed, index)
        y = hermite_interpolant(m, bv)
        lhs = l0_inner_product(y, m).im
        rhs = Fraction(0)
        for row in range(m):
            low = QC_ZERO
            high = QC_ZERO
            for col, value in enumerate(bv.components):
                if not p_rows[row][col].is_zero():
                    low = low + p_rows[row][col] * value
                if not q_rows[row][col].is_zero():
                    high = high + q_rows[row][col] * value
            rhs += weight_sq[row] * (high * low.conjugate()).im
        defect = abs(lhs - rhs)
        max_defect = max(max_defect, defect)
    return IdentityReport(
        passed=max_defect == 0, max_defect=max_defect, samples=sample_count
    )


def rational_nullspace(
    matrix: list[list[RationalComplex]],
) -> list[list[RationalComplex]]:
    """Exact basis of the null space of a RationalComplex matrix (RREF)."""
    if not matrix:
        return []
    rows, pivots = _rref(matrix)
    n_cols = len(rows[0])
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [QC_ZERO] * n_cols
        vec[free] = QC_ONE
        for row, col in enumerate(pivots):
            vec[col] = -rows[row][free]
        basis.append(vec)
    return basis


def sample_dissipativity(
    system: BoundaryConditionSystem, sample_count: int, seed: int
) -> DissipativitySampleReport:
    """Spot-check ``Im(L0 y, y) >= 0`` on exact solutions of the conditions.

    The coefficient matrix converts losslessly to rationals; exact
    elimination yields a rational null-space basis, random rational
    combinations are realized by Hermite interpolants, and the minimum of
    the exactly computed imaginary parts is reported.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    m = system.m
    exact = _exact_matrix(system.coeffs)
    basis = rational_nullspace(exact)
    if len(basis) != m:
        raise DegenerateSystem(
            f"expected null space of dimension {m}, got {len(basis)}"
        )
    min_value: Fraction | None = None
    for index in range(sample_count):
        tag = f"ns{index}"
        combo = [random_rational_complex(seed, tag, j) for j in range(len(basis))]
        components = [QC_ZERO] * (2 * m)
        for weight, vec in zip(combo, basis):
            if weight.is_zero():
                continue
            for col, value in enumerate(vec):
                if not value.is_zero():
                    components[col] = components[col] + weight * value
        bv = BoundaryVector(m=m, components=tuple(components))
        y = hermite_interpolant(m, bv)
        value = l0_inner_product(y, m).im
        min_value = value if min_value is None else min(min_value, value)
    assert min_value is not None
    return DissipativitySampleReport(
        all_nonnegative=min_value >= 0, min_value=min_value, samples=sample_count
    )
