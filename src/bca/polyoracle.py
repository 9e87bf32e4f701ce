"""Exact-arithmetic ground truth for the boundary form identities.

Everything here runs in Gaussian-rational arithmetic.  The reference route
realizes a boundary vector by a polynomial test function with exact
coefficients (two-point Hermite interpolation: one exact matrix H per
order, built on first use) and integrates
``(L0 y, y) = integral of (-i)^m y^(m) conj(y)`` over [0, 1] exactly.  The
inner product is linear in its first argument.  Composed with the
monomial integral ``integral x^(a-m) x^b = 1/(a - m + b + 1)``, that route
is one exact Gram per order, ``(L0 y, y) = (-i)^m yh G yh*`` with
``G = H Mono H^T``; the suites evaluate ``Im(L0 y, y)`` as the Hermitian
form ``yh F yh*`` of its imaginary part F.  Because every quantity is
exact, identity checks report a defect that must be literally zero --
there is no tolerance anywhere in this module.  The two identity suites
and the dissipativity spot-check share one sampling loop; each identity
compares against a Hermitian form ``yh S yh*`` with S built once per call.

Sampling is driven by a counter-based generator (SHA-256 of
``seed:tag:index``), so samples are independent of evaluation order and
reproducible across platforms.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

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

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

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
    return RationalComplex(*((1, 0), (0, -1), (-1, 0), (0, 1))[m % 4])


class RationalComplexPolynomial:
    """Polynomial on [0, 1] with RationalComplex coefficients (index = power)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while coeffs and not coeffs[-1]:
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
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=QC_ZERO)
        return RationalComplexPolynomial([a + b for a, b in pairs])

    def __mul__(self, other):
        if isinstance(other, RationalComplexPolynomial):
            if not self.coefficients or not other.coefficients:
                return RationalComplexPolynomial([])
            out = [QC_ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if not a:
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
        return sum((c * Fraction(1, k + 1) for k, c in enumerate(self.coefficients)), QC_ZERO)

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


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Gauss-Jordan reduced row echelon form of exact (Fraction or
    RationalComplex) rows, pivoting on the first nonzero entry (the RREF is
    unique, so any exact pivot gives the same rows); returns the rows and
    each leading row's pivot column."""
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i == r or not rows[i][col]:
                continue
            factor = rows[i][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def _vecmat(vector, rows) -> list[RationalComplex]:
    """RationalComplex row vector times an exact matrix, ``sum_i vector[i] rows[i]``."""
    out = [QC_ZERO] * len(rows[0])
    for weight, row in zip(vector, rows):
        if not weight:
            continue
        for col, value in enumerate(row):
            if value:
                out[col] = out[col] + weight * value
    return out


@functools.cache
def _hermite_matrix(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row i holds the coefficients of the Hermite basis polynomial whose
    boundary vector is the i-th unit vector, so ``t @ H`` interpolates t.

    Derivatives 0..m-1 at x=0 pin the low coefficients (``c_k = t_k / k!``,
    D = diag(1/k!)).  The derivatives at x=1 give ``B c_high = t_high - A D
    t_low`` with ``B[k][j] = perm(m + j, k)`` and ``A[k][i] = perm(i, k)``, so
    one elimination of ``[B | -A D | I]`` yields every unit vector's high part.
    """
    # the k-th derivative of x^p at x = 1 is p!/(p-k)! = perm(p, k)
    block = [
        [Fraction(math.perm(m + j, k)) for j in range(m)]
        + [Fraction(-math.perm(i, k), math.factorial(i)) for i in range(m)]
        + [Fraction(int(i == k)) for i in range(m)]
        for k in range(m)
    ]
    # B is nonsingular, so the RREF is [I | high coefficients of each unit vector]
    solved, _ = _rref(block)
    return tuple(
        tuple(Fraction(int(i == k), math.factorial(k)) for k in range(m))
        + tuple(row[m + i] for row in solved)
        for i in range(2 * m)
    )


def hermite_interpolant(m: int, target: BoundaryVector) -> RationalComplexPolynomial:
    """Unique polynomial of degree <= 2m-1 matching the boundary vector:
    the boundary vector times the exact Hermite matrix of order m."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if target.m != m:
        raise ValueError(f"target has order {target.m}, expected {m}")
    return RationalComplexPolynomial(_vecmat(target.components, _hermite_matrix(m)))


@functools.cache
def _gram(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Real G with ``(L0 y, y) = (-i)^m yh G yh*`` for the Hermite
    interpolant y of every boundary vector yh: ``G = H Mono H^T``.

    For ``y = sum_a c_a x^a``, ``integral_0^1 y^(m) conj(y) = c Mono c*`` with
    ``Mono[a][b] = perm(a, m) / (a - m + b + 1)`` (zero for a < m), and the
    coefficients are ``c = yh H`` with H real.
    """
    size = 2 * m
    mono = [
        [Fraction(math.perm(a, m), a - m + b + 1) if a >= m else 0 for b in range(size)]
        for a in range(size)
    ]
    hermite = _hermite_matrix(m)
    left = [[sum(h * row[b] for h, row in zip(h_row, mono)) for b in range(size)] for h_row in hermite]
    return tuple(
        tuple(sum(x * h for x, h in zip(left_row, h_row)) for h_row in hermite) for left_row in left
    )


@functools.cache
def _imaginary_form(m: int) -> tuple[tuple[RationalComplex, ...], ...]:
    """Hermitian F with ``Im(L0 y, y) = yh F yh*``: the Hermitian imaginary
    part ``(Z - Z*)/(2i)`` of ``Z = (-i)^m G``, that is
    ``F[c][d] = p G[c][d] + conj(p) G[d][c]`` with ``p = (-i)^(m+1) / 2``."""
    gram = _gram(m)
    p = _minus_i_power(m + 1) * Fraction(1, 2)
    p_conj = p.conjugate()
    size = 2 * m
    return tuple(
        tuple(p * gram[c][d] + p_conj * gram[d][c] for d in range(size)) for c in range(size)
    )


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
    components = tuple(random_rational_complex(seed, f"bv{index}", j) for j in range(2 * m))
    return BoundaryVector(m=m, components=components)


def _exact_matrix(float_matrix: np.ndarray) -> list[list[RationalComplex]]:
    return [[RationalComplex.from_complex(z) for z in row] for row in float_matrix]


def _form_value(matrix, vector) -> RationalComplex:
    """Row-vector quadratic form ``v M v*`` in exact arithmetic."""
    return _dot(_vecmat(vector, matrix), vector)


def _dot(u, v) -> RationalComplex:
    """``u v*``: the exact sum of ``u_k conj(v_k)``."""
    return sum((a * b.conjugate() for a, b in zip(u, v)), QC_ZERO)


def _check_sample_count(sample_count: int) -> None:
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")


def _samples(form, sample_count: int, draw) -> list[tuple[tuple, Fraction]]:
    """``(v, v F v*)`` for the vectors ``v = draw(index)``, index <
    sample_count, of a Hermitian form F (so each value is real): the exact
    ``Im(L0 y, y)`` of the sampled boundary vectors."""
    out = []
    for index in range(sample_count):
        v = tuple(draw(index))
        out.append((v, _form_value(form, v).re))
    return out


def _identity_report(m: int, sample_count: int, seed: int, form, defect) -> IdentityReport:
    """Largest ``defect(Im(L0 y, y), yh S yh*)`` with S = form(m) over sampled
    rational boundary vectors yh; the identity holds when every defect is 0."""
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {m}")
    _check_sample_count(sample_count)
    matrix = form(m)
    samples = _samples(
        _imaginary_form(m), sample_count, lambda i: random_boundary_vector(m, seed, i).components
    )
    max_defect = max(defect(im_l0, _form_value(matrix, yh)) for yh, im_l0 in samples)
    return IdentityReport(passed=max_defect == 0, max_defect=max_defect, samples=sample_count)


def verify_boundary_form_identity(
    m: int, sample_count: int, seed: int
) -> IdentityReport:
    """Check ``2 Im(L0 y, y) = yh M yh*`` exactly on sampled rationals.

    Each sample draws a small rational boundary vector yh, takes
    ``Im(L0 y, y)`` of its Hermite interpolant y as the exact Gram form
    ``yh F yh*``, computes the right side exactly and requires literal
    equality; the reported defect is the largest absolute difference.
    """
    return _identity_report(
        m, sample_count, seed, lambda order: _exact_matrix(forms.build_M(order).matrix),
        lambda im_l0, rhs: abs(2 * im_l0 - rhs.re) + abs(rhs.im),
    )


def _canonical_form(m: int) -> list[list[RationalComplex]]:
    """S with ``Im<yv, y^> = Im(yh S yh*)``: S[c][d] = sum_r w_r^2 q_rc conj(p_rd).

    The canonical maps enter through their Gaussian-integer components
    and squared row weights, so the odd-case sqrt(1/2) factors appear
    only as the exact rational 1/2 of a doubled product.
    """
    p_int, q_int, weight_sq = contraction.integer_canonical_components(m)
    q_rows = _exact_matrix(q_int)
    p_conj = [[value.conjugate() for value in row] for row in _exact_matrix(p_int)]
    return [_vecmat([q_rows[r][c] * weight_sq[r] for r in range(m)], p_conj) for c in range(2 * m)]


def verify_canonical_identity(m: int, sample_count: int, seed: int) -> IdentityReport:
    """Check ``Im(L0 y, y) = Im<yv, y^>`` exactly on sampled rationals."""
    return _identity_report(
        m, sample_count, seed, _canonical_form, lambda im_l0, rhs: abs(im_l0 - rhs.im)
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

    The conditions enter exactly (the input's own rationals, or the exact
    binary value of each double); exact elimination yields a rational
    null-space basis N, and the minimum of ``Im(L0 y, y) = w K w*`` over
    random rational weights w is reported, with ``K = N F N*`` the form F
    restricted to the solutions ``yh = w N``.
    """
    _check_sample_count(sample_count)
    m = system.m
    basis = rational_nullspace(
        [[RationalComplex(re, im) for re, im in row] for row in system.exact_coeffs]
    )
    if len(basis) != m:
        raise DegenerateSystem(f"expected null space of dimension {m}, got {len(basis)}")
    form = _imaginary_form(m)
    restricted = [[_dot(row_f, row) for row in basis] for row_f in (_vecmat(r, form) for r in basis)]
    samples = _samples(
        restricted, sample_count,
        lambda i: [random_rational_complex(seed, f"ns{i}", j) for j in range(m)],
    )
    min_value = min(value for _, value in samples)
    return DissipativitySampleReport(
        all_nonnegative=min_value >= 0, min_value=min_value, samples=sample_count
    )
