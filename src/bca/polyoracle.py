"""Exact-arithmetic ground truth for the boundary form identities.

Everything here runs in Gaussian-rational arithmetic.  The reference route
realizes a boundary vector by a polynomial test function with exact
coefficients (two-point Hermite interpolation) and integrates
``(L0 y, y) = integral of (-i)^m y^(m) conj(y)`` over [0, 1] exactly.  The
inner product is linear in its first argument.  Composed with the
monomial integral ``integral x^(a-m) x^b = 1/(a - m + b + 1)``, that route
is one Gram per order, ``(L0 y, y) = (-i)^m yh G yh*`` with
``G = H Mono H^T``; the suites evaluate ``Im(L0 y, y)`` as the Hermitian
form ``yh F yh*`` of its imaginary part F.  H, G and F are closed forms
built in integers, with no elimination and no Fraction.  Because every
quantity is exact, identity checks report a defect that must be literally
zero -- there is no tolerance anywhere in this module.

The sampled forms run fraction-free on the Gaussian-integer core of
:mod:`bca.exact`: each exact matrix is Gaussian integers (pairs of Python
ints) over one denominator, and each drawn rational vector is scaled by
``STREAM_SCALE``, so every sample is an integer sum and one Fraction is
built per report.  Both identities say that a closed-form Hermitian
target equals ``scale F``: the boundary form matrix M with scale 2, and
the canonical form ``(S - S*)/2i`` with scale 1.  Both targets are the
integer closed forms of :mod:`bca.exact`, the same matrices that
:mod:`bca.forms` and :mod:`bca.contraction` convert to numpy.  Each suite
builds ``D = target - scale F`` per call.  A Hermitian form is fixed by
its values, so D is the zero matrix exactly when the identity holds for
every boundary vector: that is the certificate a suite reports as
``passed``.  The reported defect is the largest value of D at drawn
boundary vectors.  The dissipativity spot-check scales each condition row
to Gaussian integers, eliminates by Bareiss's fraction-free Gauss-Jordan
method (every division exact and checked) to the RREF null-space basis
times one Gaussian integer, reads F by its 2m nonzeros and draws weights
only on the support of the restricted form, so a zero form draws nothing.
Every sampling loop draws one vector at a time, evaluates it and drops
it, so memory does not grow with the sample count.  RationalComplex serves
only the reference route and :func:`rational_nullspace`.  Nothing here
imports numpy.

Sampling is driven by a counter-based generator (SHA-256 of
``seed:tag:index``), so samples are independent of evaluation order and
reproducible across platforms.  Both identity suites sample the same
boundary vectors; :func:`verify_identities` runs both in one loop that
draws each vector once.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING

from . import exact
from .errors import BadShape, DependentRows, DimensionMismatch, InvalidInput
from .exact import Gaussian, GaussianRows, SparseRows, _gaussian_dot, _gaussian_vecmat, _integer_rows, _nullspace

if TYPE_CHECKING:
    from .bc_core import BoundaryConditionSystem


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
MAX_ORDER = 16  # the largest order the identity suites accept


def _minus_i_power(m: int) -> Gaussian:
    return ((1, 0), (0, -1), (-1, 0), (0, 1))[m % 4]


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
            raise BadShape(
                f"boundary vector of order {self.m} needs {2 * self.m} components"
            )


@dataclass(frozen=True)
class IdentityReport:
    """``passed``: the identity holds as a matrix equation, so for every
    boundary vector.  ``max_defect``: the largest defect over the
    ``samples`` drawn boundary vectors, which is 0 when ``passed``."""

    passed: bool
    max_defect: Fraction
    samples: int


@dataclass(frozen=True)
class DissipativitySampleReport:
    all_nonnegative: bool
    min_value: Fraction
    samples: int


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
def _hermite_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """Integers whose row i, over ``(m-1)!``, holds the coefficients of the
    Hermite basis polynomial whose boundary vector is the i-th unit vector.

    Row k < m is ``x^k/k! (1-x)^m sum_{j<m-k} C(m-1+j, j) x^j``: ``(1-x)^m``
    pins its derivatives at x=1 to 0, and the sum is the series of
    ``(1-x)^-m`` below x^(m-k), so near 0 the row is ``x^k/k! + O(x^m)``.
    Row m+k is ``(-1)^k`` times row k at 1-x.
    """
    low = []
    for k in range(m):
        row, weight = [0] * (2 * m), math.factorial(m - 1) // math.factorial(k)
        for j in range(m - k):
            for i in range(m + 1):
                row[k + j + i] += weight * math.comb(m - 1 + j, j) * (-1) ** i * math.comb(m, i)
        low.append(row)
    # p(1 - x) has the coefficients sum_a p_a C(a, b) (-1)^b
    high = [
        [(-1) ** (k + b) * sum(math.comb(a, b) * p for a, p in enumerate(row)) for b in range(2 * m)]
        for k, row in enumerate(low)
    ]
    return tuple(map(tuple, low + high))


def hermite_interpolant(m: int, target: BoundaryVector) -> RationalComplexPolynomial:
    """Unique polynomial of degree <= 2m-1 matching the boundary vector:
    the boundary vector times the Hermite matrix of order m."""
    exact._check_order(m)
    if target.m != m:
        raise DimensionMismatch(f"target has order {target.m}, expected {m}")
    scaled = RationalComplexPolynomial(_vecmat(target.components, _hermite_matrix(m)))
    return scaled * Fraction(1, math.factorial(m - 1))


def _gram(m: int) -> tuple[list[list[int]], int]:
    """Integers G and den with ``(L0 y, y) = (-i)^m yh G yh* / den`` for the
    Hermite interpolant y of every boundary vector yh: ``G / den = H Mono H^T``.

    For ``y = sum_a c_a x^a``, ``integral_0^1 y^(m) conj(y) = c Mono c*`` with
    ``Mono[a][b] = perm(a, m) / (a - m + b + 1)`` (zero for a < m), and the
    coefficients are ``c = yh H`` with H real.  The divisors run from 1 to
    3m - 1, so ``den = lcm(1..3m-1) (m-1)!^2`` clears Mono and both H.
    """
    size = 2 * m
    lcm = math.lcm(*range(1, 3 * m))
    mono = [[math.perm(a, m) * (lcm // (a - m + b + 1)) for b in range(size)] for a in range(m, size)]
    hermite = _hermite_matrix(m)
    left = [[sum(h * row[b] for h, row in zip(h_row[m:], mono)) for b in range(size)] for h_row in hermite]
    gram = [[sum(x * h for x, h in zip(left_row, h_row)) for h_row in hermite] for left_row in left]
    return gram, lcm * math.factorial(m - 1) ** 2


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
    exact._check_order(m)
    deriv = y
    for _ in range(m):
        deriv = deriv.derivative()
    product = deriv * y.conjugated()
    return RationalComplex(*_minus_i_power(m)) * product.integral_unit_interval()


def _digest_draw(digest: bytes) -> tuple[int, int]:
    return int.from_bytes(digest[:4], "big") % 19 - 9, digest[4] % 4 + 1


STREAM_SCALE = 12  # lcm of the stream's denominators 1..4


def _scaled_draws(seed: int, tag: str, indices) -> list[Gaussian]:
    """Draw j of the stream for each j of ``indices``: a small rational
    complex value times ``STREAM_SCALE``, as a Gaussian integer.  Part p of
    the stream comes from the SHA-256 digest of ``seed:tag:p``; draw j is
    parts 2j (real) and 2j + 1 (imaginary)."""
    prefix = hashlib.sha256(f"{seed}:{tag}:".encode())  # each part's key, less the part
    parts = []
    for index in indices:
        for part in (2 * index, 2 * index + 1):
            draw = prefix.copy()
            draw.update(str(part).encode())
            numerator, denominator = _digest_draw(draw.digest())
            parts.append(numerator * (STREAM_SCALE // denominator))
    return list(zip(parts[::2], parts[1::2]))


def random_rational_complex(seed: int, tag: str, index: int) -> RationalComplex:
    """Deterministic small rational complex value (counter-based stream)."""
    [(re, im)] = _scaled_draws(seed, tag, (index,))
    return RationalComplex(Fraction(re, STREAM_SCALE), Fraction(im, STREAM_SCALE))


def random_boundary_vector(m: int, seed: int, index: int) -> BoundaryVector:
    components = tuple(random_rational_complex(seed, f"bv{index}", j) for j in range(2 * m))
    return BoundaryVector(m=m, components=components)


@functools.cache
def _integer_imaginary_form(m: int) -> tuple[GaussianRows, int]:
    """Hermitian F with ``Im(L0 y, y) = yh F yh*`` as Gaussian integers over
    their least denominator: the imaginary part ``(Z - Z*)/(2i)`` of
    ``Z = (-i)^m G``, ``F[c][d] = (Re q (G[c][d] + G[d][c]), Im q (G[c][d] -
    G[d][c])) / 2`` with ``q = (-i)^(m+1)``, whose parts are 0 or +-1."""
    gram, den = _gram(m)
    q_re, q_im = _minus_i_power(m + 1)
    size = 2 * m
    rows = [
        [(q_re * (gram[c][d] + gram[d][c]), q_im * (gram[c][d] - gram[d][c])) for d in range(size)]
        for c in range(size)
    ]
    common = math.gcd(2 * den, *(part for row in rows for pair in row for part in pair))
    return [[(re // common, im // common) for re, im in row] for row in rows], 2 * den // common


@functools.cache
def _sparse_imaginary_form(m: int) -> tuple[SparseRows, int]:
    """The F of :func:`_integer_imaginary_form` by its nonzero entries, 2m of them (F = M/2)."""
    rows, den = _integer_imaginary_form(m)
    return [{d: z for d, z in enumerate(row) if z != (0, 0)} for row in rows], den


def _form_value(terms, w) -> int:
    """``Re(w K w*)`` from the nonzero entries ``(a, b, K[a][b])``, a <= b, of
    a Hermitian K, those off the diagonal doubled; ``w`` maps index to weight."""
    total = 0
    for a, b, (kr, ki) in terms:
        (ar, ai), (br, bi) = w[a], w[b]
        total += (ar * kr - ai * ki) * br + (ar * ki + ai * kr) * bi
    return total


def _check_sample_count(sample_count: int) -> None:
    exact._check_integer(sample_count, "sample_count", InvalidInput)
    if sample_count < 1:
        raise InvalidInput("sample_count must be >= 1")


def _difference(m: int, target: tuple[GaussianRows, int], scale: int) -> tuple[GaussianRows, int]:
    """``target - scale F`` over one denominator, for a 2m x 2m target
    given as Gaussian-integer rows over their denominator."""
    t_rows, t_den = target
    form, f_den = _integer_imaginary_form(m)
    weight = scale * t_den
    return [
        [(tr * f_den - weight * fr, ti * f_den - weight * fi) for (tr, ti), (fr, fi) in zip(t_row, f_row)]
        for t_row, f_row in zip(t_rows, form)
    ], t_den * f_den


def _identity_reports(m: int, sample_count: int, seed: int, *suites) -> list[IdentityReport]:
    """One report per suite ``(target, scale)``, certifying the identity
    ``yh target(m) yh* = scale Im(L0 y, y)`` for every boundary vector yh:
    ``passed`` says that the Hermitian form ``D = target(m) - scale F`` is
    the zero matrix, so a nonzero D fails even when every sample misses it.
    ``max_defect`` is the largest ``|Re q| + |Im q|`` of ``q = yh D yh*``
    over the sampled rational boundary vectors
    ``random_boundary_vector(m, seed, index)``, index < sample_count.  Each
    vector is drawn once, evaluated on every D and dropped before the
    next."""
    exact._check_order(m)
    if m > MAX_ORDER:
        raise BadShape(f"order must lie in [1, {MAX_ORDER}], got {m}")
    _check_sample_count(sample_count)
    differences = [_difference(m, target(m), scale) for target, scale in suites]
    worst = [0] * len(differences)
    for index in range(sample_count):
        v = _scaled_draws(seed, f"bv{index}", range(2 * m))
        for k, (rows, _) in enumerate(differences):
            re, im = _gaussian_dot(_gaussian_vecmat(v, rows), v)
            worst[k] = max(worst[k], abs(re) + abs(im))
    return [
        IdentityReport(
            passed=not any(re or im for row in rows for re, im in row),
            max_defect=Fraction(defect, STREAM_SCALE**2 * den),
            samples=sample_count,
        )
        for (rows, den), defect in zip(differences, worst)
    ]


def verify_boundary_form_identity(m: int, sample_count: int, seed: int) -> IdentityReport:
    """Check ``2 Im(L0 y, y) = yh M yh*`` exactly, as the matrix equation
    ``M - 2F = 0``.

    ``Im(L0 y, y)`` of the Hermite interpolant y of a boundary vector yh
    is the exact Gram form ``yh F yh*``.  The reported defect is the
    largest ``|2 Im(L0 y, y) - Re rhs| + |Im rhs|``, with
    ``rhs = yh M yh*``, over drawn small rational boundary vectors yh.
    """
    [report] = _identity_reports(m, sample_count, seed, (exact.boundary_form, 2))
    return report


def verify_canonical_identity(m: int, sample_count: int, seed: int) -> IdentityReport:
    """Check ``Im(L0 y, y) = Im<yv, y^>`` exactly, as the matrix equation
    ``(S - S*)/2i - F = 0``; the defect is sampled as in
    :func:`verify_boundary_form_identity`."""
    [report] = _identity_reports(m, sample_count, seed, (exact.canonical_target, 1))
    return report


def verify_identities(m: int, sample_count: int, seed: int) -> tuple[IdentityReport, IdentityReport]:
    """``(verify_boundary_form_identity(m, sample_count, seed),
    verify_canonical_identity(m, sample_count, seed))``, with each boundary
    vector drawn once for both."""
    boundary, canonical = _identity_reports(
        m, sample_count, seed, (exact.boundary_form, 2), (exact.canonical_target, 1)
    )
    return boundary, canonical


def rational_nullspace(
    matrix: list[list[RationalComplex]],
) -> list[list[RationalComplex]]:
    """Exact basis of the null space of a RationalComplex matrix whose rows
    have one length: the RREF basis, :func:`exact._nullspace` over its d."""
    if not matrix:
        return []
    basis, d = _nullspace(_integer_rows([[(z.re, z.im) for z in row] for row in matrix]))
    scale = RationalComplex(*d)
    return [[RationalComplex(*z) / scale for z in vec] for vec in basis]


def sample_dissipativity(
    system: BoundaryConditionSystem, sample_count: int, seed: int
) -> DissipativitySampleReport:
    """Spot-check ``Im(L0 y, y) >= 0`` on exact solutions of the conditions.

    The conditions enter exactly (the input's own rationals, or the exact
    binary value of each double), each row scaled to Gaussian integers.
    Fraction-free elimination yields the RREF null-space basis of
    :func:`rational_nullspace` times one Gaussian integer d; the minimum
    of ``Im(L0 y, y) = w K w*`` over random rational weights w is
    reported, with ``K = N F N*`` the form F restricted to the solutions
    ``yh = w N``.  Only the weights on K's support (its nonzero rows) are
    drawn, as no other weight moves the value, and K = 0 reports 0 with no
    draw.  K and every sample are integer sums; one Fraction is built.
    """
    _check_sample_count(sample_count)
    m = system.m
    basis, det = _nullspace(_integer_rows(system.exact_coeffs))
    if len(basis) != m:
        raise DependentRows(f"expected null space of dimension {m}, got {len(basis)}")
    form, den = _sparse_imaginary_form(m)
    # N F read by F's nonzeros: F is Hermitian, so column d of F is conj(row d)
    images = [[_gaussian_dot([vec[c] for c in row], row.values()) for row in form] for vec in basis]
    upper = {(a, b): _gaussian_dot(images[a], basis[b]) for a in range(m) for b in range(a, m)}
    terms = [(a, b, (re, im) if a == b else (2 * re, 2 * im)) for (a, b), (re, im) in upper.items() if re or im]
    support = sorted({index for a, b, _ in terms for index in (a, b)})
    weights = (dict(zip(support, _scaled_draws(seed, f"ns{index}", support))) for index in range(sample_count))
    least = min(_form_value(terms, w) for w in weights) if support else 0  # K = 0 draws nothing
    min_value = Fraction(least, STREAM_SCALE**2 * (det[0] ** 2 + det[1] ** 2) * den)
    return DissipativitySampleReport(
        all_nonnegative=min_value >= 0, min_value=min_value, samples=sample_count
    )
