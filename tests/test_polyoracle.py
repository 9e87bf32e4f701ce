import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import helpers
from bca import BoundaryConditionSystem, cli, exact, polyoracle
from bca.errors import DependentRows, DimensionMismatch
from bca.polyoracle import (
    BoundaryVector,
    RationalComplex,
    RationalComplexPolynomial,
    boundary_vector_of,
    hermite_interpolant,
    l0_inner_product,
    random_boundary_vector,
    rational_nullspace,
    sample_dissipativity,
    verify_boundary_form_identity,
    verify_canonical_identity,
)


@pytest.fixture(autouse=True)
def fresh_differences():
    # verify_identities keeps each order's D; tests that patch a target or
    # F by name must neither read a D built before nor leave theirs behind
    polyoracle._differences.cache_clear()
    yield
    polyoracle._differences.cache_clear()


def qc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


def bv(m, *values):
    return BoundaryVector(m=m, components=tuple(qc(*v) for v in values))


def combination(weights, basis):
    """The boundary vector ``sum_r weights[r] basis[r]``, entry by entry."""
    components = [qc(0)] * len(basis[0])
    for weight, vec in zip(weights, basis):
        for col, value in enumerate(vec):
            components[col] = components[col] + weight * value
    return BoundaryVector(m=len(basis[0]) // 2, components=tuple(components))


MINUS_I_POWERS = (qc(1), qc(0, -1), qc(-1), qc(0, 1))


def form_value(matrix, vector):
    """``v M v*`` in RationalComplex arithmetic."""
    left = [sum((a * row[col] for a, row in zip(vector, matrix)), qc(0)) for col in range(len(vector))]
    return sum((x * b.conjugate() for x, b in zip(left, vector)), qc(0))


def densify(rows, size):
    """Sparse rows (each row's nonzero entries by column) as dense rows of ``size`` entries."""
    return [[row.get(d, (0, 0)) for d in range(size)] for row in rows]


def gaussian_vecmat(vector, rows):
    """``vector rows``: a Gaussian-integer row vector times a dense Gaussian-integer matrix."""
    return [
        (sum(wr * xr - wi * xi for (wr, wi), (xr, xi) in zip(vector, col)),
         sum(wr * xi + wi * xr for (wr, wi), (xr, xi) in zip(vector, col)))
        for col in zip(*rows)
    ]


def add_entry(rows, c, d, re, im=0):
    """Add ``re + i im`` to entry (c, d) of sparse rows."""
    old_re, old_im = rows[c].get(d, (0, 0))
    rows[c][d] = (old_re + re, old_im + im)


def exact_system(rng, m, rank=None):
    """A system with p/q entries (denominators 1..7) given exactly; with
    ``rank``, rows are rational combinations of ``rank`` such rows."""
    def draw(shape):
        return [
            [(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))) for _ in range(shape[1])]
            for _ in range(shape[0])
        ]

    rows = draw((m, 2 * m))
    if rank is not None:
        mix = draw((m, rank))
        rows = [
            [
                (sum(a * c - b * d for (a, b), (c, d) in zip(t_row, col)),
                 sum(a * d + b * c for (a, b), (c, d) in zip(t_row, col)))
                for col in zip(*rows[:rank])
            ]
            for t_row in mix
        ]
    coeffs = [[complex(float(re), float(im)) for re, im in row] for row in rows]
    return BoundaryConditionSystem(m, coeffs, exact=rows)


# The reference for the exact null space: Gauss-Jordan elimination in
# RationalComplex arithmetic, independent of the fraction-free _bareiss.
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


def reference_nullspace(matrix):
    """The RREF null-space basis by :func:`_rref`: per free column, 1 there
    and minus that column of the reduced rows at the pivots."""
    if not matrix:
        return []
    rows, pivots = _rref(matrix)
    n_cols = len(rows[0])
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [qc(0)] * n_cols
        vec[free] = qc(1)
        for row, col in enumerate(pivots):
            vec[col] = -rows[row][free]
        basis.append(vec)
    return basis


def fraction_rows(system):
    """The rows as exact (re, im) Fraction pairs: the input's own rationals,
    else the exact value of each double."""
    if system.exact is not None:
        return system.exact
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in system.coeffs.tolist()]


def rational_rows(system):
    return [[RationalComplex(re, im) for re, im in row] for row in fraction_rows(system)]


def dense_min_value(system, sample_count, seed):
    """The spot-check's minimum by the dense route: all of ``K = N F N*``
    from the dense F, and all m weights of every sample drawn."""
    m = system.m
    basis, det = exact._nullspace(exact._integer_rows(fraction_rows(system)))
    form, den = polyoracle._imaginary_form(m)
    form = densify(form, 2 * m)
    lefts = [gaussian_vecmat(vec, form) for vec in basis]
    restricted = [[exact._gaussian_dot(left, vec) for vec in basis] for left in lefts]
    weights = (polyoracle._scaled_draws(seed, f"ns{index}", range(m)) for index in range(sample_count))
    least = min(exact._gaussian_dot(gaussian_vecmat(w, restricted), w)[0] for w in weights)
    return Fraction(least, 144 * (det[0] ** 2 + det[1] ** 2) * den)


def reference_form_value(terms, w) -> int:
    """``Re(w K w*)`` over the terms of :func:`polyoracle._form_value`, with
    6 products per term: each entry of K times a weight, then times another."""
    total = 0
    for a, b, (kr, ki) in terms:
        (ar, ai), (br, bi) = w[a], w[b]
        total += (ar * kr - ai * ki) * br + (ar * ki + ai * kr) * bi
    return total


def sparse_systems(rng, m):
    """Systems whose K is 0 or has zero rows: separated conditions
    ``y^(k)(0) = 0``, k < ceil(m/2), and ``y^(k)(1) = 0``, k < m/2;
    periodic; quasi-periodic with c_k = 2 for all k, for k = 0 (support 2
    of m) and for k < 2 (support 4 of m); the odd-irregular family; and a
    random integer system with about two thirds of its entries 0."""
    separated = np.zeros((m, 2 * m))
    for row, col in enumerate(list(range((m + 1) // 2)) + [m + k for k in range(m // 2)]):
        separated[row, col] = 1
    systems = [
        BoundaryConditionSystem(m, separated),
        helpers.quasi_periodic(m, [1] * m),
        helpers.quasi_periodic(m, [2] * m),
        helpers.quasi_periodic(m, ([2] + [1] * m)[:m]),
        helpers.quasi_periodic(m, ([2, 2] + [1] * m)[:m]),
    ]
    if m % 2:
        systems.append(helpers.odd_irregular((m + 1) // 2))
    while True:
        coeffs = rng.integers(-3, 4, size=(m, 2 * m)) * (rng.random((m, 2 * m)) < 1 / 3)
        if np.linalg.matrix_rank(coeffs) == m:
            return systems + [BoundaryConditionSystem(m, coeffs)]


class TestRationalComplex:
    def test_arithmetic(self):
        a = qc(Fraction(1, 2), Fraction(-3, 4))
        b = qc(2, 1)
        assert (a + b) == qc(Fraction(5, 2), Fraction(1, 4))
        assert (a * b) == qc(Fraction(7, 4), Fraction(-1))
        assert (a / a) == qc(1, 0)
        assert a.conjugate() == qc(Fraction(1, 2), Fraction(3, 4))
        assert a.abs_squared() == Fraction(1, 4) + Fraction(9, 16)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qc(1, 2) / qc(0)

    def test_equal_values_hash_equal(self):
        assert hash(qc(Fraction(2, 4), -1)) == hash(qc(Fraction(1, 2), -1))
        assert len({bv(1, (0,), (1,)), bv(1, (0,), (1,)), bv(1, (1,), (0,))}) == 2

    def test_from_float_is_exact(self):
        z = RationalComplex.from_complex(0.1 + 0.25j)
        assert z.re == Fraction(0.1)  # the exact binary value of the float
        assert z.im == Fraction(1, 4)


class TestPolynomial:
    def test_derivative_and_integral(self):
        p = RationalComplexPolynomial([qc(0), qc(1), qc(-2), qc(1)])  # x - 2x^2 + x^3
        dp = p.derivative()
        assert dp(Fraction(0)) == qc(1)
        assert dp(Fraction(1)) == qc(0)
        assert p.integral_unit_interval() == qc(Fraction(1, 12))

    def test_trailing_zeros_trimmed(self):
        p = RationalComplexPolynomial([qc(1), qc(0), qc(0)])
        assert p.degree == 0

    def test_equal_polynomials_hash_equal(self):
        p = RationalComplexPolynomial([qc(1), qc(0, 2), qc(0)])
        q = RationalComplexPolynomial([qc(1), qc(0, 2)])
        assert p == q and hash(p) == hash(q)
        assert p != RationalComplexPolynomial([qc(1)]) and p != qc(1)


class TestHermiteInterpolant:
    def test_m1_falling_line(self):
        p = hermite_interpolant(1, bv(1, (1,), (0,)))
        assert p.coefficients == (qc(1), qc(-1))  # 1 - x

    def test_m1_identity_line(self):
        p = hermite_interpolant(1, bv(1, (0,), (1,)))
        assert p.coefficients == (qc(0), qc(1))  # x

    def test_m2_bump(self):
        p = hermite_interpolant(2, bv(2, (0,), (1,), (0,), (0,)))
        assert p.coefficients == (qc(0), qc(1), qc(-2), qc(1))  # x(1-x)^2

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_roundtrip_identity(self, m):
        for index in range(8):
            target = random_boundary_vector(m, seed=11, index=index)
            p = hermite_interpolant(m, target)
            assert p.degree <= 2 * m - 1
            assert boundary_vector_of(p, m) == target

    @pytest.mark.parametrize("m", range(1, 17))
    def test_rows_interpolate_unit_vectors(self, m):
        # the interpolant of degree <= 2m-1 is unique, so this proves H
        hermite, scale = polyoracle._hermite_matrix(m), math.factorial(m - 1)
        assert len(hermite) == 2 * m
        for i, row in enumerate(hermite):
            p = RationalComplexPolynomial([qc(Fraction(c, scale)) for c in row])
            assert p.degree <= 2 * m - 1
            unit = tuple(qc(int(j == i)) for j in range(2 * m))
            assert boundary_vector_of(p, m).components == unit


class TestInnerProduct:
    def test_m1_linear(self):
        p = RationalComplexPolynomial([qc(0), qc(1)])  # x
        assert l0_inner_product(p, 1) == qc(0, Fraction(-1, 2))  # -i/2

    def test_m2_linear_vanishes(self):
        p = RationalComplexPolynomial([qc(0), qc(1)])
        assert l0_inner_product(p, 2) == qc(0)

    def test_m1_constant_vanishes(self):
        p = RationalComplexPolynomial([qc(1)])
        assert l0_inner_product(p, 1) == qc(0)

    def test_sesquilinear_mixed_terms(self):
        # (L0(y+z), y+z) - (L0 y, y) - (L0 z, z) = exact mixed integrals
        for m in (1, 2, 3):
            y = hermite_interpolant(m, random_boundary_vector(m, seed=3, index=0))
            z = hermite_interpolant(m, random_boundary_vector(m, seed=3, index=1))
            total = l0_inner_product(y + z, m)
            plain = l0_inner_product(y, m) + l0_inner_product(z, m)
            minus_i_m = MINUS_I_POWERS[m % 4]
            dy, dz = y, z
            for _ in range(m):
                dy = dy.derivative()
                dz = dz.derivative()
            mixed = minus_i_m * (
                (dy * z.conjugated()) + (dz * y.conjugated())
            ).integral_unit_interval()
            assert total - plain == mixed


class TestBoundaryVectorOf:
    def test_m1_line(self):
        p = RationalComplexPolynomial([qc(0), qc(1)])
        assert boundary_vector_of(p, 1) == bv(1, (0,), (1,))

    def test_m2_bump(self):
        p = RationalComplexPolynomial([qc(0), qc(1), qc(-2), qc(1)])
        assert boundary_vector_of(p, 2) == bv(2, (0,), (1,), (0,), (0,))

    def test_m1_constant(self):
        p = RationalComplexPolynomial([qc(1)])
        assert boundary_vector_of(p, 1) == bv(1, (1,), (1,))


class TestGram:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_gram_matches_the_polynomial_route(self, m):
        gram, gram_den = polyoracle._gram(m)
        integer_form, den = polyoracle._imaginary_form(m)
        integer_form = densify(integer_form, 2 * m)
        for index in range(20):
            target = random_boundary_vector(m, seed=31, index=index)
            expected = l0_inner_product(hermite_interpolant(m, target), m)
            value = form_value(gram, target.components) * Fraction(1, gram_den)
            assert MINUS_I_POWERS[m % 4] * value == expected
            scaled = list(polyoracle._scaled_draws(31, f"bv{index}", range(2 * m)))
            assert [qc(*z) for z in scaled] == [12 * z for z in target.components]
            re, im = polyoracle._gaussian_dot(gaussian_vecmat(scaled, integer_form), scaled)
            assert (Fraction(re, 144 * den), im) == (expected.im, 0)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_sparse_form_is_the_form_by_its_nonzeros(self, m):
        # F = M/2 has 2m nonzeros; the sparse rows hold exactly those of the
        # dense F built from the Gram, over the least denominator of all its entries
        gram, gram_den = polyoracle._gram(m)
        q_re, q_im = polyoracle._minus_i_power(m + 1)
        dense = [
            [(q_re * (gram[c][d] + gram[d][c]), q_im * (gram[c][d] - gram[d][c])) for d in range(2 * m)]
            for c in range(2 * m)
        ]
        common = math.gcd(2 * gram_den, *(part for row in dense for pair in row for part in pair))
        sparse, den = polyoracle._imaginary_form(m)
        assert den == 2 * gram_den // common and sum(map(len, sparse)) == 2 * m
        assert densify(sparse, 2 * m) == [[(re // common, im // common) for re, im in row] for row in dense]

    @pytest.mark.parametrize("m", range(1, 17))
    def test_form_is_over_its_least_denominator(self, m):
        # sampling cost grows with the size of these integers
        rows, den = polyoracle._imaginary_form(m)
        assert den > 0
        assert math.gcd(den, *(part for row in rows for pair in row.values() for part in pair)) == 1

    def test_cold_build_needs_no_elimination_and_no_fraction(self, monkeypatch):
        built = {m: polyoracle._imaginary_form(m) for m in (1, 8, 16)}

        def fail(*args):
            raise AssertionError("the exact forms are built from closed forms in integers")

        monkeypatch.setattr(polyoracle, "_nullspace", fail)
        monkeypatch.setattr(polyoracle, "Fraction", fail)
        polyoracle._imaginary_form.cache_clear()
        polyoracle._hermite_matrix.cache_clear()
        for m, form in built.items():
            assert polyoracle._imaginary_form(m) == form

    @pytest.mark.parametrize("m", range(1, 17))
    def test_identities_hold_as_matrices(self, m):
        # a Hermitian form is fixed by its values, so these equalities prove
        # both identities for every boundary vector, not only for samples:
        # M - 2F = 0 and (S - S*)/2i - F = 0 as exact matrices, with both
        # targets the integer closed forms that the float layers convert
        for target, scale in ((exact.boundary_form, 2), (exact.canonical_target, 1)):
            rows, den = polyoracle._difference(m, target(m), scale)
            assert den > 0
            assert rows == [{}] * (2 * m)  # every entry cancels, and none is kept


def perturb_boundary_form(monkeypatch, mirror, imag=0):
    """Add ``1 + i imag`` to entry (0, 2m-1) of ``exact.boundary_form`` and
    ``mirror`` to entry (2m-1, 0)."""
    boundary_form = exact.boundary_form

    def perturbed(order):
        rows, den = boundary_form(order)
        add_entry(rows, 0, 2 * order - 1, den, imag * den)
        if mirror:
            add_entry(rows, 2 * order - 1, 0, mirror * den)
        return rows, den

    monkeypatch.setattr(exact, "boundary_form", perturbed)


def flip_canonical_sign(monkeypatch):
    """Negate the last row of Q in ``exact.canonical_components``."""
    components = exact.canonical_components

    def flipped(order):
        p_int, q_int, weight_sq = components(order)
        q_int[order - 1] = {col: (-re, -im) for col, (re, im) in q_int[order - 1].items()}
        return p_int, q_int, weight_sq

    monkeypatch.setattr(exact, "canonical_components", flipped)


class TestIdentitySuites:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_boundary_form_identity_exact(self, m):
        report = verify_boundary_form_identity(m, sample_count=10, seed=21)
        assert report.passed
        assert report.max_defect == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_canonical_identity_exact(self, m):
        report = verify_canonical_identity(m, sample_count=10, seed=21)
        assert report.passed
        assert report.max_defect == 0

    @pytest.mark.parametrize("m", [7, 8])
    def test_identities_exact_at_range_top(self, m):
        assert verify_boundary_form_identity(m, sample_count=5, seed=99).max_defect == 0
        assert verify_canonical_identity(m, sample_count=5, seed=99).max_defect == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    # an anti-Hermitian pair leaves the real part of the form alone
    @pytest.mark.parametrize("mirror", [0, -1], ids=["one-entry", "anti-hermitian"])
    def test_perturbed_boundary_form_is_caught(self, monkeypatch, m, mirror):
        perturb_boundary_form(monkeypatch, mirror)
        report = verify_boundary_form_identity(m, sample_count=5, seed=21)
        assert report.passed is False
        assert report.max_defect > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "mirror, imag", [(0, 0), (-1, 0), (0, 1)], ids=["one-entry", "anti-hermitian", "complex-one-entry"]
    )
    def test_max_defect_is_the_dense_maximum(self, monkeypatch, m, mirror, imag):
        # the suite evaluates conj(v D v*), whose |Re| + |Im| is that of
        # q = v D v* for any D, Hermitian or not: compare with the dense q
        perturb_boundary_form(monkeypatch, mirror, imag)
        target, t_den = exact.boundary_form(m)
        form, f_den = polyoracle._imaginary_form(m)
        difference = [
            [qc(Fraction(tr, t_den) - Fraction(2 * fr, f_den), Fraction(ti, t_den) - Fraction(2 * fi, f_den))
             for (tr, ti), (fr, fi) in zip(t_row, f_row)]
            for t_row, f_row in zip(densify(target, 2 * m), densify(form, 2 * m))
        ]
        values = [form_value(difference, random_boundary_vector(m, 21, index).components) for index in range(5)]
        report = verify_boundary_form_identity(m, sample_count=5, seed=21)
        assert report.max_defect == max(abs(q.re) + abs(q.im) for q in values) > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "mutate, name, scale",
        [
            (lambda patch: perturb_boundary_form(patch, 0), "boundary_form", 2),
            (lambda patch: perturb_boundary_form(patch, -1), "boundary_form", 2),
            (lambda patch: perturb_boundary_form(patch, 0, 1), "boundary_form", 2),
            (flip_canonical_sign, "canonical_target", 1),
        ],
        ids=["one-entry", "anti-hermitian", "complex-one-entry", "canonical-sign"],
    )
    def test_difference_holds_exactly_the_nonzeros(self, monkeypatch, m, mutate, name, scale):
        # D is the dense target f_den - scale t_den F by its nonzeros: every
        # nonzero entry is kept and no (0, 0) entry is stored
        mutate(monkeypatch)
        (target, t_den), (form, f_den) = getattr(exact, name)(m), polyoracle._imaginary_form(m)
        dense = [
            [(tr * f_den - scale * t_den * fr, ti * f_den - scale * t_den * fi)
             for (tr, ti), (fr, fi) in zip(t_row, f_row)]
            for t_row, f_row in zip(densify(target, 2 * m), densify(form, 2 * m))
        ]
        expected = [{d: z for d, z in enumerate(row) if z != (0, 0)} for row in dense]
        rows, den = polyoracle._difference(m, getattr(exact, name)(m), scale)
        assert den == t_den * f_den and any(expected)
        assert rows == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_flipped_canonical_sign_is_caught(self, monkeypatch, m):
        flip_canonical_sign(monkeypatch)
        report = verify_canonical_identity(m, sample_count=5, seed=21)
        assert report.passed is False
        assert report.max_defect > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "mutate, failing",
        [(lambda patch: perturb_boundary_form(patch, 0), 0), (flip_canonical_sign, 1)],
        ids=["boundary-form", "canonical"],
    )
    def test_shared_loop_keeps_the_suites_apart(self, monkeypatch, m, mutate, failing):
        # a mutation of one target fails that suite's report only
        mutate(monkeypatch)
        reports = polyoracle.verify_identities(m, sample_count=5, seed=21)
        for index, report in enumerate(reports):
            if index == failing:
                assert report.passed is False and report.max_defect > 0
            else:
                assert report.passed is True and report.max_defect == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "module, name, suite",
        [
            (exact, "boundary_form", verify_boundary_form_identity),
            (exact, "canonical_target", verify_canonical_identity),
        ],
        ids=["boundary-form", "canonical"],
    )
    def test_mutation_every_sample_misses_is_caught(self, monkeypatch, m, module, name, suite):
        # u* u with u orthogonal to the one drawn vector yh is a nonzero
        # Hermitian form whose value at yh is |yh u*|^2 = 0; 12 yh and so u
        # are Gaussian integers, so the perturbed target stays exact
        yh = [complex(12 * z) for z in random_boundary_vector(m, seed=21, index=0).components]
        u = np.zeros(2 * m, dtype=np.complex128)
        u[0], u[1] = yh[1].conjugate(), -yh[0].conjugate()
        perturbation = np.outer(u.conj(), u)
        assert perturbation.any() and np.vdot(u, yh) == 0
        build = getattr(module, name)

        def perturbed(order):
            rows, den = build(order)
            for c, d in np.argwhere(perturbation).tolist():
                z = perturbation[c, d]
                add_entry(rows, c, d, den * int(z.real), den * int(z.imag))
            return rows, den

        monkeypatch.setattr(module, name, perturbed)
        report = suite(m, sample_count=1, seed=21)
        assert report.passed is False
        assert report.max_defect == 0

    def test_second_call_builds_no_difference(self, monkeypatch):
        polyoracle.verify_identities(5, 2, 0)
        calls = []
        difference = polyoracle._difference
        monkeypatch.setattr(polyoracle, "_difference", lambda *args: calls.append(args) or difference(*args))
        polyoracle.verify_identities(5, 3, 7)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 7, 1001])
    def test_cached_differences_report_as_fresh_ones(self, seed):
        cached = [polyoracle.verify_identities(m, 4, seed) for m in range(1, 17) for _ in range(2)]
        fresh = []
        for m in range(1, 17):
            polyoracle._differences.cache_clear()
            fresh += [polyoracle.verify_identities(m, 4, seed)] * 2
        assert cached == fresh

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            verify_boundary_form_identity(17, 1, 0)
        with pytest.raises(ValueError):
            verify_canonical_identity(0, 1, 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_interior_perturbation_leaves_form_unchanged(self, m):
        # adding x^m (1-x)^m q(x) fixes the boundary vector, hence Im(L0 y, y)
        base = hermite_interpolant(m, random_boundary_vector(m, seed=4, index=0))
        x = RationalComplexPolynomial([qc(0), qc(1)])
        one_minus_x = RationalComplexPolynomial([qc(1), qc(-1)])
        window = RationalComplexPolynomial([qc(1)])
        for _ in range(m):
            window = window * x * one_minus_x
        for index in range(5):
            q = RationalComplexPolynomial(
                [
                    RationalComplex(
                        Fraction(int(index) + k - 2, k + 1), Fraction(k - 1, 2)
                    )
                    for k in range(4)
                ]
            )
            perturbed = base + window * q
            assert boundary_vector_of(perturbed, m) == boundary_vector_of(base, m)
            assert (
                l0_inner_product(perturbed, m).im == l0_inner_product(base, m).im
            )


class TestSampleDissipativity:
    def test_right_end_pinned_is_nonnegative(self):
        report = sample_dissipativity(helpers.transport(0, 1), 20, seed=2)
        assert report.all_nonnegative
        assert report.min_value >= 0

    def test_left_end_pinned_goes_negative(self):
        report = sample_dissipativity(helpers.transport(1, 0), 20, seed=2)
        assert not report.all_nonnegative
        assert report.min_value < 0

    def test_odd_example_matches_half_square(self):
        # on the solution space the form value is |y^(n-1)(0)|^2 / 2 exactly
        n = 2
        system = helpers.odd_irregular(n)
        m = system.m
        exact = [
            [RationalComplex.from_complex(z) for z in row] for row in system.coeffs
        ]
        basis = reference_nullspace(exact)
        assert len(basis) == m
        for index in range(10):
            combo = [
                RationalComplex(Fraction(index + j, 3), Fraction(j - 1, 2))
                for j in range(m)
            ]
            vector = combination(combo, basis)
            y = hermite_interpolant(m, vector)
            value = l0_inner_product(y, m).im
            assert value == vector.components[n - 1].abs_squared() / 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_polynomial_route(self, m):
        rng = np.random.default_rng(40 + m)
        floats = helpers.random_system(rng, m)
        systems = (
            floats,
            helpers.random_dissipative(rng, m),
            exact_system(rng, m),
            helpers.recombined(floats, helpers.random_recombination(rng, m)),
        )
        for system in systems:
            basis = reference_nullspace(rational_rows(system))
            values = []
            for index in range(5):
                weights = [polyoracle.random_rational_complex(5, f"ns{index}", j) for j in range(m)]
                y = hermite_interpolant(m, combination(weights, basis))
                values.append(l0_inner_product(y, m).im)
            assert sample_dissipativity(system, 5, seed=5).min_value == min(values)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_dense_route(self, m):
        # the minimum over K's support equals the minimum over all of K, as
        # a Fraction, on float, p/q, mixed and sparse systems
        rng = np.random.default_rng(60 + m)
        floats = helpers.random_system(rng, m)
        pq = exact_system(rng, m)
        mixed = exact_system(rng, m).exact
        mixed = BoundaryConditionSystem(  # p/q rows, some of them given as their doubles
            m, [[complex(float(re), float(im)) for re, im in row] for row in mixed],
            exact=[row if j % 2 else [(float(re), float(im)) for re, im in row] for j, row in enumerate(mixed)],
        )
        systems = [floats, pq, mixed, helpers.random_dissipative(rng, m)] + sparse_systems(rng, m)
        for system in systems:
            for samples, seed in ((25, 0), (40, 7)):
                report = sample_dissipativity(system, samples, seed)
                assert report.min_value == dense_min_value(system, samples, seed)
                assert report.all_nonnegative == (report.min_value >= 0)

    def test_form_value_matches_the_six_product_reference(self):
        # K entries of several hundred bits, weights from the stream's range
        # (-9..9 times 12, 6, 4 or 3)
        rng = random.Random(32)
        weights = sorted({n * scale for n in range(-9, 10) for scale in (12, 6, 4, 3)})
        for _ in range(300):
            size = rng.randrange(1, 9)
            bits = rng.choice([1, 64, 300, 700])
            entry = lambda: rng.randrange(-(2**bits), 2**bits + 1)
            terms = [(a, b, (entry(), entry() if a != b else 0)) for a in range(size) for b in range(a, size)
                     if rng.random() < 0.8]
            w = [(rng.choice(weights), rng.choice(weights)) for _ in range(size)]
            assert polyoracle._form_value(terms, w) == reference_form_value(terms, w)

    @staticmethod
    def draws_of(monkeypatch, system, samples=4):
        """The index lists ``sample_dissipativity`` hands ``_scaled_draws``."""
        calls = []
        draws = polyoracle._scaled_draws
        monkeypatch.setattr(
            polyoracle, "_scaled_draws", lambda seed, tag, indices: calls.append(list(indices)) or draws(seed, tag, indices)
        )
        sample_dissipativity(system, samples, seed=3)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("system", [helpers.dirichlet_m2, helpers.neumann_m2, helpers.periodic_m2])
    def test_zero_form_draws_nothing(self, monkeypatch, system):
        # K = 0 on self-adjoint separated and periodic conditions
        assert self.draws_of(monkeypatch, system()) == []
        assert sample_dissipativity(system(), 4, seed=3) == polyoracle.DissipativitySampleReport(True, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rank_one_form_draws_one_index(self, monkeypatch, n):
        # on the odd-irregular family K is the rank-one |y^(n-1)(0)|^2 / 2
        calls = self.draws_of(monkeypatch, helpers.odd_irregular(n))
        assert len(calls) == 4 and all(len(indices) == 1 for indices in calls)
        assert len({tuple(indices) for indices in calls}) == 1

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_generic_form_draws_every_index(self, monkeypatch, m):
        system = helpers.random_system(np.random.default_rng(m), m)
        assert self.draws_of(monkeypatch, system) == [list(range(m))] * 4

    def test_sample_count_checked_before_any_elimination(self, monkeypatch):
        calls = []
        nullspace, form = polyoracle._nullspace, polyoracle._imaginary_form
        monkeypatch.setattr(polyoracle, "_nullspace", lambda rows: calls.append("nullspace") or nullspace(rows))
        monkeypatch.setattr(
            polyoracle, "_imaginary_form", lambda m: calls.append("form") or form(m)
        )
        with pytest.raises(ValueError):
            sample_dissipativity(helpers.dirichlet_m2(), 0, seed=0)
        assert calls == []
        sample_dissipativity(helpers.dirichlet_m2(), 1, seed=0)
        assert calls == ["nullspace", "form"]

    def test_keeps_no_samples(self, monkeypatch):
        # each weight vector is drawn, evaluated and dropped before the next,
        # so memory does not grow with the sample count (a list of 3000
        # samples alone takes about 1 MB); K has full support here, so
        # every sample draws both weights
        system = helpers.random_dissipative(np.random.default_rng(3), 2)
        assert self.draws_of(monkeypatch, system, 1) == [[0, 1]]
        sample_dissipativity(system, 1, seed=0)  # builds the cached form first
        tracemalloc.start()
        try:
            sample_dissipativity(system, 3000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_degenerate_rows_rejected(self):
        system = BoundaryConditionSystem(2, [[1, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(DependentRows):
            sample_dissipativity(system, 3, seed=0)

    def test_exactly_dependent_rational_rows_rejected(self):
        # the second row is exactly 3 times the first; as doubles it is not (1/3 rounds)
        rows = [[(Fraction(1, 3), 0), (1, 0), (0, 0), (0, 0)], [(1, 0), (3, 0), (0, 0), (0, 0)]]
        coeffs = [[complex(float(re), float(im)) for re, im in row] for row in rows]
        system = BoundaryConditionSystem(2, coeffs, exact=rows)
        with pytest.raises(DependentRows):
            sample_dissipativity(system, 3, seed=0)


class TestBareiss:
    @staticmethod
    def assert_matches_rref(system):
        rows, pivots, det = exact._bareiss(system.integer_rows)
        rref_rows, rref_pivots = _rref(rational_rows(system))
        assert pivots == rref_pivots
        assert [[qc(*value) / qc(*det) for value in row] for row in rows] == rref_rows

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_matches_rref(self, m):
        rng = np.random.default_rng(70 + m)
        self.assert_matches_rref(exact_system(rng, m))
        self.assert_matches_rref(helpers.random_system(rng, m))

    @pytest.mark.parametrize("m, rank", [(2, 1), (3, 1), (4, 2), (5, 3), (8, 5)])
    def test_rank_deficient_matches_rref(self, m, rank):
        system = exact_system(np.random.default_rng(80 + m), m, rank=rank)
        self.assert_matches_rref(system)
        rows, pivots, det = exact._bareiss(system.integer_rows)
        assert len(pivots) == rank
        # the pivot block is d I: d on each pivot row, 0 in every other row
        assert [[row[col] for col in pivots] for row in rows] == [
            [det if i == j else (0, 0) for j in range(rank)] for i in range(m)
        ]

    def test_zero_leading_entry_swaps_rows(self):
        half = Fraction(1, 2)
        rows = [
            [(0, 0), (2, 1), (half, 0), (1, 0)],
            [(3, 0), (1, -1), (0, Fraction(2, 3)), (0, 0)],
        ]
        system = BoundaryConditionSystem(
            2, [[complex(float(re), float(im)) for re, im in row] for row in rows], exact=rows
        )
        self.assert_matches_rref(system)
        integer_rows = system.integer_rows
        assert integer_rows[0] == ((0, 0), (4, 2), (1, 0), (2, 0))  # scaled by lcm 2
        assert exact._bareiss(integer_rows)[0][0][0] != (0, 0)

    @staticmethod
    def count_updates(monkeypatch):
        # every entry a step rewrites goes through one checked division
        calls = []
        quotient = exact._exact_quotient
        monkeypatch.setattr(exact, "_exact_quotient", lambda a, b: calls.append(b) or quotient(a, b))
        return calls

    @staticmethod
    def full_updates(m, first=0):
        # steps from `first` on that rewrite every other row: m - 1 rows times
        # the 2m - k - 1 columns still live after step k
        return sum((m - 1) * (2 * m - k - 1) for k in range(first, m))

    @pytest.mark.parametrize(
        "system",
        [helpers.dirichlet_m2(), helpers.neumann_m2(), helpers.periodic_m2()]
        + [helpers.odd_irregular(n) for n in range(1, 5)]
        + [sparse_systems(np.random.default_rng(70), 6)[-1]],
        ids=["dirichlet", "neumann", "periodic", "odd-n1", "odd-n2", "odd-n3", "odd-n4", "two-thirds-zero"],
    )
    def test_rows_that_stay_unchanged_are_skipped(self, monkeypatch, system):
        # a zero multiplier under a pivot equal to the last one leaves the
        # row as it is; m = 1 has no other row to update at all
        calls = self.count_updates(monkeypatch)
        self.assert_matches_rref(system)
        assert len(calls) < self.full_updates(system.m) if system.m > 1 else not calls

    def test_changing_pivots_update_every_row(self, monkeypatch):
        system = helpers.random_system(np.random.default_rng(78), 8)
        calls = self.count_updates(monkeypatch)
        self.assert_matches_rref(system)
        # the first step divides by 1, so it stores its updates with no call
        assert len(calls) == self.full_updates(8, first=1)
        # each later step divides by the pivot before it, and no two in a row are equal
        divisors = [calls[0]] + [b for a, b in zip(calls, calls[1:]) if a != b]
        assert len(divisors) == 7 and divisors[0] == system.integer_rows[0][0] != (1, 0)

    def test_zero_matrix_has_no_pivots(self):
        assert exact._bareiss([[(0, 0)] * 3] * 2) == ([[(0, 0)] * 3] * 2, [], (1, 0))

    def test_exact_quotient(self):
        assert exact._exact_quotient((6, -4), (2, 0)) == (3, -2)
        assert exact._exact_quotient((2, 0), (1, 1)) == (1, -1)
        assert exact._exact_quotient((-5, 10), (1, 2)) == (3, 4)

    @pytest.mark.parametrize("a, b", [((3, 0), (2, 0)), ((0, 7), (-2, 0)), ((1, 0), (1, 1)), ((3, 5), (2, 1))])
    def test_inexact_division_raises(self, a, b):
        with pytest.raises(ArithmeticError):
            exact._exact_quotient(a, b)


class TestRationalNullspace:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_the_reference(self, m):
        rng = np.random.default_rng(100 + m)
        for rank in (None, *range(1, m)):  # full rank, then every deficient rank
            matrix = rational_rows(exact_system(rng, m, rank=rank))
            basis = rational_nullspace(matrix)
            assert basis == reference_nullspace(matrix)
            assert len(basis) == 2 * m - (m if rank is None else rank)

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            ([], []),
            ([[qc(0)] * 3] * 2, [[qc(int(i == j)) for j in range(3)] for i in range(3)]),
            ([[qc(1, 1), qc(2)]], [[qc(-1, 1), qc(1)]]),  # a non-real pivot
        ],
        ids=["empty", "zero", "complex-pivot"],
    )
    def test_edge_cases(self, matrix, expected):
        assert rational_nullspace(matrix) == expected == reference_nullspace(matrix)

    @pytest.mark.parametrize(
        "matrix", [[[1, 2], [1]], [[1], [1, 2]], [[0], [1, 2]]], ids=["short", "long", "zero-then-long"]
    )
    def test_ragged_rows_rejected(self, matrix):
        with pytest.raises(DimensionMismatch, match="row 1 has"):
            rational_nullspace([[qc(value) for value in row] for row in matrix])


class TestSampleStream:
    @staticmethod
    def count_draws(monkeypatch):
        # the digest of every part hashed
        calls = []
        draw = polyoracle._digest_draw
        monkeypatch.setattr(polyoracle, "_digest_draw", lambda digest: calls.append(digest) or draw(digest))
        return calls

    # the stream, pinned by value: _scaled_draws(seed, tag, range(size)) and
    # random_rational_complex(seed, tag, size - 1)
    STREAM = [
        (0, "bv0", [(-24, 108)], (-2, 9)),
        (7, "bv12", [(-20, 24), (24, 36), (0, 72), (96, -12), (-18, -6), (54, 8), (84, -28), (72, 0)], (6, 0)),
        (1001, "ns3", [(-28, 0), (0, 72), (-48, -12), (12, -28), (84, -16)], (7, Fraction(-4, 3))),
        (
            -4,
            "x",
            [(-12, 12), (28, 30), (-108, -4), (-36, -72), (-12, -84), (-27, -3), (12, 12), (8, 8),
             (28, 24), (-32, 24), (-8, 12), (-24, 18), (-48, 20), (-24, 9), (24, -9), (36, -6)],
            (3, Fraction(-1, 2)),
        ),
    ]

    @pytest.mark.parametrize(
        "seed, tag, draws, last", STREAM, ids=[f"{seed}-{tag}-{len(draws)}" for seed, tag, draws, _ in STREAM]
    )
    def test_scaled_draws_equal_the_stream_draws(self, seed, tag, draws, last):
        size = len(draws)
        assert list(polyoracle._scaled_draws(seed, tag, range(size))) == draws
        assert list(polyoracle._scaled_draws(seed, tag, (size - 1, 0))) == [draws[-1], draws[0]]
        assert polyoracle.random_rational_complex(seed, tag, size - 1) == qc(*last)

    @staticmethod
    def reference_draws(seed, tag, indices):
        # the stream from its definition: part p is the SHA-256 digest of
        # "seed:tag:p", numerator int(digest[:4]) % 19 - 9 over denominator
        # digest[4] % 4 + 1, here times 12; draw j is parts 2j and 2j + 1
        def part(p):
            digest = hashlib.sha256(f"{seed}:{tag}:{p}".encode()).digest()
            return (int.from_bytes(digest[:4], "big") % 19 - 9) * 12 // (digest[4] % 4 + 1)

        return [(part(2 * j), part(2 * j + 1)) for j in indices]

    @pytest.mark.parametrize("seed", [0, -4, 7, 10**20])
    @pytest.mark.parametrize("tag", ["bv0", "ns12"])
    def test_scaled_draws_equal_the_reference(self, seed, tag):
        # parts 0..121 have 1, 2 and 3 digits
        assert polyoracle._scaled_draws(seed, tag, range(61)) == self.reference_draws(seed, tag, range(61))
        unsorted = [42, 3, 60, 0, 3, 17, 9]
        assert polyoracle._scaled_draws(seed, tag, unsorted) == self.reference_draws(seed, tag, unsorted)

    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("entry", [0, -1], ids=["first", "last"])
    def test_suites_sample_the_reference_stream(self, monkeypatch, entry, m):
        # with 1 added to a diagonal entry j of M, D is the unit matrix E_jj,
        # so each sample's defect is |yh_j|^2 of its boundary vector yh; at
        # j = 0 the largest of the 6 samples is not the last one drawn
        boundary_form = exact.boundary_form

        def unit_defect(order):
            rows, den = boundary_form(order)
            j = entry % (2 * order)
            add_entry(rows, j, j, den)
            return rows, den

        monkeypatch.setattr(exact, "boundary_form", unit_defect)
        assert verify_boundary_form_identity(m, 6, seed=7).max_defect == max(
            random_boundary_vector(m, seed=7, index=index).components[entry].abs_squared() for index in range(6)
        )

    def test_verify_hashes_each_vector_once(self, monkeypatch, capsys):
        calls = self.count_draws(monkeypatch)
        assert cli.main(["verify", "--m", "4", "--samples", "5"]) == 0
        # one hash per real or imaginary part: 5 vectors of 2m = 8 Gaussian
        # entries, each drawn once for both identity suites
        assert len(calls) == 5 * 2 * (2 * 4)
        assert len(set(calls)) == len(calls)
        assert capsys.readouterr().out

    @pytest.mark.parametrize("seed", [3, 1001])
    @pytest.mark.parametrize("m", range(1, 17))
    def test_verify_identities_equals_the_two_suites(self, m, seed):
        assert polyoracle.verify_identities(m, 5, seed) == (
            verify_boundary_form_identity(m, 5, seed),
            verify_canonical_identity(m, 5, seed),
        )

    def test_verify_keeps_no_samples(self, capsys):
        # each boundary vector is drawn, evaluated and dropped before the
        # next, so memory does not grow with the sample count (the 3000
        # vectors alone take about 1.4 MB)
        argv = ["verify", "--m", "2", "--samples", "3000"]
        assert cli.main(argv) == 0  # builds the cached forms first
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert capsys.readouterr().out

    def test_each_call_draws_afresh(self, monkeypatch):
        # no sample is kept between calls: two spot-checks with one seed
        # hash their 4 weight vectors of m = 3 Gaussian entries each
        rng = np.random.default_rng(90)
        systems = (helpers.random_system(rng, 3), exact_system(rng, 3))
        calls = self.count_draws(monkeypatch)
        reports = [sample_dissipativity(system, 4, seed=6) for system in systems]
        assert len(calls) == 2 * (4 * 2 * 3)
        assert reports[0] != reports[1]
