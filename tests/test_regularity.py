import cmath
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    NormalizedSystem,
    normalize,
    ordered_roots,
    rank_profile_orders,
    regularity_verdict,
    row_span_verdict,
    span_verdict,
)
from bca import regularity
from bca.errors import DependentRows, NotNormalized

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
import corpus  # noqa: E402

SQRT3 = 3**0.5


def characteristic_determinant(norm, s):
    """The boundary determinant at s (s != 0), entry by entry: row j,
    column c (1-based) is ``w omega_c^k_j``, with w read off below."""
    m = norm.base.m
    mu = (m + 1) // 2

    def weight(alpha, beta, column):
        if column < mu:
            return alpha
        if column == mu:
            return alpha + s * beta
        if column == mu + 1 and m % 2 == 0:
            return alpha + beta / s
        return beta

    matrix = [
        [weight(alpha, beta, c) * omega**k for c, omega in enumerate(ordered_roots(m), 1)]
        for (alpha, beta), k in zip(norm.leading, norm.orders)
    ]
    return complex(np.linalg.det(np.array(matrix)))


def _column_matrices(norm):
    """``A_alpha[j, c] = alpha_j omega_c^k_j`` and ``A_beta[j, c] = beta_j omega_c^k_j``."""
    omegas = np.array(ordered_roots(norm.base.m))
    powers = omegas ** np.array(norm.orders)[:, None]
    alpha, beta = np.array(norm.leading, dtype=np.complex128).T
    return alpha[:, None] * powers, beta[:, None] * powers


def _determinant(a_alpha, a_beta, *middle):
    """Determinant whose column c is column c of its source: ``a_alpha``
    before mu = (m+1)//2 (1-based), then ``middle``, then ``a_beta``."""
    sources = [a_alpha] * ((len(a_alpha) - 1) // 2) + list(middle)
    sources += [a_beta] * (len(a_alpha) - len(sources))
    matrix = np.column_stack([x[:, c] for c, x in enumerate(sources)])
    return complex(np.linalg.det(matrix))


def multilinear_thetas(norm):
    """theta_-1 (None for odd m), theta_0 and theta_1 by the multilinear
    expansion of the columns that carry s: the reference route."""
    a, b = _column_matrices(norm)
    if norm.base.m % 2 == 1:
        return None, _determinant(a, b, a), _determinant(a, b, b)
    return _determinant(a, b, a, b), _determinant(a, b, a, a) + _determinant(a, b, b, b), _determinant(a, b, b, a)


def thetas(report):
    return report.theta_minus1, report.theta_0, report.theta_1


def flags(report):
    return report.theta_minus1_nonzero, report.theta_0_nonzero, report.theta_1_nonzero, report.regular, report.regular_strict


def span_report(system):
    return row_span_verdict(system, rank_profile_orders(system))


def ratio_spread(reference, report) -> float:
    """Largest relative departure of theta_t(report) / theta_t(reference)
    from one constant c, the first such ratio, and of their scales' ratio
    from |c|, over the thetas that ``reference`` flags nonzero."""
    nonzero = zip(thetas(reference), thetas(report), flags(reference)[:3])
    ratios = [new / old for old, new, flag in nonzero if flag]
    spreads = [abs(r / ratios[0] - 1) for r in ratios]
    if ratios:
        spreads.append(abs(report.scale / reference.scale / abs(ratios[0]) - 1))
    return max(spreads, default=0.0)


class TestOrderedRoots:
    def test_m1(self):
        roots = ordered_roots(1)
        assert roots == pytest.approx((-1 + 0j,))

    def test_m2(self):
        roots = ordered_roots(2)
        assert roots[0] == pytest.approx(1j)
        assert roots[1] == pytest.approx(-1j)

    def test_m3(self):
        roots = ordered_roots(3)
        assert roots[0] == pytest.approx(-1 + 0j)
        assert roots[1] == pytest.approx(cmath.exp(1j * cmath.pi / 3))
        assert roots[2] == pytest.approx(cmath.exp(-1j * cmath.pi / 3))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_roots_of_minus_one_with_product_identity(self, m):
        roots = ordered_roots(m)
        for omega in roots:
            assert abs(omega**m + 1) <= 1e-12
        product = np.prod(roots)
        assert abs(product - (-1) ** m) <= 1e-10

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sort_keys_strictly_increase(self, m):
        roots = ordered_roots(m)
        twist = cmath.exp(1j * cmath.pi / (2 * m))
        keys = [(w * twist).real for w in roots]
        assert all(b - a > 1e-9 for a, b in zip(keys, keys[1:]))

    def test_matches_a_float_sort_of_the_twisted_roots(self):
        for m in range(1, 201):
            roots = [cmath.exp(1j * cmath.pi * (2 * j - 1) / m) for j in range(1, m + 1)]
            twist = cmath.exp(1j * cmath.pi / (2 * m))
            expected = tuple(sorted(roots, key=lambda w: (w * twist).real))
            assert ordered_roots(m) == expected, m

    def test_large_order_does_not_raise(self):
        # neighbouring float keys here differ by less than 1e-9
        m = 100_000
        omegas = ordered_roots(m)
        assert len(omegas) == m
        assert omegas[0] == cmath.exp(1j * cmath.pi * (m - 1) / m)  # j = m/2 has key 1


class TestThetaCoefficients:
    def test_dirichlet(self):
        report = regularity_verdict(normalize(helpers.dirichlet_m2()))
        assert report.parity == "even"
        assert report.theta_minus1 == pytest.approx(1.0, abs=1e-12)
        assert abs(report.theta_0) <= 1e-12
        assert report.theta_1 == pytest.approx(-1.0, abs=1e-12)

    def test_neumann(self):
        report = regularity_verdict(normalize(helpers.neumann_m2()))
        assert report.theta_minus1 == pytest.approx(1.0, abs=1e-12)
        assert abs(report.theta_0) <= 1e-12
        assert report.theta_1 == pytest.approx(-1.0, abs=1e-12)

    def test_odd_example(self):
        report = regularity_verdict(normalize(helpers.odd_irregular(2)))
        assert report.parity == "odd"
        assert report.theta_minus1 is None
        assert abs(report.theta_0) <= 1e-12 * report.scale
        assert report.theta_1 == pytest.approx(1j * SQRT3, abs=1e-12)

    def test_refit_matches_fresh_evaluation(self):
        rng = np.random.default_rng(51)
        for m in range(1, 9):
            systems = [helpers.random_system(rng, m), helpers.random_dissipative(rng, m)]
            if m % 2 == 1:
                systems.append(helpers.odd_irregular((m + 1) // 2))
            for system in systems:
                norm = normalize(system)
                report = regularity_verdict(norm)
                for s in (3.0, -0.5 + 2j):
                    predicted = report.theta_0 + s * report.theta_1
                    if report.theta_minus1 is not None:
                        predicted += report.theta_minus1 / s
                    actual = characteristic_determinant(norm, s)
                    assert abs(actual - predicted) <= 1e-12 * abs(s) * report.scale, (m, s)

    def test_equals_the_multilinear_expansion(self):
        rng = np.random.default_rng(54)
        for m in range(1, 9):
            systems = [helpers.random_system(rng, m), helpers.random_dissipative(rng, m)]
            if m % 2 == 1:
                systems.append(helpers.odd_irregular((m + 1) // 2))
            for system in systems:
                norm = normalize(system)
                report = regularity_verdict(norm)
                for new, old in zip(thetas(report), multilinear_thetas(norm)):
                    assert (new is None) == (old is None)
                    assert old is None or abs(new - old) <= 1e-12 * report.scale, m

    @pytest.mark.parametrize(
        "system",
        [pytest.param(helpers.odd_irregular(n), id=f"odd-irregular-n{n}") for n in range(1, 6)]
        + [
            pytest.param(helpers.dirichlet_m2(), id="dirichlet"),
            pytest.param(helpers.neumann_m2(), id="neumann"),
        ],
    )
    def test_structural_zero_theta_0_is_exact(self, system):
        assert regularity_verdict(normalize(system)).theta_0 == 0
        assert span_report(system).theta_0 == 0


class TestRowSpanThetas:
    """The thetas of any rows of the span are those of the leading
    truncation times one constant, det T, so every flag is the same."""

    def test_corpus_rows_agree_with_the_normalized_route(self):
        for case in corpus.build_corpus(1):
            system = BoundaryConditionSystem(case.m, case.coeffs)
            norm = normalize(system)
            reference, report = regularity_verdict(norm), span_report(system)
            assert rank_profile_orders(system) == norm.orders, case.name
            assert flags(report) == flags(reference), case.name
            assert ratio_spread(reference, report) <= 1e-6, case.name

    def test_mixed_exact_systems_keep_their_verdicts(self):
        rng = np.random.default_rng(63)
        for case in corpus.build_corpus(1):
            if case.kind != "exact":
                continue
            system = BoundaryConditionSystem(case.m, case.coeffs)
            norm = normalize(system)
            reference = regularity_verdict(norm)
            for cond in (1e2, 1e6):
                for _ in range(3):
                    mixed = helpers.recombined(system, conditioned_mixing(rng, case.m, cond))
                    orders = rank_profile_orders(mixed)
                    report = row_span_verdict(mixed, orders)
                    assert orders == norm.orders, (case.name, cond)
                    assert flags(report) == flags(reference), (case.name, cond)
                    assert ratio_spread(reference, report) <= 1e-6, (case.name, cond)

    @pytest.mark.parametrize("m", range(9, 15))
    def test_dissipative_systems_above_the_corpus_orders(self, m):
        # the scale counts top-weight minors only, so lower-order terms of
        # the rows do not drown the thetas (acceptance 06 beyond m = 8)
        system = helpers.random_dissipative(np.random.default_rng(100 + m), m)
        reference, report = regularity_verdict(normalize(system)), span_report(system)
        assert reference.regular_strict is report.regular_strict is True
        assert ratio_spread(reference, report) <= 1e-6

    def test_batches_of_evaluations_change_nothing(self, monkeypatch):
        system = helpers.random_system(np.random.default_rng(65), 8)
        whole = span_report(system)
        monkeypatch.setattr(regularity, "_STACK_ENTRIES", 1)  # one evaluation point per batch
        batched = span_report(system)
        assert flags(batched) == flags(whole) and batched.scale == pytest.approx(whole.scale, rel=1e-12)
        assert all(abs(a - b) <= 1e-12 * whole.scale for a, b in zip(thetas(batched), thetas(whole)))

    def test_scale_bounds_every_theta_and_scales_with_them(self):
        rng = np.random.default_rng(64)
        for m in range(1, 9):
            system = helpers.random_system(rng, m)
            report = span_report(system)
            terms = (1, 2 - m % 2, 1)
            assert all(t is None or abs(t) <= n * report.scale * (1 + 1e-12) for t, n in zip(thetas(report), terms))
            mixed = span_report(helpers.recombined(system, helpers.random_recombination(rng, m)))
            assert flags(mixed) == flags(report)
            for old, new, nonzero in zip(thetas(report), thetas(mixed), flags(report)):
                if nonzero:
                    assert abs(new) / abs(old) == pytest.approx(mixed.scale / report.scale, rel=1e-8), m


def periodic_with_entry(m, row, column, value):
    """Row k holds y^(k)(0) - y^(k)(1) and ``row`` also ``value`` at ``column``."""
    coeffs = np.hstack([np.eye(m), -np.eye(m)])
    coeffs[row, column] = value
    return BoundaryConditionSystem(m, coeffs)


def normalizes(monkeypatch, system):
    """The number of ``normalize`` calls that ``span_verdict(system)`` makes."""
    calls = []
    original = regularity.bc_core.normalize
    monkeypatch.setattr(regularity.bc_core, "normalize", lambda *args: calls.append(args) or original(*args))
    span_verdict(system)
    return len(calls)


class TestSpanVerdict:
    """``check`` and ``regular`` read the orders and the thetas of
    :func:`span_verdict`: from the row span where that is cheap and its
    rank decisions are clear, else from ``normalize``."""

    @pytest.mark.parametrize("value", [1e-17, 1e-13, 1.2e-10, 1e-9])
    def test_an_entry_near_the_zero_threshold_takes_the_orders_of_normalize(self, value):
        system = BoundaryConditionSystem(2, [[1, value, 0, 0], [0, 0, 1, 0]])
        assert span_verdict(system)[0] == normalize(system).orders

    @pytest.mark.parametrize("value", [1.2e-10, 2e-10, 5e-10, 9e-10])
    @pytest.mark.parametrize("row, column", [(0, 7), (0, 1), (3, 4), (0, 15), (6, 7)])
    def test_orders_near_the_rank_threshold_are_those_of_normalize(self, row, column, value):
        # at m = 8 the rows' Frobenius norm is 4, so the rank profile and
        # normalize's pair tests can disagree here: the profile is not clear
        system = periodic_with_entry(8, row, column, value)
        norm = normalize(system)
        orders, report = span_verdict(system)
        assert orders == norm.orders
        assert flags(report) == flags(regularity_verdict(norm))

    def test_rows_with_small_entries_take_the_orders_of_normalize(self):
        rng = np.random.default_rng(66)
        for _ in range(150):
            m = int(rng.integers(2, 7))
            coeffs = np.zeros((m, 2 * m), dtype=complex)
            coeffs[np.arange(m), rng.integers(0, m, m)] = 1
            coeffs[np.arange(m), m + rng.integers(0, m, m)] = rng.normal(size=m)
            mask = rng.random(coeffs.shape) < 0.15
            coeffs[mask] += 10.0 ** rng.uniform(-16, -4, mask.sum())
            if rng.random() < 0.5:
                coeffs = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) @ coeffs
            system = BoundaryConditionSystem(m, coeffs)
            try:
                orders = normalize(system).orders
            except DependentRows:
                continue
            assert span_verdict(system)[0] == orders

    def test_clear_cheap_rows_do_not_normalize(self, monkeypatch):
        assert normalizes(monkeypatch, helpers.random_dissipative(np.random.default_rng(5), 4)) == 0
        assert normalizes(monkeypatch, periodic_with_entry(16, 0, 0, 1.0)) == 0  # N = 1: 16^3 <= 2^13

    @pytest.mark.parametrize("m", [9, 12, 16])
    def test_dense_rows_above_the_budget_normalize(self, monkeypatch, m):
        system = helpers.random_system(np.random.default_rng(m), m)
        assert normalizes(monkeypatch, system) == 1
        orders, report = span_verdict(system)
        norm = normalize(system)
        assert orders == norm.orders and report == regularity_verdict(norm)

    def test_unclear_rank_decisions_normalize(self, monkeypatch):
        assert normalizes(monkeypatch, periodic_with_entry(8, 0, 7, 5e-10)) == 1


class TestRegularityVerdict:
    def test_odd_example_irregular(self):
        report = regularity_verdict(normalize(helpers.odd_irregular(2)))
        assert report.regular is False
        assert report.regular_strict is False
        assert report.theta_1_nonzero and not report.theta_0_nonzero

    def test_dirichlet_regular(self):
        report = regularity_verdict(normalize(helpers.dirichlet_m2()))
        assert report.regular and report.regular_strict

    def test_neumann_regular(self):
        report = regularity_verdict(normalize(helpers.neumann_m2()))
        assert report.regular and report.regular_strict

    def test_row_scaling_leaves_verdict(self):
        rng = np.random.default_rng(52)
        norm = normalize(helpers.dirichlet_m2())
        reference = regularity_verdict(norm)
        for _ in range(10):
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-3:
                continue
            coeffs = norm.base.coeffs.copy()
            coeffs[0] *= c
            scaled = NormalizedSystem(base=BoundaryConditionSystem(2, coeffs), orders=norm.orders)
            report = regularity_verdict(scaled)
            assert report.regular == reference.regular
            assert report.regular_strict == reference.regular_strict

    def test_verdict_invariant_under_renormalization_path(self):
        rng = np.random.default_rng(53)
        for system in (
            helpers.dirichlet_m2(),
            helpers.odd_irregular(2),
            helpers.random_dissipative(rng, 2),
            helpers.random_dissipative(rng, 4),
        ):
            reference = regularity_verdict(normalize(system))
            for _ in range(5):
                r = helpers.random_recombination(rng, system.m)
                report = regularity_verdict(normalize(helpers.recombined(system, r)))
                assert report.regular == reference.regular
                assert report.regular_strict == reference.regular_strict

    def test_not_normalized_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=norm.base, orders=(0, 1)))

    def test_zero_leading_pair_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        coeffs = norm.base.coeffs.copy()
        k = norm.orders[0]
        coeffs[0, [k, 2 + k]] = 0
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=BoundaryConditionSystem(2, coeffs), orders=norm.orders))

    def test_order_out_of_range_rejected(self):
        norm = normalize(helpers.dirichlet_m2())
        with pytest.raises(NotNormalized):
            regularity_verdict(NormalizedSystem(base=norm.base, orders=(2, 0)))


# The boundary determinant of each of these systems vanishes identically,
# so the verdict is irregular however the rows are mixed.
SPARSE_M5 = [
    [0, 0, 0, 2, -1, -1, 0, 0, 0, 0],
    [2, 2, 0, 0, -2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, -1, 0, 0, 0, 0],
    [0, 0, 2, 0, 2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, -1],
]
# normalizes to y'(0) + y'(1) = 0 and y(1) - y(0) = 0
SPARSE_M2 = [[0, -2, 1, -2], [-2, 0, 2, 0]]


def conditioned_mixing(rng, m: int, cond: float) -> np.ndarray:
    """U diag(sigma) W* with random unitary U, W and cond(T) = ``cond``."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    w, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, m)) @ w.conj().T


class TestIdenticallyZeroDeterminant:
    def test_sparse_m5_raw_and_mixed(self):
        system = BoundaryConditionSystem(5, SPARSE_M5)
        raw = regularity_verdict(normalize(system))
        assert normalize(system).orders == (4, 4, 3, 2, 1)
        assert raw.regular is False and raw.regular_strict is False
        rng = np.random.default_rng(61)
        for cond in (1e2, 1e5):
            for _ in range(10):
                mixed = helpers.recombined(system, conditioned_mixing(rng, 5, cond))
                report = regularity_verdict(normalize(mixed))
                assert report.regular is False and report.regular_strict is False, cond

    def test_sparse_m2_unmixed(self):
        norm = normalize(BoundaryConditionSystem(2, SPARSE_M2))
        assert norm.orders == (1, 0)
        report = regularity_verdict(norm)
        assert report.regular is False and report.regular_strict is False

    def test_scale_bounds_every_theta(self):
        rng = np.random.default_rng(62)
        for m in range(1, 7):
            report = regularity_verdict(normalize(helpers.random_system(rng, m)))
            thetas = [report.theta_minus1, report.theta_0, report.theta_1]
            assert all(abs(t) <= report.scale * (1 + 1e-12) for t in thetas if t is not None)
