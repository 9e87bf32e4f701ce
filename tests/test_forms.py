import numpy as np
import pytest

import helpers
from bca import (
    BoundaryConditionSystem,
    Definiteness,
    build_M,
    dissipativity_verdict,
    dual_gram,
    gram_on_nullspace,
    hermitian_classify,
    selfadjoint_verdict,
)
from bca.errors import DependentRows


class TestBoundaryFormMatrix:
    def test_m1_blocks(self):
        assert np.array_equal(build_M(1), np.diag([1, -1]).astype(complex))

    def test_m2_blocks(self):
        form = build_M(2)
        assert np.array_equal(form[:2, :2], np.array([[0, 1j], [-1j, 0]]))
        assert np.array_equal(form[2:, 2:], np.array([[0, -1j], [1j, 0]]))
        assert not form[:2, 2:].any() and not form[2:, :2].any()

    def test_m3_blocks(self):
        form = build_M(3)
        k3 = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
        assert np.array_equal(form[:3, :3], -k3)
        assert np.array_equal(form[3:, 3:], k3)
        assert not form[:3, 3:].any() and not form[3:, :3].any()

    @pytest.mark.parametrize("m", range(1, 17))
    def test_hermitian_with_balanced_unit_spectrum(self, m):
        form = build_M(m)
        assert not form.flags.writeable
        assert np.allclose(form, form.conj().T)
        eigenvalues = np.sort(np.linalg.eigvalsh(form))
        assert np.allclose(eigenvalues[:m], -1.0, atol=1e-12)
        assert np.allclose(eigenvalues[m:], 1.0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_built_once_per_order_and_read_only(self, m):
        form = build_M(m)
        assert build_M(m) is form
        with pytest.raises(ValueError):
            form[0, 0] = 5.0


class TestGramOnNullspace:
    def test_m1_right_end(self):
        gram = gram_on_nullspace(helpers.transport(0, 1))
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.0)

    def test_m2_dirichlet_vanishes(self):
        gram = gram_on_nullspace(helpers.dirichlet_m2())
        assert np.allclose(gram, 0.0, atol=1e-14)

    def test_odd_example_psd(self):
        gram = gram_on_nullspace(helpers.odd_irregular(2))
        eigenvalues = np.sort(np.linalg.eigvalsh(gram))
        assert eigenvalues == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_dependent_rows_rejected(self):
        system = BoundaryConditionSystem(2, [[1, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(DependentRows):
            gram_on_nullspace(system)


class TestDissipativityVerdict:
    def test_right_end_dissipative(self):
        verdict = dissipativity_verdict(helpers.transport(0, 1))
        assert verdict.dissipative and not verdict.selfadjoint

    def test_left_end_not_dissipative(self):
        verdict = dissipativity_verdict(helpers.transport(1, 0))
        assert not verdict.dissipative

    def test_dirichlet_selfadjoint(self):
        verdict = dissipativity_verdict(helpers.dirichlet_m2())
        assert verdict.dissipative and verdict.selfadjoint

    def test_odd_example(self):
        verdict = dissipativity_verdict(helpers.odd_irregular(2))
        assert verdict.dissipative and not verdict.selfadjoint

    def test_even_order_orientation(self):
        # i y(0) - y'(0) = 0 and i y(1) + y'(1) = 0: on the solution space
        # the form value is 2|y(0)|^2 + 2|y(1)|^2, so the Gram must come out
        # positive; the transposed orientation would flip it to negative
        system = BoundaryConditionSystem(2, [[1j, -1, 0, 0], [0, 0, 1j, 1]])
        verdict = dissipativity_verdict(system)
        assert verdict.dissipative and not verdict.selfadjoint
        assert min(verdict.gram_eigenvalues) > 0.5
        from bca import sample_dissipativity

        assert sample_dissipativity(system, 20, seed=5).all_nonnegative

    def test_invariant_under_recombination(self):
        rng = np.random.default_rng(31)
        for system in (
            helpers.transport(0, 1),
            helpers.dirichlet_m2(),
            helpers.odd_irregular(2),
            helpers.random_system(rng, 3),
        ):
            reference = dissipativity_verdict(system)
            for _ in range(5):
                r = helpers.random_recombination(rng, system.m)
                verdict = dissipativity_verdict(helpers.recombined(system, r))
                assert verdict.dissipative == reference.dissipative
                assert verdict.selfadjoint == reference.selfadjoint

    def test_one_eigendecomposition(self, monkeypatch):
        system = helpers.random_dissipative(np.random.default_rng(32), 4)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert dissipativity_verdict(system).dissipative
        assert calls == [(4, 4)]


class TestDualGram:
    def test_m1_signature(self):
        assert dual_gram(helpers.transport(0, 1))[0, 0] == pytest.approx(-1.0)
        assert dual_gram(helpers.transport(1, 0))[0, 0] == pytest.approx(1.0)

    def test_m2_dirichlet_vanishes(self):
        assert np.allclose(dual_gram(helpers.dirichlet_m2()), 0.0, atol=1e-14)

    def test_odd_example_diagonal(self):
        gram = dual_gram(helpers.odd_irregular(2))
        assert np.allclose(gram, np.diag([0, 0, -1.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "rows", [[[1e308, 1.7e308]], [[1e-320, 3e-320 + 1e-321j]]], ids=["near-overflow", "subnormal"]
    )
    def test_range_edges_classify_as_the_nullspace_gram(self, rows):
        # the raw rows overflow (huge) or round to a zero Gram (subnormal);
        # scaling each row by a power of two keeps the inertia
        system = BoundaryConditionSystem(1, rows)
        verdict = dissipativity_verdict(system)
        assert verdict.dissipative and not verdict.selfadjoint
        assert hermitian_classify(dual_gram(system)) is Definiteness.NSD

    def test_duality_with_nullspace_gram(self):
        rng = np.random.default_rng(32)
        for m in (1, 2, 3):
            for trial in range(30):
                if trial % 2 == 0:
                    system = helpers.random_system(rng, m)
                else:
                    system = helpers.random_dissipative(rng, m)
                side_n = hermitian_classify(gram_on_nullspace(system))
                side_l = hermitian_classify(dual_gram(system))
                dissipative_n = side_n in (Definiteness.PSD, Definiteness.ZERO)
                dissipative_l = side_l in (Definiteness.NSD, Definiteness.ZERO)
                assert dissipative_n == dissipative_l


class TestSelfadjointVerdict:
    def test_dirichlet(self):
        assert selfadjoint_verdict(helpers.dirichlet_m2())

    def test_balanced_transport(self):
        assert selfadjoint_verdict(helpers.transport(1, 1))

    def test_right_end_not_selfadjoint(self):
        assert not selfadjoint_verdict(helpers.transport(0, 1))

    def test_selfadjoint_implies_dissipative(self):
        rng = np.random.default_rng(33)
        candidates = [
            helpers.dirichlet_m2(),
            helpers.neumann_m2(),
            helpers.periodic_m2(),
            helpers.transport(1, 1),
            helpers.transport(1, -1),
        ] + [helpers.random_dissipative(rng, m) for m in (1, 2, 3) for _ in range(5)]
        for system in candidates:
            if selfadjoint_verdict(system):
                assert dissipativity_verdict(system).dissipative
