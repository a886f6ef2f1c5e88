"""Model builders, embeddings, conjugation superoperators, and the spin-1
geometry."""

import pickle

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab.fixtures import basis_projectors
from sorkinlab.models import (
    SPIN1_X,
    SPIN1_Z,
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
    effect_from_matrix,
    lueders_filter,
    state_from_matrix,
    subset_filters,
)
from sorkinlab.interference import slit_system

PSI = np.ones(3, dtype=complex) / np.sqrt(3.0)
PSI_PROJ = np.outer(PSI, PSI.conj())


def dense_superoperator(pi, model):
    """Reference: the dense O(d^6) two-einsum formula for rho -> Pi rho Pi."""
    conjugated = np.einsum("ab,kbc,cd->kad", pi, model.basis, pi)
    return np.real(np.einsum("jdc,kcd->jk", model.basis, conjugated))


def random_projector(d, rank, rng, complex_=True):
    g = rng.standard_normal((d, d))
    if complex_:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q[:, :rank] @ q[:, :rank].conj().T


class TestBuilders:
    @pytest.mark.parametrize("d,m", [(2, 4), (3, 9), (4, 16)])
    def test_quantum_dimension(self, d, m):
        assert build_quantum_model(d).dimension == m

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 6), (4, 10)])
    def test_real_quantum_dimension(self, d, m):
        assert build_real_quantum_model(d).dimension == m

    def test_classical_dimension(self):
        model = build_classical_model(3)
        assert model.dimension == 3
        np.testing.assert_array_equal(model.order_unit, np.ones(3))

    @pytest.mark.parametrize("builder", [build_quantum_model, build_real_quantum_model])
    def test_small_dimension_rejected(self, builder):
        with pytest.raises(ValueError):
            builder(1)

    def test_embed_round_trip(self):
        model = build_quantum_model(3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (a + a.conj().T) / 2
        np.testing.assert_allclose(model.unembed(model.embed(h)), h, atol=1e-13)

    def test_real_quantum_round_trip(self):
        model = build_real_quantum_model(3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        h = (a + a.T) / 2
        np.testing.assert_allclose(model.unembed(model.embed(h)), h, atol=1e-13)

    def test_real_quantum_cone_contains_gram(self):
        model = build_real_quantum_model(3)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3))
        rho = g @ g.T
        rho /= np.trace(rho)
        assert model.contains(model.embed(rho))

    def test_order_unit_is_identity_embedding(self):
        model = build_quantum_model(3)
        np.testing.assert_allclose(model.unembed(model.order_unit), np.eye(3), atol=1e-13)


class TestConjugation:
    def test_identity_projector(self):
        model = build_quantum_model(3)
        t = sl.conjugation_superoperator(np.eye(3, dtype=complex), model)
        np.testing.assert_allclose(t, np.eye(9), atol=1e-12)

    def test_rank1_conjugation_value(self):
        model = build_quantum_model(3)
        pi = np.zeros((3, 3), dtype=complex)
        pi[0, 0] = 1.0
        t = sl.conjugation_superoperator(pi, model)
        out = t @ model.embed(PSI_PROJ)
        np.testing.assert_allclose(
            model.unembed(out), np.diag([1 / 3, 0, 0]), atol=1e-12
        )

    def test_rank2_superoperator_rank(self):
        model = build_quantum_model(3)
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        t = sl.conjugation_superoperator(pi, model)
        assert np.linalg.matrix_rank(t, tol=1e-10) == 4

    def test_non_projector_rejected(self):
        model = build_quantum_model(3)
        with pytest.raises(sl.NotAProjection):
            sl.conjugation_superoperator(2.0 * np.eye(3, dtype=complex), model)

    def test_linearity_round_trip(self):
        # applying to each basis element and re-embedding rebuilds the matrix
        model = build_quantum_model(3)
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        t = sl.conjugation_superoperator(pi, model)
        rebuilt = np.column_stack(
            [model.embed(pi @ model.basis[k] @ pi) for k in range(9)]
        )
        np.testing.assert_allclose(t, rebuilt, atol=1e-12)


class TestConjugationKernel:
    """The sparse kernel against the dense formula, byte for byte: experiment
    plan hashes cover the filter bytes."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 10])
    def test_quantum_byte_identical_to_dense(self, d):
        model = build_quantum_model(d)
        rng = np.random.default_rng(d)
        for rank in range(d + 1):
            pi = random_projector(d, rank, rng)
            f = lueders_filter(pi, model)
            assert np.array_equal(f.projection, dense_superoperator(pi, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(d) - pi, model)
            )

    def test_quantum16_byte_identical_to_dense(self):
        model = build_quantum_model(16)
        pi = random_projector(16, 5, np.random.default_rng(16))
        t = sl.conjugation_superoperator(pi, model)
        assert np.array_equal(t, dense_superoperator(pi, model))

    def test_partial_support_byte_identical_to_dense(self):
        # projectors that are dense on a coordinate subspace and zero off it:
        # the kernel skips the basis entries off the stack's joint support
        d = 6
        model = build_quantum_model(d)
        rng = np.random.default_rng(6)
        pi = np.zeros((d, d), dtype=complex)
        pi[np.ix_([0, 1, 4], [0, 1, 4])] = random_projector(3, 2, rng)
        f = lueders_filter(pi, model)
        assert np.array_equal(f.projection, dense_superoperator(pi, model))
        assert np.array_equal(
            f.complement, dense_superoperator(np.eye(d) - pi, model)
        )
        # a family whose members have different supports: {0, 1} twice, {4}
        half = np.zeros((d, d), dtype=complex)
        half[:2, :2] = random_projector(2, 1, rng)
        rest = np.zeros((d, d), dtype=complex)
        rest[:2, :2] = np.eye(2) - half[:2, :2]
        pis = [half, rest, basis_projectors(d)[4]]
        for J, f in subset_filters(pis, model).items():
            pj = np.sum([pis[i - 1] for i in sorted(J)], axis=0)
            assert np.array_equal(f.projection, dense_superoperator(pj, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(d) - pj, model)
            )

    @pytest.mark.parametrize("axis", [[0.48, -0.6, 0.64], [0, 0, 1]])
    def test_spin1_family_byte_identical_to_dense(self, axis):
        model = build_quantum_model(3)
        setup = sl.spin1_feynman_setup(axis, [0, 0, 1])
        filters = subset_filters(list(setup.slit_projectors), model)
        assert len(filters) == 7
        for J, f in filters.items():
            pi = np.sum([setup.slit_projectors[i - 1] for i in sorted(J)], axis=0)
            assert np.array_equal(f.projection, dense_superoperator(pi, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(3) - pi, model)
            )

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_real_quantum_within_reordering_bound(self, d):
        # With real operands numpy's einsum sums the d diagonal terms of the
        # identity and diagonal basis elements in SIMD lanes, the kernel in
        # index order.  Those terms have absolute sum <= 1 (Cauchy-Schwarz on
        # unit-norm basis elements), so two summation orders of d terms differ
        # by at most (d - 1) eps.  Observed: 0 at odd d, 1.1e-16 at d = 4, 6.
        model = build_real_quantum_model(d)
        rng = np.random.default_rng(d)
        bound = (d - 1) * np.finfo(float).eps
        for rank in range(d + 1):
            pi = random_projector(d, rank, rng, complex_=False)
            f = lueders_filter(pi, model)
            for mat, ref in (
                (f.projection, dense_superoperator(pi, model)),
                (f.complement, dense_superoperator(np.eye(d) - pi, model)),
            ):
                assert np.max(np.abs(mat - ref)) <= bound

    @pytest.mark.parametrize(
        "build",
        [lambda pis, model: lueders_filter(pis[0], model), subset_filters],
        ids=["lueders_filter", "subset_filters"],
    )
    def test_batched_calls_reject_non_projector(self, build):
        model = build_quantum_model(3)
        pis = basis_projectors(3)
        with pytest.raises(sl.NotAProjection):
            build([2.0 * pis[0], pis[1], pis[2]], model)

    def test_matrices_are_plain_contiguous_arrays(self):
        model = build_quantum_model(4)
        filters = subset_filters(basis_projectors(4), model)
        mats = [t for f in filters.values() for t in (f.projection, f.complement)]
        mats.append(sl.conjugation_superoperator(basis_projectors(4)[0], model))
        for mat in mats:
            assert mat.dtype == np.float64
            assert mat.flags.c_contiguous


class TestLazyComplements:
    """Projections are built with the family; complements on first read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from sorkinlab import models

        calls = []
        kernel = models._conjugation_matrices

        def counted(pis, basis):
            calls.append(len(pis))
            return kernel(pis, basis)

        monkeypatch.setattr(models, "_conjugation_matrices", counted)
        return calls

    def test_complements_built_once_for_the_family(self, calls):
        model = build_quantum_model(4)
        filters = subset_filters(basis_projectors(4)[:3], model)
        assert calls == [7]
        first = filters[frozenset({2})].complement
        assert calls == [7, 7]
        for f in filters.values():
            f.complement
        assert filters[frozenset({2})].complement is first
        assert calls == [7, 7]

    def test_unread_complements_survive_pickling(self, calls):
        model = build_quantum_model(3)
        filters = subset_filters(basis_projectors(3), model)
        copies = pickle.loads(pickle.dumps(filters))
        for J, f in filters.items():
            assert np.array_equal(copies[J].complement, f.complement)

    def test_lueders_filter_complement_on_read(self, calls):
        model = build_quantum_model(3)
        f = lueders_filter(PSI_PROJ, model)
        assert calls == [1]
        f.complement
        f.complement
        assert calls == [1, 1]

    def test_paper_checks_use_projections_only(self, calls):
        model = build_quantum_model(3)
        setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0, 0, 1])
        ss = slit_system(model, subset_filters(list(setup.slit_projectors), model))
        s = sl.random_state(model, seed=1)
        r = sl.random_effect(model, seed=2)
        sl.prop1_verify(ss, n_samples=5, seed=0)
        sl.table_from_system(r, ss, s)
        sl.tomography_roundtrip(ss, s, mode="sampled", shots=1000, seed=3)
        detector = model.embed(np.array(setup.detector_effects))
        sl.run_experiment(sl.ExperimentPlan(ss, detector, s, 1000, 4))
        assert calls == [7]


class TestSlitSystemConstruction:
    def test_basis_projectors_give_identity_triple(self):
        model = build_quantum_model(3)
        ss = slit_system(model, subset_filters(basis_projectors(3), model))
        np.testing.assert_allclose(
            ss.filter_for({1, 2, 3}).projection, np.eye(9), atol=1e-12
        )

    def test_proper_subspace_on_d4(self):
        model = build_quantum_model(4)
        ss = slit_system(model, subset_filters(basis_projectors(4)[:3], model))
        p123 = ss.filter_for({1, 2, 3}).projection
        assert np.linalg.norm(p123 - np.eye(16)) > 1.0

    def test_non_orthogonal_rejected(self):
        model = build_quantum_model(3)
        plus = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        pis = [basis_projectors(3)[0], np.outer(plus, plus.conj()), basis_projectors(3)[2]]
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            subset_filters(pis, model)

    def test_filters_pass_axioms(self):
        model = build_quantum_model(3)
        ss = slit_system(model, subset_filters(basis_projectors(3), model))
        for J, f in ss.derived.items():
            rep = sl.validate_filter(f, model, sl.gpt.sample_states(model, 30, 4))
            assert rep.passed, (sorted(J), rep.to_dict())


class TestSpin1:
    def test_z_operator(self):
        np.testing.assert_allclose(
            sl.spin1_operator([0, 0, 1]), np.diag([1.0, 0.0, -1.0]), atol=1e-15
        )

    def test_x_eigenvalues(self):
        w = np.linalg.eigvalsh(sl.spin1_operator([1, 0, 0]))
        np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)

    def test_traceless(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            assert abs(np.trace(sl.spin1_operator(axis))) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            sl.spin1_operator([0, 0, 2])

    def test_zz_setup_is_computational_basis(self):
        setup = sl.spin1_feynman_setup([0, 0, 1], [0, 0, 1])
        for i, pi in enumerate(setup.slit_projectors):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            np.testing.assert_allclose(pi, expected, atol=1e-12)

    def test_detector_from_x_axis(self):
        setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
        sx = SPIN1_X
        for pi, lam in zip(setup.detector_effects, (1.0, 0.0, -1.0)):
            np.testing.assert_allclose(sx @ pi, lam * pi, atol=1e-10)

    def test_projector_completeness_random_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            setup = sl.spin1_feynman_setup(axis, axis)
            total = np.sum(setup.slit_projectors, axis=0)
            np.testing.assert_allclose(total, np.eye(3), atol=1e-10)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (
                        np.linalg.norm(
                            setup.slit_projectors[i] @ setup.slit_projectors[j]
                        )
                        < 1e-10
                    )


class TestJointProbability:
    """Probability that the system passes a filter and the detector fires."""

    def test_hand_value(self):
        # oracle: Tr(|psi><psi| Pi12 |psi><psi| Pi12) = |<psi|Pi12|psi>|^2 = 4/9
        model = build_quantum_model(3)
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        passed = sl.apply(lueders_filter(pi12, model).projection, state_from_matrix(PSI_PROJ, model))
        p = sl.probability(effect_from_matrix(PSI_PROJ, model), passed)
        assert p == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_open_filter_total_probability(self):
        model = build_quantum_model(3)
        ident = np.eye(9)
        s = sl.random_state(model, 9)
        u = sl.Effect(model, model.order_unit)
        assert sl.probability(u, sl.apply(ident, s)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_supports(self):
        model = build_quantum_model(3)
        pi2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        passed = sl.apply(lueders_filter(pi2, model).projection, state_from_matrix(PSI_PROJ, model))
        assert abs(sl.probability(effect_from_matrix(e0, model), passed)) < 1e-12

    def test_matches_matrix_picture(self):
        # 100 random (rho, Pi, D) triples against Tr[D Pi rho Pi]
        model = build_quantum_model(3)
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            k = rng.integers(1, 3)
            pi = q[:, :k] @ q[:, :k].conj().T
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (a + a.conj().T) / 2
            w, v = np.linalg.eigh(h)
            dmat = (v * np.clip(w, 0, 1)) @ v.conj().T
            passed = sl.apply(lueders_filter(pi, model).projection, state_from_matrix(rho, model))
            got = sl.probability(effect_from_matrix(dmat, model), passed)
            expected = np.trace(dmat @ pi @ rho @ pi).real
            assert got == pytest.approx(expected, abs=1e-11)
