"""Core model-space operations: probabilities, transformations, filters,
measurements, faces, random generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sorkinlab as sl
from sorkinlab.gpt import EPS_RANK_REL, orthonormal_column_basis, sample_states
from sorkinlab.models import (
    build_classical_model,
    build_quantum_model,
    subset_filters,
)

PSI = np.ones(3, dtype=complex) / np.sqrt(3.0)
PSI_PROJ = np.outer(PSI, PSI.conj())


def one_slit_filter(pi, model):
    """The Lueders filter pair of one projector, as subset_filters builds it."""
    return subset_filters([pi], model)[frozenset({1})]


@pytest.fixture(scope="module")
def q3():
    return build_quantum_model(3)


@pytest.fixture(scope="module")
def c3():
    return build_classical_model(3)


class TestProbability:
    def test_pure_state_self_overlap(self, q3):
        e = q3.embed(PSI_PROJ)
        s = q3.embed(PSI_PROJ)
        assert float(e @ s) == pytest.approx(1.0, abs=1e-12)

    def test_classical_coordinate_readout(self, c3):
        e = np.array([1.0, 0.0, 0.0])
        s = np.full(3, 1.0 / 3.0)
        assert float(e @ s) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_basis_effect_on_superposition(self, q3):
        # oracle: Tr(|0><0| |psi><psi|) = |<0|psi>|^2 = 1/3
        e0 = np.zeros((3, 3), dtype=complex)
        e0[0, 0] = 1.0
        expected = np.trace(e0 @ PSI_PROJ).real
        got = float(q3.embed(e0) @ q3.embed(PSI_PROJ))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_born_rule_matches_trace(self, q3):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ea, rb = (a + a.conj().T) / 2, (b + b.conj().T) / 2
            got = float(q3.embed(ea) @ q3.embed(rb))
            assert got == pytest.approx(np.trace(ea @ rb).real, abs=1e-12)


class TestApply:
    def test_identity(self, q3):
        s = q3.embed(PSI_PROJ)
        t = np.eye(9)
        np.testing.assert_allclose(t @ s, s, atol=1e-15)

    def test_quantum_conjugation(self, q3):
        # oracle: Pi12 |psi><psi| Pi12 = (1/3)(|0>+|1>)(<0|+<1|)
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        t = one_slit_filter(pi12, q3).projection
        s = q3.embed(PSI_PROJ)
        expected = q3.embed(pi12 @ PSI_PROJ @ pi12)
        np.testing.assert_allclose(t @ s, expected, atol=1e-12)

    def test_classical_mask(self, c3):
        f = subset_filters([np.diag([1.0, 1.0, 0.0])], c3)[frozenset({1})]
        s = np.full(3, 1.0 / 3.0)
        np.testing.assert_allclose(f.projection @ s, [1 / 3, 1 / 3, 0.0], atol=1e-15)

    @given(
        a=st.floats(-2, 2, allow_nan=False),
        b=st.floats(-2, 2, allow_nan=False),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, seed):
        model = build_quantum_model(3)
        s1 = sl.random_state(model, [seed, 0])
        s2 = sl.random_state(model, [seed, 1])
        t = one_slit_filter(np.diag([1.0, 1.0, 0.0]).astype(complex), model).projection
        combo = a * s1 + b * s2
        lhs = t @ combo
        rhs = a * (t @ s1) + b * (t @ s2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestConditionalState:
    """The state after a branch is P(s) / p with p = e . s, the probability of
    the branch's effect; these check the two sides as the products P @ s and
    e @ s."""

    def test_trivial_branch(self, q3):
        s = q3.embed(PSI_PROJ)
        out = np.eye(9) @ s
        assert float(q3.order_unit @ s) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out, s, atol=1e-12)

    def test_lueders_update(self, q3):
        # oracle: Pi rho Pi / Tr(Pi rho) = (1/2)(|0>+|1>)(<0|+<1|)
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        s = q3.embed(PSI_PROJ)
        p = float(q3.embed(pi12) @ s)
        out = (one_slit_filter(pi12, q3).projection @ s) / p
        expected = q3.embed(pi12 @ PSI_PROJ @ pi12 / np.trace(pi12 @ PSI_PROJ).real)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_classical_conditioning(self, c3):
        s = np.full(3, 1.0 / 3.0)
        p = float(np.array([1.0, 0.0, 0.0]) @ s)
        out = (np.diag([1.0, 0.0, 0.0]) @ s) / p
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_normalization_preserved(self, q3):
        # the Lueders branch passes with the probability of its effect
        pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for seed in range(10):
            s = sl.random_state(q3, seed)
            passed = one_slit_filter(pi, q3).projection @ s
            p = float(q3.embed(pi) @ s)
            assert q3.order_unit @ passed == pytest.approx(p, abs=1e-10)


class TestValidateFilter:
    def test_quantum_rank1_passes(self, q3):
        pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rep = sl.validate_filter(one_slit_filter(pi, q3), q3, sample_states(q3, 50, 1))
        assert rep.passed
        assert all(c.residual < 1e-10 for c in rep.checks)

    def test_non_idempotent_fails(self, q3):
        bad = sl.Filter(
            projection=2.0 * np.eye(9),
            complement=np.zeros((9, 9)),
        )
        rep = sl.validate_filter(bad, q3, sample_states(q3, 20, 1))
        assert not rep.passed
        assert rep.worst("idempotence") > 1e-3

    def test_classical_mask_passes(self, c3):
        f = subset_filters([np.diag([1.0, 1.0, 0.0])], c3)[frozenset({1})]
        rep = sl.validate_filter(f, c3, sample_states(c3, 50, 2))
        assert rep.passed


class TestFilterComplement:
    def test_builder_runs_once_on_first_read(self):
        built = []

        def build():
            built.append(1)
            return np.zeros((2, 2))

        f = sl.Filter(projection=np.eye(2), complement=build)
        assert built == []
        assert f.complement is f.complement
        assert built == [1]

    def test_complement_is_required(self):
        with pytest.raises(TypeError):
            sl.Filter(projection=np.eye(2))


class TestValidateMeasurement:
    def test_basis_projectors_pass(self, q3):
        eye = np.eye(3, dtype=complex)
        effects = tuple(q3.embed(np.outer(eye[:, i], eye[:, i].conj())) for i in range(3))
        assert sl.validate_measurement(effects, q3).passed

    def test_half_unit_pair_passes(self, q3):
        half = q3.order_unit / 2.0
        assert sl.validate_measurement((half, half), q3).passed

    def test_double_unit_fails(self, q3):
        u = q3.order_unit
        rep = sl.validate_measurement((u, u), q3)
        assert not rep.passed
        assert rep.worst("sum_to_order_unit") == pytest.approx(
            np.linalg.norm(q3.order_unit), abs=1e-12
        )


class TestFaceOf:
    def test_identity_full_rank(self, q3):
        f = sl.Filter(np.eye(9), np.zeros((9, 9)))
        assert sl.face_of(f).shape == (9, 9)

    def test_rank1_projector_face(self, q3):
        pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert sl.face_of(one_slit_filter(pi, q3)).shape == (9, 1)

    def test_rank2_projector_face(self, q3):
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        # Hermitian operators supported on a 2-dim subspace: 4 real parameters
        assert sl.face_of(one_slit_filter(pi, q3)).shape == (9, 4)

    def test_zero_map_rank0(self, q3):
        f = sl.Filter(np.zeros((9, 9)), np.eye(9))
        assert sl.face_of(f).shape == (9, 0)

    def test_non_projection_rejected(self, q3):
        f = sl.Filter(2.0 * np.eye(9), np.eye(9))
        with pytest.raises(sl.NotAProjection):
            sl.face_of(f)

    def test_basis_fixed_by_projection(self, q3):
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        f = one_slit_filter(pi, q3)
        basis = sl.face_of(f)
        np.testing.assert_allclose(f.projection @ basis, basis, atol=1e-9)


class TestOrthonormalColumnBasis:
    def test_zero_rows_and_columns(self):
        # rank 2, nonzero only on rows {1, 4, 6} and columns {0, 2, 3, 5}
        rng = np.random.default_rng(3)
        mat = np.zeros((8, 6))
        mat[np.ix_([1, 4, 6], [0, 2, 3, 5])] = (
            rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4))
        )
        q = orthonormal_column_basis(mat)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        dense = u[:, s > EPS_RANK_REL * s[0]]
        assert q.shape == dense.shape == (8, 2)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(q @ q.T, dense @ dense.T, atol=1e-12)
        assert not q[[0, 2, 3, 5, 7]].any()


SQUARE_CONE = np.array([[1.0, a, b] for a in (1.0, -1.0) for b in (1.0, -1.0)])


def random_cone(seed):
    """3 to 6 random generators (1, x) with x in [-2, 2]^3, all with g.u = 1
    for u = (1, 0, 0, 0)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    return np.column_stack([np.ones(n), rng.uniform(-2.0, 2.0, (n, 3))])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cone_seed=st.none() | st.integers(0, 2**32 - 1))
def test_custom_cone_effects_lie_between_zero_and_unit(seed, cone_seed):
    gens = SQUARE_CONE if cone_seed is None else random_cone(cone_seed)
    u = np.eye(gens.shape[1])[0]
    model = sl.ModelSpace("custom", generators=gens, order_unit=u)
    e = sl.random_effect(model, seed)
    vals = (gens @ e) / (gens @ u)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1.0 + 1e-12


class TestCustomConeMembership:
    @pytest.mark.parametrize("gens", [SQUARE_CONE, *map(random_cone, range(6))])
    def test_generator_mixtures_are_contained(self, gens):
        model = sl.ModelSpace("custom", generators=gens, order_unit=np.eye(gens.shape[1])[0])
        rng = np.random.default_rng(len(gens))
        for w in [*np.eye(len(gens)), *rng.dirichlet(np.ones(len(gens)), 20)]:
            assert model.cone_residual(w @ gens) <= sl.gpt.EPS_CONE
            assert model.contains(3.0 * w @ gens)

    def test_outside_residual_grows_with_distance(self):
        # the square cone is |a|, |b| <= t; (1, 1 + x, 0) lies x / sqrt(2)
        # from its facet a = t
        model = sl.ModelSpace("custom", generators=SQUARE_CONE, order_unit=np.eye(3)[0])
        xs = [1e-6, 1e-3, 0.1, 0.5]
        residuals = [model.cone_residual([1.0, 1.0 + x, 0.0]) for x in xs]
        assert not any(model.contains([1.0, 1.0 + x, 0.0]) for x in xs)
        assert residuals == sorted(residuals)
        np.testing.assert_allclose(residuals, np.divide(xs, np.sqrt(2.0)), rtol=1e-6)


class TestRandomGenerators:
    def test_classical_state_on_simplex(self, c3):
        s = sl.random_state(c3, 7)
        assert s.min() >= 0.0
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_quantum_state_is_density_matrix(self, q3):
        s = sl.random_state(q3, 7)
        rho = q3.unembed(s)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_state_determinism(self, q3):
        np.testing.assert_array_equal(
            sl.random_state(q3, 3), sl.random_state(q3, 3)
        )

    def test_effect_determinism(self, q3):
        np.testing.assert_array_equal(
            sl.random_effect(q3, 3), sl.random_effect(q3, 3)
        )

    def test_effect_valid_on_random_states(self, q3):
        from sorkinlab.gpt import validate_effect

        for seed in range(10):
            e = sl.random_effect(q3, seed)
            assert validate_effect(e, q3).passed
            for i in range(10):
                p = float(e @ sl.random_state(q3, [seed, i]))
                assert -1e-12 <= p <= 1.0 + 1e-12
