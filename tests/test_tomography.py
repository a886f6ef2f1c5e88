"""Face measurements, filtered-state estimation, and the signed
reconstruction."""

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab.gpt import with_blocked
from sorkinlab.interference import subsets_of_size
from sorkinlab.tomography import exact_frequencies, sample_frequencies

from helpers import basis_system, classical_fixture, per_setting_frequencies, qutrit_fixture

PSI = np.ones(3, dtype=complex) / np.sqrt(3.0)
PSI_PROJ = np.outer(PSI, PSI.conj())


class TestBuildFaceMeasurement:
    def test_pair_face_rank4(self):
        model, ss, _, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        assert sl.face_of(filt).shape[1] == 4
        assert np.linalg.matrix_rank(plan.design_matrix, tol=1e-8) == 4
        for ms in plan.settings:
            assert sl.validate_measurement(ms, model).passed

    def test_classical_pair_face_rank2(self):
        model, ss, _, _ = classical_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        assert sl.face_of(filt).shape[1] == 2
        assert np.linalg.matrix_rank(plan.design_matrix, tol=1e-8) == 2

    def test_single_slit_face_rank1(self):
        model, ss, _, _ = qutrit_fixture()
        filt = ss.filter_for({1})
        plan = sl.build_face_measurement(filt, model)
        assert sl.face_of(filt).shape[1] == 1
        assert len(plan.settings) == 1

    def test_real_quantum_pair_face(self):
        model, ss, _, _ = qutrit_fixture(float)
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        # symmetric operators on a 2-dim subspace: 3 real parameters
        assert sl.face_of(filt).shape[1] == 3
        assert np.linalg.matrix_rank(plan.design_matrix, tol=1e-8) == 3


class TestEstimateFilteredState:
    def test_exact_recovery(self):
        model, ss, s, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        s12 = filt.projection @ s
        est = sl.estimate_filtered_state(plan, exact_frequencies(plan, s12))
        # oracle: Pi12 |psi><psi| Pi12 with psi the uniform superposition
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        expected = model.embed(pi12 @ PSI_PROJ @ pi12)
        np.testing.assert_allclose(est, expected, atol=1e-10)

    def test_sampled_close_at_many_shots(self):
        model, ss, s, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        s12 = filt.projection @ s
        freqs = sample_frequencies(plan, s12, shots=10**6, seed=[13])
        est = sl.estimate_filtered_state(plan, freqs)
        assert np.linalg.norm(est - s12) < 0.01

    @pytest.mark.parametrize("seed", [7, 2**64, 123456789012345678901])
    def test_setting_substreams(self, seed):
        # setting idx of pair face 1 draws from the substream [seed, 1, idx]
        model, ss, s, _ = qutrit_fixture()
        filt = ss.filter_for({1, 3})
        plan = sl.build_face_measurement(filt, model)
        s13 = filt.projection @ s
        freqs = sample_frequencies(plan, s13, 1000, [seed, 1])
        for idx, (f, probs) in enumerate(zip(freqs, exact_frequencies(plan, s13))):
            counts = np.random.default_rng([seed, 1, idx]).multinomial(
                1000, with_blocked(probs))
            assert f.tobytes() == (counts[:-1] / 1000).tobytes()

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("shots", [0, 1, 1000, 10**6])
    def test_draws_of_one_setting_at_a_time(self, d, shots):
        ss = basis_system(d)
        s = sl.random_state(ss.model, d)
        for pair_idx, J in enumerate(subsets_of_size(3, 2)):
            filt = ss.derived[J]
            plan = sl.build_face_measurement(filt, ss.model)
            s_f = filt.projection @ s
            got = sample_frequencies(plan, s_f, shots, [11, pair_idx])
            want = per_setting_frequencies(plan, s_f, shots, [11, pair_idx])
            assert [f.tobytes() for f in got] == [f.tobytes() for f in want]

    def test_zero_state(self):
        model, ss, _, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        zero = np.zeros(9)
        est = sl.estimate_filtered_state(plan, exact_frequencies(plan, zero))
        np.testing.assert_allclose(est, np.zeros(9), atol=1e-12)

    def test_frequency_shape_mismatch(self):
        model, ss, _, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        with pytest.raises(ValueError):
            sl.estimate_filtered_state(plan, [np.zeros(2)])

    def test_estimates_are_filter_fixed_points(self):
        model, ss, _, _ = qutrit_fixture()
        filt = ss.filter_for({1, 2})
        plan = sl.build_face_measurement(filt, model)
        for i in range(10):
            s = sl.random_state(model, [70, i])
            s12 = filt.projection @ s
            est = sl.estimate_filtered_state(plan, exact_frequencies(plan, s12))
            np.testing.assert_allclose(filt.projection @ est, est, atol=1e-10)


class TestExtractComponents:
    """Single-slit parts P_i(s_ij) of pair-filtered states."""

    def test_hand_value(self):
        model, ss, s, _ = qutrit_fixture()
        s12 = ss.filter_for({1, 2}).projection @ s
        s1 = ss.filter_for({1}).projection @ s12
        s2 = ss.filter_for({2}).projection @ s12
        np.testing.assert_allclose(
            model.unembed(s1), np.diag([1 / 3, 0, 0]), atol=1e-12
        )
        np.testing.assert_allclose(
            model.unembed(s2), np.diag([0, 1 / 3, 0]), atol=1e-12
        )

    def test_state_already_in_single_face(self):
        model, ss, _, _ = qutrit_fixture()
        s = model.embed(np.diag([1.0, 0.0, 0.0]).astype(complex))
        s1 = ss.filter_for({1}).projection @ s
        s2 = ss.filter_for({2}).projection @ s
        np.testing.assert_allclose(s1, s, atol=1e-12)
        np.testing.assert_allclose(s2, np.zeros(9), atol=1e-12)

    def test_components_agree_across_faces(self):
        model, ss, _, _ = qutrit_fixture()
        p1 = ss.filter_for({1}).projection
        for i in range(10):
            s = sl.random_state(model, [80, i])
            s12 = ss.filter_for({1, 2}).projection @ s
            s13 = ss.filter_for({1, 3}).projection @ s
            a, b = p1 @ s12, p1 @ s13
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestReconstruct:
    def test_exact_signed_sum(self):
        model, ss, s, _ = qutrit_fixture()
        estimates = {
            J: ss.filter_for(J).projection @ s
            for J in (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
        }
        recon = sl.reconstruct(estimates, ss)
        np.testing.assert_allclose(recon, s, atol=1e-10)

    def test_classical_recovery(self):
        model, ss, _, _ = classical_fixture()
        s = sl.random_state(model, 3)
        estimates = {
            J: ss.filter_for(J).projection @ s
            for J in (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
        }
        np.testing.assert_allclose(sl.reconstruct(estimates, ss), s, atol=1e-14)

    def test_state_in_single_pair_face(self):
        model, ss, _, _ = qutrit_fixture()
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        raw = sl.random_state(model, 5)
        s = ss.filter_for({1, 2}).projection @ raw
        estimates = {
            J: ss.filter_for(J).projection @ s
            for J in (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
        }
        np.testing.assert_allclose(sl.reconstruct(estimates, ss), s, atol=1e-10)

    def test_missing_face_raises(self):
        model, ss, s, _ = qutrit_fixture()
        with pytest.raises(KeyError):
            sl.reconstruct({frozenset({1, 2}): s}, ss)


class TestRoundtrip:
    def test_exact_qutrit_states(self):
        model, ss, _, _ = qutrit_fixture()
        worst = 0.0
        for i in range(20):
            s = sl.random_state(model, [90, i])
            res = sl.tomography_roundtrip(ss, s, mode="exact")
            worst = max(worst, res.reconstruction_error)
        assert worst < 1e-9

    def test_exact_real_quantum(self):
        model, ss, _, _ = qutrit_fixture(float)
        worst = 0.0
        for i in range(20):
            s = sl.random_state(model, [91, i])
            res = sl.tomography_roundtrip(ss, s, mode="exact")
            worst = max(worst, res.reconstruction_error)
        assert worst < 1e-9

    def test_residual_equals_defect_norm(self):
        model, ss, _, _ = qutrit_fixture()
        defect = sl.defect_operator(ss)
        for i in range(5):
            s = sl.random_state(model, [92, i])
            res = sl.tomography_roundtrip(ss, s, mode="exact")
            expected = np.linalg.norm(defect @ s)
            assert abs(res.reconstruction_error - expected) < 1e-9

    def test_sampled_deterministic(self):
        model, ss, s, _ = qutrit_fixture()
        a = sl.tomography_roundtrip(ss, s, mode="sampled", shots=1000, seed=4)
        b = sl.tomography_roundtrip(ss, s, mode="sampled", shots=1000, seed=4)
        np.testing.assert_array_equal(a.reconstructed, b.reconstructed)

    def test_sampled_error_decreases(self):
        model, ss, _, _ = qutrit_fixture()
        medians = []
        for shots in (10**3, 10**5):
            errs = []
            for i in range(10):
                s = sl.random_state(model, [93, i])
                res = sl.tomography_roundtrip(ss, s, mode="sampled", shots=shots, seed=[5, i])
                errs.append(res.reconstruction_error)
            medians.append(np.median(errs))
        assert medians[1] < medians[0]

    def test_bad_mode_rejected(self):
        model, ss, s, _ = qutrit_fixture()
        with pytest.raises(ValueError):
            sl.tomography_roundtrip(ss, s, mode="bogus")
