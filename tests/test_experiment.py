"""Monte Carlo experiment records and the empirical interference estimator."""

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab.fixtures import table_06
from sorkinlab.models import (
    build_quantum_model,
    subset_filters,
)
from sorkinlab.interference import all_subsets, slit_system

from helpers import qutrit_fixture

SETTING_ORDER = all_subsets(3)


@pytest.fixture(scope="module")
def qutrit_plan():
    model, ss, s, _ = qutrit_fixture()
    setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
    detector = model.embed(np.array(setup[1]))
    return sl.ExperimentPlan(ss, detector, s, 100000, 17)


class TestSimulateSetting:
    def test_open_triple_has_no_blocked(self, qutrit_plan):
        counts = sl.simulate_setting(qutrit_plan, {1, 2, 3})
        assert counts[-1] == 0
        assert counts.sum() == qutrit_plan.shots_per_setting

    def test_single_slit_blocked_fraction(self, qutrit_plan):
        # Tr(Pi1 rho) = 1/3 for the uniform superposition, so ~2/3 blocked
        counts = sl.simulate_setting(qutrit_plan, {1})
        frac = counts[-1] / counts.sum()
        sigma = np.sqrt(2 / 9 / qutrit_plan.shots_per_setting)
        assert abs(frac - 2.0 / 3.0) < 5 * sigma

    def test_zero_shots(self, qutrit_plan):
        plan = sl.ExperimentPlan(
            qutrit_plan.slits,
            qutrit_plan.detector,
            qutrit_plan.source_state,
            0,
            17,
        )
        counts = sl.simulate_setting(plan, {1, 2})
        assert counts.sum() == 0


class TestRunExperiment:
    def test_record_totals(self, qutrit_plan):
        record = sl.run_experiment(qutrit_plan)
        assert len(record.counts) == 7
        for J in SETTING_ORDER:
            assert record.counts[J].sum() == qutrit_plan.shots_per_setting

    def test_determinism(self, qutrit_plan):
        a = sl.run_experiment(qutrit_plan)
        b = sl.run_experiment(qutrit_plan)
        for J in SETTING_ORDER:
            np.testing.assert_array_equal(a.counts[J], b.counts[J])
        assert a.plan_hash == b.plan_hash

    def test_frequencies_converge(self):
        model, ss, s, _ = qutrit_fixture()
        setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
        detector = model.embed(np.array(setup[1]))
        plan = sl.ExperimentPlan(ss, detector, s, 10**6, 23)
        record = sl.run_experiment(plan)
        for J in SETTING_ORDER:
            probs = plan.setting_probabilities(J)
            freqs = record.frequencies(J)
            for p, f in zip(probs, freqs):
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / plan.shots_per_setting)
                assert abs(f - p) < 5 * sigma + 1e-9


class TestRecordFromTable:
    def test_plan_hash_covers_entries(self):
        tables = [
            sl.ProbabilityTable(3, {J: p for J in SETTING_ORDER}) for p in (0.1, 0.9)
        ]
        a, b = (sl.record_from_table(t, 1000, 5) for t in tables)
        assert a.plan_hash != b.plan_hash
        assert sl.record_from_table(tables[0], 1000, 5).plan_hash == a.plan_hash


class TestEstimateI3:
    def test_quantum_consistent_with_zero(self, qutrit_plan):
        est = sl.estimate_i3(sl.run_experiment(qutrit_plan))
        assert np.all(np.abs(est.estimates) < 5 * est.standard_errors)

    def test_synthetic_table_inconsistent_with_zero(self):
        record = sl.record_from_table(table_06(), shots=10**6, seed=3)
        est = sl.estimate_i3(record)
        assert est.estimates[0] == pytest.approx(0.6, abs=0.01)
        assert est.standard_errors[0] == pytest.approx(9.2e-4, rel=0.3)
        assert abs(est.z_scores[0]) > 100

    def test_all_blocked_degenerate(self):
        model, ss, _, _ = qutrit_fixture()
        counts = {J: np.array([0, 0, 0, 0]) for J in SETTING_ORDER}
        record = sl.ExperimentRecord(counts, 0, 0, "none")
        est = sl.estimate_i3(record)
        assert est.degenerate
        np.testing.assert_array_equal(est.estimates, np.zeros(3))
        np.testing.assert_array_equal(est.standard_errors, np.zeros(3))

    def test_missing_setting_raises(self):
        counts = {frozenset({1}): np.array([1, 0])}
        record = sl.ExperimentRecord(counts, 1, 0, "x")
        with pytest.raises(KeyError):
            sl.estimate_i3(record)

    def test_empirical_i2_matches_exact(self, qutrit_plan):
        record = sl.run_experiment(qutrit_plan)
        shots = record.shots_per_setting
        f12 = record.frequencies({1, 2})
        f1 = record.frequencies({1})
        f2 = record.frequencies({2})
        p12 = qutrit_plan.setting_probabilities(frozenset({1, 2}))
        p1 = qutrit_plan.setting_probabilities(frozenset({1}))
        p2 = qutrit_plan.setting_probabilities(frozenset({2}))
        for l in range(3):
            i2_emp = f12[l] - f1[l] - f2[l]
            i2_exact = p12[l] - p1[l] - p2[l]
            se = np.sqrt(
                sum(p[l] * (1 - p[l]) / shots for p in (p12, p1, p2))
            )
            assert abs(i2_emp - i2_exact) < 5 * se + 1e-9


class TestCalibration:
    def test_coverage_of_nominal_interval(self):
        # I3 = 0 exactly, so ~95% of runs should sit inside 1.96 SE
        model, ss, s, _ = qutrit_fixture()
        setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
        detector = model.embed(np.array(setup[1]))
        hits = 0
        runs = 200
        for seed in range(runs):
            plan = sl.ExperimentPlan(ss, detector, s, 10**4, seed)
            est = sl.estimate_i3(sl.run_experiment(plan))
            if abs(est.estimates[0]) <= 1.96 * est.standard_errors[0]:
                hits += 1
        assert 0.90 <= hits / runs <= 0.99

    def test_setting_substreams_differ(self, qutrit_plan):
        record = sl.run_experiment(qutrit_plan)
        rows = [record.counts[J] for J in SETTING_ORDER]
        assert len({tuple(r) for r in rows}) > 1
