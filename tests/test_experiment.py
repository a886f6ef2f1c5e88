"""Monte Carlo experiment records and the empirical interference estimator."""

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab import cli, serialize
from sorkinlab.fixtures import table_06
from sorkinlab.models import basis_projectors, build_quantum_model, projector_slit_system
from sorkinlab.interference import ProbabilityTable, all_subsets, slit_system

from helpers import (
    basis_system,
    per_setting_counts,
    per_setting_experiment,
    per_setting_outputs,
    qutrit_fixture,
)
from test_cli import BAD_ARGUMENTS, BAD_IDS, materialize

SETTING_ORDER = all_subsets(3)


@pytest.fixture(scope="module")
def qutrit_plan():
    model, ss, s, _ = qutrit_fixture()
    setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
    detector = model.embed(np.array(setup[1]))
    return sl.ExperimentPlan(ss, detector, s, 100000, 17)


class TestSettingCounts:
    def test_open_triple_has_no_blocked(self, qutrit_plan):
        counts = sl.run_experiment(qutrit_plan).counts[frozenset({1, 2, 3})]
        assert counts[-1] == 0
        assert counts.sum() == qutrit_plan.shots_per_setting

    def test_single_slit_blocked_fraction(self, qutrit_plan):
        # Tr(Pi1 rho) = 1/3 for the uniform superposition, so ~2/3 blocked
        counts = sl.run_experiment(qutrit_plan).counts[frozenset({1})]
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
        counts = sl.run_experiment(plan).counts[frozenset({1, 2})]
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
        for J, probs in zip(SETTING_ORDER, plan.probability_table(), strict=True):
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
        table = dict(zip(SETTING_ORDER, qutrit_plan.probability_table(), strict=True))
        p12, p1, p2 = table[frozenset({1, 2})], table[frozenset({1})], table[frozenset({2})]
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


def random_axes(seed, n):
    """n random unit axes."""
    axes = np.random.default_rng(seed).standard_normal((n, 3))
    return axes / np.linalg.norm(axes, axis=1)[:, None]


def basis_plan(kind, d, k, state_seed, shots, seed):
    """k basis slits of a quantum, real_quantum or classical model with the
    detector the CLI gives them."""
    ss = basis_system(d, kind, k)
    model = ss.model
    detector = (np.eye(d) if kind == "classical"
                else model.embed(np.array(basis_projectors(d))))
    return sl.ExperimentPlan(ss, detector, sl.random_state(model, state_seed), shots, seed)


def spin1_plan(b, d, state_seed, shots, seed):
    model = build_quantum_model(3)
    slits, detectors = sl.spin1_feynman_setup(b, d)
    ss = projector_slit_system(slits, model)
    return sl.ExperimentPlan(ss, model.embed(detectors), sl.random_state(model, state_seed),
                             shots, seed)


def table_outputs(record):
    """The frequencies, CSV text and CLI JSON text of a record."""
    estimate = sl.estimate_i3(record)
    payload = {"estimate": estimate.to_dict(), "record": serialize.record_to_dict(record)}
    freqs = dict(zip(record.settings, record.frequency_table))
    return freqs, serialize.record_to_csv(record), serialize.dumps(payload)


def assert_same_bytes(record, reference):
    counts, freqs, csv, text = reference
    assert list(record.counts) == list(counts)
    for J, row in zip(record.settings, record.count_table, strict=True):
        assert row.tobytes() == counts[J].tobytes()
    got_freqs, got_csv, got_text = table_outputs(record)
    assert [f.tobytes() for f in got_freqs.values()] == [freqs[J].tobytes() for J in got_freqs]
    assert (got_csv, got_text) == (csv, text)


PLANS = {
    **{f"quantum3-basis-{i}": (lambda i=i: basis_plan("quantum", 3, 3, [4, i], 10**6, i))
       for i in range(3)},
    **{f"spin1-{i}": (lambda i=i: spin1_plan(*random_axes(i, 2), [5, i], 10**6, 3 * i))
       for i in range(20)},
    "real_quantum3": lambda: basis_plan("real_quantum", 3, 3, 1, 10**5, 4),
    "classical3": lambda: basis_plan("classical", 3, 3, 2, 10**5, 1),
    "quantum4-four-slits": lambda: basis_plan("quantum", 4, 4, 6, 1000, 7),
    "zero-shots": lambda: spin1_plan([0, 0, 1], [1, 0, 0], 3, 0, 2),
}


class TestTableBytes:
    """The table of all settings gives the counts, frequencies, CSV and JSON
    bytes of the experiment computed one setting at a time."""

    @pytest.mark.parametrize("name", PLANS)
    def test_plan(self, name):
        plan = PLANS[name]()
        assert_same_bytes(sl.run_experiment(plan), per_setting_experiment(plan))

    def test_zero_shots_estimate_is_degenerate(self):
        estimate = sl.estimate_i3(sl.run_experiment(PLANS["zero-shots"]()))
        assert estimate.degenerate and estimate.chi_square == 0.0
        assert not estimate.standard_errors.any() and not estimate.z_scores.any()

    @pytest.mark.parametrize("k", [3, 4, 6])
    @pytest.mark.parametrize("shots", [0, 1000])
    def test_table_record(self, k, shots):
        # one outcome and its blocked event: from 15 settings on, np.sum
        # would add the single column of variances pairwise
        p = np.random.default_rng(k).uniform(size=2**k - 1)
        record = sl.record_from_table(ProbabilityTable(k, dict(zip(all_subsets(k), p))),
                                      shots, 9)
        assert_same_bytes(record, (record.counts, *per_setting_outputs(
            record.counts, shots, 9, record.plan_hash)))


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestInvalidPlans:
    def test_first_setting_outside_zero_one_is_named(self):
        # diag(1, -0.5, -0.5): settings 2, 3, 12, 13, 23 and 123 leave [0, 1]
        model, ss, _, _ = qutrit_fixture()
        state = model.embed(np.diag([1.0, -0.5, -0.5]))
        plan = sl.ExperimentPlan(ss, model.embed(np.array(basis_projectors(3))), state, 10, 0)
        message = raised(sl.run_experiment, plan)
        assert message.startswith("setting 2 produced probabilities outside [0, 1]")
        assert message == raised(per_setting_counts, plan)

    def test_sum_above_one(self):
        # diag(0.5, 0.5, 0.5): setting 123 sums to 1.5 with every entry in [0, 1]
        model, ss, _, _ = qutrit_fixture()
        state = model.embed(np.diag([0.5, 0.5, 0.5]))
        plan = sl.ExperimentPlan(ss, model.embed(np.array(basis_projectors(3))), state, 10, 0)
        message = raised(sl.run_experiment, plan)
        assert message == "outcome probabilities sum to 1.5 > 1"
        assert message == raised(per_setting_counts, plan)
        assert message == raised(sl.gpt.with_blocked, np.array([0.5, 0.5, 0.5]))

    def test_earlier_sum_above_one_before_a_later_entry_above_one(self):
        # setting 12 sums to 1.8 in [0, 1] each; setting 123 has an entry of 1.05
        ss = basis_system(3, "classical")
        detector = np.array([[1.0, 0, 0], [0, 1.0, 0], [0.5, 0.5, 0.5]])
        plan = sl.ExperimentPlan(ss, detector, np.array([0.6, 0.6, 0.9]), 10, 0)
        message = raised(sl.run_experiment, plan)
        assert message == "outcome probabilities sum to 1.8 > 1"
        assert message == raised(per_setting_counts, plan)

    def test_rotated_filters_experiment_exits_2(self, capsys, tmp_path):
        argv = dict(zip(BAD_IDS, BAD_ARGUMENTS))["experiment-rotated-filters"]
        argv = materialize(argv, tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        model, named = cli.resolve_model(argv[argv.index("--model") + 1])
        ss = cli.resolve_slits("from-model", model, named)
        plan = sl.ExperimentPlan(ss, model.embed(np.array(basis_projectors(3))),
                                 cli.resolve_state("random:0", model), 100000, 0)
        assert err == f"error: {raised(per_setting_counts, plan)}\n"
