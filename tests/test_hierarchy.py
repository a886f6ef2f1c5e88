"""The signed subset sum and slit systems of k != 3 slits.

The three-slit formulas that the signed sum replaced are kept here as
references: at k = 3 the sum must reproduce their bytes, because the CLI
payloads and experiment records are compared byte for byte.
"""

from itertools import combinations

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab.interference import (
    ProbabilityTable,
    all_subsets,
    signed_subset_sum,
    slit_system,
    span_condition_check,
    subsets_of_size,
)
from sorkinlab.models import (
    basis_projectors,
    build_classical_model,
    build_quantum_model,
    subset_filters,
)

from helpers import basis_system, quantum4_subspace_fixture

PAIRS = [frozenset(J) for J in ((1, 2), (1, 3), (2, 3))]
SINGLES = [frozenset({i}) for i in (1, 2, 3)]
TRIPLE = frozenset({1, 2, 3})


def i3_reference(t):
    return (
        t[{1, 2, 3}]
        - (t[{1, 2}] + t[{1, 3}] + t[{2, 3}])
        + (t[{1}] + t[{2}] + t[{3}])
    )


def ik_reference(t):
    total = 0.0
    for r in range(t.k, 0, -1):
        subtotal = sum(
            t.entries[frozenset(J)] for J in combinations(range(1, t.k + 1), r)
        )
        total += (-1.0) ** (t.k - r) * subtotal
    return total


def defect_reference(ss):
    mats = {J: f.projection for J, f in ss.derived.items()}
    p3 = sum(mats[J] for J in PAIRS) - sum(mats[J] for J in SINGLES)
    return mats[TRIPLE] - p3


def estimate_reference(record):
    n_out = record.n_outcomes
    freqs = {J: record.frequencies(J)[:n_out] for J in SINGLES + PAIRS + [TRIPLE]}
    return freqs[TRIPLE] - sum(freqs[J] for J in PAIRS) + sum(freqs[J] for J in SINGLES)


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def spin1_system(axis):
    model = build_quantum_model(3)
    setup = sl.spin1_feynman_setup(axis, axis)
    return slit_system(model, subset_filters(list(setup[0]), model))


class TestSignedSubsetSum:
    def test_floats_follow_the_formula(self):
        terms = {J: float(len(J)) for J in all_subsets(4)}
        # sizes 4, 3, 2, 1 with counts 1, 4, 6, 4: 4 - 12 + 12 - 4
        assert signed_subset_sum(terms, 4) == 0.0
        assert signed_subset_sum({J: 1.0 for J in all_subsets(2)}, 2) == -1.0

    def test_arrays_and_missing_subsets(self):
        terms = {J: np.full(2, float(min(J))) for J in all_subsets(3) if len(J) < 3}
        # missing P_123 counts as zero: -(1 + 1 + 2) + (1 + 2 + 3)
        np.testing.assert_array_equal(signed_subset_sum(terms, 3), [2.0, 2.0])

    def test_subset_order(self):
        assert list(all_subsets(3)) == SINGLES + PAIRS + [TRIPLE]
        assert subsets_of_size(4, 3)[-1] == frozenset({2, 3, 4})


class TestThreeSlitBytes:
    """k = 3 results are byte-identical to the three-slit formulas."""

    def test_defect_on_spin1_axes(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            ss = spin1_system(random_axis(rng))
            got = sl.defect_operator(ss)
            assert got.tobytes() == defect_reference(ss).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_defect_on_rank1_quantum4(self, seed):
        _, ss = quantum4_subspace_fixture(seed)
        assert sl.defect_operator(ss).tobytes() == defect_reference(ss).tobytes()

    def test_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            t = ProbabilityTable(3, dict(zip(all_subsets(3), rng.uniform(size=7))))
            assert sl.i3_from_table(t) == i3_reference(t)
            assert sl.ik_from_table(t) == i3_reference(t)
        for _ in range(200):
            t = ProbabilityTable(4, dict(zip(all_subsets(4), rng.uniform(size=15))))
            assert sl.ik_from_table(t) == ik_reference(t)

    def test_estimate_on_records(self):
        rng = np.random.default_rng(2)
        for shots in (0, 1, 997, 10**6):
            for _ in range(20):
                counts = np.array([rng.multinomial(shots, rng.dirichlet(np.ones(4)))
                                   for _ in range(7)])
                record = sl.ExperimentRecord(counts, shots, 0, "x")
                est = sl.estimate_i3(record)
                assert est.estimates.tobytes() == estimate_reference(record).tobytes()


class TestOtherSlitCounts:
    def test_system_reads_k_from_its_filters(self):
        ss = basis_system(5, k=4)
        assert ss.k == 4 and len(ss.derived) == 15
        assert ss.top == frozenset({1, 2, 3, 4})
        assert ss.validate().passed

    def test_prop1_four_quantum_slits_hold(self):
        report = sl.prop1_verify(basis_system(4, k=4), n_samples=30, seed=1)
        assert report.verdicts == (True, True, True) and report.consistent

    def test_prop1_two_quantum_slits_interfere(self):
        # I2 != 0: P12 - P1 - P2 is the coherence part, Frobenius norm sqrt(2)
        report = sl.prop1_verify(basis_system(4, k=2), n_samples=30, seed=1)
        assert report.verdicts == (False, False, False) and report.consistent
        assert report.operator_gap == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_prop1_two_classical_slits_hold(self):
        model = build_classical_model(4)
        ss = slit_system(model, subset_filters([np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 1, 0])], model))
        report = sl.prop1_verify(ss, n_samples=30, seed=1)
        assert report.verdicts == (True, True, True) and report.consistent
        assert report.operator_gap == 0.0

    def test_table_and_operator_routes_agree(self):
        ss = basis_system(4, k=4)
        rng = np.random.default_rng(3)
        bump = rng.standard_normal((16, 16)) * 0.1
        bumped = ss.with_triple_perturbation(bump)
        for i in range(10):
            s = sl.random_state(ss.model, [4, i])
            r = sl.random_effect(ss.model, [5, i])
            for system in (ss, bumped):
                table = sl.ik_from_table(sl.table_from_system(r, system, s))
                operator = sl.i3_operator(r, system, s)
                assert table == pytest.approx(operator, abs=1e-12)
            assert abs(sl.i3_operator(r, bumped, s)) > 1e-6

    def test_span_check_against_three_slit_faces(self):
        ss = basis_system(5, k=4)
        assert span_condition_check(ss) < 1e-12
        # a coordinate that no filter reaches: im(P_1234) leaves the span
        top = ss.derived[ss.top].projection
        j = np.flatnonzero(~top.any(axis=0))[0]
        bump = np.zeros_like(top)
        bump[j, j] = 1e-3
        assert span_condition_check(ss.with_triple_perturbation(bump)) > 0.5

    def test_four_slit_experiment(self):
        ss = basis_system(4, k=4)
        model = ss.model
        plan = sl.ExperimentPlan(
            ss, model.embed(np.array(basis_projectors(4))),
            sl.random_state(model, 6), 1000, 7,
        )
        record = sl.run_experiment(plan)
        assert len(record.counts) == 15 and record.settings == all_subsets(4)
        est = sl.estimate_i3(record)
        assert est.estimates.shape == (4,)
        assert np.all(np.abs(est.estimates) <= 5 * est.standard_errors + 1e-12)

    def test_four_slit_table_record(self):
        t = ProbabilityTable(4, {J: 0.1 * len(J) for J in all_subsets(4)})
        record = sl.record_from_table(t, 100, 3)
        assert record.settings == all_subsets(4)
        assert len(sl.estimate_i3(record).frequency_tables) == 15

    def test_four_slit_exact_tomography(self):
        ss = basis_system(4, k=4)
        s = sl.random_state(ss.model, 8)
        result = sl.tomography_roundtrip(ss, s, mode="exact")
        assert len(result.per_face) == 6
        assert result.reconstruction_error <= 1e-12

    def test_two_slit_exact_tomography(self):
        ss = basis_system(3, k=2)
        s = sl.random_state(ss.model, 9)
        result = sl.tomography_roundtrip(ss, s, mode="exact")
        assert result.reconstruction_error <= 1e-12
