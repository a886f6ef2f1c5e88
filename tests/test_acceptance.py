"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab.fixtures import (
    basis_projectors,
    classical_fixture,
    quantum4_subspace_fixture,
    qutrit_fixture,
    table_06,
)
from sorkinlab.models import (
    build_quantum_model,
    subset_filters,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def sweep_i3_i2(model, ss, n_pairs, seed):
    """Max |I3| (both paths) and max |I2| over random (state, effect) pairs."""
    defect = sl.defect_operator(ss)
    sup_i3_op = sup_i3_tab = max_i2 = 0.0
    for i in range(n_pairs):
        s = sl.random_state(model, [seed, i, 0])
        r = sl.random_effect(model, [seed, i, 1])
        t = sl.table_from_system(r, ss, s)
        sup_i3_tab = max(sup_i3_tab, abs(sl.i3_from_table(t)))
        sup_i3_op = max(sup_i3_op, abs(float(r.coords @ (defect @ s.coords))))
        for a, b in ((1, 2), (1, 3), (2, 3)):
            max_i2 = max(max_i2, abs(sl.i2_from_table(t[{a, b}], t[{a}], t[{b}])))
    return sup_i3_op, sup_i3_tab, max_i2


def test_criterion_1_quantum_i3_vanishes():
    start = time.monotonic()
    m3, ss3, _, _ = qutrit_fixture()
    op3, tab3, _ = sweep_i3_i2(m3, ss3, 1000, seed=101)
    m4, ss4 = quantum4_subspace_fixture()
    op4, tab4, _ = sweep_i3_i2(m4, ss4, 1000, seed=102)
    elapsed = time.monotonic() - start
    worst = max(op3, tab3, op4, tab4)
    report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"max |I3| = {worst:.3e} over 1000 pairs on quantum(3) and quantum(4), "
        f"both paths, in {elapsed:.1f}s",
    )


def test_criterion_2_second_order_interference_exists():
    m3, ss3, s, r = qutrit_fixture()
    _, _, max_i2 = sweep_i3_i2(m3, ss3, 1000, seed=101)
    t = sl.table_from_system(r, ss3, s)
    fixture_i2 = sl.i2_from_table(t[{1, 2}], t[{1}], t[{2}])
    ok = max_i2 > 0.1 and abs(fixture_i2 - 2.0 / 9.0) <= 1e-12
    report(2, ok, f"max |I2| = {max_i2:.3f}, fixture I2(12) = {fixture_i2!r}")


def test_criterion_3_higher_orders_vanish():
    model = build_quantum_model(4)
    ss = sl.slit_system(model, subset_filters(basis_projectors(4), model))
    worst = 0.0
    for i in range(200):
        s = sl.random_state(model, [103, i])
        r = sl.random_effect(model, [104, i])
        t = sl.table_from_system(r, ss, s)
        worst = max(worst, abs(sl.ik_from_table(t)))
    report(3, worst < 1e-9, f"max |I4| = {worst:.3e} over 200 random pairs")


SHIPPED = {
    "quantum:3": qutrit_fixture,
    "quantum:4": quantum4_subspace_fixture,
    "real_quantum:3": lambda: qutrit_fixture(float),
    "classical:3": classical_fixture,
}


def test_criterion_4_signed_sum_idempotence():
    worst = 0.0
    for name, fixture in SHIPPED.items():
        ss = fixture()[1]
        p3 = sl.p3_operator(ss)
        worst = max(worst, np.linalg.norm(p3 @ p3 - p3, "fro"))
    report(4, worst < 1e-10, f"worst idempotence residual {worst:.3e} across shipped systems")


def test_criterion_5_three_way_equivalence():
    ok = True
    details = []
    for name, fixture in SHIPPED.items():
        rep = sl.prop1_verify(fixture()[1], n_samples=500, seed=105)
        good = rep.verdicts == (True, True, True) and rep.consistent
        good = good and max(rep.sup_abs_i3, rep.operator_gap, rep.span_defect) < 1e-8
        ok = ok and good
        details.append(f"{name} holds={good}")
    model, ss = quantum4_subspace_fixture()
    rng = np.random.default_rng(106)
    v = rng.standard_normal(model.dimension)
    v /= np.linalg.norm(v)
    rep = sl.prop1_verify(
        ss.with_triple_perturbation(1e-3 * np.outer(v, v)), n_samples=500, seed=107
    )
    flipped = (
        rep.verdicts == (False, False, False)
        and abs(rep.operator_gap - 1e-3) < 1e-4
        and rep.sup_abs_i3 > 1e-5
        and rep.span_defect > 1e-5
    )
    ok = ok and flipped
    details.append(
        f"perturbed: gap={rep.operator_gap:.1e} sup|I3|={rep.sup_abs_i3:.1e} "
        f"span={rep.span_defect:.1e} flipped={flipped}"
    )
    report(5, ok, "; ".join(details))


def test_criterion_6_exact_tomography():
    model, ss, _, _ = qutrit_fixture()
    defect = sl.defect_operator(ss)
    worst_err = worst_gap = 0.0
    for i in range(20):
        s = sl.random_state(model, [108, i])
        res = sl.tomography_roundtrip(ss, s, mode="exact")
        worst_err = max(worst_err, res.reconstruction_error)
        worst_gap = max(
            worst_gap,
            abs(res.reconstruction_error - np.linalg.norm(defect @ s.coords)),
        )
    report(
        6,
        worst_err < 1e-9 and worst_gap < 1e-9,
        f"max exact reconstruction error {worst_err:.3e}, "
        f"defect-norm agreement {worst_gap:.3e}",
    )


def test_criterion_7_sampled_tomography_convergence():
    # checked at the three shot scales spanning 1e4 -> 1e6; each tenfold
    # increase should shrink the median error by the multinomial rate
    # sqrt(10) ~ 3.16, inside [2, 5]
    start = time.monotonic()
    model, ss, _, _ = qutrit_fixture()
    medians = []
    for shots in (10**4, 10**5, 10**6):
        errs = []
        for i in range(20):
            s = sl.random_state(model, [109, i])
            res = sl.tomography_roundtrip(
                ss, s, mode="sampled", shots=shots, seed=[110, i]
            )
            errs.append(res.reconstruction_error)
        medians.append(float(np.median(errs)))
    elapsed = time.monotonic() - start
    ratios = [medians[0] / medians[1], medians[1] / medians[2]]
    ok = (
        all(2.0 <= r <= 5.0 for r in ratios)
        and medians[0] > medians[1] > medians[2]
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"median errors {medians[0]:.2e} / {medians[1]:.2e} / {medians[2]:.2e} "
        f"at 1e4/1e5/1e6 shots; per-decade ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_8_monte_carlo_consistency():
    model = build_quantum_model(3)
    runs, hits = 200, 0
    for seed in range(runs):
        rng = np.random.default_rng([111, seed])
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        setup = sl.spin1_feynman_setup(b, d)
        ss = sl.slit_system(model, subset_filters(list(setup.slit_projectors), model))
        detector = model.embed(np.array(setup.detector_effects))
        s = sl.random_state(model, [112, seed])
        plan = sl.ExperimentPlan(ss, detector, s, 10**6, seed)
        est = sl.estimate_i3(sl.run_experiment(plan))
        if abs(est.estimates[0]) <= 1.96 * est.standard_errors[0]:
            hits += 1
    coverage = hits / runs
    z06 = sl.estimate_i3(sl.record_from_table(table_06(), 10**6, 113)).z_scores[0]
    ok = 0.90 <= coverage <= 0.99 and z06 > 100.0
    report(8, ok, f"coverage {coverage:.3f} over {runs} seeds; 0.6-table z = {z06:.0f}")


def test_criterion_9_real_quantum_case():
    model, ss, _, _ = qutrit_fixture(float)
    op, tab, _ = sweep_i3_i2(model, ss, 1000, seed=114)
    p3 = sl.p3_operator(ss)
    idem = np.linalg.norm(p3 @ p3 - p3, "fro")
    rep = sl.prop1_verify(ss, n_samples=500, seed=115)
    worst_err = 0.0
    for i in range(20):
        s = sl.random_state(model, [116, i])
        worst_err = max(
            worst_err,
            sl.tomography_roundtrip(ss, s, mode="exact").reconstruction_error,
        )
    ok = (
        max(op, tab) < 1e-9
        and idem < 1e-10
        and rep.verdicts == (True, True, True)
        and max(rep.sup_abs_i3, rep.operator_gap, rep.span_defect) < 1e-8
        and worst_err < 1e-9
    )
    report(
        9,
        ok,
        f"real_quantum(3): max|I3|={max(op, tab):.1e}, idem={idem:.1e}, "
        f"equivalence holds={rep.consistent}, tomography err={worst_err:.1e}",
    )


def test_criterion_10_classical_baseline():
    model, ss, _, _ = classical_fixture()
    worst_i2 = worst_i3 = 0.0
    for i in range(500):
        s = sl.random_state(model, [117, i])
        r = sl.random_effect(model, [118, i])
        t = sl.table_from_system(r, ss, s)
        worst_i3 = max(worst_i3, abs(sl.i3_from_table(t)))
        for a, b in ((1, 2), (1, 3), (2, 3)):
            worst_i2 = max(worst_i2, abs(sl.i2_from_table(t[{a, b}], t[{a}], t[{b}])))
    ok = worst_i2 < 1e-12 and worst_i3 < 1e-12
    report(10, ok, f"classical(3): max |I2| = {worst_i2:.1e}, max |I3| = {worst_i3:.1e}")
