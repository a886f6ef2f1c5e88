"""Library guards against misuse: each raises its stated exception."""

import numpy as np
import pytest

from sorkinlab import serialize
from sorkinlab.experiment import ExperimentRecord
from sorkinlab.gpt import (
    CheckResult,
    DimensionMismatch,
    ModelSpace,
    ValidationReport,
    with_blocked,
)
from sorkinlab.interference import (
    ProbabilityTable,
    all_subsets,
    i3_from_table,
    i3_operator,
    slit_system,
)
from sorkinlab.models import (
    basis_projectors,
    build_classical_model,
    build_quantum_model,
    conjugation_superoperator,
    subset_filters,
)
from sorkinlab.tomography import build_face_measurement

from helpers import qutrit_fixture


def classical_model():
    return build_classical_model(3)


def slit_system_without_pair_12():
    model = build_quantum_model(3)
    filters = subset_filters(basis_projectors(3), model)
    del filters[frozenset({1, 2})]
    slit_system(model, filters)


def i3_operator_of_mismatched_vectors():
    _, ss, s, r = qutrit_fixture()
    i3_operator(r, ss, s[:3])


def custom_cone_face_measurement():
    # the custom cone of the classical simplex, with a classical filter
    model, _ = serialize.model_from_dict({
        "label": "c3", "dimension": 3, "order_unit": [1.0, 1.0, 1.0],
        "cone": {"type": "custom", "generators": np.eye(3).tolist()}})
    f = subset_filters(basis_projectors(3, float)[:2], classical_model())[frozenset({1, 2})]
    build_face_measurement(f, model)


GUARDS = {
    "basis-entries-classical": (lambda: classical_model().basis_entries, ValueError,
                                "no matrix embedding"),
    "unembed-classical": (lambda: classical_model().unembed(np.ones(3)), ValueError,
                          "no matrix embedding"),
    "worst-missing-name": (lambda: ValidationReport("r", (CheckResult("a", 0.0, 1.0),))
                           .worst("b"), KeyError, "b"),
    "with-blocked-above-one": (lambda: with_blocked(np.array([0.6, 0.6])), ValueError,
                               "sum to 1.2 > 1"),
    "slit-system-missing-subset": (slit_system_without_pair_12, ValueError,
                                   "every nonempty subset"),
    "i3-from-table-k4": (lambda: i3_from_table(ProbabilityTable(
        4, {J: 0.1 for J in all_subsets(4)})), ValueError, "table order must be 3"),
    "i3-operator-dimensions": (i3_operator_of_mismatched_vectors, ValueError,
                               "dimensions differ"),
    "conjugation-classical": (lambda: conjugation_superoperator(np.eye(3), classical_model()),
                              ValueError, "no matrix embedding"),
    "conjugation-wrong-size": (lambda: conjugation_superoperator(
        np.eye(2), build_quantum_model(3)), DimensionMismatch, "model needs"),
    "face-measurement-custom-cone": (custom_cone_face_measurement, ValueError,
                                     "custom cones"),
    "model-space-unknown-kind": (lambda: ModelSpace("octonion", 3), ValueError,
                                 r"unknown model kind 'octonion' \(known: quantum, "
                                 r"real_quantum, classical, custom\)"),
    "model-space-custom-without-generators": (lambda: ModelSpace("custom"), ValueError,
                                              "needs generators"),
    "model-space-quantum-1": (lambda: ModelSpace("quantum", 1), ValueError,
                              "quantum model needs d >= 2"),
    "model-space-classical-0": (lambda: ModelSpace("classical", 0), ValueError,
                                "classical model needs n >= 2"),
    "model-space-quantum-without-d": (lambda: ModelSpace("quantum"), ValueError,
                                      "quantum model needs d >= 2"),
    "custom-cone-1d-generators": (lambda: ModelSpace(
        "custom", generators=np.ones(3), order_unit=np.ones(3)), ValueError,
        r"generators are \(3,\), not an \(n >= 1, m\) array"),
    "custom-cone-list-generators": (lambda: ModelSpace(
        "custom", generators=[[1, 0], [0, 1]], order_unit=[1, 1, 1]), ValueError,
        r"order_unit has shape \(3,\), not \(2,\)"),
    "custom-cone-negative-on-generator": (lambda: ModelSpace(
        "custom", generators=np.eye(2), order_unit=np.array([1.0, -1.0])), ValueError,
        "finite and positive for every generator"),
    "record-1d-counts": (lambda: ExperimentRecord(np.zeros(7, dtype=np.int64), 0, 0, "x"),
                         ValueError, r"counts are \(7,\), not a \(2\^k - 1, n \+ 1\) table"),
    "record-2-settings": (lambda: ExperimentRecord(np.zeros((2, 2), dtype=np.int64), 0, 0, "x"),
                          ValueError, r"counts are \(2, 2\)"),
    "record-5-settings": (lambda: ExperimentRecord(np.zeros((5, 2), dtype=np.int64), 0, 0, "x"),
                          ValueError, r"counts are \(5, 2\)"),
    "record-no-blocked-column": (lambda: ExperimentRecord(np.zeros((7, 0), dtype=np.int64),
                                                          0, 0, "x"),
                                 ValueError, r"counts are \(7, 0\)"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
