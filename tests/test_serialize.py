"""Interchange formats: model JSON, Hermitian matrices, tables, records."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sorkinlab as sl
from sorkinlab import serialize
from sorkinlab.fixtures import table_06
from sorkinlab.interference import all_subsets, subset_key
from sorkinlab.models import build_quantum_model

from helpers import qutrit_fixture


class TestHermitian:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (a + a.conj().T) / 2
        out = serialize.hermitian_from_dict(
            json.loads(json.dumps({"re": h.real.tolist(), "im": h.imag.tolist()})))
        np.testing.assert_array_equal(out, h)


class TestModel:
    def test_round_trip_with_filters(self):
        model, ss, _, _ = qutrit_fixture()
        named = {"1": ss.filter_for({1}), "123": ss.filter_for({1, 2, 3})}
        text = serialize.dumps(serialize.model_to_dict(model, named))
        model2, filters2 = serialize.model_from_dict(json.loads(text))
        assert model2.dimension == 9
        assert model2.kind == "quantum"
        np.testing.assert_allclose(model2.order_unit, model.order_unit, atol=1e-15)
        np.testing.assert_array_equal(
            filters2["1"].projection, ss.filter_for({1}).projection
        )

    def test_dimension_mismatch_rejected(self):
        d = serialize.model_to_dict(build_quantum_model(3))
        d["dimension"] = 4
        with pytest.raises(ValueError):
            serialize.model_from_dict(d)

    def test_unknown_cone_rejected(self):
        with pytest.raises(ValueError):
            serialize.model_from_dict(
                {"label": "x", "dimension": 2, "cone": {"type": "octonion"}, "order_unit": [1, 1]}
            )

    @pytest.mark.parametrize("label", [7, None, True, ["mine"]])
    def test_label_must_be_a_string(self, label):
        d = serialize.model_to_dict(build_quantum_model(3))
        d["label"] = label
        with pytest.raises(ValueError, match="is not a string"):
            serialize.model_from_dict(d)

    def test_label_read_from_file(self):
        d = {"label": "mine", "dimension": 9, "cone": {"type": "quantum", "d": 3}}
        assert serialize.model_from_dict(d)[0].label == "mine"
        del d["label"]
        assert serialize.model_from_dict(d)[0].label == "quantum:3"

    def test_custom_model_round_trip(self):
        d = {"label": "c", "dimension": 2, "order_unit": [1.0, 1.0],
             "cone": {"type": "custom", "generators": [[1.0, 0.0], [0.0, 1.0]]}}
        model, _ = serialize.model_from_dict(d)
        assert (model.kind, model.dimension, model.label) == ("custom", 2, "c")
        assert serialize.model_to_dict(model) == d

    @pytest.mark.parametrize("gens,u", [
        ([[1e300, 0.0], [0.0, 1.0]], [1e300, 1.0]),
        ([[1e300, -1e300], [0.0, 1.0]], [1e300, 1e300]),
    ], ids=["overflow", "inf-minus-inf"])
    def test_custom_pairing_must_be_finite(self, gens, u):
        d = {"dimension": 2, "order_unit": u, "cone": {"type": "custom", "generators": gens}}
        with pytest.raises(ValueError, match="finite and positive"):
            serialize.model_from_dict(d)

    def test_floats_round_trip_exactly(self):
        model, _, s, _ = qutrit_fixture()
        d = {"coords": s.tolist()}
        back = np.array(json.loads(serialize.dumps(d))["coords"])
        np.testing.assert_array_equal(back, s)


class TestReadNumbers:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       [[1.0, 0.5], [0.5, float("nan")]]])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="NaN and Infinity"):
            serialize.read_numbers(value)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_json_extensions_rejected(self, text):
        with pytest.raises(ValueError):
            serialize.read_numbers(json.loads(f"[0.5, {text}]"))


class TestTable:
    def test_round_trip(self):
        t = table_06()
        d = serialize.table_to_dict(t)
        assert d["entries"]["123"] == 0.9
        t2 = serialize.table_from_dict(json.loads(serialize.dumps(d)))
        assert sl.i3_from_table(t2) == pytest.approx(0.6, abs=1e-15)


class TestRecord:
    def _record(self):
        return sl.record_from_table(table_06(), shots=1000, seed=5)

    def test_csv_schema(self):
        text = serialize.record_to_csv(self._record())
        lines = text.strip().splitlines()
        assert lines[0] == "setting,outcome,count,shots,frequency"
        # 7 settings x (1 outcome + blocked)
        assert len(lines) == 1 + 7 * 2
        first = lines[1].split(",")
        assert first[0] == "1"
        assert int(first[3]) == 1000

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_writes_the_bytes_of_csv_writer(self, data):
        k = data.draw(st.integers(2, 4))
        n_outcomes = data.draw(st.integers(1, 4))
        shots = data.draw(st.integers(0, 10) | st.integers(0, 2**62))
        count = st.integers(0, shots)
        counts = {J: np.array(data.draw(st.lists(count, min_size=n_outcomes + 1,
                                                 max_size=n_outcomes + 1)), dtype=np.int64)
                  for J in all_subsets(k)}
        record = sl.ExperimentRecord(counts, shots, 0, "x")
        assert serialize.record_to_csv(record) == csv_writer_record(record)


def csv_writer_record(record):
    """record_to_csv as it was written with csv.writer: the reference."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["setting", "outcome", "count", "shots", "frequency"])
    shots = record.shots_per_setting
    for J in record.settings:
        counts = record.counts[J]
        for idx, (c, freq) in enumerate(zip(counts, record.frequencies(J))):
            name = "blocked" if idx == len(counts) - 1 else str(idx)
            w.writerow([subset_key(J), name, int(c), shots, repr(float(freq))])
    return buf.getvalue()


# JSON values as the CLI's payloads hold them, and the tuples and non-finite
# floats json.dumps also writes
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.lists(st.floats(), min_size=1, max_size=5)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert serialize.dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        [1.5, float("nan"), -0.0], [float("inf"), 2.0], [-float("inf")], [0.5, 1, True, None],
        {"b": [], "a": {}, "c": ()}, {"é": "ü\n\"", "": [10**30, -(10**30)]},
    ], ids=["nan", "inf", "minus-inf", "mixed-list", "empty-containers", "non-ascii"])
    def test_edge_cases(self, value):
        assert serialize.dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_float_subclasses_are_floats(self):
        value = {"x": np.float64(0.1), "y": [0.5, np.float64(1 / 3)]}
        assert serialize.dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        np.int64(1), [np.bool_(True)], {"a": {1, 2}}, {1: "a"}, {"a": 1, 2: "b"}, [1.0, b"x"],
    ], ids=["numpy-int", "numpy-bool", "set", "int-key", "mixed-keys", "float-then-bytes"])
    def test_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError):
            serialize.dumps(value)
        if not isinstance(value, dict) or all(type(k) is str for k in value):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2, sort_keys=True)
