"""Interchange formats: model JSON, Hermitian matrices, tables, records."""

import json

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab import serialize
from sorkinlab.fixtures import qutrit_fixture, table_06
from sorkinlab.models import build_quantum_model


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
