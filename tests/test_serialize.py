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
        out = serialize.hermitian_from_dict(serialize.hermitian_to_dict(h))
        np.testing.assert_array_equal(out, h)


class TestModel:
    def test_round_trip_with_filters(self):
        model, ss, _, _ = qutrit_fixture()
        named = {"1": ss.filter_for({1}), "123": ss.filter_for({1, 2, 3})}
        text = serialize.dumps(serialize.model_to_dict(model, named))
        model2, filters2 = serialize.model_from_dict(json.loads(text))
        assert model2.dimension == 9
        assert model2.cone.kind == "quantum"
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

    def test_floats_round_trip_exactly(self):
        model, _, s, _ = qutrit_fixture()
        d = {"coords": s.coords.tolist()}
        back = np.array(json.loads(serialize.dumps(d))["coords"])
        np.testing.assert_array_equal(back, s.coords)


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

    def test_json_round_trip(self):
        rec = self._record()
        rec2 = serialize.record_from_dict(
            json.loads(serialize.dumps(serialize.record_to_dict(rec)))
        )
        for J in rec.counts:
            np.testing.assert_array_equal(rec2.counts[J], rec.counts[J])
        assert rec2.shots_per_setting == rec.shots_per_setting

    def test_csv_schema(self):
        text = serialize.record_to_csv(self._record())
        lines = text.strip().splitlines()
        assert lines[0] == "setting,outcome,count,shots,frequency"
        # 7 settings x (1 outcome + blocked)
        assert len(lines) == 1 + 7 * 2
        first = lines[1].split(",")
        assert first[0] == "1"
        assert int(first[3]) == 1000
