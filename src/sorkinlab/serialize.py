"""JSON / CSV interchange for models, Hermitian matrices, probability tables,
experiment records, and result payloads.

Floats go through Python's shortest round-trip repr, which preserves the
exact IEEE double and never needs more than 17 significant digits.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .gpt import ConeDescriptor, Filter, ModelSpace
from .models import (
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
)
from .experiment import ExperimentRecord
from .interference import ProbabilityTable, all_subsets, subset_key


def hermitian_to_dict(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def hermitian_from_dict(d: dict) -> np.ndarray:
    return np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)


def model_to_dict(model: ModelSpace, filters: dict | None = None) -> dict:
    cone = {"type": model.cone.kind}
    if model.cone.kind in ("quantum", "real_quantum"):
        cone["d"] = model.cone.d
    elif model.cone.kind == "classical":
        cone["n"] = model.cone.n
    else:
        cone["generators"] = model.cone.generators.tolist()
    out = {
        "label": model.label,
        "dimension": model.dimension,
        "cone": cone,
        "order_unit": model.order_unit.tolist(),
    }
    if filters:
        out["filters"] = {
            name: {
                "projection": f.projection.tolist(),
                "complement": f.complement.tolist(),
            }
            for name, f in filters.items()
        }
    return out


def model_from_dict(d: dict) -> tuple[ModelSpace, dict]:
    """Rebuild a model (and any stored named filters) from the interchange
    schema."""
    cone = d["cone"]
    kind = cone["type"]
    if kind == "quantum":
        model = build_quantum_model(int(cone["d"]))
    elif kind == "real_quantum":
        model = build_real_quantum_model(int(cone["d"]))
    elif kind == "classical":
        model = build_classical_model(int(cone["n"]))
    elif kind == "custom":
        gens = np.array(cone["generators"], dtype=float)
        model = ModelSpace(
            label=d.get("label", "custom"),
            dimension=int(d["dimension"]),
            order_unit=np.array(d["order_unit"], dtype=float),
            cone=ConeDescriptor("custom", generators=gens),
        )
    else:
        raise ValueError(f"unknown cone type {kind!r}")
    if "label" in d:
        model.label = d["label"]
    if int(d["dimension"]) != model.dimension:
        raise ValueError(
            f"declared dimension {d['dimension']} does not match cone "
            f"dimension {model.dimension}"
        )
    filters = {}
    for name, spec in d.get("filters", {}).items():
        p, c = (np.array(spec[part], dtype=float) for part in ("projection", "complement"))
        if p.shape != (model.dimension,) * 2 or c.shape != p.shape:
            raise ValueError(f"filter {name!r} is not {model.dimension} x {model.dimension}")
        filters[name] = Filter(projection=p, complement=c)
    return model, filters


def table_to_dict(t: ProbabilityTable) -> dict:
    return {
        "k": t.k,
        "entries": {subset_key(J): t.entries[J] for J in all_subsets(t.k)},
    }


def table_from_dict(d: dict) -> ProbabilityTable:
    """Rebuild a complete table of k = 2..9 slits, keyed as table_to_dict
    writes it (a subset of 1..k as its digits in increasing order).

    Raises ValueError on a k that is not an integer from 2 to 9, on missing
    subsets or other keys, and on entries outside [0, 1].
    """
    k = d["k"]
    if type(k) is not int or not 2 <= k <= 9:
        raise ValueError(f"k = {k!r}: a table has an integer number of slits from 2 to 9")
    subsets = {subset_key(J): J for J in all_subsets(k)}
    given, wanted = set(d["entries"]), set(subsets)
    if given != wanted:
        missing, unknown = sorted(wanted - given), sorted(given - wanted)
        raise ValueError(f"missing keys {missing}, unknown keys {unknown}")
    t = ProbabilityTable(k, {subsets[key]: p for key, p in d["entries"].items()})
    bad = sorted(subset_key(J) for J, p in t.entries.items() if not 0.0 <= p <= 1.0)
    if bad:
        raise ValueError("entries outside [0, 1]: " + ", ".join(bad))
    return t


def record_to_csv(record: ExperimentRecord) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["setting", "outcome", "count", "shots", "frequency"])
    shots = record.shots_per_setting
    for J in record.settings:
        counts = record.counts[J]
        for idx, c in enumerate(counts):
            name = "blocked" if idx == len(counts) - 1 else str(idx)
            freq = c / shots if shots > 0 else 0.0
            w.writerow([subset_key(J), name, int(c), shots, repr(float(freq))])
    return buf.getvalue()


def record_to_dict(record: ExperimentRecord) -> dict:
    return {
        "shots_per_setting": record.shots_per_setting,
        "seed": record.seed,
        "plan_hash": record.plan_hash,
        "counts": {subset_key(J): record.counts[J].tolist() for J in record.settings},
    }


def record_from_dict(d: dict) -> ExperimentRecord:
    counts = {
        frozenset(int(c) for c in key): np.array(v, dtype=np.int64)
        for key, v in d["counts"].items()
    }
    return ExperimentRecord(
        counts=counts,
        shots_per_setting=int(d["shots_per_setting"]),
        seed=int(d["seed"]),
        plan_hash=d.get("plan_hash", ""),
    )


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
