"""JSON / CSV interchange for models, Hermitian matrices, probability tables,
experiment records, and result payloads.

Floats go through Python's shortest round-trip repr, which preserves the
exact IEEE double and never needs more than 17 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .gpt import Filter, ModelSpace
from .models import model_builder
from .experiment import ExperimentRecord
from .interference import ProbabilityTable, all_subsets, subset_key


def read_numbers(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array.

    Raises ValueError on any other leaf, such as a string or a boolean, which
    float() and np.array would read as a number, on an integer too large for
    a float, and on NaN and Infinity, which Python's json reads but JSON does
    not allow.
    """
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif type(leaf) not in (int, float):
            raise ValueError(f"{leaf!r} is not a number")
    try:
        out = np.array(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc
    if not np.isfinite(out).all():
        raise ValueError("NaN and Infinity are not JSON numbers")
    return out


def read_int(value, name: str) -> int:
    """A JSON integer.  Raises ValueError on any other value, such as a
    float, a string or a boolean, which int() would read as an integer."""
    if type(value) is not int:
        raise ValueError(f"{name} = {value!r} is not an integer")
    return value


def hermitian_from_dict(d: dict) -> np.ndarray:
    return read_numbers(d["re"]) + 1j * read_numbers(d["im"])


def model_to_dict(model: ModelSpace, filters: dict | None = None) -> dict:
    cone = {"type": model.kind}
    if model.generators is not None:
        cone["generators"] = model.generators.tolist()
    else:
        cone[model.size_key] = model.d
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
    schema.

    Raises ValueError unless dimension and the cone's d or n are JSON
    integers, a label is a JSON string, every matrix and vector holds JSON
    numbers, and a custom cone has an (n >= 1, dimension) array of
    generators and an order unit of dimension entries whose pairing with
    every generator is finite and positive.
    """
    cone = d["cone"]
    kind = cone["type"]
    m = read_int(d["dimension"], "dimension")
    if type(d.get("label", "")) is not str:
        raise ValueError(f"label = {d['label']!r} is not a string")
    if kind == "custom":
        gens, u = read_numbers(cone["generators"]), read_numbers(d["order_unit"])
        if gens.ndim != 2 or gens.shape[0] < 1 or gens.shape[1] != m:
            raise ValueError(f"generators are {gens.shape}, not an (n >= 1, {m}) array")
        if u.shape != (m,):
            raise ValueError(f"order_unit has shape {u.shape}, not ({m},)")
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = gens @ u
        if not (np.isfinite(pairing) & (pairing > 0)).all():
            raise ValueError("order_unit @ g must be finite and positive for every generator g")
        model = ModelSpace("custom", generators=gens, order_unit=u)
    else:
        size = "n" if kind == "classical" else "d"
        model = model_builder(kind)(read_int(cone[size], size))
    if "label" in d:
        model.label = d["label"]
    if m != model.dimension:
        raise ValueError(
            f"declared dimension {m} does not match cone dimension {model.dimension}"
        )
    filters = {}
    for name, spec in d.get("filters", {}).items():
        p, c = (read_numbers(spec[part]) for part in ("projection", "complement"))
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
    subsets or other keys, and on entries that are not numbers in [0, 1].
    """
    k = read_int(d["k"], "k")
    if not 2 <= k <= 9:
        raise ValueError(f"k = {k}: a table has from 2 to 9 slits")
    subsets = {subset_key(J): J for J in all_subsets(k)}
    given, wanted = set(d["entries"]), set(subsets)
    if given != wanted:
        missing, unknown = sorted(wanted - given), sorted(given - wanted)
        raise ValueError(f"missing keys {missing}, unknown keys {unknown}")
    values = read_numbers(list(d["entries"].values()))
    if values.shape != (len(wanted),):
        raise ValueError("table entries must be numbers")
    t = ProbabilityTable(k, {subsets[key]: p for key, p in zip(d["entries"], values)})
    bad = sorted(subset_key(J) for J, p in t.entries.items() if not 0.0 <= p <= 1.0)
    if bad:
        raise ValueError("entries outside [0, 1]: " + ", ".join(bad))
    return t


def record_to_csv(record: ExperimentRecord) -> str:
    """The bytes csv.writer writes for the record's rows, CRLF after each:
    no field (a subset key, an outcome index or "blocked", an integer or a
    float repr) needs quoting, so the rows are joined directly."""
    rows = ["setting,outcome,count,shots,frequency"]
    shots = record.shots_per_setting
    counts, freqs = record.count_table.tolist(), record.frequency_table.tolist()
    names = [*map(str, range(record.n_outcomes)), "blocked"]
    for J, setting_counts, setting_freqs in zip(record.settings, counts, freqs):
        key = subset_key(J)
        for name, c, freq in zip(names, setting_counts, setting_freqs):
            rows.append(f"{key},{name},{c},{shots},{freq!r}")
    rows.append("")
    return "\r\n".join(rows)


def record_to_dict(record: ExperimentRecord) -> dict:
    return {
        "shots_per_setting": record.shots_per_setting,
        "seed": record.seed,
        "plan_hash": record.plan_hash,
        "counts": dict(zip(map(subset_key, record.settings), record.count_table.tolist())),
    }


_quote = json.encoder.encode_basestring_ascii  # the C function json itself calls
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(o, indent: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it, with indent
    the newline and indentation of its own level."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is float:
        r = float.__repr__(o)
        return _NON_FINITE.get(r, r)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        # sorted() or _quote raises TypeError on a key that is not a str
        items = [_quote(k) + ": " + _write(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        try:  # a list of finite floats in one pass
            items = list(map(float.__repr__, o)) if type(o[0]) is float else None
        except TypeError:  # a later item is not a float
            items = None
        if items is None or not _NON_FINITE.keys().isdisjoint(items):
            items = [_write(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is int:
        return int.__repr__(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    for base in (str, int, float, list, tuple, dict):  # subclasses, such as numpy's float64
        if isinstance(o, base):
            return _write(base(o), indent)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True), written
    without json's pure-Python encoder, which it uses whenever indent is
    set.  Raises TypeError on what json.dumps rejects, such as numpy
    integers and booleans or sets, and on keys that are not strings."""
    return _write(payload, "\n")
