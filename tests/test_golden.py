"""The byte-identity gate: the exit code and the sha256 of stdout, of the CSV
and of the --out file of fixed CLI runs, recorded in tests/data/golden.json.

The digests hold for the numpy version recorded beside them.  On another
numpy version BLAS and numpy's own loops may round differently, so the runs
are compared by the rule of bench/checks.py instead: every key and non-float
value exactly, every float within RTOL / ATOL.

A declared output change re-records the file, with the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from sorkinlab import serialize
from sorkinlab.cli import main
from sorkinlab.gpt import Filter
from sorkinlab.models import basis_projectors, build_quantum_model, subset_filters

GOLDEN = Path(__file__).parent / "data" / "golden.json"
_spec = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).parents[1] / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# A trailing "--csv-out" or "--out" takes a path under the test's directory,
# and "BAD_MODEL" the path of bad_model()'s file.
ARGV = [
    # byte-identity argv of earlier output-preserving changes
    "interference --table fixture:0.6",
    "interference --sweep 300 --seed 7",
    "interference --slits=spin1:0.48,-0.6,0.64 --state random:3 --effect random:4",
    "prop1 --slits=spin1:0.48,-0.6,0.64 --samples 50 --seed 5",
    "prop1 --model quantum:16 --samples 20 --seed 5",
    "validate --model quantum:10 --samples 10 --seed 3",
    "validate --model classical:3",
    "validate --model real_quantum:4 --samples 50 --seed 1",
    "tomography --mode sampled --state random:4 --seed 9",
    "tomography --model real_quantum:3 --state random:2",
    "experiment --spin1 --b=-0.48,0.6,0.64 --d=0.6,0,0.8 --state random:3 --shots 1000000"
    " --seed 2 --csv-out",
    "experiment --model real_quantum:3 --state random:1 --seed 4",
    "experiment --table fixture:0.6 --shots 1000 --seed 5 --csv-out",
    # classical models, sampled tomography at quantum:10, tilted spin-1 slits
    "prop1 --model classical:5 --samples 30 --seed 2",
    "interference --model classical:4 --state random:3 --effect random:8",
    "interference --model classical:4 --sweep 50 --seed 3",
    "experiment --model classical:4 --state random:2 --seed 1 --csv-out",
    "tomography --model classical:4 --mode sampled --state random:5 --seed 3",
    "validate --model classical:6 --samples 20 --seed 4",
    "tomography --model quantum:10 --mode sampled --state random:5 --seed 3",
    "validate --slits=spin1:0.6,0,0.8 --samples 10 --seed 2",
    # the payload written to a file, and the payload of an invalid system
    "validate --model quantum:6 --samples 20 --seed 1 --out",
    "validate --model BAD_MODEL --slits from-model",
]


def bad_model() -> dict:
    """quantum:3 with its basis filters, the all-slit projection doubled:
    not idempotent, so the family is not a slit system."""
    model = build_quantum_model(3)
    filters = {"".join(map(str, sorted(J))): f
               for J, f in subset_filters(basis_projectors(3), model).items()}
    top = filters["123"]
    filters["123"] = Filter(top.projection * 2.0, top.complement)
    return serialize.model_to_dict(model, filters)


def run(line: str, directory: Path) -> dict:
    """Exit code and output bytes of one argv line: stdout, and the CSV or
    --out file it names."""
    argv, files = line.split(), {}
    if argv[-1] in ("--csv-out", "--out"):
        files["csv" if argv[-1] == "--csv-out" else "out"] = path = directory / "output"
        argv.append(str(path))
    if "BAD_MODEL" in argv:
        model = directory / "model.json"
        model.write_text(json.dumps(bad_model()))
        argv[argv.index("BAD_MODEL")] = str(model)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    outputs = {"stdout": stdout.getvalue().encode()}
    outputs.update((name, path.read_bytes()) for name, path in files.items())
    return {"code": code, "outputs": outputs}


def _cells(name: str, data: bytes):
    """A JSON payload, or the rows of a CSV file as lists of cells, with the
    float values as floats."""
    text = data.decode()
    if name != "csv":
        return json.loads(text) if text else None

    def cell(value):
        try:
            return int(value) if value.lstrip("-").isdigit() else float(value)
        except ValueError:
            return value

    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def _floats(obj) -> list:
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _floats(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    return []


def record(line: str, directory: Path) -> dict:
    """The golden entry of one argv line: its exit code, and per output its
    sha256, the sha256 of its float-free structure and its floats."""
    got = run(line, directory)
    entry = {"code": got["code"]}
    for name, data in got["outputs"].items():
        cells = _cells(name, data)
        entry[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "exact": hashlib.sha256(json.dumps(checks._strip_floats(cells),
                                               sort_keys=True).encode()).hexdigest(),
            "floats": _floats(cells),
        }
    return entry


def mismatches(want: dict, got: dict, exact: bool) -> list[str]:
    """How a recorded entry and a fresh one differ: in exit code and output
    bytes (exact), or else in exit code, structure and floats beyond the
    tolerance of bench/checks.py."""
    out = [] if want["code"] == got["code"] else [f"exit code {got['code']} != {want['code']}"]
    if want.keys() != got.keys():
        return out + [f"outputs {sorted(got)} != {sorted(want)}"]
    for name in sorted(want.keys() - {"code"}):
        w, g = want[name], got[name]
        if exact:
            if g["sha256"] != w["sha256"]:
                out.append(f"{name} bytes differ")
            continue
        if g["exact"] != w["exact"] or len(g["floats"]) != len(w["floats"]):
            out.append(f"{name} keys or non-float values differ")
            continue
        for i, (x, y) in enumerate(zip(g["floats"], w["floats"])):
            if not abs(x - y) <= checks.ATOL + checks.RTOL * abs(y):
                out.append(f"{name} float {i}: {x!r} != {y!r}")
    return out


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_argv():
    assert list(golden()["runs"]) == ARGV


@pytest.mark.parametrize("line", ARGV)
def test_output_bytes_are_golden(tmp_path, line):
    data = golden()
    exact = data["numpy"] == np.__version__
    bad = mismatches(data["runs"][line], record(line, tmp_path), exact)
    rule = ("sha256 of every output" if exact else
            f"numpy {np.__version__}, not the recorded {data['numpy']}: compared by "
            f"bench/checks.py's rule (keys and non-float values exactly, floats within "
            f"rtol {checks.RTOL:g} / atol {checks.ATOL:g})")
    assert not bad, f"{line}: {'; '.join(bad)} [{rule}]"


def test_float_rule_flags_a_moved_float(tmp_path):
    # the rule used on other numpy versions passes the recorded runs and
    # flags a float moved past the tolerance
    line = "validate --model classical:3"
    want = golden()["runs"][line]
    got = record(line, tmp_path)
    assert mismatches(want, got, exact=False) == []
    moved = json.loads(json.dumps(got))
    moved["stdout"]["floats"][0] += 1e-6
    assert mismatches(want, moved, exact=False) == ["stdout float 0: 1e-06 != 0.0"]


if __name__ == "__main__":
    import tempfile

    from sorkinlab import models

    runs = {}
    for line in ARGV:
        models._slit_systems.clear()
        with tempfile.TemporaryDirectory() as tmp:
            runs[line] = record(line, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=1) + "\n")
