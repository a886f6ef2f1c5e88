"""Command-line interface: exit codes, fixture values, reproducibility."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sorkinlab import cli, serialize
from sorkinlab.cli import main, resolve_model, resolve_slits
from sorkinlab.fixtures import qutrit_fixture
from sorkinlab.gpt import Filter, sample_states, validate_filter
from sorkinlab.interference import ProbabilityTable, SlitSystem, all_subsets, subset_key
from sorkinlab.models import basis_projectors, build_quantum_model, subset_filters


def three_slit_entries(**changes):
    """Entries of a valid k = 3 table file, with some keys changed (None drops one)."""
    entries = {"1": 0.1, "2": 0.1, "3": 0.1, "12": 0.2, "13": 0.2, "23": 0.2, "123": 0.9}
    entries.update(changes)
    return {key: p for key, p in entries.items() if p is not None}


def custom_model(**changes):
    """A custom-cone model file for dimension 3 with the seven filters that
    --slits from-model reads, with some top-level or cone fields changed."""
    filters = {}
    for J in all_subsets(3):
        mask = np.isin([1, 2, 3], list(J)).astype(float)
        filters[subset_key(J)] = {"projection": np.diag(mask).tolist(),
                                  "complement": np.diag(1.0 - mask).tolist()}
    model = {"label": "c3", "dimension": 3, "order_unit": [1.0, 1.0, 1.0],
             "cone": {"type": "custom", "generators": [[1, 0, 0], [0, 2, 0], [0, 0, 0.5]]},
             "filters": filters}
    for key, value in changes.items():
        (model["cone"] if key == "generators" else model)[key] = value
    return model


def custom_model_entry(name, part, value):
    """custom_model() with entry (0, 0) of a filter's projection or
    complement set to a value."""
    model = custom_model()
    model["filters"][name][part][0][0] = value
    return model


def rotated_quantum_model():
    """A quantum:3 model file whose seven filters are the basis Lueders
    filters conjugated by a fixed orthogonal 9 x 9 matrix V (P' = V P V^T,
    C' = V C V^T).  They pass the slit-system checks, but do not map the
    quantum cone into itself, and no face of theirs has an informationally
    complete measurement family."""
    model = build_quantum_model(3)
    v = np.linalg.qr(np.random.default_rng(0).normal(size=(9, 9)))[0]
    filters = {subset_key(J): Filter(v @ f.projection @ v.T, v @ f.complement @ v.T)
               for J, f in subset_filters(basis_projectors(3), model).items()}
    return serialize.model_to_dict(model, filters)


ROTATED_MODEL = rotated_quantum_model()

# order_unit @ g overflows to inf on the first generator
OVERFLOWING_CONE = custom_model(generators=[[1e300, 0, 0], [0, 1, 0], [0, 0, 1]],
                                order_unit=[1e300, 1.0, 1.0])
# a valid cone whose states of large first coordinate overflow in the
# neutrality check unless it keeps the rows a filter passes whole first
HUGE_GENERATOR_CONE = custom_model(generators=[[1e300, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   order_unit=[1e-300, 1.0, 1.0])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_quantum_basis_passes(self, capsys):
        code, out = run(capsys, "validate", "--model", "quantum:3", "--slits", "basis")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("slits", ["basis", "spin1:0.48,-0.6,0.64"])
    def test_reports_equal_independent_filter_checks(self, capsys, slits):
        code, out = run(capsys, "validate", "--slits", slits, "--samples", "20",
                        "--seed", "5")
        assert code == 0
        model, named = resolve_model("quantum:3")
        ss = resolve_slits(slits, model, named)
        expected = []
        for J in all_subsets(3):
            d = validate_filter(ss.derived[J], model, sample_states(model, 20, 5)).to_dict()
            d["subject"] = f"filter_{subset_key(J)}"
            expected.append(d)
        assert json.loads(out)["reports"][1:] == expected

    def test_bad_filter_json_fails(self, capsys, tmp_path):
        model, ss, _, _ = qutrit_fixture()
        named = {}
        for J in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            key = "".join(str(i) for i in sorted(J))
            named[key] = ss.filter_for(J)
        bad = ss.filter_for({1, 2, 3})
        from sorkinlab.gpt import Filter

        named["123"] = Filter(bad.projection * 2.0, bad.complement)
        path = tmp_path / "model.json"
        path.write_text(serialize.dumps(serialize.model_to_dict(model, named)))
        code, out = run(capsys, "validate", "--model", str(path), "--slits", "from-model")
        assert code == 1

    def test_failure_payload_goes_to_out(self, capsys, tmp_path, monkeypatch):
        # projection 12 is not idempotent: the slit system is not valid
        model = custom_model_entry("12", "projection", 2.0)
        argv = ["validate", "--model", _json_file(tmp_path, model), "--slits", "from-model"]
        code, printed = run(capsys, *argv)
        assert code == 1 and json.loads(printed)["passed"] is False
        out = tmp_path / "out.json"
        code, stdout = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, out.read_text()) == (1, "", printed)
        # a file that cannot be written on that path is still bad input
        for bad in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
            assert run(capsys, *argv, "--out", bad) == (2, "")

        def full(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1

    def test_checks_the_slit_system_once(self, capsys, monkeypatch):
        calls = []
        check = SlitSystem.validate

        def counted(ss):
            calls.append(ss)
            return check(ss)

        monkeypatch.setattr(SlitSystem, "validate", counted)
        code, out = run(capsys, "validate", "--model", "quantum:10", "--samples", "5")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["reports"][0] == check(calls[0]).to_dict()

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "validate", "--model", str(path))
        assert code == 2

    def test_unknown_model_is_input_error(self, capsys):
        code, _ = run(capsys, "validate", "--model", "octonion:3")
        assert code == 2


# quantum:3 coordinates of trace one whose diagonal matrix entries overflow
# to inf: the eigenvalues of the matrix are NaN
OVERFLOWING_DIAGONAL = [3 ** -0.5] + [0.0] * 6 + [1.7e308, 1.7e308]

# argv that are bad input, as materialize reads them
BAD_ARGUMENTS = [
    ["interference", "--model", "quantum:4"],
    ["tomography", "--model", "classical:3"],
    ["experiment", "--shots", "-5"],
    ["experiment", "--table", "fixture:0.6", "--shots", "-5"],
    ["interference", "--state", "random:abc"],
    ["interference", "--effect", "random:x"],
    ["interference", "--state", "random:-2"],
    ["validate", "--samples", "-3"],
    ["prop1", "--samples", "-1"],
    ["interference", "--sweep", "-3"],
    ["tomography", "--mode", "sampled", "--seed", "-1"],
    ["interference", "--table", {"k": 1, "entries": {"1": 0.5}}],
    ["experiment", "--table", {"k": 1, "entries": {"1": 0.5}}],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"23": None})}],
    ["experiment", "--table", {"k": 3, "entries": three_slit_entries(**{"23": None})}],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"45": 0.3})}],
    ["experiment", "--table", {"k": 3, "entries": three_slit_entries(**{"45": 0.3})}],
    ["experiment", "--table", {"k": 3, "entries": three_slit_entries(**{"1": None, "21": 0.1})}],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"1": None})}],
    ["interference", "--table", [0.1, 0.2]],
    ["prop1", "--model", "quantum:4", "--slits", "spin1:0,0,1"],
    ["tomography", "--model", "quantum:4", "--slits", "spin1:0,0,1"],
    ["experiment", "--model", "quantum:4", "--slits", "spin1:0,0,1"],
    ["interference", "--model", "classical:3", "--slits", "spin1:0,0,1",
     "--state", "uniform", "--effect", "order-unit"],
    ["validate", "--model", "classical:3", "--slits", "spin1:0,0,1"],
    ["experiment", "--spin1", "--model", "quantum:4"],
    ["experiment", "--spin1", "--b", "nan,0,1"],
    ["prop1", "--slits", "spin1:1,1,1e400"],
    ["experiment", "--model", "classical:3", "--state", {"coords": [0.9, 0.9, 0.9]},
     "--shots", "1000"],
    ["interference", "--model", "classical:3", "--effect", "order-unit",
     "--state", {"coords": [0.5, 0.8, -0.3]}],
    ["interference", "--model", "classical:3", "--state", "uniform",
     "--effect", {"coords": [1.5, 0.0, 0.0]}],
    ["interference", "--table", {"k": 2.5, "entries": {"1": 0.1, "2": 0.1, "12": 0.2}}],
    ["interference", "--table", {"k": "3", "entries": three_slit_entries()}],
    ["interference", "--state", {"re": [[0.5, 0.3, 0], [0, 0.5, 0], [0, 0, 0]],
                                 "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}],
    ["interference", "--model", "real_quantum:3", "--effect", "order-unit",
     "--state", {"re": [[0.4, 0, 0], [0, 0.3, 0], [0, 0, 0.3]],
                 "im": [[0, 0.1, 0], [-0.1, 0, 0], [0, 0, 0]]}],
    ["interference", "--model", "classical:9"],
    ["tomography", "--model", "classical:9"],
    ["validate", "--model", custom_model(generators=[[1, 0], [0, 1], [1, 1]]),
     "--slits", "from-model"],
    ["interference", "--model", custom_model(order_unit=[1.0, 1.0]), "--slits", "from-model",
     "--state", "random:1", "--effect", "random:2"],
    ["interference", "--model", custom_model(order_unit=[1, 1, 0]), "--slits", "from-model",
     "--state", "random:1", "--effect", "random:2"],
    ["prop1", "--model", custom_model(order_unit=[1, -1, 1]), "--slits", "from-model"],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"1": "0.1"})}],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"123": True})}],
    ["interference", "--table", {"k": 3, "entries": three_slit_entries(**{"1": 10**400})}],
    ["interference", "--model", "classical:3", "--effect", "order-unit",
     "--state", {"coords": ["1", 0, 0]}],
    ["interference", "--model", "classical:3", "--effect", "order-unit",
     "--state", {"coords": [True, False, False]}],
    ["interference", "--model", {"dimension": 9, "cone": {"type": "quantum", "d": 3.9}}],
    ["interference", "--model", {"dimension": 9, "cone": {"type": "quantum", "d": "3"}}],
    ["interference", "--model", {"dimension": "9", "cone": {"type": "quantum", "d": 3}}],
    ["interference", "--model", {"dimension": 3, "cone": {"type": "classical", "n": True}}],
    ["experiment", "--shots", str(2**63)],
    ["experiment", "--table", "fixture:0.6", "--shots", str(10**20)],
    ["tomography", "--mode", "sampled", "--shots", str(10**20)],
    ["experiment", "--model", {"label": 7, "dimension": 9, "cone": {"type": "quantum", "d": 3}},
     "--state", "random:1"],
    ["validate", "--model", {"label": 7, "dimension": 9, "cone": {"type": "quantum", "d": 3}}],
    ["validate", "--model", custom_model_entry("1", "projection", float("nan")),
     "--slits", "from-model"],
    ["validate", "--model", custom_model_entry("2", "complement", float("inf")),
     "--slits", "from-model"],
    ["validate", "--model", OVERFLOWING_CONE, "--slits", "from-model"],
    ["prop1", "--model", OVERFLOWING_CONE, "--slits", "from-model"],
    ["interference", "--model", OVERFLOWING_CONE, "--slits", "from-model",
     "--state", "random:1", "--effect", "random:2"],
    *[["interference", "--model", custom_model(), "--slits", "from-model",
       "--state", {"coords": [1, 0, 0]}, "--effect", {"coords": e}]
      for e in ([1.01, 0, 0], [-0.01, 0.5, 0.5], [0.5, 0.5, 1.02])],
    ["interference", "--model", custom_model(), "--slits", "from-model",
     "--state", {"coords": [0.5, 0.6, -0.1]}, "--effect", "order-unit"],
    ["validate", "--out", Path("missing/out.json")],
    ["validate", "--out", Path(".")],
    ["experiment", "--shots", "100", "--csv-out", Path("missing/run.csv")],
    ["experiment", "--shots", "100", "--csv-out", Path(".")],
    ["interference", "--state", {"re": np.diag([1.7e308] * 3).tolist(), "im": 0}],
    ["interference", "--model", "classical:3", "--state", {"coords": [1.7e308] * 3},
     "--effect", "order-unit"],
    ["interference", "--state", {"coords": OVERFLOWING_DIAGONAL}, "--effect", "random:1"],
    ["interference", "--state", "random:1", "--effect", {"coords": [1.7e308] * 9}],
    ["validate", "--model", "quantum:x"],
    ["validate", "--model", custom_model(), "--slits", "basis"],
    ["validate", "--model", "quantum:2"],
    ["validate", "--model", "classical:2"],
    ["prop1", "--slits=spin1:1,2"],
    ["prop1", "--slits=spin1:a,b,c"],
    ["prop1", "--slits=spin1:0,0,0"],
    ["tomography", "--model", ROTATED_MODEL, "--slits", "from-model"],
    ["experiment", "--model", ROTATED_MODEL, "--slits", "from-model"],
    ["interference", "--model", "quantum:3", "--state", "uniform"],
    ["experiment", "--model", custom_model(), "--slits", "from-model"],
    ["validate", "--model", "classical:1"],
    ["validate", "--model", {"dimension": 9, "cone": {"type": "quantum", "d": 3},
                             "filters": {"1": {"projection": np.eye(8).tolist(),
                                               "complement": np.eye(9).tolist()}}},
     "--slits", "from-model"],
    ["interference", "--table", {"k": 3, "entries": {key: [p] for key, p
                                                     in three_slit_entries().items()}}],
]
BAD_IDS = ["state-dimension", "classical-state-dimension", "negative-shots",
           "table-negative-shots", "state-seed-not-integer",
           "effect-seed-not-integer", "state-seed-negative",
           "validate-negative-samples", "prop1-negative-samples",
           "negative-sweep", "negative-seed",
           "interference-table-k1", "experiment-table-k1",
           "interference-table-missing", "experiment-table-missing",
           "interference-table-extra-key", "experiment-table-extra-key",
           "experiment-table-unsorted-key", "interference-table-missing-single",
           "table-not-an-object",
           "prop1-spin1-quantum4", "tomography-spin1-quantum4",
           "experiment-spin1-quantum4", "interference-spin1-classical",
           "validate-spin1-classical", "experiment-flag-spin1-quantum4",
           "axis-nan", "axis-infinite", "classical-state-unnormalized",
           "classical-state-outside-cone", "classical-effect-above-one",
           "table-k-not-integer", "table-k-string", "state-not-hermitian",
           "real-state-imaginary-part", "interference-qutrit-fixture-classical9",
           "tomography-qutrit-fixture-classical9", "custom-generators-2-wide",
           "custom-order-unit-2-entries", "custom-order-unit-zero-on-generator",
           "custom-order-unit-negative-on-generator", "table-entry-string",
           "table-entry-bool", "table-entry-int-overflows", "coords-string", "coords-bool",
           "model-d-float", "model-d-string", "model-dimension-string", "model-n-bool",
           "experiment-shots-2^63", "table-shots-1e20", "tomography-shots-1e20",
           "experiment-label-int", "validate-label-int", "filter-nan", "complement-infinity",
           "validate-pairing-overflows", "prop1-pairing-overflows",
           "interference-pairing-overflows", "custom-effect-above-one-on-g1",
           "custom-effect-below-zero-on-g1", "custom-effect-above-one-on-g3",
           "custom-state-outside-cone", "out-in-missing-directory", "out-is-a-directory",
           "csv-out-in-missing-directory", "csv-out-is-a-directory",
           "state-matrix-overflows", "classical-state-overflows",
           "state-matrix-overflows-to-nan", "effect-matrix-overflows-to-nan",
           "model-d-not-a-number", "basis-slits-on-custom-cone", "basis-slits-quantum2",
           "basis-slits-classical2", "spin1-axis-two-numbers", "spin1-axis-not-numbers",
           "spin1-axis-zero", "tomography-rotated-filters", "experiment-rotated-filters",
           "uniform-state-quantum3", "experiment-custom-cone", "classical-model-n1",
           "filter-projection-8x8", "table-entries-lists"]


def materialize(argv, directory):
    """argv with each JSON value replaced by the path of a file holding it,
    and each Path by that path under directory (Path(".") for directory
    itself)."""
    return [arg if isinstance(arg, str) else str(directory / arg) if isinstance(arg, Path)
            else _json_file(directory, arg) for arg in argv]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=BAD_IDS)
def test_bad_arguments_are_input_errors(capsys, tmp_path, argv):
    code = main(materialize(argv, tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", ["state-seed-not-integer", "interference-table-missing",
                                  "prop1-spin1-quantum4", "classical-state-overflows"])
def test_bad_arguments_in_a_fresh_process(tmp_path, case):
    argv = materialize(dict(zip(BAD_IDS, BAD_ARGUMENTS))[case], tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-m", "sorkinlab.cli", *argv], capture_output=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


# a path in a missing directory, a directory, and a missing directory
# written with a trailing slash
@pytest.mark.parametrize("where", ["missing/x", ".", "missing/"])
@pytest.mark.parametrize("bad", ["--out", "--csv-out"])
def test_unwritable_output_leaves_nothing_written(capsys, tmp_path, monkeypatch, bad, where):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda plan: runs.append(plan))
    paths = {"--out": tmp_path / "run.json", "--csv-out": tmp_path / "run.csv"}
    argv = ["experiment", "--shots", "100"]
    for flag, path in paths.items():
        argv += [flag, os.path.join(tmp_path, where) if flag == bad else str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert not any(path.exists() for path in paths.values())
    assert not (tmp_path / "missing").exists()
    assert runs == []


@pytest.mark.parametrize("argv", [
    ["interference", "--model", "real_quantum:4", "--sweep", "5"],
    ["validate", "--model", "quantum:16", "--samples", "5"],
    ["validate", "--model", "quantum:24", "--samples", "5"],
    ["validate", "--model", custom_model(), "--slits", "from-model"],
    ["prop1", "--model", custom_model(), "--slits", "from-model", "--samples", "50"],
    ["interference", "--model", custom_model(), "--slits", "from-model", "--sweep", "20"],
    ["validate", "--model", HUGE_GENERATOR_CONE, "--slits", "from-model"],
    ["validate", "--model", ROTATED_MODEL, "--slits", "from-model"],
], ids=["real-quantum4-sweep", "validate-quantum16", "validate-quantum24",
        "custom-validate", "custom-prop1", "custom-sweep", "custom-validate-huge-generator",
        "rotated-filters-validate"])
def test_runs_succeed(capsys, tmp_path, argv):
    code, out = run(capsys, *materialize(argv, tmp_path))
    assert code == 0
    assert json.loads(out)


def test_scipy_is_loaded_only_for_custom_cone_membership(capsys, tmp_path):
    # a quantum run never needs scipy; a state file on a custom cone is
    # checked with nnls, which imports scipy.optimize on first use
    custom = materialize(["interference", "--model", custom_model(), "--slits", "from-model",
                          "--state", {"coords": [1, 0, 0]}, "--effect", "order-unit"], tmp_path)
    code = ("import contextlib, io, sys\n"
            "from sorkinlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    quantum = main(['prop1', '--model', 'quantum:6', '--samples', '20'])\n"
            "loaded = 'scipy.optimize' in sys.modules\n"
            f"custom = main({custom!r})\n"
            "print(quantum, loaded, custom, 'scipy.optimize' in sys.modules, file=sys.stderr)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.stderr.split() == ["0", "False", "0", "True"]
    assert run(capsys, *custom) == (0, proc.stdout)


def test_largest_shots_run(capsys):
    code, out = run(capsys, "experiment", "--shots", str(2**63 - 1), "--seed", "1")
    assert code == 0
    assert json.loads(out)["record"]["shots_per_setting"] == 2**63 - 1


@pytest.mark.parametrize("reader", ["gone", "head-1"])
def test_closed_stdout_ends_quietly_with_the_command_code(reader):
    # `validate | head -1`: with the reader gone before the output is written
    # every write fails; with head -1 the later writes may
    argv = [sys.executable, "-m", "sorkinlab.cli", "validate", "--model", "quantum:6"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    if reader == "gone":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(write)
        code, err = proc.returncode, proc.stderr
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=300)
    assert (code, err) == (0, b"")


def test_four_slit_table_runs(capsys, tmp_path):
    path = tmp_path / "table.json"
    table = serialize.table_to_dict(
        ProbabilityTable(4, {J: 0.05 * len(J) for J in all_subsets(4)})
    )
    path.write_text(json.dumps(table))
    code, out = run(capsys, "experiment", "--table", str(path), "--shots", "100")
    assert code == 0
    assert len(json.loads(out)["record"]["counts"]) == 15
    code, out = run(capsys, "interference", "--table", str(path))
    assert code == 0
    assert json.loads(out)["k"] == 4 and "i3" not in json.loads(out)


@pytest.mark.parametrize(
    "axis, unscaled",
    [("1e200,1e200,0", "1,1,0"), ("1e-170,1e-170,0", "1,1,0"), ("5e-160,0,0", "1,0,0")],
    ids=["axis-norm-overflows", "axis-norm-underflows", "axis-norm-subnormal"],
)
def test_extreme_axes_match_their_unscaled_axis(capsys, axis, unscaled):
    outs = []
    for a in (axis, unscaled):
        code = main(["experiment", "--spin1", "--b", a, "--d", a, "--shots", "1000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        outs.append(captured.out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["state", "effect"])
def test_coords_file_of_wrong_dimension_is_input_error(capsys, tmp_path, kind):
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"coords": [1.0, 0.0, 0.0]}))
    code, _ = run(capsys, "interference", "--model", "quantum:3", f"--{kind}", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["interference", "experiment"])
def test_table_outside_unit_interval_is_input_error(capsys, tmp_path, command):
    entries = {"1": 0.1, "2": 0.1, "3": -0.3, "12": 0.2, "13": 0.2, "23": 0.2, "123": 1.7}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"k": 3, "entries": entries}))
    code, out = run(capsys, command, "--table", str(path))
    assert code == 2
    assert out == ""


class TestInterference:
    def test_qutrit_fixture_values(self, capsys):
        code, out = run(capsys, "interference")
        assert code == 0
        payload = json.loads(out)
        assert payload["i2"]["12"] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert abs(payload["i3_table"]) < 1e-11
        assert abs(payload["i3_operator"]) < 1e-11
        assert abs(payload["i3_table"] - payload["i3_operator"]) < 1e-11

    def test_qutrit_matrix_files(self, capsys, tmp_path):
        psi = np.ones(3, dtype=complex) / np.sqrt(3.0)
        path = tmp_path / "qutrit.json"
        rho = np.outer(psi, psi.conj())
        path.write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
        code, out = run(capsys, "interference", "--state", str(path), "--effect", str(path))
        assert code == 0
        assert out == run(capsys, "interference")[1]

    def test_sweep(self, capsys):
        code, out = run(
            capsys, "interference", "--sweep", "100", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_abs_i3"] < 1e-9
        assert payload["max_abs_i2"] > 0.0

    def test_custom_cone_effect_on_its_bounds(self, capsys, tmp_path):
        # the CI cone's normalized generators are the unit vectors
        argv = ["interference", "--model", _json_file(tmp_path, custom_model()),
                "--slits", "from-model", "--state", _json_file(tmp_path, {"coords": [0, 0, 1]})]
        code, out = run(capsys, *argv, "--effect", _json_file(tmp_path, {"coords": [0, 0.5, 1]}))
        assert code == 0
        assert json.loads(out)["table"]["entries"]["123"] == 1.0

    def test_sweep_zero(self, capsys):
        code, out = run(capsys, "interference", "--sweep", "0", "--seed", "7")
        assert code == 0
        assert json.loads(out) == {
            "sweep": 0, "seed": 7, "sup_abs_i3": 0.0, "max_abs_i2": 0.0
        }

    def test_order_unit_effect(self, capsys):
        code, out = run(capsys, "interference", "--model", "classical:3", "--state", "uniform",
                        "--effect", "order-unit")
        assert code == 0
        payload = json.loads(out)
        assert [*payload["i2"].values(), payload["i3_table"], payload["i3_operator"]] == [0.0] * 5

    def test_custom_cone_random_pair(self, capsys, tmp_path):
        code, out = run(capsys, "interference", "--model", _json_file(tmp_path, custom_model()),
                        "--slits", "from-model", "--state", "random:1", "--effect", "random:2")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["i3_table"] - payload["i3_operator"]) <= 1e-12

    def test_raw_table_fixture(self, capsys):
        code, out = run(capsys, "interference", "--table", "fixture:0.6")
        assert code == 0
        assert json.loads(out)["i3"] == pytest.approx(0.6, abs=1e-15)


class TestProp1:
    @pytest.mark.parametrize("model", ["quantum:3", "real_quantum:3", "classical:3",
                                       "classical:4"])
    def test_all_hold(self, capsys, model):
        code, out = run(capsys, "prop1", "--model", model, "--samples", "100")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["verdicts"].values())

    @pytest.mark.parametrize("model", ["quantum:16", "quantum:24", "quantum:32",
                                       "real_quantum:16"])
    def test_zero_defect_supremum_is_zero(self, capsys, model):
        # basis slits have an exactly zero defect operator
        code, out = run(capsys, "prop1", "--model", model, "--samples", "20")
        assert code == 0
        assert '"sup_abs_i3": 0.0,' in out and json.loads(out)["samples_used"] == 20

    def test_tilted_spin1_supremum_is_rounding(self, capsys):
        # a defect of ~6e-16 on every pair drawn
        code, out = run(capsys, "prop1", "--slits=spin1:0.6,0,0.8", "--samples", "20")
        assert code == 0
        assert 0.0 < json.loads(out)["sup_abs_i3"] < 1e-12


class TestTomography:
    def test_exact(self, capsys):
        code, out = run(capsys, "tomography", "--mode", "exact")
        assert code == 0
        assert json.loads(out)["reconstruction_error"] < 1e-9

    def test_sampled_reproducible(self, capsys):
        args = ["tomography", "--mode", "sampled", "--shots", "10000", "--seed", "9"]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sampled_error_decreases(self, capsys):
        _, out_small = run(
            capsys, "tomography", "--mode", "sampled", "--shots", "1000", "--seed", "3"
        )
        _, out_big = run(
            capsys, "tomography", "--mode", "sampled", "--shots", "1000000", "--seed", "3"
        )
        err_small = json.loads(out_small)["reconstruction_error"]
        err_big = json.loads(out_big)["reconstruction_error"]
        assert err_big < err_small


class TestExperiment:
    def test_spin1_z_scores(self, capsys):
        code, out = run(
            capsys,
            "experiment",
            "--spin1",
            "--b", "0,0,1",
            "--d", "1,0,0",
            "--state", "random:1",
            "--shots", "100000",
            "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        for entry in payload["estimate"]["per_outcome"]:
            assert abs(entry["z"]) < 5.0

    def test_axis_with_leading_minus(self, capsys):
        args = ["--state", "random:1", "--shots", "1000", "--seed", "2"]
        code, out = run(capsys, "experiment", "--spin1", "--b", "-0.48,0.6,0.64",
                        "--d", "-.6,0,8e-1", *args)
        assert code == 0
        _, joined = run(capsys, "experiment", "--spin1", "--b=-0.48,0.6,0.64",
                        "--d=-.6,0,8e-1", *args)
        assert out == joined

    def test_table_high_z(self, capsys):
        code, out = run(
            capsys,
            "experiment",
            "--table", "fixture:0.6",
            "--shots", "1000000",
            "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["per_outcome"][0]["z"] > 100

    def test_zero_shots_degenerate(self, capsys):
        code, out = run(
            capsys, "experiment", "--shots", "0", "--state", "random:1", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["estimate"]["degenerate"] is True

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "rec.csv"
        code, _ = run(
            capsys,
            "experiment",
            "--shots", "100",
            "--state", "random:1",
            "--csv-out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting,outcome,count,shots,frequency"

    def test_byte_identical_outputs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _ = run(
                capsys,
                "experiment",
                "--shots", "1000",
                "--state", "random:4",
                "--seed", "11",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserReuse:
    """main builds its parser once per process; reusing it changes no output."""

    SEQUENCE = [
        ["interference", "--sweep", "5", "--seed", "3"],
        ["interference"],
        ["tomography", "--mode", "sampled", "--shots", "1000", "--seed", "4"],
        ["tomography"],
        ["validate", "--model", "classical:3", "--samples", "5", "--seed", "2"],
        ["interference", "--state", "random:abc"],
        ["validate", "--samples", "5"],
        ["prop1", "--model", "real_quantum:3", "--samples", "5", "--seed", "6"],
        ["prop1", "--samples", "5"],
        ["experiment", "--spin1", "--b=-0.6,0,0.8", "--d", "1,0,0",
         "--state", "random:1", "--shots", "1000", "--seed", "2"],
        ["experiment", "--shots", "1000"],
    ]

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        reused = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert built == [1]
        fresh = []
        for argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run(capsys, *argv))
        assert len(built) == 1 + len(self.SEQUENCE)
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]

    def test_out_then_default_prints(self, capsys, tmp_path):
        path, csv = tmp_path / "a.json", tmp_path / "a.csv"
        argv = ["experiment", "--shots", "100", "--state", "random:1"]
        code, out = run(capsys, *argv, "--out", str(path), "--csv-out", str(csv))
        assert code == 0 and out == ""
        csv.unlink()
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == path.read_bytes()
        assert not csv.exists()


ARGV_MODELS = ["quantum:2", "quantum:3", "quantum:4", "real_quantum:2", "real_quantum:3",
               "real_quantum:4", "classical:2", "classical:3", "classical:4",
               "octonion:3", "quantum:x", "quantum:0", "classical:-1"]
ARGV_AXES = ["0,0,1", "0.48,-0.6,0.64", "-1,0,0", "0,0,0", "nan,0,1", "1,1,1e400",
             "1e200,1e200,0", "5e-160,0,0", "1,2", "a,b,c", "-inf,0,1"]
ARGV_VECTORS = ["fixture:qutrit", "uniform", "order-unit", "random:0", "random:7",
                "random:-1", "random:abc", "junk"]
TABLE_KEYS = ["1", "2", "3", "4", "12", "13", "23", "123", "14", "1234", "21",
              "45", "0", "", "ab", "11"]


def _json_file(directory, value) -> str:
    """Write a JSON value to a fresh file and return its path."""
    path = directory / f"{len(list(directory.iterdir()))}.json"
    path.write_text(json.dumps(value))
    return str(path)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """JSON inputs for generated argv: models with and without filters (a
    quantum:3 one and a 3-coordinate custom cone, each with malformed
    variants), and state coordinates, good and bad; and the valid custom
    cone's path on its own."""
    directory = tmp_path_factory.mktemp("argv")
    model, ss, _, _ = qutrit_fixture()
    named = {subset_key(J): ss.filter_for(J) for J in all_subsets(3)}
    good = serialize.model_to_dict(model, named)
    bad = json.loads(json.dumps(good))
    bad["filters"]["123"]["projection"][0][0] = 2.0
    short = json.loads(json.dumps(good))
    short["filters"]["1"]["projection"] = [[1.0]]
    custom = {"label": "c", "dimension": 2, "order_unit": [1, 1],
              "cone": {"type": "custom", "generators": [[1, 0], [0, 1]]}}
    custom_cones = [custom_model(generators=[[1, 0], [0, 1], [1, 1]]),
                    custom_model(order_unit=[1.0, 1.0]), custom_model(order_unit=[1, 1, 0]),
                    custom_model(order_unit=[1, -1, 1]), custom_model(generators=[])]
    values = [good, bad, short, custom, *custom_cones, {"cone": 5}, [1, 2],
              {"coords": [1 / 3, 0, 0, 0, 0, 0, 0, 0, 0]}, {"coords": [float("nan")] * 9},
              {"coords": [5.0] + [0.0] * 8}, {"coords": "x"}, {"coords": [0.9, 0.9, 0.9]},
              {"coords": [0.5, 0.8, -0.3]}, {"coords": [0.0, 1.0] + [0.0] * 7},
              {"coords": [0.2, 0.1, 0.5]}, {"coords": ["1", 0, 0]}, {"coords": [True, 0, 0]}]
    paths = [_json_file(directory, v) for v in values] + [str(directory / "missing.json")]
    return paths, _json_file(directory, custom_model()), directory


@st.composite
def generated_argv(draw, files):
    paths, custom, directory = files
    command = draw(st.sampled_from(["validate", "interference", "prop1", "tomography",
                                    "experiment"]))
    argv = [command]
    count = st.integers(-2, 6).map(str)
    # about half of the runs take the valid custom cone, always with --slits
    # and most often with its own filters, so that custom-cone sampling is
    # reached
    model = draw(st.sampled_from(ARGV_MODELS + paths) | st.just(custom))
    if model == custom or draw(st.booleans()):
        argv += ["--model", model]
    slits = st.sampled_from(["basis", "from-model", "junk"])
    slits = slits | st.sampled_from(ARGV_AXES).map(lambda a: "spin1:" + a)
    if model == custom:
        slits = st.just("from-model") | slits
    if model == custom or draw(st.booleans()):
        argv += ["--slits", draw(slits)]
    argv += ["--seed", draw(st.integers(-1, 9).map(str))]
    # an output file, one in a missing directory, or a directory
    out = st.sampled_from([str(directory / "out"), str(directory / "missing" / "out"),
                           str(directory)])
    if draw(st.booleans()):
        argv += ["--out", draw(out)]
    if command == "experiment" and draw(st.booleans()):
        argv += ["--csv-out", draw(out)]
    vector = st.sampled_from(ARGV_VECTORS + paths)
    if command in ("validate", "prop1"):
        argv += ["--samples", draw(count)]
    if command in ("interference", "tomography", "experiment"):
        argv += ["--state", draw(vector)]
    if command == "interference":
        argv += ["--effect", draw(vector)]
        if draw(st.booleans()):
            argv += ["--sweep", draw(count)]
    if command == "tomography":
        argv += ["--mode", draw(st.sampled_from(["exact", "sampled"]))]
        argv += ["--shots", draw(st.integers(-1, 1000).map(str))]
    if command == "experiment":
        argv += ["--shots", draw(st.integers(-1, 1000).map(str))]
        if draw(st.booleans()):
            argv += ["--spin1", "--b", draw(st.sampled_from(ARGV_AXES)),
                     "--d", draw(st.sampled_from(ARGV_AXES))]
    if command in ("interference", "experiment") and draw(st.booleans()):
        entries = st.dictionaries(
            st.sampled_from(TABLE_KEYS),
            st.floats(-0.5, 1.5) | st.sampled_from([None, "0.5", float("nan")]),
            max_size=16,
        )
        table = {"k": draw(st.integers(0, 5) | st.sampled_from([None, "3", 2.5])),
                 "entries": draw(entries)}
        if draw(st.booleans()):  # a complete table of k slits
            k = draw(st.integers(2, 4))
            table = {"k": k, "entries": {subset_key(J): draw(st.floats(0, 1))
                                         for J in all_subsets(k)}}
        argv += ["--table", _json_file(directory, table)]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_generated_argv_keeps_the_exit_code_contract(argv_files, data):
    """Any argv exits 0, 1 or 2 (argparse's own errors by SystemExit 2) and
    never ends in another exception."""
    argv = data.draw(generated_argv(argv_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
