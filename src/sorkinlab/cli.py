"""Command-line interface.

Commands: validate, interference, prop1, tomography, experiment.
Exit codes: 0 success, 1 validation/verdict failure, 2 input error.
Output files contain only the deterministic payload; the timestamp is
logged to stderr so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
import time
from functools import cache

import numpy as np

from . import fixtures, serialize
from .gpt import (
    EPS_TOL,
    ModelSpace,
    random_effect,
    random_state,
    sample_states,
    validate_effect,
    validate_filters,
)
from .interference import (
    InvalidSlitSystem,
    SlitSystem,
    all_subsets,
    i3_from_table,
    i3_operator,
    ik_from_table,
    pair_interference,
    prop1_verify,
    random_tables,
    signed_subset_sum,
    slit_system,
    subset_key,
    table_from_system,
)
from .models import basis_projectors, model_builder, projector_slit_system, spin1_feynman_setup
from .experiment import ExperimentPlan, estimate_i3, record_from_table, run_experiment
from .tomography import tomography_roundtrip


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def resolve_model(spec: str) -> tuple[ModelSpace, dict]:
    """'quantum:3' / 'real_quantum:3' / 'classical:3' or a JSON model file."""
    if spec.endswith(".json"):
        try:
            return serialize.model_from_dict(_load_json(spec))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad model file {spec}: {exc}") from exc
    kind, _, arg = spec.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise InputError(f"bad model spec {spec!r}")
    try:
        return model_builder(kind)(n), {}
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def resolve_slits(spec: str, model: ModelSpace, named_filters: dict) -> SlitSystem:
    """'basis', 'spin1:bx,by,bz', or filters carried by the model file."""
    if spec == "basis":
        if model.slit_dtype is None:
            raise InputError(f"basis slits are not defined for {model.kind} cones")
        if model.d < 3:
            raise InputError(f"basis slits need {model.size_key} >= 3")
        pis = basis_projectors(model.d, model.slit_dtype)[:3]
        return projector_slit_system(pis, model)
    if spec.startswith("spin1:"):
        return _spin1_system(model, spec.split(":", 1)[1])[0]
    if spec == "from-model":
        names = {subset_key(J): J for J in all_subsets(3)}
        if not names.keys() <= named_filters.keys():
            raise InputError("model file must name filters " + ", ".join(sorted(names)))
        return slit_system(model, {J: named_filters[name] for name, J in names.items()})
    raise InputError(f"unknown slit spec {spec!r}")


def _spin1_system(model: ModelSpace, b: str, d: str | None = None):
    """The slit system of spin-1 slits along axis b and, given an axis d, the
    spin-1 detector effects along d (None without it); both need the
    quantum:3 model."""
    if model.kind != "quantum" or model.d != 3:
        raise InputError("spin-1 slits need --model quantum:3")
    axis = _parse_vec3(b)
    slits, detectors = spin1_feynman_setup(axis, None if d is None else _parse_vec3(d))
    return projector_slit_system(slits, model), detectors


def _parse_vec3(text: str) -> np.ndarray:
    """The unit vector along a nonzero, finite 'x,y,z'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated numbers, got {text!r}")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise InputError(f"bad vector {text!r}")
    if not np.isfinite(v).all():
        raise InputError(f"vector {text!r} has no finite length")
    if not v.any():
        raise InputError("axis must be nonzero")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if math.isinf(norm) or norm < np.sqrt(np.finfo(float).tiny):
        # the sum of squares over- or underflows: scale the largest component to 1 first
        v = v / np.abs(v).max()
        norm = np.linalg.norm(v)
    return v / norm


def _coords_from_file(spec: str, model: ModelSpace) -> np.ndarray:
    """The model's coordinates from a JSON file holding 'coords' or a matrix
    're'/'im'."""
    d = _load_json(spec)
    try:
        if "coords" in d:
            coords = serialize.read_numbers(d["coords"])
        elif "re" in d:
            mat = serialize.hermitian_from_dict(d)
            # embed keeps only the Hermitian (symmetric) part; reject the rest
            skew = np.linalg.norm(mat - mat.conj().T)
            if skew > EPS_TOL * max(1.0, np.linalg.norm(mat)):
                raise InputError(f"matrix in {spec} is not Hermitian")
            coords = model.embed(mat)
            if model.slit_dtype is float and np.any(mat.imag):
                raise InputError(f"matrix in {spec} has an imaginary part on a real model")
        else:
            raise InputError(f"file {spec} needs 'coords' or 're'/'im'")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad file {spec}: {exc}") from exc
    if coords.shape != (model.dimension,):
        raise InputError(
            f"{spec!r} has shape {coords.shape}; model {model.label} needs "
            f"{model.dimension} coordinates"
        )
    if not np.isfinite(coords).all():
        raise InputError(f"file {spec} has coordinates that are not finite")
    return coords


def _random_seed(spec: str) -> int:
    """The seed of a 'random:<seed>' spec."""
    try:
        seed = int(spec.split(":", 1)[1])
    except ValueError:
        raise InputError(f"bad seed in {spec!r}: expected an integer")
    if seed < 0:
        raise InputError(f"random:<seed> must be >= 0, got {seed}")
    return seed


def _resolve_vector(spec: str, model: ModelSpace, noun: str, draw) -> np.ndarray:
    """The coordinates of 'fixture:qutrit', 'random:<seed>' or a JSON file
    as a noun ("state" or "effect"); draw makes the random ones."""
    if spec == "fixture:qutrit":
        if model.kind != "quantum" or model.d != 3:
            raise InputError("fixture:qutrit needs a quantum:3 model")
        return model.embed(fixtures.qutrit_projector())
    if spec.startswith("random:"):
        return draw(model, seed=_random_seed(spec))
    if spec.endswith(".json"):
        # finite file numbers can overflow in these sums; the inf or NaN
        # they give fails the checks, which refuse the file
        with np.errstate(over="ignore", invalid="ignore"):
            v = _coords_from_file(spec, model)
            if noun == "state":
                valid = model.contains(v) and 0.0 < model.order_unit @ v <= 1.0 + EPS_TOL
                need = "in the cone with normalization in (0, 1]"
            else:
                valid = validate_effect(v, model).passed
                need = "between 0 and the order unit"
        if not valid:
            raise InputError(f"{spec} is not a valid {noun}: it must be {need}")
        return v
    raise InputError(f"unknown {noun} spec {spec!r}")


def resolve_state(spec: str, model: ModelSpace) -> np.ndarray:
    if spec == "uniform":
        if model.kind != "classical":
            raise InputError("'uniform' is a classical fixture")
        return np.full(model.dimension, 1.0 / model.dimension)
    return _resolve_vector(spec, model, "state", random_state)


def resolve_effect(spec: str, model: ModelSpace) -> np.ndarray:
    if spec == "order-unit":
        return model.order_unit.copy()
    return _resolve_vector(spec, model, "effect", random_effect)


def resolve_table(spec: str):
    if spec == "fixture:0.6":
        return fixtures.table_06()
    try:
        return serialize.table_from_dict(_load_json(spec))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad table file {spec}: {exc}") from exc


def _print(text: str) -> None:
    """Print to stdout.  A reader that stops early (``| head``) closes the
    pipe: the rest of the output, and the flush at exit, then go to
    os.devnull, so the command still ends with its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(path: str, text: str) -> None:
    """Write an output file (--out, --csv-out) over its old bytes, then cut
    a regular file to the new length; a path that cannot be written is bad
    input.  Opening an existing file with O_TRUNC is slow on ext4, which
    frees the file's blocks only to allocate them again; ftruncate fails
    on devices such as /dev/null, which need no cut."""
    data = memoryview(text.encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def emit(payload: dict, args) -> None:
    text = serialize.dumps(payload)
    if args.out is not None:
        _write(args.out, text + "\n")
        print(f"# wrote {args.out} at {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=sys.stderr)
    else:
        _print(text)


def cmd_validate(args) -> int:
    model, named = resolve_model(args.model)
    ss = resolve_slits(args.slits, model, named)
    states = sample_states(model, args.samples, args.seed)
    reports = [ss.report.to_dict()]  # checked when the system was built
    subsets = all_subsets(ss.k)
    for J, rep in zip(subsets, validate_filters([ss.derived[J] for J in subsets], model, states)):
        d = rep.to_dict()
        d["subject"] = f"filter_{subset_key(J)}"
        reports.append(d)
    passed = all(r["passed"] for r in reports)
    emit({"passed": passed, "reports": reports}, args)
    return 0 if passed else 1


def cmd_interference(args) -> int:
    if args.table is not None:
        t = resolve_table(args.table)
        ik = ik_from_table(t)
        payload = {"source": "table", "k": t.k, "ik": ik}
        if t.k == 3:
            payload["i3"] = ik
        emit(payload, args)
        return 0
    model, named = resolve_model(args.model)
    if args.sweep is not None:
        ss = resolve_slits(args.slits, model, named)
        sup_i3 = 0.0
        max_i2 = 0.0
        for probs in random_tables(ss, args.sweep, args.seed):
            sup_i3 = max(sup_i3, float(np.abs(signed_subset_sum(probs, ss.k)).max()))
            for i2 in pair_interference(probs, ss.k).values():
                max_i2 = max(max_i2, float(np.abs(i2).max()))
        emit({"sweep": args.sweep, "seed": args.seed,
              "sup_abs_i3": sup_i3, "max_abs_i2": max_i2}, args)
        return 0
    s = resolve_state(args.state, model)
    r = resolve_effect(args.effect, model)
    ss = resolve_slits(args.slits, model, named)
    t = table_from_system(r, ss, s)
    payload = {
        "i2": {subset_key(J): i2 for J, i2 in pair_interference(t.entries, t.k).items()},
        "i3_table": i3_from_table(t),
        "i3_operator": i3_operator(r, ss, s),
        "table": serialize.table_to_dict(t),
    }
    emit(payload, args)
    return 0


def cmd_prop1(args) -> int:
    model, named = resolve_model(args.model)
    ss = resolve_slits(args.slits, model, named)
    report = prop1_verify(ss, n_samples=args.samples, seed=args.seed)
    emit(report.to_dict(), args)
    return 0 if report.consistent else 1


def cmd_tomography(args) -> int:
    model, named = resolve_model(args.model)
    if model.face_settings is None:
        raise InputError(f"tomography has no measurement family for {model.kind} cones")
    s = resolve_state(args.state, model)
    ss = resolve_slits(args.slits, model, named)
    try:
        result = tomography_roundtrip(ss, s, mode=args.mode, shots=args.shots, seed=args.seed)
    except ValueError as exc:  # a model-file family with no complete face measurement
        raise InputError(str(exc)) from exc
    emit(result.to_dict(), args)
    return 0


def cmd_experiment(args) -> int:
    if args.table is not None:
        record = record_from_table(resolve_table(args.table), args.shots, args.seed)
    else:
        model, named = resolve_model(args.model)
        if model.detector is None:
            raise InputError(f"experiments on {model.kind} cones take a --table")
        source = resolve_state(args.state, model)
        if args.spin1:
            ss, detectors = _spin1_system(model, args.b, args.d)
            detector = model.embed(detectors)
        else:
            ss = resolve_slits(args.slits, model, named)
            detector = model.detector()
        plan = ExperimentPlan(ss, detector, source, args.shots, args.seed)
        try:
            record = run_experiment(plan)
        except ValueError as exc:  # a source state giving probabilities outside [0, 1]
            raise InputError(str(exc)) from exc
    if args.csv_out is not None:  # written before the JSON payload
        _write(args.csv_out, serialize.record_to_csv(record))
    emit({"estimate": estimate_i3(record).to_dict(), "record": serialize.record_to_dict(record)},
         args)
    return 0


# The options of the CLI in parser order, with their argparse keywords; the
# COUNTS are read as integers and refused below 0 before any work.
COUNTS = ("seed", "samples", "sweep", "shots")
OPTIONS = {
    "model": {}, "slits": {}, "seed": {}, "out": {}, "samples": {}, "state": {}, "effect": {},
    "mode": {"choices": ["exact", "sampled"]}, "shots": {}, "spin1": {"action": "store_true"},
    "b": {"help": "filter axis bx,by,bz of --spin1 (default 0,0,1)"},
    "d": {"help": "detector axis dx,dy,dz of --spin1 (default 0,0,1)"},
    "table": {"help": "raw probability table (JSON path or fixture:0.6)"},
    "sweep": {"help": "number of random (state, effect) pairs"}, "csv_out": {},
}

# Per command: its help, its handler and its modes.  A mode is keyed by the
# words that choose it ('--name' or '--name value'), the first given key
# winning, and the last mode, keyed "", is taken otherwise.  Each mode maps
# the options it reads to their defaults; the command's others are refused.
_SYSTEM = {"model": "quantum:3", "slits": "basis", "out": None}  # a run on a slit system
COMMANDS = {
    "validate": ("check filter axioms and product relations", cmd_validate,
                 {"": {**_SYSTEM, "seed": 0, "samples": 200}}),
    "interference": ("I2 / I3 / Ik from a system or a raw table", cmd_interference, {
        "--table": {"out": None, "table": None},
        "--sweep": {**_SYSTEM, "seed": 0, "sweep": None},
        "": {**_SYSTEM, "state": "fixture:qutrit", "effect": "fixture:qutrit"}}),
    "prop1": ("three-way no-third-order equivalence check", cmd_prop1,
              {"": {**_SYSTEM, "seed": 0, "samples": 500}}),
    "tomography": ("two-slit-filtering state reconstruction", cmd_tomography, {
        "--mode sampled": {**_SYSTEM, "seed": 0, "state": "fixture:qutrit", "mode": "sampled",
                           "shots": 100000},
        "": {**_SYSTEM, "state": "fixture:qutrit", "mode": "exact"}}),
    "experiment": ("seeded Monte Carlo seven-setting run", cmd_experiment, {
        "--table": {"seed": 0, "out": None, "shots": 100000, "table": None, "csv_out": None},
        "--spin1": {"model": "quantum:3", "seed": 0, "out": None, "state": "random:0",
                    "shots": 100000, "spin1": True, "b": "0,0,1", "d": "0,0,1", "csv_out": None},
        "": {**_SYSTEM, "seed": 0, "state": "random:0", "shots": 100000, "csv_out": None}}),
}


@cache
def _flags(command: str) -> dict:
    """The options of a command, keyed by their flags ('--csv-out'), in
    parser order."""
    modes = COMMANDS[command][2]
    return {"--" + name.replace("_", "-"): name for name in OPTIONS
            if any(name in mode for mode in modes.values())}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sorkinlab",
        description="Third-order interference and two-slit-filtering tomography",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in COMMANDS.items():
        # an option not given is left out of the namespace: main tells it apart
        sp = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        for flag, name in _flags(command).items():
            sp.add_argument(flag, **({"type": int} if name in COUNTS else {}), **OPTIONS[name])
    return p


_parser: argparse.ArgumentParser | None = None

_NUMBER = r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_TRIPLE = re.compile(rf"{_NUMBER},{_NUMBER},{_NUMBER}")


def _join_axes(argv: list[str]) -> list[str]:
    """Write '--b x,y,z' and '--d x,y,z' as '--b=x,y,z': argparse reads a
    value with a leading minus, as in '--b -0.5,0,1', as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--b", "--d") and _TRIPLE.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _read_exact(command: str, words: list[str]) -> dict | None:
    """The options words give to command, as its argparse parser reads
    them, when every word is an exact '--name value', '--name=value' or
    '--spin1' of the command; None otherwise.

    A separate value that starts with '-' is declined too, as are a count
    int() refuses and a --mode outside its choices: argparse then reads the
    words and prints their errors."""
    flags = _flags(command)
    given = {}
    words = iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        name = flags.get(flag)
        if name is None:  # '--', a prefix, '-h' or no option at all
            return None
        if name == "spin1":
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
        if value == "--":  # argparse drops it from '--name=--'
            return None
        if name in COUNTS:
            try:
                value = int(value)
            except ValueError:
                return None
        choices = OPTIONS[name].get("choices")
        if choices is not None and value not in choices:
            return None
        given[name] = value
    return given


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command argv names and the options given to it, as
    build_parser().parse_args(argv) reads them.

    Words made only of a command's exact options are read directly (see
    _read_exact); the full parser reads any other argv, and its usage and
    errors are then the ones printed."""
    global _parser
    if argv and argv[0] in COMMANDS:
        given = _read_exact(argv[0], argv[1:])
        if given is not None:
            return argv[0], given
    if _parser is None:  # built on the first call, then reused
        _parser = build_parser()
    given = vars(_parser.parse_args(argv))
    return given.pop("command"), given


def main(argv=None) -> int:
    command, given = _parse(_join_axes(sys.argv[1:] if argv is None else list(argv)))
    _, handler, modes = COMMANDS[command]
    words = {f"--{name}" for name in given} | {f"--{name} {v}" for name, v in given.items()}
    key = next(key for key in modes if not key or key in words)
    try:
        # refuse an option the chosen mode does not read, then fill in its defaults
        for name in OPTIONS:  # in parser order
            if name in given and name not in modes[key]:
                where = key or "without " + " or ".join(filter(None, modes))
                raise InputError(f"--{name.replace('_', '-')} is not read by {command} {where}")
        opts = {**modes[key], **given}
        args = argparse.Namespace(**{**dict.fromkeys(OPTIONS), **opts})
        # refuse a bad count before any work: numpy needs seeds >= 0 and int64 shots
        for name in filter(opts.__contains__, COUNTS):
            if opts[name] < 0:
                raise InputError(f"--{name} must be >= 0, got {opts[name]}")
            if name == "shots" and opts[name] > 2**63 - 1:
                raise InputError(f"--shots must be <= {2**63 - 1}, got {opts[name]}")
        # nor an output path that cannot be a file
        outputs = {flag: path for flag, path in (("--out", args.out), ("--csv-out", args.csv_out))
                   if path is not None}
        for flag, path in outputs.items():
            if not path:
                raise InputError(f"{flag} needs a file path, got ''")
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise InputError(f"cannot write {path}: not a file in an existing directory")
        paths = list(outputs.values())
        if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise InputError(f"--out and --csv-out name the same file {paths[0]}")
        # nor one that would overwrite a file this run reads
        reads = [opts.get(name) for name in ("model", "state", "effect")]
        reads = [spec for spec in reads if spec and spec.endswith(".json")]
        if opts.get("table") not in (None, "fixture:0.6"):  # any other table is a file
            reads.append(opts["table"])
        if paths and reads:
            inputs = {os.path.realpath(spec) for spec in reads}
            for path in paths:
                if os.path.realpath(path) in inputs:
                    raise InputError(f"cannot write {path}: it is an input file of this run")
        try:
            return handler(args)
        except InvalidSlitSystem as exc:
            # constructed but invalid filters: a validation failure, not bad input
            emit({"passed": False, "error": str(exc)}, args)
            return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
