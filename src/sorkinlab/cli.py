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
import sys
import time
from pathlib import Path

import numpy as np

from . import fixtures, serialize
from .gpt import (
    EPS_TOL,
    ModelSpace,
    random_effect,
    random_state,
    sample_states,
    validate_effect,
    validate_filter,
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
    except (OSError, json.JSONDecodeError) as exc:
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
        if model.kind == "custom":
            raise InputError("basis slits are not defined for custom cones")
        if model.d < 3:
            raise InputError("classical basis slits need n >= 3" if model.kind == "classical"
                             else "basis slits need d >= 3")
        pis = basis_projectors(model.d, complex if model.kind == "quantum" else float)[:3]
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
    """The slit system of spin-1 slits along axis b and the spin-1 detector
    effects along axis d (default b); both need the quantum:3 model."""
    if model.kind != "quantum" or model.d != 3:
        raise InputError("spin-1 slits need --model quantum:3")
    axis = _parse_vec3(b)
    slits, detectors = spin1_feynman_setup(axis, axis if d is None else _parse_vec3(d))
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
            if model.kind == "real_quantum" and np.any(mat.imag):
                raise InputError(f"matrix in {spec} has an imaginary part on a real model")
            coords = model.embed(mat)
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
    return resolve_count(seed, "random:<seed>")


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


def resolve_count(n: int, name: str) -> int:
    if n < 0:
        raise InputError(f"{name} must be >= 0, got {n}")
    return n


def resolve_shots(n: int) -> int:
    """--shots, at most 2^63 - 1: numpy draws the counts as int64."""
    if n > 2**63 - 1:
        raise InputError(f"--shots must be <= {2**63 - 1}, got {n}")
    return resolve_count(n, "--shots")


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
    """Write an output file (--out, --csv-out); a path that cannot be
    written is bad input."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def emit(payload: dict, args) -> None:
    text = serialize.dumps(payload)
    if args.out:
        _write(args.out, text + "\n")
        print(f"# wrote {args.out} at {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=sys.stderr)
    else:
        _print(text)


def cmd_validate(args) -> int:
    n_samples = resolve_count(args.samples, "--samples")
    model, named = resolve_model(args.model)
    ss = resolve_slits(args.slits, model, named)
    states = sample_states(model, n_samples, args.seed)
    reports = [ss.report.to_dict()]  # checked when the system was built
    for J in all_subsets(ss.k):
        rep = validate_filter(ss.derived[J], model, states)
        d = rep.to_dict()
        d["subject"] = f"filter_{subset_key(J)}"
        reports.append(d)
    passed = all(r["passed"] for r in reports)
    emit({"passed": passed, "reports": reports}, args)
    return 0 if passed else 1


def cmd_interference(args) -> int:
    if args.table:
        t = resolve_table(args.table)
        ik = ik_from_table(t)
        payload = {"source": "table", "k": t.k, "ik": ik}
        if t.k == 3:
            payload["i3"] = ik
        emit(payload, args)
        return 0
    model, named = resolve_model(args.model)
    ss = resolve_slits(args.slits, model, named)
    if args.sweep is not None:
        sup_i3 = 0.0
        max_i2 = 0.0
        for probs in random_tables(ss, resolve_count(args.sweep, "--sweep"), args.seed):
            sup_i3 = max(sup_i3, float(np.abs(signed_subset_sum(probs, ss.k)).max()))
            for i2 in pair_interference(probs, ss.k).values():
                max_i2 = max(max_i2, float(np.abs(i2).max()))
        emit({"sweep": args.sweep, "seed": args.seed,
              "sup_abs_i3": sup_i3, "max_abs_i2": max_i2}, args)
        return 0
    s = resolve_state(args.state, model)
    r = resolve_effect(args.effect, model)
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
    n_samples = resolve_count(args.samples, "--samples")
    model, named = resolve_model(args.model)
    ss = resolve_slits(args.slits, model, named)
    report = prop1_verify(ss, n_samples=n_samples, seed=args.seed)
    emit(report.to_dict(), args)
    return 0 if report.consistent else 1


def cmd_tomography(args) -> int:
    model, named = resolve_model(args.model)
    if model.kind == "custom":
        raise InputError("tomography has no measurement family for custom cones")
    ss = resolve_slits(args.slits, model, named)
    s = resolve_state(args.state, model)
    try:
        result = tomography_roundtrip(
            ss, s, mode=args.mode, shots=resolve_shots(args.shots), seed=args.seed
        )
    except ValueError as exc:  # a model-file family with no complete face measurement
        raise InputError(str(exc)) from exc
    emit(result.to_dict(), args)
    return 0


def cmd_experiment(args) -> int:
    shots = resolve_shots(args.shots)
    if args.table:
        record = record_from_table(resolve_table(args.table), shots, args.seed)
    else:
        model, named = resolve_model(args.model)
        if args.spin1:
            ss, detectors = _spin1_system(model, args.b, args.d)
            detector = model.embed(np.array(detectors))
        else:
            ss = resolve_slits(args.slits, model, named)
            if model.kind == "custom":
                raise InputError("experiments on custom cones take a --table")
            detector = (np.eye(model.d) if model.kind == "classical"
                        else model.embed(np.array(basis_projectors(model.d))))
        plan = ExperimentPlan(
            slits=ss,
            detector=detector,
            source_state=resolve_state(args.state, model),
            shots_per_setting=shots,
            seed=args.seed,
        )
        try:
            record = run_experiment(plan)
        except ValueError as exc:  # a source state giving probabilities outside [0, 1]
            raise InputError(str(exc)) from exc
    if args.csv_out:  # written before the JSON payload
        _write(args.csv_out, serialize.record_to_csv(record))
    emit({"estimate": estimate_i3(record).to_dict(), "record": serialize.record_to_dict(record)},
         args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sorkinlab",
        description="Third-order interference and two-slit-filtering tomography",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", default="quantum:3")
        sp.add_argument("--slits", default="basis")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")

    sp = sub.add_parser("validate", help="check filter axioms and product relations")
    common(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("interference", help="I2 / I3 / Ik from a system or a raw table")
    common(sp)
    sp.add_argument("--state", default="fixture:qutrit")
    sp.add_argument("--effect", default="fixture:qutrit")
    sp.add_argument("--table", help="raw probability table (JSON path or fixture:0.6)")
    sp.add_argument("--sweep", type=int, help="number of random (state, effect) pairs")
    sp.set_defaults(func=cmd_interference)

    sp = sub.add_parser("prop1", help="three-way no-third-order equivalence check")
    common(sp)
    sp.add_argument("--samples", type=int, default=500)
    sp.set_defaults(func=cmd_prop1)

    sp = sub.add_parser("tomography", help="two-slit-filtering state reconstruction")
    common(sp)
    sp.add_argument("--state", default="fixture:qutrit")
    sp.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    sp.add_argument("--shots", type=int, default=100000)
    sp.set_defaults(func=cmd_tomography)

    sp = sub.add_parser("experiment", help="seeded Monte Carlo seven-setting run")
    common(sp)
    sp.add_argument("--state", default="random:0")
    sp.add_argument("--shots", type=int, default=100000)
    sp.add_argument("--spin1", action="store_true")
    sp.add_argument("--b", default="0,0,1", help="filter axis bx,by,bz")
    sp.add_argument("--d", default="0,0,1", help="detector axis dx,dy,dz")
    sp.add_argument("--table", help="synthetic record from a raw table")
    sp.add_argument("--csv-out", dest="csv_out")
    sp.set_defaults(func=cmd_experiment)
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


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, then reused
        _parser = build_parser()
    args = _parser.parse_args(_join_axes(sys.argv[1:] if argv is None else list(argv)))
    try:
        resolve_count(args.seed, "--seed")  # numpy seeds must be >= 0
        # refuse an output path that cannot be a file before doing any work
        for path in filter(None, (args.out, vars(args).get("csv_out"))):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise InputError(f"cannot write {path}: not a file in an existing directory")
        try:
            return args.func(args)
        except InvalidSlitSystem as exc:
            # constructed but invalid filters: a validation failure, not bad input
            emit({"passed": False, "error": str(exc)}, args)
            return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
