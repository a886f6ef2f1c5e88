"""The process-wide cache of slit systems and what derives from them alone."""

import gc
import json
import weakref

import numpy as np
import pytest

from sorkinlab import interference, models, tomography
from sorkinlab.cli import main
from sorkinlab.gpt import Filter
from sorkinlab.interference import InvalidSlitSystem, prop1_verify
from sorkinlab.models import (
    SYSTEM_CACHE_BYTES,
    SYSTEM_CACHE_ENTRIES,
    basis_projectors,
    build_quantum_model,
    projector_slit_system,
    spin1_feynman_setup,
)


def basis_system(d=4):
    return projector_slit_system(basis_projectors(d)[:3], build_quantum_model(d))


def spin1_system(axis):
    model = build_quantum_model(3)
    slits, _ = spin1_feynman_setup(axis, axis)
    return projector_slit_system(slits, model)


@pytest.fixture
def builds(monkeypatch):
    """The number of subset_filters calls, i.e. of slit systems built."""
    calls = []
    build = models.subset_filters

    def counted(pis, model):
        calls.append(model.label)
        return build(pis, model)

    monkeypatch.setattr(models, "subset_filters", counted)
    return calls


def run(capsys, argv, csv=None):
    code = main(argv + (["--csv-out", str(csv)] if csv else []))
    out = capsys.readouterr().out
    return code, out, csv.read_bytes() if csv else b""


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "quantum:6", "--samples", "10", "--seed", "1"],
    ["prop1", "--model", "quantum:10", "--samples", "20", "--seed", "2"],
    ["tomography", "--model", "quantum:6", "--mode", "sampled", "--state", "random:3",
     "--seed", "4"],
    ["interference", "--model", "quantum:6", "--state", "random:5", "--effect", "random:6"],
    ["experiment", "--spin1", "--b=0.48,-0.6,0.64", "--d=0,0,1", "--state", "random:3",
     "--shots", "1000", "--seed", "2"],
], ids=lambda argv: argv[0])
def test_miss_then_hit_give_the_same_bytes(capsys, tmp_path, builds, argv):
    csv = tmp_path / "record.csv" if argv[0] == "experiment" else None
    miss = run(capsys, argv, csv)
    assert len(builds) == 1 and len(models._slit_systems) == 1
    hit = run(capsys, argv, csv)
    assert len(builds) == 1
    assert miss[0] == 0 and hit == miss


def test_hit_returns_the_system_built_first(builds):
    first = basis_system()
    assert basis_system() is first
    assert builds == ["quantum:4"]


def test_relabelled_model_is_its_own_entry(capsys, tmp_path):
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps({"label": "qutrit", "dimension": 9,
                                "cone": {"type": "quantum", "d": 3}}))
    argv = ["experiment", "--state", "random:1", "--shots", "100", "--seed", "4"]

    def plan_hash(model):
        code, out, _ = run(capsys, argv + ["--model", model])
        assert code == 0
        return json.loads(out)["record"]["plan_hash"]

    plain = plan_hash("quantum:3")
    relabelled = plan_hash(str(path))
    assert relabelled != plain
    assert len(models._slit_systems) == 2
    models._slit_systems.clear()
    assert plan_hash(str(path)) == relabelled  # as built on a cold cache


def test_cached_filter_arrays_are_read_only():
    ss = basis_system()
    for f in ss.derived.values():
        for a in (f.projection, f.complement):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
    prop1_verify(ss, n_samples=2)
    for _, defect in ss.defect_blocks:
        assert not defect.flags.writeable


def test_perturbed_copy_leaves_the_cached_system_alone():
    ss = basis_system()
    clean = prop1_verify(ss, n_samples=5, seed=1)
    bump = np.zeros_like(ss.derived[ss.top].projection)
    bump[0, 0] = 0.5
    broken = prop1_verify(ss.with_triple_perturbation(bump), n_samples=5, seed=1)
    assert broken.operator_gap > 0.1 and not broken.verdicts[1]
    assert basis_system() is ss
    assert (ss.operator_gap, ss.span_defect) == (clean.operator_gap, clean.span_defect)
    assert prop1_verify(ss, n_samples=5, seed=1) == clean


def test_invalid_system_is_not_kept(monkeypatch, builds):
    axis = np.array([0.48, -0.6, 0.64])
    monkeypatch.setattr(interference, "EPS_PROJ", 1e-30)  # rounding residuals now fail
    with pytest.raises(InvalidSlitSystem):
        spin1_system(axis)
    assert not models._slit_systems
    monkeypatch.undo()
    ss = spin1_system(axis)
    assert ss.report.passed and spin1_system(axis) is ss


def test_cache_stays_within_its_bounds():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        spin1_system(axis / np.linalg.norm(axis))
        assert len(models._slit_systems) <= SYSTEM_CACHE_ENTRIES
        assert sum(n for _, n in models._slit_systems.values()) <= SYSTEM_CACHE_BYTES
    assert len(models._slit_systems) == SYSTEM_CACHE_ENTRIES


def test_system_over_the_byte_budget_is_not_kept():
    keep = basis_system()
    large = basis_system(32)
    assert large.report.passed
    assert [entry[0] for entry in models._slit_systems.values()] == [keep]


def test_least_recently_used_goes_first():
    first = basis_system(3)
    spin1_system(np.array([1.0, 0.0, 0.0]))
    assert basis_system(3) is first  # now the most recent
    for i in range(SYSTEM_CACHE_ENTRIES - 1):
        axis = np.array([np.cos(i + 1.0), np.sin(i + 1.0), 0.0])
        spin1_system(axis)
    assert [entry[0] for entry in models._slit_systems.values()][0] is first


def test_classical_systems_are_kept_read_only():
    from sorkinlab.models import build_classical_model

    model = build_classical_model(3)
    pis = [np.diag(np.eye(3)[i]) for i in range(3)]
    ss = projector_slit_system(pis, model)
    assert projector_slit_system(pis, model) is ss
    assert len(models._slit_systems) == 1
    assert not any(f.projection.flags.writeable or f.complement.flags.writeable
                   for f in ss.derived.values())


def test_face_plans_built_once_and_dropped_with_the_filters(monkeypatch):
    built = []
    build = tomography.build_face_measurement
    monkeypatch.setattr(tomography, "build_face_measurement",
                        lambda f, model: built.append(f) or build(f, model))
    ss = basis_system()
    s = build_quantum_model(4).embed(np.eye(4) / 4)
    first = tomography.tomography_roundtrip(ss, s, mode="sampled", shots=100, seed=1)
    assert len(built) == 3
    again = tomography.tomography_roundtrip(ss, s, mode="sampled", shots=100, seed=1)
    assert len(built) == 3
    assert again.to_dict() == first.to_dict()
    plan = tomography._face_plans[built[0]][1]
    assert not (plan.image_basis.flags.writeable or plan.design_matrix.flags.writeable)
    assert not any(e.flags.writeable for effects in plan.settings for e in effects)
    filters = [weakref.ref(f) for f in built]
    del ss, built, plan, first, again
    models._slit_systems.clear()
    gc.collect()
    assert all(f() is None for f in filters)


def test_joint_pattern_formed_once_per_stack(monkeypatch):
    calls = []
    pattern = models._joint_pattern
    monkeypatch.setattr(models, "_joint_pattern", lambda pis: calls.append(1) or pattern(pis))
    filters = models.subset_filters(basis_projectors(4)[:3], build_quantum_model(4))
    assert len(calls) == 1
    next(iter(filters.values())).complement
    assert len(calls) == 2


@pytest.fixture
def identities(monkeypatch):
    """The filters whose identity residuals were computed, one entry per
    computation."""
    computed = []
    prop = Filter.__dict__["identity_residuals"]
    compute = prop.func
    monkeypatch.setattr(prop, "func", lambda f: computed.append(f) or compute(f))
    return computed


@pytest.mark.parametrize("model", ["quantum:6", "classical:4"])
def test_validate_computes_each_filters_identities_once(capsys, identities, model):
    argv = ["validate", "--model", model, "--samples", "10", "--seed", "1"]
    first = run(capsys, argv)
    assert first[0] == 0
    assert len(identities) == len({id(f) for f in identities}) == 7
    again = run(capsys, argv)
    assert len(identities) == 7  # the kept system's filters kept theirs
    models._slit_systems.clear()
    fresh = run(capsys, argv)
    assert len(identities) == 14
    assert again == first and fresh == first
