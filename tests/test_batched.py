"""Batched sampling, the sparse embedding and the stacked checks against the
per-draw loops they replace.

The references below are the one-at-a-time formulas: a dense einsum
embedding, one generator, QR and embedding per draw, and a Python loop over
the test vectors of a filter.  The batched code must give the same bytes,
and its coordinate rows the same memory layout, because later BLAS products
round differently at another stride.
"""

import json
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab import gpt, serialize
from sorkinlab.cli import main
from sorkinlab.fixtures import basis_projectors, quantum4_subspace_fixture
from sorkinlab.gpt import random_pairs, sample_states
from sorkinlab.interference import random_tables
from sorkinlab.models import build_quantum_model, build_real_quantum_model, subset_filters
from sorkinlab.tomography import exact_frequencies

MATRIX_MODELS = [(kind, d) for kind in ("quantum", "real_quantum") for d in (3, 4, 6, 10, 16)]


def build(kind, d):
    return (build_quantum_model if kind == "quantum" else build_real_quantum_model)(d)


def dense_embed(model, mat):
    """Reference: the contraction with the whole dense basis."""
    return np.real(np.einsum("kij,ji->k", model.basis, np.asarray(mat)))


def _ginibre(model, rng):
    g = rng.standard_normal((model.cone.d,) * 2)
    return g + 1j * rng.standard_normal(g.shape) if model.cone.kind == "quantum" else g


def loop_state(model, seed):
    """Reference: one random state, drawn and embedded on its own."""
    rng = np.random.default_rng(seed)
    if model.cone.kind == "classical":
        return rng.dirichlet(np.ones(model.cone.n))
    g = _ginibre(model, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return dense_embed(model, rho)


def loop_effect(model, seed):
    """Reference: one random effect, drawn and embedded on its own."""
    rng = np.random.default_rng(seed)
    if model.cone.kind == "classical":
        return rng.uniform(0.0, 1.0, size=model.cone.n)
    q, r = np.linalg.qr(_ginibre(model, rng))
    q = q * np.sign(np.diagonal(r))
    lam = rng.uniform(0.0, 1.0, size=model.cone.d)
    return dense_embed(model, (q * lam) @ q.conj().T)


def loop_validate_filter(f, model, states):
    """Reference: the filter checks with one test vector at a time."""
    P, Pc, u = f.projection, f.complement, model.order_unit
    rel = gpt._rel_fro
    idem = max(rel(P @ P - P, P), rel(Pc @ Pc - Pc, Pc))
    prod = max(rel(P @ Pc, P), rel(Pc @ P, P))
    neutral_worst = equiv_worst = 0.0
    for s in states:
        for t in (s, P @ s, Pc @ s):
            nt = float(u @ t)
            if nt <= gpt.EPS_TOL:
                continue
            pt = P @ t
            if abs(float(u @ pt) - nt) <= gpt.EPS_TOL * max(1.0, nt):
                neutral_worst = max(neutral_worst, float(np.linalg.norm(pt - t)) / max(1.0, nt))
        equiv_worst = max(equiv_worst, float(np.linalg.norm(Pc @ (P @ s))))
        equiv_worst = max(equiv_worst, float(np.linalg.norm(P @ (Pc @ s))))
    return sl.ValidationReport("filter", (
        gpt.CheckResult("idempotence", idem, gpt.EPS_PROJ),
        gpt.CheckResult("neutrality", neutral_worst, gpt.EPS_TOL * 10),
        gpt.CheckResult("complement_product", prod, gpt.EPS_PROJ),
        gpt.CheckResult("complement_equivalence", equiv_worst, gpt.EPS_TOL * 10),
    ))


def assert_same_rows(rows, refs):
    """Equal bytes and equal element strides, row by row."""
    assert len(rows) == len(refs)
    for row, ref in zip(rows, refs):
        assert row.tobytes() == ref.tobytes()
        assert row.strides == ref.strides


def spin1_system():
    model = build_quantum_model(3)
    setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0, 0, 1])
    return sl.slit_system(model, subset_filters(list(setup.slit_projectors), model))


class TestEmbed:
    @pytest.mark.parametrize("kind,d", MATRIX_MODELS)
    def test_matches_dense_einsum(self, kind, d):
        model = build(kind, d)
        rng = np.random.default_rng(d)
        mats = [np.eye(d)]
        for _ in range(20):
            g = rng.standard_normal((d, d))
            if kind == "quantum":
                g = g + 1j * rng.standard_normal((d, d))
            mats.append(g + g.conj().T)
        assert_same_rows([model.embed(m) for m in mats], [dense_embed(model, m) for m in mats])

    @pytest.mark.parametrize("kind,d", MATRIX_MODELS)
    def test_stack_equals_single_embeds(self, kind, d):
        model = build(kind, d)
        mats = gpt._random_matrices(model, [[1, i] for i in range(7)], effect=True)
        stacked = model.embed(mats)
        assert stacked.shape == (7, model.dimension)
        assert_same_rows(stacked, [model.embed(m) for m in mats])
        assert model.embed(mats.reshape(7, 1, d, d)).shape == (7, 1, model.dimension)

    def test_wrong_matrix_size_rejected(self):
        with pytest.raises(sl.DimensionMismatch):
            build_quantum_model(3).embed(np.eye(4))

    def test_bases_are_shared_and_read_only(self):
        a, b = build_quantum_model(5), build_quantum_model(5)
        assert a.basis is b.basis
        assert a.basis_entries is b.basis_entries
        assert not a.basis.flags.writeable
        assert not any(e.flags.writeable for e in a.basis_entries)
        assert build_real_quantum_model(5).basis.dtype == np.float64

    def test_nothing_built_at_import(self):
        code = ("import sorkinlab.cli, sorkinlab.gpt as g; "
                "print(g.hermitian_basis.cache_info().currsize, "
                "g.basis_entries.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.split() == ["0", "0"]


class TestBatchedDraws:
    @pytest.mark.parametrize("kind,d", MATRIX_MODELS)
    def test_sample_states_match_loop(self, kind, d):
        model = build(kind, d)
        states = sample_states(model, 200, 11)
        assert states.shape == (200, model.dimension)
        assert_same_rows(states, [loop_state(model, [11, i]) for i in range(200)])

    @pytest.mark.parametrize("kind,d", MATRIX_MODELS)
    def test_random_pairs_match_loop(self, kind, d):
        model = build(kind, d)
        batches = list(random_pairs(model, 200, 12))
        assert_same_rows([s for states, _ in batches for s in states],
                         [loop_state(model, [12, i, 0]) for i in range(200)])
        assert_same_rows([e for _, effects in batches for e in effects],
                         [loop_effect(model, [12, i, 1]) for i in range(200)])

    def test_batches_cross_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(gpt, "CHUNK_ELEMENTS", 100)  # 11 matrices, 11 pairs at d = 3
        model = build_quantum_model(3)
        assert_same_rows(sample_states(model, 30, 3),
                         [loop_state(model, [3, i]) for i in range(30)])
        batches = list(random_pairs(model, 30, 4))
        assert [len(s) for s, _ in batches] == [11, 11, 8]
        assert_same_rows([e for _, effects in batches for e in effects],
                         [loop_effect(model, [4, i, 1]) for i in range(30)])

    def test_classical_draws_match_loop(self):
        model = sl.build_classical_model(4)
        assert_same_rows(sample_states(model, 50, 5),
                         [loop_state(model, [5, i]) for i in range(50)])
        (_, effects), = random_pairs(model, 50, 6)
        assert_same_rows(effects, [loop_effect(model, [6, i, 1]) for i in range(50)])

    @pytest.mark.parametrize("kind,d", [("quantum", 3), ("real_quantum", 4), ("quantum", 16)])
    def test_single_draws_are_batches_of_one(self, kind, d):
        model = build(kind, d)
        for seed in (0, 7, [3, 1]):
            assert_same_rows([sl.random_state(model, seed).coords], [loop_state(model, seed)])
            assert_same_rows([sl.random_effect(model, seed).coords], [loop_effect(model, seed)])

    def test_zero_draws(self):
        for model in (build_quantum_model(3), sl.build_classical_model(3)):
            assert sample_states(model, 0, 1).shape == (0, model.dimension)
            assert list(random_pairs(model, 0, 1)) == []


class TestStackedChecks:
    @pytest.mark.parametrize("slits", ["basis", "spin1", "dense"])
    def test_validate_filter_matches_loop(self, slits):
        if slits == "basis":
            model = build_quantum_model(4)
            ss = sl.slit_system(model, subset_filters(basis_projectors(4)[:3], model))
        elif slits == "spin1":
            ss = spin1_system()
        else:
            model, ss = quantum4_subspace_fixture(3)
        model = ss.model
        states = sample_states(model, 60, 9)
        refs = [loop_state(model, [9, i]) for i in range(60)]
        for f in ss.derived.values():
            got = serialize.dumps(sl.validate_filter(f, model, states).to_dict())
            assert got == serialize.dumps(loop_validate_filter(f, model, refs).to_dict())

    def test_validate_filter_with_no_states(self):
        ss = spin1_system()
        rep = sl.validate_filter(ss.filter_for({1}), ss.model, sample_states(ss.model, 0, 0))
        assert rep.worst("neutrality") == rep.worst("complement_equivalence") == 0.0

    def test_sweep_tables_match_table_from_system(self):
        ss = spin1_system()
        n = 0
        for probs in random_tables(ss, 150, 7):
            for row in range(len(probs[ss.top])):
                s = sl.State(ss.model, loop_state(ss.model, [7, n, 0]))
                r = sl.Effect(ss.model, loop_effect(ss.model, [7, n, 1]))
                t = sl.table_from_system(r, ss, s)
                assert {J: float(p[row]) for J, p in probs.items()} == t.entries
                n += 1
        assert n == 150

    def test_prop1_supremum_matches_loop(self):
        ss = spin1_system()
        defect = sl.defect_operator(ss)
        sup = 0.0
        for i in range(120):
            s, r = loop_state(ss.model, [5, i, 0]), loop_effect(ss.model, [5, i, 1])
            sup = max(sup, abs(float(r @ (defect @ s))))
        assert sl.prop1_verify(ss, n_samples=120, seed=5).sup_abs_i3.hex() == sup.hex()

    @pytest.mark.parametrize("kind,d", [("quantum", 3), ("quantum", 6), ("real_quantum", 5)])
    def test_face_design_matrices_match_single_embeds(self, kind, d):
        model = build(kind, d)
        dtype = complex if kind == "quantum" else float
        ss = sl.slit_system(model, subset_filters(basis_projectors(d, dtype)[:3], model))
        for J in sl.interference.subsets_of_size(3, 2):
            f = ss.derived[J]
            plan = sl.build_face_measurement(f, model)
            assert plan.design_matrix.tobytes() == loop_design_matrix(f, model).tobytes()


def loop_face_settings(f, model):
    """Reference: the tomography settings of a filter's face, one embedding
    per family matrix and u - sum on its own."""
    if model.cone.kind == "classical":
        mask = np.round(np.diagonal(f.projection))
        eye = np.eye(model.dimension)
        return [[eye[i] for i in np.flatnonzero(mask)] + [1.0 - mask]]
    pi = model.unembed(f.projection @ dense_embed(model, np.eye(model.cone.d)))
    w, v = np.linalg.eigh(pi)
    vecs = [v[:, i] for i in range(len(w)) if w[i] > 0.5]
    families = [[np.outer(v, v.conj()) for v in vecs]]
    for a, b in combinations(range(len(vecs)), 2):
        plus = (vecs[a] + vecs[b]) / np.sqrt(2.0)
        minus = (vecs[a] - vecs[b]) / np.sqrt(2.0)
        families.append([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
        if model.cone.kind == "quantum":
            ip = (vecs[a] + 1j * vecs[b]) / np.sqrt(2.0)
            im = (vecs[a] - 1j * vecs[b]) / np.sqrt(2.0)
            families.append([np.outer(ip, ip.conj()), np.outer(im, im.conj())])
    settings = []
    for fam in families:
        coords = [dense_embed(model, m) for m in fam]
        settings.append(coords + [model.order_unit - np.sum(coords, axis=0)])
    return settings


def loop_design_matrix(f, model):
    """Reference: the tomography design matrix of a filter's face."""
    basis = sl.face_of(f)
    return np.array([e @ basis for effects in loop_face_settings(f, model) for e in effects])


def layout_case(name):
    """A three-slit system and its detector as the CLI builds them: the
    detector matrices (None for the classical identity detector)."""
    if name == "spin1":
        model = build_quantum_model(3)
        setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0.6, 0, 0.8])
        ss = sl.slit_system(model, subset_filters(list(setup.slit_projectors), model))
        return ss, list(setup.detector_effects)
    if name == "real_quantum:3":
        model = build_real_quantum_model(3)
        ss = sl.slit_system(model, subset_filters(basis_projectors(3, float), model))
        return ss, basis_projectors(3)
    model = sl.build_classical_model(4)
    return sl.slit_system(model, sl.classical_subset_filters([[0], [1], [2]], model)), None


@pytest.mark.parametrize("name", ["spin1", "real_quantum:3", "classical:4"])
def test_probabilities_are_one_dot_per_effect(name):
    """Experiment and tomography probabilities equal float(e @ v) over effect
    vectors embedded one at a time.  Effects are used in the layout they are
    computed in and dotted one by one: a contiguous copy of a stacked
    embedding, or E @ v, rounds differently."""
    ss, mats = layout_case(name)
    model = ss.model
    if mats is None:
        detector = np.eye(model.dimension)
        reference = list(np.eye(model.dimension))
    else:
        detector = model.embed(np.array(mats))
        reference = [model.embed(m) for m in mats]
    pairs = sl.interference.subsets_of_size(3, 2)
    plans = {J: sl.build_face_measurement(ss.derived[J], model) for J in pairs}
    settings = {J: loop_face_settings(ss.derived[J], model) for J in pairs}
    for i in range(50):
        s = sl.random_state(model, [23, i])
        plan = sl.ExperimentPlan(ss, detector, s, 0, 0)
        for J in sl.interference.all_subsets(3):
            v = ss.derived[J].projection @ s.coords
            want = gpt.with_blocked(np.array([float(e @ v) for e in reference]))
            assert plan.setting_probabilities(J).tobytes() == want.tobytes()
        for J in pairs:
            v = ss.derived[J].projection @ s.coords
            got = exact_frequencies(plans[J], sl.State(model, v))
            want = [np.array([float(e @ v) for e in effects]) for effects in settings[J]]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("command", ["validate", "prop1"])
def test_zero_samples_run(capsys, command):
    code = main([command, "--samples", "0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    if command == "prop1":
        assert (out["samples_used"], out["sup_abs_i3"]) == (0, 0.0)
