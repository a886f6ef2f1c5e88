"""Batched sampling, the sparse embedding and the stacked checks against the
per-draw loops they replace.

The references below are the one-at-a-time formulas: a dense einsum
embedding, one generator, QR and embedding per draw, and a Python loop over
the test vectors of a filter.  The batched code must give the same bytes,
and its coordinate rows the same memory layout, because later BLAS products
round differently at another stride.
"""

import dataclasses
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
from sorkinlab.gpt import matvecs, random_pairs, rowdots, sample_states
from sorkinlab.interference import random_tables
from sorkinlab.models import (
    basis_projectors,
    build_quantum_model,
    build_real_quantum_model,
    subset_filters,
)
from sorkinlab.tomography import exact_frequencies

from helpers import (
    basis_system,
    classical_fixture,
    quantum4_subspace_fixture,
    qutrit_fixture,
    spin1_system,
)

MATRIX_MODELS = [(kind, d) for kind in ("quantum", "real_quantum") for d in (3, 4, 6, 10, 16)]


def build(kind, d):
    return (build_quantum_model if kind == "quantum" else build_real_quantum_model)(d)


def dense_embed(model, mat):
    """Reference: the contraction with the whole dense basis."""
    return np.real(np.einsum("kij,ji->k", model.basis, np.asarray(mat)))


def _ginibre(model, rng):
    g = rng.standard_normal((model.d,) * 2)
    return g + 1j * rng.standard_normal(g.shape) if model.kind == "quantum" else g


def loop_state(model, seed):
    """Reference: one random state, drawn and embedded on its own."""
    rng = np.random.default_rng(seed)
    if model.kind == "classical":
        return rng.dirichlet(np.ones(model.d))
    g = _ginibre(model, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return dense_embed(model, rho)


def loop_effect(model, seed):
    """Reference: one random effect, drawn and embedded on its own; a custom
    cone's draw is mapped into [0, u] only when it lies outside."""
    rng = np.random.default_rng(seed)
    if model.kind == "classical":
        return rng.uniform(0.0, 1.0, size=model.d)
    if model.kind == "custom":
        coords = rng.uniform(0.0, 1.0, size=model.dimension)
        gens = model.generators
        vals = (gens @ coords) / (gens @ model.order_unit)
        lo, hi = min(float(vals.min()), 0.0), max(float(vals.max()), 1.0)
        if (lo, hi) != (0.0, 1.0):
            coords = (coords - lo * model.order_unit) / (hi - lo)
        return coords
    q, r = np.linalg.qr(_ginibre(model, rng))
    q = q * np.sign(np.diagonal(r))
    lam = rng.uniform(0.0, 1.0, size=model.d)
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


def exact_validate_effect(e, model):
    """Reference: the custom-cone effect check on one normalized generator
    g / g.u at a time."""
    vals = [float(g @ e) / float(g @ model.order_unit) for g in model.generators]
    return sl.ValidationReport("effect", (
        gpt.CheckResult("lower_bound", max(0.0, -min(vals)), gpt.EPS_TOL),
        gpt.CheckResult("upper_bound", max(0.0, max(vals) - 1.0), gpt.EPS_TOL),
    ))


def random_custom_model(seed):
    """A custom cone in R^4: 3 to 6 random generators and a random order unit,
    positive (at least 0.2) on each of them."""
    rng = np.random.default_rng(seed)
    gens = rng.uniform(-2.0, 2.0, (int(rng.integers(3, 7)), 4))
    gens[:, 0] = rng.uniform(0.5, 2.0, len(gens))
    u = np.concatenate([[1.0], rng.uniform(-0.05, 0.05, 3)])
    return sl.ModelSpace("custom", generators=gens, order_unit=u)


CUSTOM_CONES = [
    *map(random_custom_model, range(8)),
    # normalized generators are the unit vectors: every draw is in [0, u]
    sl.ModelSpace("custom", generators=np.diag([1.0, 2.0, 0.5]), order_unit=np.ones(3)),
]


def assert_same_rows(rows, refs):
    """Equal bytes and equal element strides, row by row."""
    assert len(rows) == len(refs)
    for row, ref in zip(rows, refs):
        assert row.tobytes() == ref.tobytes()
        assert row.strides == ref.strides


def block_rounding_bound(f):
    """How far a filter's matrix residuals may move when their products sum
    over coordinate blocks instead of whole rows: two orders of an m-term
    dot product differ by at most 2 m eps |x| |y|, so a product by at most
    2 m eps ||A|| ||B|| in Frobenius norm, and so does each residual; the
    factor 4 leaves room for the norms' own rounding."""
    scale = max(1.0, np.linalg.norm(f.projection), np.linalg.norm(f.complement))
    return 4 * len(f.projection) * np.finfo(float).eps * scale**2


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
        # the top-level packages outside the standard library that importing
        # the CLI loads (site may have loaded others before it): no scipy
        code = ("import sys; before = set(sys.modules); "
                "import sorkinlab.cli, sorkinlab.gpt as g, sorkinlab.models as m, "
                "sorkinlab.interference as i; "
                "print(g.hermitian_basis.cache_info().currsize, "
                "g.basis_entries.cache_info().currsize, "
                "len(m._plans), "
                "i._product_table.cache_info().currsize, "
                "len(m._slit_systems)); "
                "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
                " - sys.stdlib_module_names))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.split() == ["0"] * 5 + ["numpy", "sorkinlab"]


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
            assert_same_rows([sl.random_state(model, seed)], [loop_state(model, seed)])
            assert_same_rows([sl.random_effect(model, seed)], [loop_effect(model, seed)])

    @pytest.mark.parametrize("model", [*CUSTOM_CONES,
                                       *map(sl.build_classical_model, range(2, 12))])
    def test_cone_effects_match_loop(self, model):
        seeds = [[3, i] for i in range(40)]
        assert_same_rows([sl.random_effect(model, seed) for seed in seeds],
                         [loop_effect(model, seed) for seed in seeds])

    @pytest.mark.parametrize("model", CUSTOM_CONES)
    def test_custom_cone_states(self, model):
        # a convex mix of the generators, scaled to u . s = 1
        states = [sl.random_state(model, [4, i]) for i in range(40)]
        for s in states:
            assert model.contains(s)
            assert model.order_unit @ s == pytest.approx(1.0, abs=1e-12)
        assert_same_rows(states, [sl.random_state(model, [4, i]) for i in range(40)])
        assert len({s.tobytes() for s in states}) == len(states)

    def test_zero_draws(self):
        for model in (build_quantum_model(3), sl.build_classical_model(3)):
            assert sample_states(model, 0, 1).shape == (0, model.dimension)
            assert list(random_pairs(model, 0, 1)) == []


def custom_file_family(generators, order_unit):
    """A custom-cone model file of dimension 3 with the seven mask filters
    that --slits from-model reads, as serialize reads it back."""
    filters = {}
    for J in sl.interference.all_subsets(3):
        mask = np.isin([1, 2, 3], list(J)).astype(float)
        filters[sl.interference.subset_key(J)] = {
            "projection": np.diag(mask).tolist(), "complement": np.diag(1.0 - mask).tolist()}
    model, named = serialize.model_from_dict({
        "label": "c3", "dimension": 3, "order_unit": order_unit,
        "cone": {"type": "custom", "generators": generators}, "filters": filters})
    return model, list(named.values())


def system_family(ss):
    return ss.model, list(ss.derived.values())


# filter families with their model, as validate checks them
FAMILIES = {
    "quantum:4-basis": lambda: system_family(basis_system(4)),
    "quantum:10-basis": lambda: system_family(basis_system(10)),
    "spin1": lambda: system_family(spin1_system()),
    "real_quantum:4-basis": lambda: system_family(basis_system(4, "real_quantum")),
    "classical:6-masks": lambda: system_family(basis_system(6, "classical")),
    "custom-file": lambda: custom_file_family([[1, 0, 0], [0, 2, 0], [0, 0, 0.5]], [1, 1, 1]),
    # its states' coordinates reach 1e300: rows the neutrality check does
    # not keep would overflow in a norm
    "custom-huge-generator": lambda: custom_file_family(
        [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]], [1e-300, 1.0, 1.0]),
    "quantum:4-four-slits": lambda: system_family(basis_system(4, k=4)),
}


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
            got = sl.validate_filter(f, model, states).to_dict()
            want = loop_validate_filter(f, model, refs).to_dict()
            if slits == "basis":
                # basis slits have many coordinate blocks; the products of
                # the matrix checks sum their terms per block, in another
                # order than the dense products
                assert len(f.blocks) > 1
                bound = block_rounding_bound(f)
                for g, w in zip(got["checks"], want["checks"]):
                    if g["name"] in ("idempotence", "complement_product"):
                        assert abs(g["residual"] - w["residual"]) <= bound
                        g["residual"] = w["residual"]
            assert serialize.dumps(got) == serialize.dumps(want)

    @pytest.mark.parametrize("kind,d", [("quantum", 3), ("quantum", 10), ("real_quantum", 6)])
    def test_validate_filter_on_blocks_within_rounding(self, kind, d):
        model = build(kind, d)
        pis = basis_projectors(d, complex if kind == "quantum" else float)[:3]
        states = sample_states(model, 20, 2)
        for f in subset_filters(pis, model).values():
            got = sl.validate_filter(f, model, states)
            want = loop_validate_filter(f, model, states)
            bound = block_rounding_bound(f)
            for g, w in zip(got.checks, want.checks):
                assert abs(g.residual - w.residual) <= bound

    @pytest.mark.parametrize("stack", [None, 3], ids=["one-stack", "stacks-of-3"])
    @pytest.mark.parametrize("n_states", [0, 1, 10])
    @pytest.mark.parametrize("case", list(FAMILIES))
    def test_validate_filters_matches_one_filter_at_a_time(self, monkeypatch, case, n_states,
                                                            stack):
        model, filters = FAMILIES[case]()
        states = sample_states(model, n_states, 5)
        if stack:  # products of at most that many filters' entries per stack
            monkeypatch.setattr(gpt, "CHUNK_ELEMENTS", stack * max(1, states.size))
        family = gpt.validate_filters(filters, model, states)
        one_by_one = [gpt.validate_filter(f, model, states) for f in filters]
        assert (serialize.dumps([r.to_dict() for r in family])
                == serialize.dumps([r.to_dict() for r in one_by_one]))

    def test_validate_filter_with_no_states(self):
        ss = spin1_system()
        rep = sl.validate_filter(ss.filter_for({1}), ss.model, sample_states(ss.model, 0, 0))
        assert rep.worst("neutrality") == rep.worst("complement_equivalence") == 0.0

    @pytest.mark.parametrize("cone_seed", range(8))
    def test_validate_effect_is_exact_on_custom_cones(self, draws, cone_seed):
        model = random_custom_model(cone_seed)
        e = sl.random_effect(model, [cone_seed, 0])
        # valid, above u, below 0, and 1e-6 above u on its largest generator
        top = model.extreme_values(e).max()
        cases = [e, 1.7 * e, -0.4 * e, e / top * (1.0 + 1e-6)]
        draws.update(dict.fromkeys(draws, 0))
        reports = [gpt.validate_effect(x, model) for x in cases]
        assert draws == {"states": 0, "effects": 0, "matrices": 0}
        for got, x in zip(reports, cases):
            # the generators' products round as one matrix-vector product,
            # the reference's as dot products
            want = exact_validate_effect(x, model)
            assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
            for g, w in zip(got.checks, want.checks):
                assert g.residual == pytest.approx(w.residual, rel=1e-14, abs=1e-15)
        assert [r.passed for r in reports] == [True, False, False, False]
        assert reports[3].worst("upper_bound") == pytest.approx(1e-6, rel=1e-6)

    def test_sweep_tables_match_table_from_system(self):
        ss = spin1_system()
        n = 0
        for probs in random_tables(ss, 150, 7):
            for row in range(len(probs[ss.top])):
                s = loop_state(ss.model, [7, n, 0])
                r = loop_effect(ss.model, [7, n, 1])
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
    if model.kind == "classical":
        mask = np.round(np.diagonal(f.projection))
        eye = np.eye(model.dimension)
        return [[eye[i] for i in np.flatnonzero(mask)] + [1.0 - mask]]
    pi = model.unembed(f.projection @ dense_embed(model, np.eye(model.d)))
    w, v = np.linalg.eigh(pi)
    vecs = [v[:, i] for i in range(len(w)) if w[i] > 0.5]
    families = [[np.outer(v, v.conj()) for v in vecs]]
    for a, b in combinations(range(len(vecs)), 2):
        plus = (vecs[a] + vecs[b]) / np.sqrt(2.0)
        minus = (vecs[a] - vecs[b]) / np.sqrt(2.0)
        families.append([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
        if model.kind == "quantum":
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
        ss = sl.slit_system(model, subset_filters(list(setup[0]), model))
        return ss, list(setup[1])
    if name == "real_quantum:3":
        model = build_real_quantum_model(3)
        ss = sl.slit_system(model, subset_filters(basis_projectors(3, float), model))
        return ss, basis_projectors(3)
    model = sl.build_classical_model(4)
    return sl.slit_system(model, subset_filters(basis_projectors(4, float)[:3], model)), None


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
        table = sl.ExperimentPlan(ss, detector, s, 0, 0).probability_table()
        for row, J in zip(table, sl.interference.all_subsets(3), strict=True):
            v = ss.derived[J].projection @ s
            want = gpt.with_blocked(np.array([float(e @ v) for e in reference]))
            assert row.tobytes() == want.tobytes()
        for J in pairs:
            v = ss.derived[J].projection @ s
            got = exact_frequencies(plans[J], v)
            want = [np.array([float(e @ v) for e in effects]) for effects in settings[J]]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("command", ["validate", "prop1"])
def test_zero_samples_run(capsys, command):
    code = main([command, "--samples", "0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    if command == "prop1":
        assert (out["samples_used"], out["sup_abs_i3"]) == (0, 0.0)


def drawing_prop1_verify(ss, n_samples, seed):
    """Reference: prop1_verify drawing every pair, whatever the defect."""
    sup_i3 = 0.0
    defect = sl.defect_operator(ss)
    for states, effects in random_pairs(ss.model, n_samples, seed):
        sup_i3 = max(sup_i3, float(np.abs(rowdots(effects, matvecs(defect, states))).max()))
    gap, span = ss.operator_gap, ss.span_defect
    verdicts = (sup_i3 <= gpt.EPS_PROP, gap <= gpt.EPS_PROP, span <= gpt.EPS_PROP)
    return sl.Prop1Report(sup_abs_i3=sup_i3, operator_gap=gap, span_defect=span,
                          verdicts=verdicts, consistent=len(set(verdicts)) == 1,
                          samples_used=n_samples, seed=seed)


def assert_same_report(got, want):
    """Field for field, floats by their bits."""
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, float):
            assert (field.name, g.hex()) == (field.name, w.hex())
        else:
            assert (field.name, g) == (field.name, w)


@pytest.fixture
def draws(monkeypatch):
    """The states and effects drawn, and the calls of _random_matrices."""
    counts = {"states": 0, "effects": 0, "matrices": 0}
    matrices = gpt._random_matrices

    def counted_draw(draw):
        def counted(model, seeds, effect):
            counts["effects" if effect else "states"] += len(seeds)
            return draw(model, seeds, effect)
        return counted

    def counted_matrices(model, seeds, effect):
        counts["matrices"] += 1
        return matrices(model, seeds, effect)

    # the cones that draw one at a time inherit ModelSpace.draw
    for cone in (gpt.ModelSpace, gpt.PSDCone):
        monkeypatch.setattr(cone, "draw", counted_draw(cone.draw))
    monkeypatch.setattr(gpt, "_random_matrices", counted_matrices)
    return counts


def spin1_axis_system(axis):
    slits, _ = sl.spin1_feynman_setup([float(a) for a in axis.split(",")], [0, 0, 1])
    return sl.projector_slit_system(slits, build_quantum_model(3))


def basis_slit_system(kind, d):
    if kind == "classical":
        model = sl.build_classical_model(d)
    else:
        model = build(kind, d)
    dtype = complex if kind == "quantum" else float
    return sl.projector_slit_system(basis_projectors(d, dtype)[:3], model)


def bumped(kind, d, norm, seed):
    """Basis slits with P_123 moved by a rank-1 bump of Frobenius norm `norm`."""
    ss = basis_slit_system(kind, d)
    v = np.random.default_rng(seed).standard_normal(ss.model.dimension)
    v /= np.linalg.norm(v)
    return ss.with_triple_perturbation(norm * np.outer(v, v))


def dense_system(d, rank, seed):
    """Three pairwise-orthogonal random rank-`rank` slits, dense in the
    computational basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cols = [q[:, i * rank:(i + 1) * rank] for i in range(3)]
    return sl.projector_slit_system([c @ c.conj().T for c in cols], build_quantum_model(d))


ZERO_DEFECT = (
    [(f"{kind}{d}-basis", lambda kind=kind, d=d: basis_slit_system(kind, d))
     for kind in ("quantum", "real_quantum") for d in (3, 6, 10, 16)]
    + [(f"classical{d}", lambda d=d: basis_slit_system("classical", d)) for d in (3, 4, 5, 6)]
    + [("spin1-0,0,1", lambda: spin1_axis_system("0,0,1")),
       ("qutrit-fixture", lambda: qutrit_fixture()[1]),
       ("real-qutrit-fixture", lambda: qutrit_fixture(float)[1]),
       ("classical-fixture", lambda: classical_fixture()[1])]
)
NONZERO_DEFECT = [
    ("spin1-0.6,0,0.8", lambda: spin1_axis_system("0.6,0,0.8")),
    ("spin1-0.48,-0.6,0.64", lambda: spin1_axis_system("0.48,-0.6,0.64")),
    ("quantum3-bump-1e-10", lambda: bumped("quantum", 3, 1e-10, 1)),
    ("quantum16-bump-1e-10", lambda: bumped("quantum", 16, 1e-10, 2)),
    ("real_quantum6-bump-1e-4", lambda: bumped("real_quantum", 6, 1e-4, 3)),
    ("quantum4-dense-rank1", lambda: dense_system(4, 1, 4)),
    ("quantum6-dense-rank1", lambda: dense_system(6, 1, 5)),
    ("quantum6-dense-rank2", lambda: dense_system(6, 2, 6)),
    ("q4-subspace-fixture", lambda: quantum4_subspace_fixture()[1]),
]


class TestProp1Draws:
    """prop1_verify draws pairs only where the defect operator has a
    nonzero entry; its report is the always-drawing reference's."""

    @pytest.mark.parametrize("system", [s[1] for s in ZERO_DEFECT],
                             ids=[s[0] for s in ZERO_DEFECT])
    def test_zero_defect_draws_nothing(self, draws, system):
        ss = system()
        assert ss.defect_blocks == []
        rep = sl.prop1_verify(ss, n_samples=50, seed=7)
        assert draws == {"states": 0, "effects": 0, "matrices": 0}
        assert_same_report(rep, drawing_prop1_verify(ss, 50, 7))
        assert (rep.samples_used, rep.sup_abs_i3) == (50, 0.0)
        assert draws["states"] == draws["effects"] == 50  # the reference did draw

    @pytest.mark.parametrize("n_samples", [0, 1, 37])
    @pytest.mark.parametrize("system", [s[1] for s in NONZERO_DEFECT],
                             ids=[s[0] for s in NONZERO_DEFECT])
    def test_nonzero_defect_draws_every_pair(self, draws, system, n_samples):
        ss = system()
        assert ss.defect_blocks
        rep = sl.prop1_verify(ss, n_samples=n_samples, seed=8)
        assert (draws["states"], draws["effects"]) == (n_samples, n_samples)
        assert (draws["matrices"] > 0) == (n_samples > 0)
        assert_same_report(rep, drawing_prop1_verify(ss, n_samples, 8))
        if n_samples == 0:
            assert (rep.samples_used, rep.sup_abs_i3) == (0, 0.0)
        else:
            assert rep.sup_abs_i3 > 0.0
