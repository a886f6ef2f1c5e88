"""Interference hierarchy: table and operator paths, the signed projector
sum, defect operator, span condition, and the three-way equivalence check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sorkinlab as sl
from sorkinlab import serialize
from sorkinlab.fixtures import (
    basis_projectors,
    classical_fixture,
    quantum4_subspace_fixture,
    qutrit_fixture,
    table_06,
)
from sorkinlab.interference import (
    ProbabilityTable,
    _product_table,
    all_subsets,
    slit_system,
    subset_key,
)
from sorkinlab.models import build_quantum_model, subset_filters
from sorkinlab.gpt import (
    CHUNK_ELEMENTS,
    matvecs,
    orthonormal_column_basis,
    random_pairs,
    rowdots,
)

from helpers import basis_system, spin1_system


def real_qutrit_fixture():
    """The real_quantum:3 qutrit; a named function, so parametrized ids read
    real_qutrit_fixture."""
    return qutrit_fixture(float)


def mutual_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Largest defect of either orthonormal basis against the other's span."""
    qa = orthonormal_column_basis(a)
    qb = orthonormal_column_basis(b)
    r1 = qa - qb @ (qb.T @ qa) if qa.shape[1] else np.zeros((a.shape[0], 0))
    r2 = qb - qa @ (qa.T @ qb) if qb.shape[1] else np.zeros((a.shape[0], 0))
    vals = [np.linalg.norm(r, axis=0).max() for r in (r1, r2) if r.shape[1]]
    return float(max(vals)) if vals else 0.0


def make_table(k, values):
    return ProbabilityTable(k, dict(zip(all_subsets(k), values)))


def dense_validate(ss):
    """Reference: the three slit-system residuals from the 49 products
    P_J P_K of the full m x m matrices."""
    mats = {J: f.projection for J, f in ss.derived.items()}
    zero = np.zeros((ss.model.dimension,) * 2)
    ortho = prod = idem = 0.0
    for J in mats:
        for K in mats:
            pjk = mats[J] @ mats[K]
            if len(J) == len(K) == 1 and min(J) < min(K):
                ortho = max(ortho, np.linalg.norm(pjk, "fro"))
            if J == K:
                rel = np.linalg.norm(pjk - mats[J], "fro") / max(
                    1.0, np.linalg.norm(mats[J], "fro")
                )
                idem = max(idem, rel)
            prod = max(prod, np.linalg.norm(pjk - mats.get(J & K, zero), "fro"))
    return ortho, prod, idem


def support_validate(ss):
    """Reference: the slit-system residuals as batched products on the joint
    support of the filters, the rows and columns where some P_J is nonzero,
    copied out of the m x m matrices as one block."""
    keys = tuple(ss.derived)
    n = len(keys)
    mats = [ss.derived[J].projection for J in keys]
    nonzero = mats[0] != 0
    for mat in mats[1:]:
        np.logical_or(nonzero, mat, out=nonzero)
    on = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    block = np.stack([mat.take(on, axis=0) for mat in mats]).take(on, axis=2)
    targets = np.concatenate([block, np.zeros((1,) + block.shape[1:])])
    target, singles = _product_table(keys)
    resid = np.empty((n, n))
    rows = max(1, CHUNK_ELEMENTS // max(1, n * on.size**2))
    for lo in range(0, n, rows):
        diff = np.matmul(block[lo : lo + rows, None], block[None])
        diff -= targets[target[lo : lo + rows]]
        flat = diff.reshape(diff.shape[0], n, -1)
        resid[lo : lo + rows] = np.sqrt(np.einsum("jki,jki->jk", flat, flat))
    norms = np.linalg.norm(block.reshape(n, -1), axis=1)
    idem = (np.diagonal(resid) / np.maximum(1.0, norms)).max()
    return [float(resid[singles].max(initial=0.0)), float(resid.max()), float(idem)]


def dense_defect(ss):
    """Reference: the defect operator P_[k] - p3_operator from the whole
    m x m matrices."""
    return ss.derived[ss.top].projection - sl.p3_operator(ss)


def dense_prop1_probes(ss, n_samples, seed):
    """Reference: the operator gap and the sampled sup |I3| from the dense
    defect operator."""
    defect = dense_defect(ss)
    sup = 0.0
    for states, effects in random_pairs(ss.model, n_samples, seed):
        sup = max(sup, float(np.abs(rowdots(effects, matvecs(defect, states))).max()))
    return float(np.linalg.norm(defect, "fro")), sup


class TestSlitSystemValidate:
    """validate forms the products on the filters' joint support."""

    @pytest.mark.parametrize(
        "system",
        [
            lambda: basis_system(3),
            lambda: basis_system(6),
            lambda: basis_system(10),
            spin1_system,
            lambda: classical_fixture()[1],
            lambda: real_qutrit_fixture()[1],
            lambda: quantum4_subspace_fixture()[1],
        ],
        ids=["basis3", "basis6", "basis10", "spin1", "classical", "real", "q4-subspace"],
    )
    def test_matches_dense_products(self, system):
        ss = system()
        got = [c.residual for c in ss.validate().checks]
        # The block sums the same nonzero terms as the dense products, in
        # another order. Two orders of an m-term dot product differ by at
        # most 2 m eps |x| |y|, so a product by at most 2 m eps ||P_J|| ||P_K||
        # in Frobenius norm, and so does each residual; the factor 4 leaves
        # room for the norms' own rounding.
        m = ss.model.dimension
        scale = max(1.0, *(np.linalg.norm(f.projection) for f in ss.derived.values()))
        bound = 4 * m * np.finfo(float).eps * scale**2
        for residual, reference in zip(got, dense_validate(ss)):
            assert abs(residual - reference) <= bound

    @pytest.mark.parametrize(
        "system",
        [spin1_system, lambda: quantum4_subspace_fixture()[1],
         lambda: quantum4_subspace_fixture(5)[1], lambda: classical_fixture()[1]],
        ids=["spin1", "q4-subspace", "q4-subspace-5", "classical"],
    )
    def test_one_block_systems_match_support_products_bitwise(self, system):
        ss = system()
        assert len(ss.blocks) == 1 and ss.blocks[0][0].shape == (1, ss.model.dimension)
        got = [c.residual for c in ss.validate().checks]
        assert [r.hex() for r in got] == [r.hex() for r in support_validate(ss)]

    @pytest.mark.parametrize("kind", ["quantum", "real_quantum"])
    @pytest.mark.parametrize("d", [3, 6, 10, 16])
    def test_blocks_match_support_products(self, kind, d):
        ss = basis_system(d, kind)
        assert len(ss.blocks) > 1
        m = ss.model.dimension
        scale = max(1.0, *(np.linalg.norm(f.projection) for f in ss.derived.values()))
        bound = 4 * m * np.finfo(float).eps * scale**2
        got = [c.residual for c in ss.validate().checks]
        for residual, reference in zip(got, support_validate(ss)):
            assert abs(residual - reference) <= bound

    def test_system_uses_the_shared_partition(self):
        ss = basis_system(6)
        assert ss.blocks is ss.derived[ss.top].blocks
        # a filter without the family's partition: one block of everything
        bumped = ss.with_triple_perturbation(np.zeros((36, 36)))
        assert bumped.derived[ss.top].blocks is None
        assert [coords.tolist() for coords, _ in bumped.blocks] == [[list(range(36))]]

    def test_dense_bump_is_seen_off_the_blocks(self):
        ss = basis_system(10)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 100))
        bad = ss.with_triple_perturbation(1e-6 * (a + a.T))
        rep = sl.prop1_verify(bad, n_samples=20, seed=0)
        assert rep.operator_gap == pytest.approx(
            np.linalg.norm(dense_defect(bad)), rel=1e-12)
        assert rep.verdicts[1] is False
        assert not bad.validate().passed

    def test_bump_off_the_filters_support_fails(self):
        # a bump on a coordinate where every filter is zero: the support is
        # read off the perturbed matrices, so every check still sees it
        ss = basis_system(6)
        mats = np.stack([f.projection for f in ss.derived.values()])
        off = np.flatnonzero(~mats.any(axis=(0, 1)) & ~mats.any(axis=(0, 2)))
        assert off.size > 0
        bump = np.zeros_like(mats[0])
        bump[off[-1], off[-1]] = 1e-3
        bad = ss.with_triple_perturbation(bump)
        assert not bad.validate().passed
        rep = sl.prop1_verify(bad, n_samples=50, seed=0)
        assert rep.verdicts == (False, False, False)
        assert rep.operator_gap == pytest.approx(1e-3, rel=1e-12)


class TestTableFormulas:
    def test_constructed_table(self):
        assert sl.i3_from_table(table_06()) == pytest.approx(0.6, abs=1e-15)

    def test_all_zero(self):
        t = make_table(3, [0.0] * 7)
        assert sl.i3_from_table(t) == 0.0

    def test_qutrit_fixture_entries_and_i3(self):
        model, ss, s, r = qutrit_fixture()
        t = sl.table_from_system(r, ss, s)
        assert t[{1, 2, 3}] == pytest.approx(1.0, abs=1e-12)
        for pair in ({1, 2}, {1, 3}, {2, 3}):
            assert t[pair] == pytest.approx(4.0 / 9.0, abs=1e-12)
        for single in ({1}, {2}, {3}):
            assert t[single] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert sl.i3_from_table(t) == pytest.approx(0.0, abs=1e-12)

    def test_missing_entry_raises(self):
        t = ProbabilityTable(3, {frozenset({1}): 0.5})
        with pytest.raises(KeyError):
            sl.i3_from_table(t)

    def test_i2_qutrit_pair(self):
        model, ss, s, r = qutrit_fixture()
        t = sl.table_from_system(r, ss, s)
        assert sl.i2_from_table(t[{1, 2}], t[{1}], t[{2}]) == pytest.approx(
            2.0 / 9.0, abs=1e-12
        )

    def test_i2_diagonal_detector(self):
        model, ss, s, _ = qutrit_fixture()
        e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        r = model.embed(e0)
        t = sl.table_from_system(r, ss, s)
        assert sl.i2_from_table(t[{1, 2}], t[{1}], t[{2}]) == pytest.approx(0.0, abs=1e-12)

    def test_i2_classical_additivity(self):
        model, ss, s, r = classical_fixture()
        t = sl.table_from_system(r, ss, s)
        assert sl.i2_from_table(t[{1, 2}], t[{1}], t[{2}]) == pytest.approx(0.0, abs=1e-15)


class TestIkFromTable:
    def test_reduces_to_i3(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = make_table(3, rng.uniform(0, 1, 7))
            assert sl.ik_from_table(t) == sl.i3_from_table(t)

    def test_k2(self):
        t = make_table(2, [0.0, 0.0, 1.0])
        # subsets ordered {1},{2},{12}
        assert sl.ik_from_table(t) == pytest.approx(1.0)

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            sl.ik_from_table(make_table(1, [0.5]))

    def test_i4_vanishes_on_quantum4(self):
        model = build_quantum_model(4)
        ss = slit_system(model, subset_filters(basis_projectors(4), model))
        for i in range(50):
            s = sl.random_state(model, [20, i])
            r = sl.random_effect(model, [21, i])
            t = sl.table_from_system(r, ss, s)
            assert abs(sl.ik_from_table(t)) < 1e-10

    @given(delta=st.floats(-0.5, 0.5, allow_nan=False), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_triple_entry(self, delta, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 1, 7)
        t = make_table(3, vals)
        base = sl.i3_from_table(t)
        t.entries[frozenset({1, 2, 3})] += delta
        assert sl.i3_from_table(t) == pytest.approx(base + delta, abs=1e-12)


class TestOperatorPicture:
    def test_p3_identity_on_qutrit_basis_slits(self):
        _, ss, _, _ = qutrit_fixture()
        np.testing.assert_allclose(sl.p3_operator(ss), np.eye(9), atol=1e-12)

    def test_p3_identity_on_classical(self):
        _, ss, _, _ = classical_fixture()
        np.testing.assert_allclose(sl.p3_operator(ss), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize(
        "fixture",
        [qutrit_fixture, real_qutrit_fixture, classical_fixture, quantum4_subspace_fixture],
    )
    def test_p3_idempotent(self, fixture):
        ss = fixture()[1]
        p3 = sl.p3_operator(ss)
        assert np.linalg.norm(p3 @ p3 - p3, "fro") < 1e-10

    def test_defect_zero_on_qutrit(self):
        _, ss, _, _ = qutrit_fixture()
        assert np.linalg.norm(sl.defect_operator(ss)) < 1e-12

    def test_defect_zero_on_quantum4_subspace(self):
        _, ss = quantum4_subspace_fixture()
        assert np.linalg.norm(sl.defect_operator(ss)) < 1e-10

    @pytest.mark.parametrize(
        "fixture",
        [qutrit_fixture, real_qutrit_fixture, classical_fixture, quantum4_subspace_fixture],
    )
    def test_defect_annihilates_p3(self, fixture):
        ss = fixture()[1]
        r = sl.defect_operator(ss)
        p3 = sl.p3_operator(ss)
        assert np.linalg.norm(r @ p3, "fro") < 1e-10
        assert np.linalg.norm(p3 @ r, "fro") < 1e-10

    def test_i3_operator_zero_on_qutrit(self):
        model, ss, _, _ = qutrit_fixture()
        for i in range(20):
            r = sl.random_effect(model, [30, i])
            s = sl.random_state(model, [31, i])
            assert abs(sl.i3_operator(r, ss, s)) < 1e-12

    def test_zero_effect(self):
        model, ss, s, _ = qutrit_fixture()
        zero = np.zeros(9)
        assert sl.i3_operator(zero, ss, s) == 0.0

    def test_operator_matches_table_on_quantum4(self):
        model, ss = quantum4_subspace_fixture()
        for i in range(200):
            r = sl.random_effect(model, [40, i])
            s = sl.random_state(model, [41, i])
            t = sl.table_from_system(r, ss, s)
            assert sl.i3_operator(r, ss, s) == pytest.approx(
                sl.i3_from_table(t), abs=1e-11
            )


class TestSpanCondition:
    def test_qutrit_basis_slits(self):
        _, ss, _, _ = qutrit_fixture()
        assert sl.span_condition_check(ss) < 1e-10

    def test_classical(self):
        _, ss, _, _ = classical_fixture()
        assert sl.span_condition_check(ss) < 1e-12

    def test_lemma2_mutual_span(self):
        # span of the signed sum's image equals the union of the pair faces
        for fixture in (qutrit_fixture, classical_fixture, quantum4_subspace_fixture):
            ss = fixture()[1]
            pair_cols = np.hstack(
                [ss.filter_for(J).projection for J in ({1, 2}, {1, 3}, {2, 3})]
            )
            resid = mutual_span_residual(sl.p3_operator(ss), pair_cols)
            assert resid < 1e-10


def negative_zero_model_system(slits):
    """The quantum:3 system of slits read back from a model file whose
    filters hold -0.0 wherever they are zero."""
    model = build_quantum_model(3)
    named = {subset_key(J): f for J, f in subset_filters(slits, model).items()}
    d = serialize.model_to_dict(model, named)
    for spec in d["filters"].values():
        for part in spec.values():
            for row in part:
                row[:] = [-0.0 if x == 0.0 else x for x in row]
    text = serialize.dumps(d)
    assert "-0.0" in text
    model, filters = serialize.model_from_dict(json.loads(text))
    return slit_system(model, {J: filters[subset_key(J)] for J in all_subsets(3)})


def two_block_system():
    """quantum:5 slits on two 2 x 2 Hilbert blocks of one width: on {0, 1}
    Hadamard projectors, whose defect is exactly zero there, on {2, 3} a
    rotated pair, whose defect keeps rounding; slit 3 is |4><4|."""
    v, w = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    pis = np.zeros((3, 5, 5), dtype=complex)
    pis[0, :2, :2], pis[1, :2, :2] = [[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]
    pis[0, 2:4, 2:4], pis[1, 2:4, 2:4], pis[2, 4, 4] = np.outer(v, v), np.outer(w, w), 1.0
    model = build_quantum_model(5)
    ss = slit_system(model, subset_filters(list(pis), model))
    assert [c.shape for c, _ in ss.projection_blocks][0] == (2, 4)
    assert [c.shape for c, _ in ss.defect_blocks][0] == (1, 4)
    return ss


def defect_families():
    rng = np.random.default_rng(8)
    out = [(f"{kind}{d}-basis", lambda d=d, kind=kind: basis_system(d, kind))
           for kind in ("quantum", "real_quantum") for d in (3, 4, 6, 10, 16)]
    out += [("quantum4-4slits", lambda: basis_system(4, k=4)),
            ("classical4", lambda: basis_system(4, "classical")),
            ("spin1", spin1_system),
            ("q4-subspace", lambda: quantum4_subspace_fixture(2)[1])]
    for axis in ([0, 0, 1], [0.6, 0, 0.8], list(rng.standard_normal(3))):
        def spin1(axis=np.asarray(axis, dtype=float) / np.linalg.norm(axis)):
            model = build_quantum_model(3)
            setup = sl.spin1_feynman_setup(axis, axis)
            return slit_system(model, subset_filters(list(setup[0]), model))
        out.append((f"spin1-{np.round(axis, 2).tolist()}", spin1))
    a = rng.standard_normal((36, 36))
    out.append(("quantum6-bumped", lambda: basis_system(6).with_triple_perturbation(
        1e-4 * (a + a.T))))
    tilted = sl.spin1_feynman_setup([0.6, 0, 0.8], [0, 0, 1])[0]
    out += [("quantum5-one-zero-block-of-two", two_block_system),
            ("from-model-basis-negative-zeros",
             lambda: negative_zero_model_system(basis_projectors(3))),
            ("from-model-spin1-negative-zeros", lambda: negative_zero_model_system(tilted))]
    return out


class TestBlockedProbes:
    """The defect operator and prop1's operator gap run per coordinate
    block, and the sampled probe pairs each draw with the defect operator;
    the dense formulas are the references."""

    @pytest.mark.parametrize("system", [f[1] for f in defect_families()],
                             ids=[f[0] for f in defect_families()])
    def test_defect_operator_bytes(self, system):
        # each entry is the same signed sum of the same filter entries, and
        # off defect_blocks, which holds only nonzero blocks, the dense
        # formula gives +0.0
        ss = system()
        got, want = sl.defect_operator(ss), dense_defect(ss)
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
        assert (ss.defect_blocks == []) == (not want.any())
        for _, defect in ss.defect_blocks:
            assert defect.any(axis=(1, 2)).all()
            assert not defect.flags.writeable

    @pytest.mark.parametrize("system", [f[1] for f in defect_families()],
                             ids=[f[0] for f in defect_families()])
    def test_prop1_probes_match_dense(self, system):
        ss = system()
        rep = sl.prop1_verify(ss, n_samples=40, seed=3)
        gap, sup = dense_prop1_probes(ss, 40, 3)
        assert rep.sup_abs_i3.hex() == sup.hex()
        if len(ss.blocks) == 1:
            assert rep.operator_gap.hex() == gap.hex()
        else:
            # the gap sums the squares per block, in another order: two
            # orders of an m-term sum differ by at most 2 m eps times the sum
            # of the terms' magnitudes
            m = ss.model.dimension
            assert abs(rep.operator_gap - gap) <= 2 * m * np.finfo(float).eps * gap


class TestProp1:
    @pytest.mark.parametrize(
        "fixture", [qutrit_fixture, real_qutrit_fixture, classical_fixture]
    )
    def test_all_hold_on_valid_systems(self, fixture):
        ss = fixture()[1]
        rep = sl.prop1_verify(ss, n_samples=500, seed=0)
        assert rep.verdicts == (True, True, True)
        assert rep.consistent
        assert max(rep.sup_abs_i3, rep.operator_gap, rep.span_defect) < 1e-9

    def test_perturbation_flips_all_three(self):
        model, ss = quantum4_subspace_fixture()
        rng = np.random.default_rng(11)
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        rep = sl.prop1_verify(
            ss.with_triple_perturbation(1e-3 * np.outer(v, v)), n_samples=500, seed=0
        )
        assert rep.verdicts == (False, False, False)
        assert rep.operator_gap == pytest.approx(1e-3, rel=1e-6)
        assert rep.sup_abs_i3 > 1e-5
        assert rep.span_defect > 1e-5

    def test_i2_witnesses_interference(self):
        model, ss, _, _ = qutrit_fixture()
        best = 0.0
        for i in range(500):
            rng = np.random.default_rng([50, i])
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi /= np.linalg.norm(phi)
            s = model.embed(np.outer(psi, psi.conj()))
            r = model.embed(np.outer(phi, phi.conj()))
            t = sl.table_from_system(r, ss, s)
            for a, b in ((1, 2), (1, 3), (2, 3)):
                best = max(best, abs(sl.i2_from_table(t[{a, b}], t[{a}], t[{b}])))
        assert best > 0.1

    def test_classical_i2_i3_vanish(self):
        model, ss, _, _ = classical_fixture()
        for i in range(100):
            s = sl.random_state(model, [60, i])
            r = sl.random_effect(model, [61, i])
            t = sl.table_from_system(r, ss, s)
            assert abs(sl.i3_from_table(t)) < 1e-12
            for a, b in ((1, 2), (1, 3), (2, 3)):
                assert abs(sl.i2_from_table(t[{a, b}], t[{a}], t[{b}])) < 1e-12
