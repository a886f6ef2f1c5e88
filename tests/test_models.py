"""Model builders, embeddings, conjugation superoperators, and the spin-1
geometry."""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import sorkinlab as sl
from sorkinlab import gpt, models
from sorkinlab.cli import resolve_slits
from sorkinlab.models import (
    basis_projectors,
    SPIN1_X,
    SPIN1_Z,
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
    subset_filters,
)
from sorkinlab.gpt import DimensionMismatch, Filter, ModelSpace, NotAProjection
from sorkinlab.interference import all_subsets, slit_system

from helpers import one_slit_filter

PSI = np.ones(3, dtype=complex) / np.sqrt(3.0)
PSI_PROJ = np.outer(PSI, PSI.conj())


def dense_superoperator(pi, model):
    """Reference: the dense O(d^6) two-einsum formula for rho -> Pi rho Pi."""
    conjugated = np.einsum("ab,kbc,cd->kad", pi, model.basis, pi)
    return np.real(np.einsum("jdc,kcd->jk", model.basis, conjugated))


def random_projector(d, rank, rng, complex_=True):
    g = rng.standard_normal((d, d))
    if complex_:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q[:, :rank] @ q[:, :rank].conj().T


class TestBuilders:
    @pytest.mark.parametrize("d,m", [(2, 4), (3, 9), (4, 16)])
    def test_quantum_dimension(self, d, m):
        assert build_quantum_model(d).dimension == m

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 6), (4, 10)])
    def test_real_quantum_dimension(self, d, m):
        assert build_real_quantum_model(d).dimension == m

    def test_classical_dimension(self):
        model = build_classical_model(3)
        assert model.dimension == 3
        np.testing.assert_array_equal(model.order_unit, np.ones(3))

    @pytest.mark.parametrize("builder", [build_quantum_model, build_real_quantum_model])
    def test_small_dimension_rejected(self, builder):
        with pytest.raises(ValueError):
            builder(1)

    def test_embed_round_trip(self):
        model = build_quantum_model(3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (a + a.conj().T) / 2
        np.testing.assert_allclose(model.unembed(model.embed(h)), h, atol=1e-13)

    def test_real_quantum_round_trip(self):
        model = build_real_quantum_model(3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        h = (a + a.T) / 2
        np.testing.assert_allclose(model.unembed(model.embed(h)), h, atol=1e-13)

    def test_real_quantum_cone_contains_gram(self):
        model = build_real_quantum_model(3)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3))
        rho = g @ g.T
        rho /= np.trace(rho)
        assert model.contains(model.embed(rho))

    def test_order_unit_is_identity_embedding(self):
        model = build_quantum_model(3)
        np.testing.assert_allclose(model.unembed(model.order_unit), np.eye(3), atol=1e-13)


def builder_order_unit(kind, d):
    """Reference: the order unit the builders set before the model record
    worked it out, the all-ones vector or the dense contraction of the
    identity with the basis (for quantum:d a strided real view)."""
    if kind == "classical":
        return np.ones(d)
    return np.real(np.einsum("kij,ji->k", ModelSpace(kind, d).basis, np.eye(d)))


class TestModelRecord:
    BUILDERS = {"quantum": build_quantum_model, "real_quantum": build_real_quantum_model,
                "classical": build_classical_model}

    @pytest.mark.parametrize("kind", ["quantum", "real_quantum", "classical"])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_builders_values(self, kind, d):
        model = self.BUILDERS[kind](d)
        m = {"quantum": d * d, "real_quantum": d * (d + 1) // 2, "classical": d}[kind]
        assert (model.kind, model.d, model.dimension, model.label) == (kind, d, m, f"{kind}:{d}")
        assert model.generators is None
        ref = builder_order_unit(kind, d)
        assert model.order_unit.dtype == np.float64
        assert model.order_unit.strides == ref.strides
        assert model.order_unit.tobytes() == ref.tobytes()

    def test_quantum_order_unit_is_a_strided_real_view(self):
        assert build_quantum_model(3).order_unit.strides == (16,)

    def test_label_given_or_default(self):
        assert ModelSpace("quantum", 3, label="mine").label == "mine"
        gens = np.array([[1.0, 0.0], [0.0, 1.0]])
        custom = ModelSpace("custom", generators=gens, order_unit=np.ones(2))
        assert (custom.dimension, custom.label) == (2, "custom")
        assert ModelSpace("custom", generators=gens, order_unit=np.ones(2), label="c").label == "c"

    def test_custom_cone_reads_lists(self):
        gens = [[1, 0], [1, 1]]
        from_lists = ModelSpace("custom", generators=gens, order_unit=[1, 0])
        from_arrays = ModelSpace("custom", generators=np.array(gens, dtype=float),
                                 order_unit=np.array([1.0, 0.0]))
        for a, b in [(from_lists.generators, from_arrays.generators),
                     (from_lists.order_unit, from_arrays.order_unit)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        x = np.array([0.3, -0.2])
        assert from_lists.extreme_values(x).tobytes() == from_arrays.extreme_values(x).tobytes()


# one model of each kind
EVERY_KIND = {
    "quantum": lambda: build_quantum_model(3),
    "real_quantum": lambda: build_real_quantum_model(3),
    "classical": lambda: build_classical_model(3),
    "custom": lambda: ModelSpace("custom", generators=np.array([[1.0, 0.0], [1.0, 1.0]]),
                                 order_unit=np.array([1.0, 0.0]), label="wedge"),
}


class TestConeClasses:
    @pytest.mark.parametrize("kind", EVERY_KIND)
    def test_each_kind_has_its_cone_class(self, kind):
        model = EVERY_KIND[kind]()
        assert type(model) is gpt.CONES[kind]
        assert isinstance(model, ModelSpace) and model.kind == kind

    @pytest.mark.parametrize("copier", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("kind", EVERY_KIND)
    def test_models_survive_pickling_and_deepcopy(self, kind, copier):
        model = EVERY_KIND[kind]()
        twin = copier(model)
        assert (type(twin), twin.kind, twin.label, twin.dimension) == (
            type(model), model.kind, model.label, model.dimension)
        assert (twin.order_unit.tobytes(), twin.order_unit.strides) == (
            model.order_unit.tobytes(), model.order_unit.strides)
        assert (twin.slit_dtype, twin.size_key, twin.masks) == (
            model.slit_dtype, model.size_key, model.masks)
        assert twin.extreme_values(twin.order_unit).tobytes() == (
            model.extreme_values(model.order_unit).tobytes())


class TestSharedConstants:
    """A PSD model's order unit and the basis projectors are built once per
    process per size and dtype, and shared read-only."""

    @pytest.mark.parametrize("kind", ["quantum", "real_quantum"])
    @pytest.mark.parametrize("d", [2, 3, 6, 10])
    def test_order_unit_keeps_the_bytes_and_strides_of_embed(self, kind, d):
        model = ModelSpace(kind, d)
        ref = model.embed(np.eye(d))
        assert (model.order_unit.tobytes(), model.order_unit.strides) == (
            ref.tobytes(), ref.strides)

    @pytest.mark.parametrize("kind", ["quantum", "real_quantum"])
    def test_order_unit_is_shared_and_read_only(self, kind):
        a, b = ModelSpace(kind, 4), ModelSpace(kind, 4)
        assert a.order_unit is b.order_unit
        with pytest.raises(ValueError, match="read-only"):
            a.order_unit[0] = 1.0

    def test_a_second_model_build_embeds_nothing(self, monkeypatch):
        build_quantum_model(5)
        calls = []
        embed = gpt._embed
        monkeypatch.setattr(gpt, "_embed", lambda *args: calls.append(args) or embed(*args))
        build_quantum_model(5)
        assert calls == []

    def test_basis_projectors_are_a_shared_read_only_stack(self):
        pis = basis_projectors(4, float)
        assert pis is basis_projectors(4, float)
        assert (pis.shape, pis.dtype, pis.flags.writeable) == ((4, 4, 4), np.float64, False)
        np.testing.assert_array_equal(pis, [np.diag(e) for e in np.eye(4)])

    def test_basis_slits_on_a_cache_hit_build_no_projector(self, monkeypatch):
        first = resolve_slits("basis", build_quantum_model(4), {})
        outer = []
        real_outer = np.outer
        monkeypatch.setattr(np, "outer", lambda *args: outer.append(1) or real_outer(*args))
        model = build_quantum_model(4)
        assert resolve_slits("basis", model, {}) is first
        model.detector()
        assert outer == []

    @pytest.mark.parametrize("kind", ["quantum", "real_quantum"])
    @pytest.mark.parametrize("d", [3, 6])
    def test_detector_keeps_its_bytes(self, kind, d):
        model = ModelSpace(kind, d)
        eye = np.eye(d, dtype=complex)
        ref = model.embed(np.array([np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)]))
        detector = model.detector()
        assert (detector.tobytes(), detector.strides) == (ref.tobytes(), ref.strides)


SRC = Path(gpt.__file__).parent


def kind_comparisons() -> list[tuple[str, str, int]]:
    """(file, top-level class or function, line) of each comparison of a
    name or attribute `kind` with a string literal (or a tuple of them) in
    the package's modules."""
    def is_kind(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "kind"

    def is_literal(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in items)

    out = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(map(is_kind, operands)) and any(map(is_literal, operands)):
                        out.append((path.name, scope, node.lineno))
    return out


def test_only_the_cone_classes_compare_kind_with_a_string():
    # the cone decides; kind strings are read only where a model file is
    # parsed and by the CLI's fixtures that name one model (uniform,
    # fixture:qutrit and spin-1)
    cones = {("gpt.py", cls.__name__) for cls in {ModelSpace, *gpt.CONES.values()}}
    outside = [(name, scope) for name, scope, _ in kind_comparisons()
               if (name, scope) not in cones | {("serialize.py", "model_from_dict")}]
    assert sorted(outside) == [("cli.py", "_resolve_vector"), ("cli.py", "_spin1_system"),
                               ("cli.py", "resolve_state")]


def classical_subset_filters(blocks, model):
    """Reference: the builder of classical slit families from disjoint
    coordinate blocks that subset_filters replaced; kept to pin the bytes
    of subset_filters on 0/1 diagonal projectors."""
    coords = [i for b in blocks for i in set(b)]
    if len(coords) != len(set(coords)):
        raise ValueError("slits not pairwise orthogonal")
    out = {}
    for J in all_subsets(len(blocks)):
        mask = np.zeros(model.dimension)
        for i in J:
            mask[list(blocks[i - 1])] = 1.0
        out[J] = Filter(projection=np.diag(mask), complement=np.diag(1.0 - mask))
    return out


def block_projectors(blocks, n, dtype=float):
    return [np.diag(np.isin(np.arange(n), b)).astype(dtype) for b in blocks]


def block_families():
    for n in range(3, 7):
        for blocks in ([[0], [1], [2]], [[i] for i in range(n)], [[0], list(range(1, n - 1))],
                       [[n - 1, 0], [1]]):
            yield pytest.param(n, blocks, id=f"classical:{n}-{blocks}")


class TestClassicalSubsetFilters:
    @pytest.mark.parametrize("n,blocks", block_families())
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_byte_identical_to_block_builder(self, n, blocks, dtype):
        model = build_classical_model(n)
        got = subset_filters(block_projectors(blocks, n, dtype), model)
        want = classical_subset_filters(blocks, model)
        assert list(got) == list(want)
        for J, f in want.items():
            for part in ("projection", "complement"):
                a, b = getattr(got[J], part), getattr(f, part)
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complement_is_the_diagonal_of_one_minus_the_mask(self, n):
        masks = np.array(np.meshgrid(*[[0.0, 1.0]] * n)).reshape(n, -1).T
        model = build_classical_model(n)
        for mask in masks:
            f = subset_filters([np.diag(mask)], model)[frozenset({1})]
            assert f.complement.tobytes() == np.diag(1 - mask).tobytes()
            assert f.projection.tobytes() == np.diag(mask).tobytes()

    def test_classical_basis_system(self):
        model = build_classical_model(4)
        ss = slit_system(model, subset_filters(basis_projectors(4, float)[:3], model))
        assert ss.k == 3 and ss.report.passed

    @pytest.mark.parametrize("pis", [[np.eye(4)], [np.eye(2)], [np.zeros((3, 4))], [np.ones(3)]],
                             ids=["4x4", "2x2", "3x4", "vector"])
    def test_wrong_shape_rejected(self, pis):
        with pytest.raises(DimensionMismatch):
            subset_filters(pis, build_classical_model(3))

    @pytest.mark.parametrize("pi", [
        np.diag([0.5, 0.0, 0.0]),
        np.diag([2.0, 0.0, 0.0]),
        np.diag([-1.0, 0.0, 0.0]),
        np.diag([np.nan, 0.0, 0.0]),
        np.diag([np.inf, 0.0, 0.0]),
        np.diag([1j, 0.0, 0.0]),
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.full((3, 3), 1.0 / 3.0),
    ], ids=["half", "two", "minus-one", "nan", "inf", "imaginary", "off-diagonal-0/1",
            "rank-1-not-diagonal"])
    def test_not_a_0_1_diagonal_rejected(self, pi):
        model = build_classical_model(3)
        with pytest.raises(NotAProjection):
            subset_filters([pi], model)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            subset_filters([np.diag([0.0, 0.0, 1.0]), pi], model)

    def test_overlapping_blocks_rejected(self):
        model = build_classical_model(3)
        with pytest.raises(ValueError, match="slits not pairwise orthogonal"):
            subset_filters(block_projectors([[0, 1], [1, 2]], 3), model)


class TestConjugation:
    def test_identity_projector(self):
        model = build_quantum_model(3)
        t = sl.conjugation_superoperator(np.eye(3, dtype=complex), model)
        np.testing.assert_allclose(t, np.eye(9), atol=1e-12)

    def test_rank1_conjugation_value(self):
        model = build_quantum_model(3)
        pi = np.zeros((3, 3), dtype=complex)
        pi[0, 0] = 1.0
        t = sl.conjugation_superoperator(pi, model)
        out = t @ model.embed(PSI_PROJ)
        np.testing.assert_allclose(
            model.unembed(out), np.diag([1 / 3, 0, 0]), atol=1e-12
        )

    def test_rank2_superoperator_rank(self):
        model = build_quantum_model(3)
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        t = sl.conjugation_superoperator(pi, model)
        assert np.linalg.matrix_rank(t, tol=1e-10) == 4

    def test_non_projector_rejected(self):
        model = build_quantum_model(3)
        with pytest.raises(sl.NotAProjection):
            sl.conjugation_superoperator(2.0 * np.eye(3, dtype=complex), model)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_projector_rejected(self, value):
        # NaN passes every "residual > tolerance" test, so it is rejected first
        model = build_quantum_model(3)
        bad = np.diag([value, 0.0, 0.0]).astype(complex)
        with pytest.raises(sl.NotAProjection), np.errstate(invalid="ignore"):
            sl.conjugation_superoperator(bad, model)
        with pytest.raises(sl.NotAProjection), np.errstate(invalid="ignore"):
            subset_filters([bad], model)
        with pytest.raises(ValueError, match="not pairwise orthogonal"), \
                np.errstate(invalid="ignore"):
            subset_filters([bad, *basis_projectors(3)[1:]], model)

    def test_linearity_round_trip(self):
        # applying to each basis element and re-embedding rebuilds the matrix
        model = build_quantum_model(3)
        pi = np.diag([1.0, 1.0, 0.0]).astype(complex)
        t = sl.conjugation_superoperator(pi, model)
        rebuilt = np.column_stack(
            [model.embed(pi @ model.basis[k] @ pi) for k in range(9)]
        )
        np.testing.assert_allclose(t, rebuilt, atol=1e-12)


class TestConjugationKernel:
    """The sparse kernel against the dense formula, byte for byte: experiment
    plan hashes cover the filter bytes."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 10])
    def test_quantum_byte_identical_to_dense(self, d):
        model = build_quantum_model(d)
        rng = np.random.default_rng(d)
        for rank in range(d + 1):
            pi = random_projector(d, rank, rng)
            f = one_slit_filter(pi, model)
            assert np.array_equal(f.projection, dense_superoperator(pi, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(d) - pi, model)
            )

    def test_quantum16_byte_identical_to_dense(self):
        model = build_quantum_model(16)
        pi = random_projector(16, 5, np.random.default_rng(16))
        t = sl.conjugation_superoperator(pi, model)
        assert np.array_equal(t, dense_superoperator(pi, model))

    def test_partial_support_byte_identical_to_dense(self):
        # projectors that are dense on a coordinate subspace and zero off it:
        # the kernel skips the basis entries off the stack's joint support
        d = 6
        model = build_quantum_model(d)
        rng = np.random.default_rng(6)
        pi = np.zeros((d, d), dtype=complex)
        pi[np.ix_([0, 1, 4], [0, 1, 4])] = random_projector(3, 2, rng)
        f = one_slit_filter(pi, model)
        assert np.array_equal(f.projection, dense_superoperator(pi, model))
        assert np.array_equal(
            f.complement, dense_superoperator(np.eye(d) - pi, model)
        )
        # a family whose members have different supports: {0, 1} twice, {4}
        half = np.zeros((d, d), dtype=complex)
        half[:2, :2] = random_projector(2, 1, rng)
        rest = np.zeros((d, d), dtype=complex)
        rest[:2, :2] = np.eye(2) - half[:2, :2]
        pis = [half, rest, basis_projectors(d)[4]]
        for J, f in subset_filters(pis, model).items():
            pj = np.sum([pis[i - 1] for i in sorted(J)], axis=0)
            assert np.array_equal(f.projection, dense_superoperator(pj, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(d) - pj, model)
            )

    @pytest.mark.parametrize("axis", [[0.48, -0.6, 0.64], [0, 0, 1]])
    def test_spin1_family_byte_identical_to_dense(self, axis):
        model = build_quantum_model(3)
        setup = sl.spin1_feynman_setup(axis, [0, 0, 1])
        filters = subset_filters(list(setup[0]), model)
        assert len(filters) == 7
        for J, f in filters.items():
            pi = np.sum([setup[0][i - 1] for i in sorted(J)], axis=0)
            assert np.array_equal(f.projection, dense_superoperator(pi, model))
            assert np.array_equal(
                f.complement, dense_superoperator(np.eye(3) - pi, model)
            )

    @pytest.mark.parametrize("kind", ["spin1", "signed-zeros", "classical"])
    def test_joins_are_the_sums_np_sum_forms(self, monkeypatch, kind):
        # each join adds one slit to an earlier join, from +0.0: the sums
        # np.sum(axis=0) forms, down to the sign of a zero
        if kind == "spin1":
            model, pis = build_quantum_model(3), sl.spin1_feynman_setup([0.48, -0.6, 0.64])[0]
        elif kind == "signed-zeros":
            model, pis = build_quantum_model(4), np.array(basis_projectors(4)[:4])
            pis[pis == 0] = complex(-0.0, -0.0)
        else:
            model, pis = build_classical_model(5), np.array(basis_projectors(5, float)[:4])
            pis[pis == 0] = -0.0
        seen = []
        for name in ("_lueders_filters", "_mask_filters"):
            build = getattr(models, name)
            monkeypatch.setattr(models, name, lambda joins, model, build=build:
                                seen.append(joins) or build(joins, model))
        subset_filters(pis, model)
        want = [np.sum([pis[i - 1] for i in sorted(J)], axis=0) for J in all_subsets(len(pis))]
        assert [j.tobytes() for j in seen[0]] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_real_quantum_within_reordering_bound(self, d):
        # With real operands numpy's einsum sums the d diagonal terms of the
        # identity and diagonal basis elements in SIMD lanes, the kernel in
        # index order.  Those terms have absolute sum <= 1 (Cauchy-Schwarz on
        # unit-norm basis elements), so two summation orders of d terms differ
        # by at most (d - 1) eps.  Observed: 0 at odd d, 1.1e-16 at d = 4, 6.
        model = build_real_quantum_model(d)
        rng = np.random.default_rng(d)
        bound = (d - 1) * np.finfo(float).eps
        for rank in range(d + 1):
            pi = random_projector(d, rank, rng, complex_=False)
            f = one_slit_filter(pi, model)
            for mat, ref in (
                (f.projection, dense_superoperator(pi, model)),
                (f.complement, dense_superoperator(np.eye(d) - pi, model)),
            ):
                assert np.max(np.abs(mat - ref)) <= bound

    def test_batched_calls_reject_non_projector(self):
        model = build_quantum_model(3)
        pis = basis_projectors(3)
        with pytest.raises(sl.NotAProjection):
            subset_filters([2.0 * pis[0], pis[1], pis[2]], model)

    def test_matrices_are_plain_contiguous_arrays(self):
        model = build_quantum_model(4)
        filters = subset_filters(basis_projectors(4), model)
        mats = [t for f in filters.values() for t in (f.projection, f.complement)]
        mats.append(sl.conjugation_superoperator(basis_projectors(4)[0], model))
        for mat in mats:
            assert mat.dtype == np.float64
            assert mat.flags.c_contiguous


def support_kernel(pis, model):
    """Reference: the kernel that skipped only the rows and columns where every
    projector of the stack is zero (its joint support), forming s^2 products
    per basis entry on a support of size s; kept to pin the bytes of the
    kernel that skips every term off the stack's nonzero pattern."""
    from sorkinlab.gpt import CHUNK_ELEMENTS
    from sorkinlab.models import _cmul

    n = pis.shape[0]
    m = model.dimension
    nonzero = pis != 0
    on = nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2))
    k, row, col, vr, vi = model.basis_entries
    keep = on[row] & on[col]
    k, row, col, vr, vi = k[keep], row[keep], col[keep], vr[keep], vi[keep]
    if k.size == 0:
        return np.zeros((n, m, m))
    used = np.zeros(m, dtype=bool)
    used[k] = True
    support, elements = np.flatnonzero(on), np.flatnonzero(used)
    local = np.cumsum(on) - 1
    row, col, k = local[row], local[col], (np.cumsum(used) - 1)[k]
    s, r = support.size, elements.size
    pos = np.arange(k.size) - np.searchsorted(k, k)
    order = np.lexsort((k, pos))
    k, row, col, pos = k[order], row[order], col[order], pos[order]
    vr, vi = vr[order], vi[order]
    bounds = np.searchsorted(pos, np.arange(1, pos[-1] + 2))
    later = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    pis = np.ascontiguousarray(pis[:, support[:, None], support])
    sub = np.empty((n, r, r))
    chunk = max(1, CHUNK_ELEMENTS // (s * s * r))
    for lo in range(0, n, chunk):
        p = pis[lo : lo + chunk]
        pr, pim = p.real, np.imag(p)
        xr, xi = _cmul(pr[:, :, row], pim[:, :, row], vr, vi)
        yr, yi = pr.transpose(0, 2, 1)[:, :, col], pim.transpose(0, 2, 1)[:, :, col]
        tr, ti = _cmul(xr[:, :, None], xi[:, :, None], yr[:, None], yi[:, None])
        cr, ci = tr[..., :r], ti[..., :r]
        for sl in later:
            cr[..., k[sl]] += tr[..., sl]
            ci[..., k[sl]] += ti[..., sl]
        terms = vr[:, None] * cr[:, col, row] - vi[:, None] * ci[:, col, row]
        mats = sub[lo : lo + chunk]
        np.add(terms[:, :r], 0.0, out=mats)
        for sl in later:
            mats[:, k[sl]] += terms[:, sl]
    out = np.zeros((n, m, m))
    out[:, elements[:, None], elements] = sub
    return out


def joins(pis):
    """The 2^k - 1 sums of a list of projectors, in all_subsets order."""
    return np.array([np.sum([pis[i - 1] for i in sorted(J)], axis=0)
                     for J in all_subsets(len(pis))])


def kernel_families():
    """(id, model, projector stack) for the families the kernel is pinned on."""
    rng = np.random.default_rng(10)
    out = []
    for kind, d in [("quantum", d) for d in (3, 4, 6, 10, 16)] + [
        ("real_quantum", 4), ("real_quantum", 6)
    ]:
        quantum = kind == "quantum"
        model = (build_quantum_model if quantum else build_real_quantum_model)(d)
        out.append((f"{kind}{d}-basis", model,
                    joins(basis_projectors(d, complex if quantum else float)[:3])))
    q3 = build_quantum_model(3)
    for axis in ("0.48,-0.6,0.64", "0,0,1"):
        setup = sl.spin1_feynman_setup([float(a) for a in axis.split(",")], [0, 0, 1])
        out.append((f"spin1-{axis}", q3, joins(list(setup[0]))))
    # the partial-support family: members dense on {0, 1}, and one on {4}
    q6 = build_quantum_model(6)
    half = np.zeros((6, 6), dtype=complex)
    half[:2, :2] = random_projector(2, 1, rng)
    rest = np.zeros((6, 6), dtype=complex)
    rest[:2, :2] = np.eye(2) - half[:2, :2]
    out.append(("partial-support", q6, joins([half, rest, basis_projectors(6)[4]])))
    # members whose patterns overlap without nesting: dense on {0, 1, 2},
    # dense on {2, 3}, and diagonal
    a = np.zeros((6, 6), dtype=complex)
    a[:3, :3] = random_projector(3, 2, rng)
    b = np.zeros((6, 6), dtype=complex)
    b[2:4, 2:4] = random_projector(2, 1, rng)
    out.append(("mixed-patterns", q6, np.array([a, b, np.diag([0, 1, 0, 1, 1, 0]) + 0j])))
    for d in (3, 6, 10):
        model = build_quantum_model(d)
        for r in (1, d // 2):
            stack = np.array([random_projector(d, r, rng) for _ in range(7)])
            out.append((f"dense-q{d}-rank{r}", model, stack))
    # the longest sequential sums: every entry of C sums a term of each
    # basis entry of its element, and every output entry ~2.5 d^2 of C
    for build, kind, d, complex_ in ((build_quantum_model, "q", 16, True),
                                     (build_real_quantum_model, "rq", 10, False)):
        stack = np.array([random_projector(d, d // 2, rng, complex_) for _ in range(7)])
        out.append((f"dense-{kind}{d}-rank{d // 2}", build(d), stack))
    return out


class TestKernelAgainstSupportKernel:
    """The kernel skips every term whose projector factor is zero; the bytes
    of each projection and complement are those of the support kernel."""

    @pytest.mark.parametrize("model,pis", [f[1:] for f in kernel_families()],
                             ids=[f[0] for f in kernel_families()])
    def test_byte_identical(self, model, pis):
        from sorkinlab.models import _conjugation_matrices, _plan_for

        for stack in (pis, np.eye(pis.shape[1]) - pis):
            assert _conjugation_matrices(stack, model, _plan_for(stack, model)).tobytes() == \
                support_kernel(stack, model).tobytes()

    def test_byte_identical_across_chunks(self, monkeypatch):
        # chunks of one and of two projectors: the row offsets of the plan's
        # flat indices and a last chunk shorter than the others
        from sorkinlab import gpt, models

        for _, model, pis in kernel_families():
            for stack in (pis, np.eye(pis.shape[1]) - pis):
                size = models._plan_for(stack, model).c_size
                for rows in (1, 2):
                    monkeypatch.setattr(models, "CHUNK_ELEMENTS", rows * size)
                    models._plans.clear()
                    try:
                        plan = models._plan_for(stack, model)
                        assert plan.rows == rows
                        assert models._conjugation_matrices(stack, model, plan).tobytes() == \
                            support_kernel(stack, model).tobytes()
                    finally:
                        models._plans.clear()

    def test_bookkeeping_is_shared_and_read_only(self):
        from sorkinlab import gpt, models
        from sorkinlab.models import _conjugation_plan

        model = build_quantum_model(5)
        first = subset_filters(basis_projectors(5)[:3], model)
        kept = len(models._plans)
        again = subset_filters(basis_projectors(5)[:3], model)
        assert len(models._plans) == kept
        # a hit hands the second family the first one's plan, and its partition
        assert next(iter(again.values())).blocks is next(iter(first.values())).blocks
        pattern = np.zeros((5, 5), dtype=bool)
        pattern[[0, 1, 2], [0, 1, 2]] = True
        plan = _conjugation_plan(5, complex, pattern.tobytes(), 7)
        arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)

    def test_dense_plans_stay_within_the_byte_bound(self):
        # a dense quantum:24 plan holds ~36 MB of index arrays; stacks of
        # 1..33 projectors are 33 distinct keys, one more than the entry bound
        from sorkinlab import gpt, models

        model = build_quantum_model(24)
        rng = np.random.default_rng(12)
        stack = np.array([random_projector(24, 1, rng) for _ in range(33)])
        models._plans.clear()
        try:
            for n in range(1, 34):
                plan = models._plan_for(stack[:n], model)
                kept = [p for p, _ in models._plans.values()]
                assert sum(map(models._plan_bytes, kept)) <= models.PLAN_CACHE_BYTES
                assert kept[-1] is plan and models._plan_for(stack[:n], model) is plan
            assert models._plan_bytes(plan) > models.PLAN_CACHE_BYTES // 2
            assert len(kept) == 1
        finally:
            models._plans.clear()

    @pytest.mark.parametrize("name", ["quantum6-basis", "quantum10-basis", "quantum16-basis",
                                      "spin1-0.48,-0.6,0.64", "spin1-0,0,1"])
    def test_basis_and_spin1_plans_are_kept(self, name):
        from sorkinlab import gpt, models

        model, pis = next((m, p) for n, m, p in kernel_families() if n == name)
        models._plans.clear()
        for stack in (pis, np.eye(pis.shape[1]) - pis):
            plan = models._plan_for(stack, model)
            assert models._plan_for(stack, model) is plan


def orthogonal_projectors(d, ranks, rng, complex_=True):
    """Pairwise-orthogonal random projectors of the given ranks, dense in the
    computational basis."""
    g = rng.standard_normal((d, d))
    if complex_:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    ends = np.cumsum(ranks)
    return [q[:, e - r:e] @ q[:, e - r:e].conj().T for r, e in zip(ranks, ends)]


def partition_families():
    """(id, model, projectors) for the kinds of Lueders family the library
    builds: basis slits, spin-1 slits, dense random families, and
    block-diagonal families of 0/1 diagonal projectors."""
    rng = np.random.default_rng(12)
    out = []
    for d in range(3, 17):
        out.append((f"quantum{d}-basis", build_quantum_model(d), basis_projectors(d)[:3]))
        out.append((f"real_quantum{d}-basis", build_real_quantum_model(d),
                    basis_projectors(d, float)[:3]))
    q3 = build_quantum_model(3)
    axes = [rng.standard_normal(3) for _ in range(3)] + [[0, 0, 1], [0.6, 0, 0.8]]
    for axis in axes:
        axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        out.append((f"spin1-{np.round(axis, 3).tolist()}", q3,
                    list(sl.spin1_feynman_setup(axis, axis)[0])))
    for d, ranks in ((3, (1, 1, 1)), (6, (1, 2, 3)), (10, (3, 3, 3)), (16, (5, 5, 5))):
        out.append((f"dense-quantum{d}-{ranks}", build_quantum_model(d),
                    orthogonal_projectors(d, ranks, rng)))
        out.append((f"dense-real_quantum{d}-{ranks}", build_real_quantum_model(d),
                    orthogonal_projectors(d, ranks, rng, complex_=False)))
    for param in block_families():
        n, blocks = param.values
        out.append((f"quantum-{param.id}", build_quantum_model(n),
                    block_projectors(blocks, n, complex)))
        out.append((f"real_quantum-{param.id}", build_real_quantum_model(n),
                    block_projectors(blocks, n)))
    return out


class TestCoordinateBlocks:
    """Every Lueders family carries one partition of the coordinates, and
    its projections and complements vanish off the diagonal blocks."""

    @pytest.mark.parametrize("model,pis", [f[1:] for f in partition_families()],
                             ids=[f[0] for f in partition_families()])
    def test_family_is_block_diagonal(self, model, pis):
        filters = subset_filters(pis, model)
        blocks = next(iter(filters.values())).blocks
        assert all(f.blocks is blocks for f in filters.values())
        m = model.dimension
        widths = [coords.shape[1] for coords, _ in blocks]
        assert widths == sorted(set(widths))
        members = np.concatenate([coords.ravel() for coords, _ in blocks])
        assert np.array_equal(np.sort(members), np.arange(m))  # a partition
        on = np.zeros(m * m, dtype=bool)
        for coords, entries in blocks:
            assert not (coords.flags.writeable or entries.flags.writeable)
            assert (np.diff(coords, axis=1) > 0).all()
            assert np.array_equal(entries, coords[:, :, None] * m + coords[:, None, :])
            on[entries.ravel()] = True
        on = on.reshape(m, m)
        for f in filters.values():
            for mat in (f.projection, f.complement):
                assert not mat[~on].any()

    @pytest.mark.parametrize("d", [3, 10, 16])
    def test_basis_slit_blocks(self, d):
        # pair coordinates in blocks of their own, the diagonal ones in one
        shapes = {"quantum": [(d * (d - 1) // 2, 2), (1, d)],
                  "real_quantum": [(d * (d - 1) // 2, 1), (1, d)]}
        for kind, build in (("quantum", build_quantum_model),
                            ("real_quantum", build_real_quantum_model)):
            pis = basis_projectors(d, complex if kind == "quantum" else float)[:3]
            f = subset_filters(pis, build(d))[frozenset({1})]
            assert [coords.shape for coords, _ in f.blocks] == shapes[kind]

    def test_dense_family_is_one_block(self):
        setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0, 0, 1])
        f = subset_filters(list(setup[0]), build_quantum_model(3))[frozenset({1})]
        assert [coords.tolist() for coords, _ in f.blocks] == [[list(range(9))]]

    def test_partition_is_shared_per_pattern(self):
        model = build_quantum_model(5)
        a = subset_filters(basis_projectors(5)[:3], model)[frozenset({1})]
        b = subset_filters(basis_projectors(5)[:3], model)[frozenset({2})]
        assert a.blocks is b.blocks


class TestLazyComplements:
    """Projections are built with the family; complements on first read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from sorkinlab import gpt, models

        calls = []
        kernel = models._conjugation_matrices

        def counted(pis, model, plan):
            calls.append(len(pis))
            return kernel(pis, model, plan)

        monkeypatch.setattr(models, "_conjugation_matrices", counted)
        return calls

    def test_complements_built_once_for_the_family(self, calls):
        model = build_quantum_model(4)
        filters = subset_filters(basis_projectors(4)[:3], model)
        assert calls == [7]
        first = filters[frozenset({2})].complement
        assert calls == [7, 7]
        for f in filters.values():
            f.complement
        assert filters[frozenset({2})].complement is first
        assert calls == [7, 7]

    def test_unread_complements_survive_pickling(self, calls):
        model = build_quantum_model(3)
        filters = subset_filters(basis_projectors(3), model)
        copies = pickle.loads(pickle.dumps(filters))
        for J, f in filters.items():
            assert np.array_equal(copies[J].complement, f.complement)

    def test_lueders_filter_complement_on_read(self, calls):
        model = build_quantum_model(3)
        f = one_slit_filter(PSI_PROJ, model)
        assert calls == [1]
        f.complement
        f.complement
        assert calls == [1, 1]

    def test_paper_checks_use_projections_only(self, calls):
        model = build_quantum_model(3)
        setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0, 0, 1])
        ss = slit_system(model, subset_filters(list(setup[0]), model))
        s = sl.random_state(model, seed=1)
        r = sl.random_effect(model, seed=2)
        sl.prop1_verify(ss, n_samples=5, seed=0)
        sl.table_from_system(r, ss, s)
        sl.tomography_roundtrip(ss, s, mode="sampled", shots=1000, seed=3)
        detector = model.embed(np.array(setup[1]))
        sl.run_experiment(sl.ExperimentPlan(ss, detector, s, 1000, 4))
        assert calls == [7]


class TestSlitSystemConstruction:
    def test_basis_projectors_give_identity_triple(self):
        model = build_quantum_model(3)
        ss = slit_system(model, subset_filters(basis_projectors(3), model))
        np.testing.assert_allclose(
            ss.filter_for({1, 2, 3}).projection, np.eye(9), atol=1e-12
        )

    def test_proper_subspace_on_d4(self):
        model = build_quantum_model(4)
        ss = slit_system(model, subset_filters(basis_projectors(4)[:3], model))
        p123 = ss.filter_for({1, 2, 3}).projection
        assert np.linalg.norm(p123 - np.eye(16)) > 1.0

    def test_non_orthogonal_rejected(self):
        model = build_quantum_model(3)
        plus = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        pis = [basis_projectors(3)[0], np.outer(plus, plus.conj()), basis_projectors(3)[2]]
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            subset_filters(pis, model)

    def test_filters_pass_axioms(self):
        model = build_quantum_model(3)
        ss = slit_system(model, subset_filters(basis_projectors(3), model))
        for J, f in ss.derived.items():
            rep = sl.validate_filter(f, model, sl.gpt.sample_states(model, 30, 4))
            assert rep.passed, (sorted(J), rep.to_dict())


class TestSpin1:
    def test_z_operator(self):
        np.testing.assert_allclose(
            sl.spin1_operator([0, 0, 1]), np.diag([1.0, 0.0, -1.0]), atol=1e-15
        )

    def test_x_eigenvalues(self):
        w = np.linalg.eigvalsh(sl.spin1_operator([1, 0, 0]))
        np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)

    def test_traceless(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            assert abs(np.trace(sl.spin1_operator(axis))) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            sl.spin1_operator([0, 0, 2])

    def test_zz_setup_is_computational_basis(self):
        setup = sl.spin1_feynman_setup([0, 0, 1], [0, 0, 1])
        for i, pi in enumerate(setup[0]):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            np.testing.assert_allclose(pi, expected, atol=1e-12)

    def test_detector_from_x_axis(self):
        setup = sl.spin1_feynman_setup([0, 0, 1], [1, 0, 0])
        sx = SPIN1_X
        for pi, lam in zip(setup[1], (1.0, 0.0, -1.0)):
            np.testing.assert_allclose(sx @ pi, lam * pi, atol=1e-10)

    def test_projector_completeness_random_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            setup = sl.spin1_feynman_setup(axis, axis)
            total = np.sum(setup[0], axis=0)
            np.testing.assert_allclose(total, np.eye(3), atol=1e-10)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (
                        np.linalg.norm(
                            setup[0][i] @ setup[0][j]
                        )
                        < 1e-10
                    )


class TestJointProbability:
    """Probability that the system passes a filter and the detector fires."""

    def test_hand_value(self):
        # oracle: Tr(|psi><psi| Pi12 |psi><psi| Pi12) = |<psi|Pi12|psi>|^2 = 4/9
        model = build_quantum_model(3)
        pi12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        passed = one_slit_filter(pi12, model).projection @ model.embed(PSI_PROJ)
        p = float(model.embed(PSI_PROJ) @ passed)
        assert p == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_open_filter_total_probability(self):
        model = build_quantum_model(3)
        ident = np.eye(9)
        s = sl.random_state(model, 9)
        u = model.order_unit
        assert float(u @ (ident @ s)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_supports(self):
        model = build_quantum_model(3)
        pi2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        passed = one_slit_filter(pi2, model).projection @ model.embed(PSI_PROJ)
        assert abs(float(model.embed(e0) @ passed)) < 1e-12

    def test_matches_matrix_picture(self):
        # 100 random (rho, Pi, D) triples against Tr[D Pi rho Pi]
        model = build_quantum_model(3)
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            k = rng.integers(1, 3)
            pi = q[:, :k] @ q[:, :k].conj().T
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (a + a.conj().T) / 2
            w, v = np.linalg.eigh(h)
            dmat = (v * np.clip(w, 0, 1)) @ v.conj().T
            passed = one_slit_filter(pi, model).projection @ model.embed(rho)
            got = float(model.embed(dmat) @ passed)
            expected = np.trace(dmat @ pi @ rho @ pi).real
            assert got == pytest.approx(expected, abs=1e-11)
