"""Builders for concrete model spaces and the spin-1 filter/detector geometry.

Quantum models embed Hermitian matrices in an orthonormal basis (identity
over sqrt(d) plus normalized generalized Gell-Mann matrices), so coordinate
dot products reproduce trace inner products exactly.  Real-quantum models do
the same over the symmetric matrices; classical models are the nonnegative
orthant with the all-ones order unit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .gpt import (
    CHUNK_ELEMENTS,
    DimensionMismatch,
    Filter,
    ModelSpace,
    NotAProjection,
    basis_entries,
    hermitian_basis,
)
from .interference import SlitSystem, all_subsets, slit_system

_ORTHO_TOL = 1e-10


def build_quantum_model(d: int) -> ModelSpace:
    """Hermitian d x d model; m = d^2."""
    if d < 2:
        raise ValueError("quantum model needs d >= 2")
    return ModelSpace("quantum", d)


def build_real_quantum_model(d: int) -> ModelSpace:
    """Real symmetric d x d model; m = d(d+1)/2."""
    if d < 2:
        raise ValueError("real quantum model needs d >= 2")
    return ModelSpace("real_quantum", d)


def build_classical_model(n: int) -> ModelSpace:
    """Probability simplex on n outcomes; order unit = all ones."""
    if n < 2:
        raise ValueError("classical model needs n >= 2")
    return ModelSpace("classical", n)


def model_builder(kind: str):
    """The builder of a built-in model kind: 'quantum', 'real_quantum' or
    'classical'.  The builders are read from this module's names on each
    call, so a wrapper rebound over one of those names is what is returned.
    Raises ValueError on any other kind."""
    builders = {"quantum": build_quantum_model, "real_quantum": build_real_quantum_model,
                "classical": build_classical_model}
    if kind not in builders:
        raise ValueError(f"unknown model kind {kind!r}")
    return builders[kind]


def _cmul(xr, xi, yr, yi):
    """Complex product from separately rounded real products, as numpy's
    einsum forms it (numpy's complex multiply may fuse them)."""
    return xr * yr - xi * yi, xr * yi + xi * yr


@dataclass(frozen=True, eq=False)
class _ConjugationPlan:
    """The bookkeeping of _conjugation_matrices for one basis, one joint
    nonzero pattern of a stack of projectors and the stack's size; the
    arrays are read-only.

    The pattern is closed to its connected blocks (of width w at most), so
    a position within a block names the same row or column for every entry:
    Pi[a, row] can be nonzero only for a in the block of row.  Stage 1 forms
    the terms Pi[a, row] B_e Pi[col, b] of the basis entries e = (k, row,
    col), a over the block of row and b over the block of col, in a
    (w, w, entries) grid, and adds each at c_at into C, a (w, w, triples)
    grid over the triples (k, block of row, block of col).  Stage 2 adds the
    terms m_vr * Re C - m_vi * Im C read at m_at into the output entries
    out_at.  Both stages list the terms of every target in basis-entry
    order, so one np.bincount per contraction sums them in that order.

    The index arrays are flat indices into a chunk of `rows` projectors,
    one row per projector (c_size entries of C each): numpy gathers fastest
    from a flat array, and np.take would copy a read-only index array on
    every call.  blocks is the family's coordinate partition (see
    Filter.blocks).
    """

    rows: int
    x_at: np.ndarray
    y_at: np.ndarray
    vr: np.ndarray
    vi: np.ndarray
    c_at: np.ndarray
    c_size: int
    m_at: np.ndarray
    m_vr: np.ndarray
    m_vi: np.ndarray
    out_at: np.ndarray
    blocks: tuple


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The connected components of the undirected graph on nodes 0..n-1 with
    edges (a[i], b[i]): the lowest node of the component of each node, by
    propagating the lowest label along the edges until nothing changes."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if (low == label).all():
            return label
        label = low


def _coordinate_blocks(d: int, dtype, block: np.ndarray) -> tuple:
    """The coordinate partition of the filters of a family of projectors
    whose joint nonzero pattern has the Hilbert blocks `block` (the lowest
    index of the block of each index, see _components).

    The Hilbert blocks are the connected blocks of the pattern, every index
    outside it a block of its own, and two coordinates share a block when
    their basis elements have entries (row, col) in a common pair of Hilbert
    blocks.  A projector maps the entries of each pair of blocks to that
    pair, so the conjugation matrix of every projector of the family, and of
    its complement I - Pi, whose pattern lies in the family's plus the
    diagonal, is zero off the coordinate blocks.  Returns the partition in
    the form Filter.blocks describes, read-only: per block width w, in
    increasing w, the coordinates (n_blocks, w), a row listing one block's
    coordinates in increasing order and the rows ordered by their first
    coordinate, and the flat indices (n_blocks, w, w) of the blocks'
    entries.
    """
    k, row, col = basis_entries(d, dtype)[:3]
    m = len(hermitian_basis(d, dtype))
    lo, hi = np.minimum(block[row], block[col]), np.maximum(block[row], block[col])
    label = _components(k, m + lo * d + hi, m + d * d)[:m]
    width = np.bincount(label)[label]
    order = np.lexsort((label, width))
    groups = []
    for at in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        coords = at.reshape(-1, width[at[0]])
        group = (coords, coords[:, :, None] * m + coords[:, None, :])
        for a in group:
            a.flags.writeable = False
        groups.append(group)
    return tuple(groups)


class _LRUCache(OrderedDict):
    """key -> (value, bytes), least recently used first, keeping at most
    max_entries values and max_bytes bytes of them.  A value larger than
    max_bytes is returned but not kept; a build that raises keeps nothing."""

    def __init__(self, max_entries: int, max_bytes: int):
        super().__init__()
        self.max_entries, self.max_bytes = max_entries, max_bytes

    def lookup(self, key, build, nbytes):
        """The value kept under key, else build(), kept if it fits and
        sized by nbytes(value)."""
        if key in self:
            self.move_to_end(key)
            return self[key][0]
        value = build()
        size = nbytes(value)
        if size <= self.max_bytes:
            self[key] = (value, size)
            while (len(self) > self.max_entries
                   or sum(n for _, n in self.values()) > self.max_bytes):
                self.popitem(last=False)
        return value


# A plan depends only on the basis, the joint nonzero pattern of the stack
# and the stack's size (its chunk), and a family's projections and
# complements have one pattern each: a few plans serve a process.  A dense
# plan's index arrays grow as d^4 (36 MB at quantum:24), so the cache is
# bounded in bytes as well.
PLAN_CACHE_ENTRIES = 32
PLAN_CACHE_BYTES = 64 << 20
_plans = _LRUCache(PLAN_CACHE_ENTRIES, PLAN_CACHE_BYTES)  # (d, dtype, pattern, n) -> plan


def _plan_bytes(plan: _ConjugationPlan) -> int:
    """The bytes of a plan's index and value arrays and of its partition."""
    arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    return sum(a.nbytes for a in arrays + [a for group in plan.blocks for a in group])


def _conjugation_plan(d: int, dtype, pattern: bytes, n: int) -> _ConjugationPlan:
    on = np.frombuffer(pattern, dtype=bool).reshape(d, d)
    m = len(hermitian_basis(d, dtype))
    # connected blocks of the pattern; an index outside it is its own block
    used = on.any(axis=0) | on.any(axis=1)
    block = _components(*np.nonzero(on), d)  # the lowest index of each block
    reach = block[:, None] == block
    where = np.tril(reach, -1).sum(axis=1)  # position within the block
    w = int(reach[used].sum(axis=1).max(initial=0))
    members = np.argsort(~reach, axis=1, kind="stable")[:, :w]

    k, row, col, vr, vi = basis_entries(d, dtype)  # np.nonzero order
    keep = used[row] & used[col]
    k, row, col, vr, vi = k[keep], row[keep], col[keep], vr[keep], vi[keep]
    # stage 1: C_k on the blocks of (row, col) sums the entries of B_k there
    triples, triple = np.unique((k * d + block[row]) * d + block[col], return_inverse=True)
    c_size = w * w * triples.size
    # stage 2: M[j, kk] sums Re(B_e C_kk[col, row]) over the entries e of
    # B_j, where C_kk is stored on the blocks of (col, row)
    pair = triples % (d * d)
    by_pair = np.argsort(pair, kind="stable")
    want = block[col] * d + block[row]
    first = np.searchsorted(pair[by_pair], want)
    count = np.searchsorted(pair[by_pair], want, side="right") - first
    e = np.repeat(np.arange(k.size), count)
    t = by_pair[first[e] + np.arange(e.size) - np.repeat(np.cumsum(count) - count, count)]

    # projectors per chunk of CHUNK_ELEMENTS entries of C (the largest
    # intermediates hold ~2.5x as many)
    rows = min(n, max(1, CHUNK_ELEMENTS // max(1, c_size)))
    at = np.arange(rows)[:, None]
    grid = (np.arange(w * w)[:, None] * triples.size + triple).reshape(-1)
    plan = _ConjugationPlan(
        rows,
        (at[:, :, None] * d + members[row].T) * d + row,
        (at[:, :, None] * d + col) * d + members[col].T,
        vr,
        vi,
        at * c_size + grid,
        c_size,
        at * c_size + (where[col[e]] * w + where[row[e]]) * triples.size + t,
        vr[e],
        vi[e],
        at * m * m + k[e] * m + triples[t] // (d * d),
        _coordinate_blocks(d, dtype, block),
    )
    for a in vars(plan).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def _joint_pattern(pis: np.ndarray) -> bytes:
    """The joint nonzero pattern of a stack of d x d matrices, (d, d) bools."""
    return (pis != 0).any(axis=0).tobytes()


def _plan_for(pis: np.ndarray, model: ModelSpace) -> _ConjugationPlan:
    """The conjugation plan of a stack of projectors in a matrix model, kept
    in _plans."""
    key = (model.d, model._matrix_dtype, _joint_pattern(pis), len(pis))
    return _plans.lookup(key, lambda: _conjugation_plan(*key), _plan_bytes)


def _conjugation_matrices(
    pis: np.ndarray, model: ModelSpace, plan: _ConjugationPlan
) -> np.ndarray:
    """Real matrices of rho -> Pi rho Pi in a matrix model's coordinates for a
    stack of projectors, (n, m, m).

    Entry (j, k) is Re Tr(B_j Pi B_k Pi), from C_k = Pi B_k Pi.  Both
    contractions run over the nonzero entries of the basis (about 2.5 d^2),
    and they form only the terms whose projector factors can be nonzero:
    C_k[a, b] sums Pi[a, row] B_e Pi[col, b] over the entries e = (k, row,
    col) of B_k with a in the block of row and b in the block of col, the
    blocks being the connected parts of the stack's joint nonzero pattern
    (where some Pi[a, row] or Pi[row, a] is nonzero), and M[j, k] reads
    only the entries of C_k that can be nonzero.  So a dense stack costs
    O(d^4) per matrix, and a stack of diagonal projectors, such as basis
    slits and their complements, one term per basis entry.  The
    bookkeeping depends only on the basis, the pattern and n, and is cached:
    plan is _plan_for(pis, model).

    Every sum adds its terms to +0.0 in np.nonzero order of its basis
    element, which is the order of numpy's dense einsum over complex
    operands: np.bincount adds the weights of each target in input order,
    starting from +0.0.  The terms left out are exact zeros, which change
    no sum but at most the sign of a zero.  So for complex operands the
    result is byte-identical to the dense formula, which matters because
    experiment.plan_hash hashes filter bytes.  With real operands the dense
    einsum reduces in SIMD lanes, so results can differ from it in the last
    bit.
    """
    n = pis.shape[0]
    m = model.dimension
    # complex and contiguous, so the plan's flat indices address it
    pis = np.ascontiguousarray(pis, dtype=complex)
    out = []
    for lo in range(0, n, plan.rows):
        c = min(plan.rows, n - lo)
        p = pis[lo : lo + c].reshape(-1)
        x, y = p[plan.x_at[:c]], p[plan.y_at[:c]]
        # C order: the products below follow the operands' memory layout
        xr, xi = _cmul(x.real, x.imag, plan.vr, plan.vi)
        tr, ti = _cmul(xr[:, :, None], xi[:, :, None], y.real[:, None], y.imag[:, None])
        at = plan.c_at[:c].reshape(-1)
        cr, ci = (np.bincount(at, t.reshape(-1), minlength=c * plan.c_size) for t in (tr, ti))
        at = plan.m_at[:c]
        terms = cr[at] * plan.m_vr - ci[at] * plan.m_vi
        mats = np.bincount(plan.out_at[:c].reshape(-1), terms.reshape(-1), minlength=c * m * m)
        out.append(mats.reshape(c, m, m))
    # a single chunk is returned without a copy
    return out[0] if len(out) == 1 else np.concatenate(out)


def _check_projectors(pis: np.ndarray, model: ModelSpace) -> None:
    if model._matrix_dtype is None:
        raise ValueError(f"model {model.label!r} has no matrix embedding")
    d = model.d
    if pis.shape[1:] != (d, d):
        raise DimensionMismatch(f"projectors are {pis.shape[1:]}, model needs {(d, d)}")
    if not np.isfinite(pis).all():
        raise NotAProjection("projector entries must be finite")
    idem = np.linalg.norm(pis @ pis - pis, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(pis, axis=(1, 2)))
    herm = np.linalg.norm(pis - pis.conj().transpose(0, 2, 1), axis=(1, 2))
    if np.any(idem > _ORTHO_TOL * scale) or np.any(herm > _ORTHO_TOL):
        raise NotAProjection("matrix is not an orthogonal projector")


def conjugation_superoperator(pi: np.ndarray, model: ModelSpace) -> np.ndarray:
    """The real m x m matrix of rho -> Pi rho Pi in embedded coordinates."""
    pis = np.asarray(pi)[None]
    _check_projectors(pis, model)
    return _conjugation_matrices(pis, model, _plan_for(pis, model))[0]


def _lueders_filters(pis, model: ModelSpace) -> list[Filter]:
    """Filter pairs for a list of projectors, sharing the coordinate blocks
    of the list's joint nonzero pattern.

    The projections are built in one kernel call.  The complements are built
    in one more, for the whole list, on the first read of any of them: the
    interference checks, tomography and experiments use only projections.
    The kernel works on each projector separately, so splitting the stack
    leaves every matrix byte-identical.  Projections and complements are
    read-only, so slit systems can share them.
    """
    pis = np.asarray(pis)
    _check_projectors(pis, model)
    plan = _plan_for(pis, model)
    mats = _conjugation_matrices(pis, model, plan)
    mats.flags.writeable = False

    @cache
    def complements() -> np.ndarray:
        stack = np.eye(pis.shape[-1]) - pis
        _check_projectors(stack, model)
        out = _conjugation_matrices(stack, model, _plan_for(stack, model))
        out.flags.writeable = False
        return out

    return [Filter(mat, lambda i=i: complements()[i], plan.blocks) for i, mat in enumerate(mats)]


def _mask_filters(pis, model: ModelSpace) -> list[Filter]:
    """Coordinate-mask filter pairs (P, I - P) for a list of 0/1 diagonal
    n x n projectors P of a classical model on n outcomes.  The arrays are
    read-only, so slit systems can share them."""
    pis = np.asarray(pis)
    n = model.d
    if pis.shape[1:] != (n, n):
        raise DimensionMismatch(f"projectors are {pis.shape[1:]}, model needs {(n, n)}")
    if not (np.isin(pis, (0, 1)) & (pis == pis * np.eye(n))).all():
        raise NotAProjection("classical slits must be diagonal 0/1 matrices")
    pairs = np.stack([pis.real, np.eye(n) - pis.real]).astype(float)
    pairs.flags.writeable = False
    return [Filter(p, c) for p, c in zip(*pairs)]


def basis_projectors(d: int, dtype=complex) -> list[np.ndarray]:
    """The d rank-1 projectors onto the computational basis vectors."""
    eye = np.eye(d, dtype=dtype)
    return [np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)]


def subset_filters(pis, model: ModelSpace) -> dict[frozenset, Filter]:
    """All 2^k - 1 join filters generated by k pairwise-orthogonal projectors,
    keyed by subset of 1..k.  On a classical model the projectors are 0/1
    diagonal n x n matrices, and each filter is the coordinate mask pair
    (P, I - P).

    Raises when the supplied projectors are not pairwise orthogonal.
    """
    for a, b in combinations(pis, 2):
        if not np.linalg.norm(a @ b, "fro") <= _ORTHO_TOL:  # NaN fails too
            raise ValueError("slits not pairwise orthogonal")
    subsets = all_subsets(len(pis))
    joins = [np.sum([pis[i - 1] for i in sorted(J)], axis=0) for J in subsets]
    build = _mask_filters if model.kind == "classical" else _lueders_filters
    return dict(zip(subsets, build(joins, model)))


# Slit systems by (model kind, d, label, projector dtype, shape, bytes), least
# recently used first.  The bounds count projections plus complements.
SYSTEM_CACHE_ENTRIES = 8
SYSTEM_CACHE_BYTES = 16 << 20
_slit_systems = _LRUCache(SYSTEM_CACHE_ENTRIES, SYSTEM_CACHE_BYTES)


def projector_slit_system(pis, model: ModelSpace) -> SlitSystem:
    """The validated slit system of the joins of k pairwise-orthogonal
    projectors (see subset_filters and slit_system).

    A system depends only on the model's kind, d and label and on
    the projectors' bytes, so each is built once per process and shared
    (a hit returns the system built first, whose model is the first
    caller's: the same kind, d and label).  The last SYSTEM_CACHE_ENTRIES
    systems, within SYSTEM_CACHE_BYTES of projections and complements, are
    kept.  A larger system is returned but not kept; a system that fails
    its checks raises and is not kept.  What derives from a system alone
    (complements, blocks, prop1's operator probes, face plans) is kept with
    it.
    """
    pis = np.ascontiguousarray(pis)
    key = (model.kind, model.d, model.label, pis.dtype.str, pis.shape, pis.tobytes())
    return _slit_systems.lookup(
        key,
        lambda: slit_system(model, subset_filters(pis, model)),
        lambda ss: 2 * sum(f.projection.nbytes for f in ss.derived.values()),
    )


# --- spin-1 Stern-Gerlach geometry ------------------------------------------

_SQ2 = 1.0 / np.sqrt(2.0)
SPIN1_X = _SQ2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
SPIN1_Y = _SQ2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def spin1_operator(axis) -> np.ndarray:
    """Spin-1 component along a unit axis; eigenvalues {+1, 0, -1}."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > _ORTHO_TOL:
        raise ValueError("axis must be a unit vector")
    return axis[0] * SPIN1_X + axis[1] * SPIN1_Y + axis[2] * SPIN1_Z


def _eigenprojectors_desc(op: np.ndarray) -> list[np.ndarray]:
    """Rank-1 eigenprojectors of a Hermitian matrix, descending eigenvalue."""
    v = np.linalg.eigh(op)[1][:, ::-1]  # eigh sorts ascending
    return [np.outer(v[:, i], v[:, i].conj()) for i in range(v.shape[1])]


def spin1_feynman_setup(b, d) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Three slit projectors along b and three detector effects along d,
    both ordered by descending spin eigenvalue."""
    slits = _eigenprojectors_desc(spin1_operator(b))
    dets = _eigenprojectors_desc(spin1_operator(d))
    return slits, dets
