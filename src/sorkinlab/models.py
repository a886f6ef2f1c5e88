"""Builders for concrete model spaces and the spin-1 filter/detector geometry.

Quantum models embed Hermitian matrices in an orthonormal basis (identity
over sqrt(d) plus normalized generalized Gell-Mann matrices), so coordinate
dot products reproduce trace inner products exactly.  Real-quantum models do
the same over the symmetric matrices; classical models are the nonnegative
orthant with the all-ones order unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .gpt import (
    CHUNK_ELEMENTS,
    ConeDescriptor,
    DimensionMismatch,
    Filter,
    ModelSpace,
    NotAProjection,
    support_mask,
)
from .interference import all_subsets

_ORTHO_TOL = 1e-10
_EIG_GAP_TOL = 1e-8


def build_quantum_model(d: int) -> ModelSpace:
    """Hermitian d x d model; m = d^2."""
    if d < 2:
        raise ValueError("quantum model needs d >= 2")
    model = ModelSpace(
        label=f"quantum:{d}",
        dimension=d * d,
        order_unit=np.zeros(d * d),
        cone=ConeDescriptor("quantum", d=d),
    )
    model.order_unit = model.embed(np.eye(d))
    return model


def build_real_quantum_model(d: int) -> ModelSpace:
    """Real symmetric d x d model; m = d(d+1)/2."""
    if d < 2:
        raise ValueError("real quantum model needs d >= 2")
    m = d * (d + 1) // 2
    model = ModelSpace(
        label=f"real_quantum:{d}",
        dimension=m,
        order_unit=np.zeros(m),
        cone=ConeDescriptor("real_quantum", d=d),
    )
    model.order_unit = model.embed(np.eye(d))
    return model


def build_classical_model(n: int) -> ModelSpace:
    """Probability simplex on n outcomes; order unit = all ones."""
    if n < 2:
        raise ValueError("classical model needs n >= 2")
    return ModelSpace(
        label=f"classical:{n}",
        dimension=n,
        order_unit=np.ones(n),
        cone=ConeDescriptor("classical", n=n),
    )


def _cmul(xr, xi, yr, yi):
    """Complex product from separately rounded real products, as numpy's
    einsum forms it (numpy's complex multiply may fuse them)."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def _conjugation_matrices(pis: np.ndarray, model: ModelSpace) -> np.ndarray:
    """Real matrices of rho -> Pi rho Pi in a matrix model's coordinates for a
    stack of projectors, (n, m, m).

    Entry (j, k) is Re Tr(B_j Pi B_k Pi).  Both contractions run over the
    nonzero entries of the basis only (about 2.5 d^2 of them), so a matrix
    costs O(d^4) instead of the dense O(d^6).  They also skip the entries on
    a row or column of Pi that is zero in every projector of the stack: all
    their terms are exact zeros.  The support is read off the numbers, so a
    dense stack keeps every entry, and a stack of basis projectors touches
    a few rows of each m x m matrix.

    Every sum adds its terms to zero in np.nonzero order of its basis
    element, which is the order of numpy's dense einsum over complex
    operands; the zero entries the dense sum also visits, skipped ones
    included, add exact zeros.  So for complex operands the result is
    byte-identical to the dense formula, which matters because
    experiment.plan_hash hashes filter bytes.  With real operands the dense
    einsum reduces in SIMD lanes, so results can differ from it in the last
    bit.
    """
    n = pis.shape[0]
    m = model.dimension
    on = support_mask(pis)
    k, row, col, vr, vi = model.basis_entries
    keep = on[row] & on[col]
    k, row, col, vr, vi = k[keep], row[keep], col[keep], vr[keep], vi[keep]
    if k.size == 0:
        return np.zeros((n, m, m))
    # work on the support: rows and columns of Pi in its order, and the basis
    # elements with an entry there (the other rows and columns of out stay 0)
    used = np.zeros(m, dtype=bool)
    used[k] = True
    support, elements = np.flatnonzero(on), np.flatnonzero(used)
    local = np.cumsum(on) - 1
    row, col, k = local[row], local[col], (np.cumsum(used) - 1)[k]
    s, r = support.size, elements.size
    # Entries sorted by (position within their element, element): step p of
    # every element's sequential sum is then one contiguous slice, and step 0
    # holds every element in order.
    pos = np.arange(k.size) - np.searchsorted(k, k)
    order = np.lexsort((k, pos))
    k, row, col, pos = k[order], row[order], col[order], pos[order]
    vr, vi = vr[order], vi[order]
    bounds = np.searchsorted(pos, np.arange(1, pos[-1] + 2))
    later = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    # C order: the products below follow the operands' memory layout
    pis = np.ascontiguousarray(pis[:, support[:, None], support])
    sub = np.empty((n, r, r))
    # elements of C per chunk of projectors (the largest intermediates hold
    # ~2.5x as many); at d = 16 with dense projectors a chunk is one projector
    chunk = max(1, CHUNK_ELEMENTS // (s * s * r))
    for lo in range(0, n, chunk):
        p = pis[lo : lo + chunk]
        pr, pim = p.real, np.imag(p)
        # C_k[a, b] = sum_e (Pi[a, row_e] B_e) Pi[col_e, b], stored (chunk, a, b, k)
        xr, xi = _cmul(pr[:, :, row], pim[:, :, row], vr, vi)
        yr, yi = pr.transpose(0, 2, 1)[:, :, col], pim.transpose(0, 2, 1)[:, :, col]
        tr, ti = _cmul(xr[:, :, None], xi[:, :, None], yr[:, None], yi[:, None])
        # step 0 covers every element in order; later steps read columns >= r
        cr, ci = tr[..., :r], ti[..., :r]
        for sl in later:
            cr[..., k[sl]] += tr[..., sl]
            ci[..., k[sl]] += ti[..., sl]
        # M[j, k] = sum_e Re(B_e C_k[col_e, row_e]), e over the entries of B_j
        terms = vr[:, None] * cr[:, col, row] - vi[:, None] * ci[:, col, row]
        mats = sub[lo : lo + chunk]
        # start from +0.0 as the dense sum does, so no zero entry comes out as
        # -0.0 (the signs of zeros in C cannot reach the output past this)
        np.add(terms[:, :r], 0.0, out=mats)
        for sl in later:
            mats[:, k[sl]] += terms[:, sl]
    if r == m:
        return sub
    out = np.zeros((n, m, m))
    out[:, elements[:, None], elements] = sub
    return out


def _check_projectors(pis: np.ndarray, model: ModelSpace) -> None:
    if model.basis is None:
        raise ValueError(f"model {model.label!r} has no matrix embedding")
    d = model.basis.shape[1]
    if pis.shape[1:] != (d, d):
        raise DimensionMismatch(f"projectors are {pis.shape[1:]}, model needs {(d, d)}")
    idem = np.linalg.norm(pis @ pis - pis, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(pis, axis=(1, 2)))
    herm = np.linalg.norm(pis - pis.conj().transpose(0, 2, 1), axis=(1, 2))
    if np.any(idem > _ORTHO_TOL * scale) or np.any(herm > _ORTHO_TOL):
        raise NotAProjection("matrix is not an orthogonal projector")


def conjugation_superoperator(pi: np.ndarray, model: ModelSpace) -> np.ndarray:
    """The real m x m matrix of rho -> Pi rho Pi in embedded coordinates."""
    pis = np.asarray(pi)[None]
    _check_projectors(pis, model)
    return _conjugation_matrices(pis, model)[0]


def _lueders_filters(pis, model: ModelSpace) -> list[Filter]:
    """Filter pairs for a list of projectors.

    The projections are built in one kernel call.  The complements are built
    in one more, for the whole list, on the first read of any of them: the
    interference checks, tomography and experiments use only projections.
    The kernel works on each projector separately, so splitting the stack
    leaves every matrix byte-identical.
    """
    pis = np.asarray(pis)
    _check_projectors(pis, model)
    mats = _conjugation_matrices(pis, model)

    @cache
    def complements() -> np.ndarray:
        stack = np.eye(pis.shape[-1]) - pis
        _check_projectors(stack, model)
        return _conjugation_matrices(stack, model)

    return [Filter(mat, lambda i=i: complements()[i]) for i, mat in enumerate(mats)]


def lueders_filter(pi: np.ndarray, model: ModelSpace) -> Filter:
    """Filter pair (conjugation by Pi, conjugation by I - Pi)."""
    return _lueders_filters([pi], model)[0]


def classical_filter(mask: np.ndarray, model: ModelSpace) -> Filter:
    """Coordinate-mask filter on a classical model."""
    mask = np.asarray(mask, dtype=float)
    return Filter(projection=np.diag(mask), complement=np.diag(1.0 - mask))


def basis_projectors(d: int, dtype=complex) -> list[np.ndarray]:
    """The d rank-1 projectors onto the computational basis vectors."""
    eye = np.eye(d, dtype=dtype)
    return [np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)]


def subset_filters(pis, model: ModelSpace) -> dict[frozenset, Filter]:
    """All 2^k - 1 join filters generated by k pairwise-orthogonal projectors,
    keyed by subset of 1..k.

    Raises when the supplied projectors are not pairwise orthogonal.
    """
    for a, b in combinations(pis, 2):
        if np.linalg.norm(a @ b, "fro") > _ORTHO_TOL:
            raise ValueError("slits not pairwise orthogonal")
    subsets = all_subsets(len(pis))
    joins = [np.sum([pis[i - 1] for i in sorted(J)], axis=0) for J in subsets]
    return dict(zip(subsets, _lueders_filters(joins, model)))


def classical_subset_filters(blocks, model: ModelSpace) -> dict[frozenset, Filter]:
    """Join filters for a classical model from disjoint coordinate blocks."""
    coords = [i for b in blocks for i in set(b)]
    if len(coords) != len(set(coords)):
        raise ValueError("slits not pairwise orthogonal")
    out: dict[frozenset, Filter] = {}
    for J in all_subsets(len(blocks)):
        mask = np.zeros(model.dimension)
        for i in J:
            mask[list(blocks[i - 1])] = 1.0
        out[J] = classical_filter(mask, model)
    return out


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
    w, v = np.linalg.eigh(op)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    if np.min(np.abs(np.diff(w))) < _EIG_GAP_TOL:
        raise ValueError("degenerate eigendecomposition; projectors ambiguous")
    return [np.outer(v[:, i], v[:, i].conj()) for i in range(v.shape[1])]


@dataclass(frozen=True, eq=False)
class Spin1Setup:
    """The spectral projectors of the filter and detector axes."""

    slit_projectors: tuple[np.ndarray, ...]
    detector_effects: tuple[np.ndarray, ...]


def spin1_feynman_setup(b, d) -> Spin1Setup:
    """Three slit projectors along b and three detector effects along d,
    both ordered by descending spin eigenvalue."""
    slits = _eigenprojectors_desc(spin1_operator(b))
    dets = _eigenprojectors_desc(spin1_operator(d))
    total = np.sum(slits, axis=0)
    if np.linalg.norm(total - np.eye(3)) > 1e-12:
        raise ValueError("slit projectors do not resolve the identity")
    return Spin1Setup(tuple(slits), tuple(dets))
