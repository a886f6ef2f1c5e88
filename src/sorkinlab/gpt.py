"""Core operational-probabilistic model objects: states, effects and filters
on a finite-dimensional ordered vector space.

Everything lives in real coordinates.  A state or an effect is its (m,)
coordinate array, and a probability is the dot product e @ s; for the
matrix-algebra models the embedding basis is orthonormal under the trace inner
product, so the dot product equals the trace pairing exactly.  A
transformation is an m x m array acting on state coordinates, a measurement a
sequence of effect coordinate vectors summing to the order unit, and the face
of a filter the image of its projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from typing import Optional

import numpy as np

# Numerical tolerances used across the library.
EPS_PROJ = 1e-9    # projector identities, Frobenius, relative to matrix norm
EPS_TOL = 1e-9     # scalar comparisons
EPS_CONE = 1e-10   # eigenvalue / coordinate floor for cone membership
EPS_RANK_REL = 1e-8  # singular-value cutoff, relative to the largest
EPS_PROP = 1e-8    # verdict tolerance for the three-way equivalence check

# Elements per batch of a batched computation's intermediates (256 KB of
# float64): batching in chunks keeps a chunk's arrays near the per-core L2
# cache and keeps peak memory independent of the number of matrices.
CHUNK_ELEMENTS = 1 << 15


class DimensionMismatch(ValueError):
    """Operands belong to spaces of different dimension."""


class NotAProjection(ValueError):
    """A map required to be idempotent is not."""


@cache
def hermitian_basis(d: int, dtype=complex) -> np.ndarray:
    """Orthonormal Hermitian basis of C^{d x d}, identity component first;
    with dtype=float, the basis of the real symmetric d x d matrices.

    Order: I/sqrt(d), symmetric off-diagonal pairs, antisymmetric pairs
    (complex only), diagonal (traceless) elements.  Tr(B_j B_k) = delta_jk.
    Built once per (d, dtype) on first use and shared, so it is read-only.
    """
    basis = [np.eye(d, dtype=dtype) / np.sqrt(d)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=dtype)
        m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
        basis.append(m)
    for j, k in pairs if dtype is complex else []:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1.0j / np.sqrt(2.0)
        m[k, j] = 1.0j / np.sqrt(2.0)
        basis.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=dtype)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        basis.append(m / np.sqrt(l * (l + 1)))
    out = np.stack(basis)
    out.flags.writeable = False
    return out


@cache
def basis_entries(d: int, dtype=complex) -> tuple[np.ndarray, ...]:
    """The nonzero entries of hermitian_basis(d, dtype) in np.nonzero order:
    their (k, i, j) indices and the real and imaginary parts of their values
    (about 2.5 d^2 entries of the d^4).  Read-only and shared, like the basis."""
    basis = hermitian_basis(d, dtype)
    k, i, j = np.nonzero(basis)
    out = (k, i, j, basis.real[k, i, j], np.imag(basis)[k, i, j])
    for a in out:
        a.flags.writeable = False
    return out


def _zero_coords(shape: tuple, complex_: bool) -> np.ndarray:
    """Zero coordinate arrays of a shape (..., m), laid out as embed lays
    out its result: for complex operands the real part of a complex array,
    as np.real of a complex einsum gives it.  Later BLAS products round
    differently at the other stride, so output bytes depend on this."""
    return np.zeros(shape, complex).real if complex_ else np.zeros(shape)


def _embed(mat: np.ndarray, d: int, dtype) -> np.ndarray:
    """Coordinates of a d x d matrix, or of each matrix of a stack (..., d, d),
    in hermitian_basis(d, dtype).

    Coordinate k sums Re(B_k[i, j] mat[j, i]) over the nonzero entries of
    B_k only, from +0.0 in np.nonzero order, each term formed as
    b.real * x.real - b.imag * x.imag: the dense einsum over the whole
    basis adds these terms in this order plus exact zeros, so the result
    is byte-identical to it at O(d^2) instead of O(d^4) per matrix.
    """
    k, i, j, vr, vi = basis_entries(d, dtype)
    mat = np.asarray(mat)
    if mat.shape[-2:] != (d, d):
        raise DimensionMismatch(f"matrix is {mat.shape[-2:]}, model needs {(d, d)}")
    x = mat[..., j, i]
    complex_ = dtype is complex or np.iscomplexobj(mat)
    out = _zero_coords((*mat.shape[:-2], len(hermitian_basis(d, dtype))), complex_)
    np.add.at(out.T, k, (vr * x.real - vi * np.imag(x)).T)
    return out


@cache
def _identity_coords(d: int, dtype=complex) -> np.ndarray:
    """_embed(np.eye(d), d, dtype), in its layout: the order unit of every
    PSD model of that size and dtype.  Built once per (d, dtype) on first
    use and shared, so it is read-only."""
    unit = _embed(np.eye(d), d, dtype)
    unit.flags.writeable = False
    return unit


@dataclass(eq=False)
class ModelSpace:
    """A finite-dimensional model: coordinate space, order unit, cone.

    ModelSpace(kind, ...) builds kind's cone class (see CONES), which works
    out all that depends on the cone; the kind string is kept for labels and
    model files.  quantum(d) embeds Hermitian d x d matrices (m = d^2) and
    real_quantum(d) real symmetric ones (m = d(d+1)/2) in the orthonormal
    basis ``basis`` of shape (m, d, d), so embed/unembed round-trip exactly;
    classical(d) is the nonnegative orthant on d outcomes (m = d).  These
    are labelled "kind:d", and a custom cone, given by its generators (n_gen,
    m) and order unit, "custom".  extreme_values(x) are the values of a
    functional on the normalized extreme states: their minimum and maximum
    bound its value on every normalized state, exactly.
    """

    kind: str
    d: Optional[int] = None
    generators: Optional[np.ndarray] = None
    order_unit: Optional[np.ndarray] = None
    label: Optional[str] = None
    dimension: int = field(init=False)

    basis = None  # the embedding basis of a matrix model
    slit_dtype = None  # the dtype of the basis slits; None where there are none
    size_key = "d"  # the key of the size in a model file
    masks = False  # slits filter by coordinate masks, not by Lueders maps
    detector = None  # the default experiment detector, if the cone has one
    face_settings = None  # the tomography family of a face, if the cone has one

    def __new__(cls, kind, *args, **kwargs):
        if kind not in CONES:
            raise ValueError(f"unknown model kind {kind!r} (known: {', '.join(CONES)})")
        return super().__new__(CONES[kind])

    def __post_init__(self):
        # the cones of a size: custom cones take generators instead
        if self.d is None or self.d < 2:
            raise ValueError(f"{self.kind.replace('_', ' ')} model needs {self.size_key} >= 2")
        if self.label is None:
            self.label = f"{self.kind}:{self.d}"

    def __reduce__(self):
        # copies are built anew, so a matrix model's order unit keeps embed's layout
        return ModelSpace, (self.kind, self.d, self.generators, self.order_unit, self.label)

    @property
    def basis_entries(self) -> tuple[np.ndarray, ...]:
        """The nonzero entries of the embedding basis (see basis_entries)."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return basis_entries(self.d, self.slit_dtype)

    def embed(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian/symmetric matrix in the embedding basis,
        or of each matrix of a stack (..., d, d) (see _embed)."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return _embed(mat, self.d, self.slit_dtype)

    def unembed(self, coords: np.ndarray) -> np.ndarray:
        """Matrix represented by a coordinate vector."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return np.einsum("k,kij->ij", np.asarray(coords, dtype=float), self.basis)

    def cone_residual(self, coords: np.ndarray) -> float:
        """How far a coordinate vector sits outside the cone (0 = inside)."""
        coords = np.asarray(coords, dtype=float)
        return _excess(-float(self.extreme_values(coords).min()))

    def contains(self, coords: np.ndarray) -> bool:
        return self.cone_residual(coords) <= EPS_CONE

    def draw(self, seeds, effect: bool) -> np.ndarray:
        """Coordinates of random states (effect=False) or effects, one per
        row; row i is drawn from the substream seeds[i].  This cone draws
        them one at a time."""
        draw = self._random_effect if effect else self._random_state
        out = np.zeros((len(seeds), self.dimension))
        for row, seed in enumerate(seeds):
            out[row] = draw(np.random.default_rng(seed))
        return out

    def _random_effect(self, rng) -> np.ndarray:
        # map a random functional affinely, e -> (e - lo u) / (hi - lo), so that
        # its values on the normalized extreme states lie in [0, 1]; a draw
        # already in [0, u] (lo, hi = 0, 1) maps to itself bit for bit
        coords = rng.uniform(0.0, 1.0, size=self.dimension)
        vals = self.extreme_values(coords)
        lo, hi = min(float(vals.min()), 0.0), max(float(vals.max()), 1.0)
        return (coords - lo * self.order_unit) / (hi - lo)


class PSDCone(ModelSpace):
    """The positive semidefinite d x d matrices, complex (quantum) or real
    symmetric (real_quantum); extreme values are eigenvalues."""

    def __post_init__(self):
        super().__post_init__()
        self.slit_dtype = {"quantum": complex, "real_quantum": float}[self.kind]
        self.dimension = len(self.basis)
        self.order_unit = _identity_coords(self.d, self.slit_dtype)

    @property
    def basis(self) -> np.ndarray:
        return hermitian_basis(self.d, self.slit_dtype)

    def extreme_values(self, coords: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.unembed(coords))

    def draw(self, seeds, effect: bool) -> np.ndarray:
        """Matrix draws (see _random_matrices) in batches of CHUNK_ELEMENTS
        entries, so the linear algebra and the embedding run once per batch."""
        out = _zero_coords((len(seeds), self.dimension), self.slit_dtype is complex)
        rows = max(1, CHUNK_ELEMENTS // self.d**2)
        for lo in range(0, len(seeds), rows):
            out[lo : lo + rows] = self.embed(_random_matrices(self, seeds[lo : lo + rows], effect))
        return out

    def detector(self) -> np.ndarray:
        """The computational-basis projectors, embedded."""
        return self.embed(basis_projectors(self.d))

    def face_settings(self, f: Filter) -> list[tuple[np.ndarray, ...]]:
        """The subspace's basis projectors plus, per basis pair, superposition
        (and for quantum, phase-shifted) bases, each completed by u - sum."""
        w, q = np.linalg.eigh(self.unembed(f.projection @ self.order_unit))
        vecs = [q[:, i] for i in range(len(w)) if w[i] > 0.5]
        families = [[np.outer(v, v.conj()) for v in vecs]]
        for a, b in combinations(range(len(vecs)), 2):
            for s in (vecs[b], 1j * vecs[b]) if self.slit_dtype is complex else (vecs[b],):
                plus, minus = (vecs[a] + s) / np.sqrt(2.0), (vecs[a] - s) / np.sqrt(2.0)
                families.append([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
        coords = self.embed(np.array([m for fam in families for m in fam]))
        ends = np.cumsum([len(fam) for fam in families])
        return [(*c, self.order_unit - np.sum(c, axis=0)) for c in np.split(coords, ends[:-1])]


class Orthant(ModelSpace):
    """The nonnegative orthant on d outcomes (classical), order unit all ones;
    extreme values are coordinates, and slits are 0/1 coordinate masks."""

    slit_dtype = float
    size_key = "n"
    masks = True

    def __post_init__(self):
        super().__post_init__()
        self.dimension, self.order_unit = self.d, np.ones(self.d)

    def extreme_values(self, coords: np.ndarray) -> np.ndarray:
        return coords

    def _random_state(self, rng) -> np.ndarray:
        return rng.dirichlet(np.ones(self.d))

    def detector(self) -> np.ndarray:
        return np.eye(self.d)

    def face_settings(self, f: Filter) -> list[tuple[np.ndarray, ...]]:
        """The indicator measurement of the face's coordinates."""
        mask = np.round(np.diagonal(f.projection))
        return [(*np.eye(self.dimension)[np.flatnonzero(mask)], 1.0 - mask)]


class PolyhedralCone(ModelSpace):
    """The cone generated by the rows g of generators (custom): extreme values
    are g.x / g.u, and membership is a nonnegative-least-squares residual.
    Raises ValueError unless the generators are an (n >= 1, m) array and the
    order unit has m entries whose pairing with every g is finite and positive."""

    def __post_init__(self):
        if self.generators is None or self.order_unit is None:
            raise ValueError("a custom cone needs generators and an order unit")
        gens = self.generators = np.asarray(self.generators, dtype=float)
        u = self.order_unit = np.asarray(self.order_unit, dtype=float)
        m = gens.shape[1] if gens.ndim == 2 else "m"
        if gens.ndim != 2 or len(gens) < 1:
            raise ValueError(f"generators are {gens.shape}, not an (n >= 1, {m}) array")
        if u.shape != (m,):
            raise ValueError(f"order_unit has shape {u.shape}, not ({m},)")
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = gens @ u
        if not (np.isfinite(pairing) & (pairing > 0)).all():
            raise ValueError("order_unit @ g must be finite and positive for every generator g")
        self.label = "custom" if self.label is None else self.label
        self.dimension = m

    def extreme_values(self, coords: np.ndarray) -> np.ndarray:
        return (self.generators @ coords) / (self.generators @ self.order_unit)

    def cone_residual(self, coords: np.ndarray) -> float:
        from scipy.optimize import nnls  # slow to import; only custom cones need it
        _, resid = nnls(self.generators.T, np.asarray(coords, dtype=float))
        return float(resid)

    def _random_state(self, rng) -> np.ndarray:
        coords = rng.dirichlet(np.ones(len(self.generators))) @ self.generators
        return coords / float(self.order_unit @ coords)


CONES = {"quantum": PSDCone, "real_quantum": PSDCone, "classical": Orthant,
         "custom": PolyhedralCone}


@cache
def basis_projectors(d: int, dtype=complex) -> np.ndarray:
    """The d rank-1 projectors onto the computational basis vectors, as a
    (d, d, d) stack.  Built once per (d, dtype) on first use and shared, so
    it is read-only."""
    eye = np.eye(d, dtype=dtype)
    out = np.array([np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)])
    out.flags.writeable = False
    return out


class _BuiltOnFirstRead:
    """A dataclass field that holds its value or a zero-argument builder of
    it; the builder runs on the first read, and its result replaces it."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # no class default: the field stays required
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class Filter:
    """An idempotent, neutral, complemented transformation and its complement,
    both m x m arrays.

    ``complement`` may be given as a zero-argument function returning the
    array; it is then called on the first read of the attribute, which
    pickling does.

    ``blocks`` is a partition of the coordinates into blocks off whose
    diagonal blocks both arrays are zero: per block width w, a pair of the
    blocks' coordinates (n_blocks, w) and the flat indices of their entries
    in an m x m array (n_blocks, w, w).  The filters of one family share it;
    None stands for one block of all coordinates.

    A filter's arrays are taken as fixed once they have been checked, as
    SlitSystem's cached properties assume: identity_residuals is kept.
    """

    projection: np.ndarray
    complement: np.ndarray = _BuiltOnFirstRead()
    blocks: Optional[tuple] = None

    @cached_property
    def identity_residuals(self) -> tuple[float, float]:
        """validate_filters' exact idempotence and complement_product
        residuals, block by block of blocks: the Frobenius norms are the
        square roots of the blocks' sums of squares.  Computed once."""
        P, Pc = self.projection, self.complement
        # sums of squares of P P - P, P Pc, Pc P, Pc Pc - Pc, P and Pc
        sq = np.zeros(6)
        for _, entries in self.blocks or one_block(len(P)):
            x = diagonal_blocks((P, Pc), entries)
            y = np.matmul(x[:, None], x[None])  # y[i, j] = x[i] x[j]
            y[0, 0] -= x[0]
            y[1, 1] -= x[1]
            terms = np.concatenate((y.reshape(4, -1), x.reshape(2, -1)))
            sq += rowdots(terms, terms)
        norm = np.sqrt(sq)
        idem = float(max(norm[0] / max(1.0, norm[4]), norm[3] / max(1.0, norm[5])))
        return idem, float(max(norm[1], norm[2]) / max(1.0, norm[4]))

    def __getstate__(self):
        return {**self.__dict__, "complement": self.complement}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def with_blocked(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities, a row or a stack of rows, clipped at 0 and
    completed by the blocked (not passed) event as the last entry, each row
    normalized by its own sum (an order that is part of the output bytes).

    Raises ValueError when a row's clipped probabilities sum above 1 + EPS_TOL:
    rescaling them would hide a source state that is not normalized.
    """
    probs = np.maximum(probs, 0.0)  # what np.clip(probs, 0.0, None) calls
    total = probs.sum(axis=-1, keepdims=True)
    over = total[total > 1.0 + EPS_TOL]
    if over.size:
        raise ValueError(f"outcome probabilities sum to {over[0]:.6g} > 1")
    full = np.concatenate([probs, np.maximum(0.0, 1.0 - total)], axis=-1)
    return full / full.sum(axis=-1, keepdims=True)


def draw_counts(rows, shots: int, seed: list) -> list[np.ndarray]:
    """Every count an experiment or sampled tomography draws: shots draws from
    each row of probabilities (rows may differ in length), row idx from the
    substream [*seed, idx].  The first count of a row [p, 1 - p] is the draw
    of binomial(shots, p): multinomial draws each count but the last so."""
    return [np.random.default_rng([*seed, idx]).multinomial(shots, row)
            for idx, row in enumerate(rows)]


def _excess(x: float) -> float:
    """max(0.0, x), except that NaN stays NaN: a functional whose values
    overflowed to NaN fails a check instead of passing it."""
    return x if x > 0.0 or np.isnan(x) else 0.0


def _rel_fro(mat: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(mat, "fro") / max(1.0, np.linalg.norm(ref, "fro")))


def one_block(m: int) -> tuple:
    """The partition of m coordinates into one block (see Filter.blocks)."""
    return ((np.arange(m)[None], np.arange(m * m).reshape(1, m, m)),)


def diagonal_blocks(mats, entries: np.ndarray) -> np.ndarray:
    """The diagonal blocks of m x m arrays at the flat indices entries
    (n_blocks, w, w) of a partition's blocks, stacked (len(mats), n_blocks,
    w, w)."""
    return np.array([mat.take(entries) for mat in mats])


def sample_states(model: ModelSpace, n_samples: int, seed: int) -> np.ndarray:
    """Coordinates of n_samples random states, one per row; row i is the
    state random_state draws from the substream [seed, i]."""
    return model.draw([[seed, i] for i in range(n_samples)], effect=False)


# Row-by-row products that round as the products of single vectors do:
# matmul's stacked matrix-vector and vector-vector loops call the BLAS
# kernels that A @ x and x @ y call, on each row with its own strides
# (X @ A.T and np.linalg.norm(X, axis=1) round differently).
def matvecs(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows a @ x for the rows x of xs."""
    return np.matmul(a, xs[:, :, None])[..., 0]


def rowdots(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-by-row dot products x @ y."""
    return np.matmul(xs[:, None, :], ys[:, :, None])[:, 0, 0]


def _rownorms(xs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row."""
    return np.sqrt(rowdots(xs, xs))


def _python_max(cur: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Python's max(cur, new), element by element: new where it is larger,
    so a NaN in new is dropped and one in cur is kept."""
    return np.where(new > cur, new, cur)


def _sampled_residuals(filters, u: np.ndarray, states: np.ndarray) -> tuple[list, list]:
    """The neutrality and complement_equivalence residuals of each filter of
    a stack (see validate_filters), as two lists.

    Each filter's five products are one matrix-vector product per state (see
    matvecs), written into one array (5, n_filters, n_states, m), and the
    reductions run once over it, with the bytes each filter's own reductions
    give.  The neutrality check takes the norms of the rows it keeps only:
    a row it leaves out may overflow in a norm.
    """
    n, m = states.shape
    # per filter: P s, Pc s, P P s, P Pc s, Pc P s
    prod = np.empty((5, len(filters), n, m))
    col = states[:, :, None]
    for i, f in enumerate(filters):
        P, Pc = f.projection, f.complement
        np.matmul(P, col, out=prod[0, i, :, :, None])
        np.matmul(Pc, col, out=prod[1, i, :, :, None])
        np.matmul(P, prod[:2, i, :, :, None], out=prod[2:4, i, :, :, None])
        np.matmul(Pc, prod[0, i, :, :, None], out=prod[4, i, :, :, None])
    # pass/block equivalences on the filtered samples: Pc P s and P Pc s
    norms = _rownorms(prod[3:].reshape(-1, m)).reshape(2, len(filters), n)
    equiv = _python_max(*norms[::-1].max(axis=2, initial=0.0))
    # neutrality on t = s, P s, Pc s, with P t = P s, P P s, P Pc s
    us = prod[:4] @ u
    nt = np.empty((3, len(filters), n))
    nt[0], nt[1:] = states @ u, us[:2]
    ptu = us[[0, 2, 3]]
    # P t - t, written over the products no longer read: prod[1:4]
    prod[2:4] -= prod[:2]
    np.subtract(prod[0], states, out=prod[1])
    # states the filter passes whole, of positive normalization
    kept = (nt > EPS_TOL) & (np.abs(ptu - nt) <= EPS_TOL * np.maximum(1.0, nt))
    dev = np.zeros(kept.shape)
    dev[kept] = _rownorms(prod[1:4][kept]) / np.maximum(1.0, nt[kept])
    neutral = np.zeros(len(filters))
    for worst in dev.max(axis=2, initial=0.0):
        neutral = _python_max(neutral, worst)
    return neutral.tolist(), equiv.tolist()


def validate_filters(filters, model: ModelSpace, states: np.ndarray) -> list[ValidationReport]:
    """Check the three filter axioms, idempotence, neutrality and
    complementation, for each filter of a sequence; one report per filter.

    Neutrality and the pass/block equivalences are sampled over the given
    cone states, coordinates one per row (plus their filtered images, which
    exercise the fixed-point sets); the algebraic identities are checked
    exactly on the matrices, once per filter (see Filter.identity_residuals).
    The sampled checks stay dense products.  They run on stacks of filters,
    as many as keep each product of a stack within CHUNK_ELEMENTS entries
    (one filter at least): a family of few samples is one stack.
    """
    rows = max(1, CHUNK_ELEMENTS // max(1, states.size))
    reports = []
    for lo in range(0, len(filters), rows):
        stack = filters[lo : lo + rows]
        for f, neutral, equiv in zip(stack, *_sampled_residuals(stack, model.order_unit, states)):
            idem, prod = f.identity_residuals
            reports.append(ValidationReport(
                subject="filter",
                checks=(
                    CheckResult("idempotence", idem, EPS_PROJ),
                    CheckResult("neutrality", neutral, EPS_TOL * 10),
                    CheckResult("complement_product", prod, EPS_PROJ),
                    CheckResult("complement_equivalence", equiv, EPS_TOL * 10),
                ),
            ))
    return reports


def validate_filter(f: Filter, model: ModelSpace, states: np.ndarray) -> ValidationReport:
    """validate_filters for one filter."""
    return validate_filters([f], model, states)[0]


def validate_effect(e: np.ndarray, model: ModelSpace) -> ValidationReport:
    """Check 0 <= e.s <= 1 on normalized states, exactly: on the normalized
    extreme states (see ModelSpace)."""
    w = model.extreme_values(e)
    low, high = _excess(-float(w.min())), _excess(float(w.max()) - 1.0)
    return ValidationReport(
        subject="effect",
        checks=(
            CheckResult("lower_bound", low, EPS_TOL),
            CheckResult("upper_bound", high, EPS_TOL),
        ),
    )


def validate_measurement(effects, model: ModelSpace) -> ValidationReport:
    """Effect coordinate vectors must sum to the order unit and each must lie
    in [0, u]."""
    total = np.sum(effects, axis=0)
    sum_resid = float(np.linalg.norm(total - model.order_unit))
    range_resid = 0.0
    for e in effects:
        rep = validate_effect(e, model)
        range_resid = max(range_resid, *(c.residual for c in rep.checks))
    return ValidationReport(
        subject="measurement",
        checks=(
            CheckResult("sum_to_order_unit", sum_resid, EPS_TOL * 10),
            CheckResult("effect_range", range_resid, EPS_TOL * 10),
        ),
    )


def orthonormal_column_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column space of mat (SVD with relative cutoff).

    The SVD runs on the block of nonzero rows and columns; the basis vectors
    are zero on the other rows, which no column of mat reaches.
    """
    nonzero = mat != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    u_, s_, _ = np.linalg.svd(mat[rows[:, None], cols], full_matrices=False)
    if s_.size == 0 or s_[0] == 0.0:
        return np.zeros((mat.shape[0], 0))
    keep = s_ > EPS_RANK_REL * s_[0]
    basis = np.zeros((mat.shape[0], int(keep.sum())))
    basis[rows] = u_[:, keep]
    return basis


def face_of(f: Filter) -> np.ndarray:
    """The face fixed by a filter, as an orthonormal basis of the image of its
    projection, shape (m, rank)."""
    P = f.projection
    if _rel_fro(P @ P - P, P) > EPS_PROJ:
        raise NotAProjection("filter map is not idempotent; not a projection")
    return orthonormal_column_basis(P)


def _random_matrices(model: ModelSpace, seeds, effect: bool) -> np.ndarray:
    """Random density matrices (effect=False) or effect matrices of a matrix
    model, stacked (len(seeds), d, d); matrix i comes from the substream
    seeds[i], which draws a d x d Gaussian real part, then (quantum only) its
    imaginary part, then for an effect d eigenvalues uniform in [0, 1].

    A state is the Ginibre matrix G G^H over its trace; an effect has the
    Haar-random eigenbasis Q of G = QR (column signs fixed by diag R) and
    the drawn eigenvalues.
    """
    d = model.d
    quantum = model.slit_dtype is complex
    g = np.empty((len(seeds), d, d), complex if quantum else float)
    lam = np.empty((len(seeds), d))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g.real[row] = rng.standard_normal((d, d))
        if quantum:
            g.imag[row] = rng.standard_normal((d, d))
        if effect:
            lam[row] = rng.uniform(0.0, 1.0, size=d)
    if not effect:
        rho = g @ g.conj().swapaxes(1, 2)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        return rho
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return (q * lam[:, None, :]) @ q.conj().swapaxes(1, 2)


def random_state(model: ModelSpace, seed) -> np.ndarray:
    """The coordinates of a normalized random state, deterministic in the seed.

    quantum / real_quantum draw a full-rank Ginibre density matrix, classical
    a flat Dirichlet point on the simplex, custom a convex mix of generators.
    """
    return model.draw([seed], effect=False)[0]


def random_effect(model: ModelSpace, seed) -> np.ndarray:
    """The coordinates of a random valid effect, deterministic in the seed.

    Matrix models use a Haar-random eigenbasis with eigenvalues uniform in
    [0, 1]; classical models draw coordinates uniform in [0, 1]; custom cones
    draw coordinates uniform in [0, 1] and map them into [0, u].
    """
    return model.draw([seed], effect=True)[0]


def random_pairs(model: ModelSpace, n: int, seed: int):
    """n random (state, effect) pairs as batches of coordinate arrays: yields
    (states, effects), one pair per row and CHUNK_ELEMENTS coordinates per
    array at most.  Pair i is drawn from the substreams [seed, i, 0] and
    [seed, i, 1], as random_state and random_effect draw them."""
    rows = max(1, CHUNK_ELEMENTS // model.dimension)
    for lo in range(0, n, rows):
        pairs = range(lo, min(n, lo + rows))
        yield (model.draw([[seed, i, 0] for i in pairs], effect=False),
               model.draw([[seed, i, 1] for i in pairs], effect=True))
