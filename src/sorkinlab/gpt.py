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
from functools import cache
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


@dataclass(eq=False)
class ModelSpace:
    """A finite-dimensional model: coordinate space, order unit, cone.

    kind is one of "quantum", "real_quantum", "classical", "custom".
    quantum(d) embeds Hermitian d x d matrices (m = d^2) and real_quantum(d)
    real symmetric ones (m = d(d+1)/2) in the orthonormal basis ``basis`` of
    shape (m, d, d), so embed/unembed round-trip exactly; classical(d) is the
    nonnegative orthant on d outcomes (m = d).  For these the constructor
    works out the dimension, the order unit and the default label "kind:d".
    A custom cone is given by its generators (n_gen, m) and order unit, and
    membership is decided by a nonnegative-least-squares residual; its
    default label is "custom".
    """

    kind: str
    d: Optional[int] = None
    generators: Optional[np.ndarray] = None
    order_unit: Optional[np.ndarray] = None
    label: Optional[str] = None
    dimension: int = field(init=False)

    def __post_init__(self):
        if self.label is None:
            self.label = "custom" if self.kind == "custom" else f"{self.kind}:{self.d}"
        if self.kind == "custom":
            self.dimension = self.generators.shape[1]
            return
        d = self.d
        self.dimension = {"quantum": d * d, "real_quantum": d * (d + 1) // 2, "classical": d}[self.kind]
        self.order_unit = np.ones(d) if self.kind == "classical" else self.embed(np.eye(d))

    @property
    def _matrix_dtype(self):
        return {"quantum": complex, "real_quantum": float}.get(self.kind)

    @property
    def basis(self) -> Optional[np.ndarray]:
        """The embedding basis of a matrix model, None for other cones."""
        dtype = self._matrix_dtype
        return None if dtype is None else hermitian_basis(self.d, dtype)

    @property
    def basis_entries(self) -> tuple[np.ndarray, ...]:
        """The nonzero entries of the embedding basis (see basis_entries)."""
        if self._matrix_dtype is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return basis_entries(self.d, self._matrix_dtype)

    def _zero_coords(self, shape: tuple, complex_: bool) -> np.ndarray:
        """Zero coordinate vectors of a shape (..., m), laid out as embed lays
        out its result: for complex operands the real part of a complex array,
        as np.real of a complex einsum gives it.  Later BLAS products round
        differently at the other stride, so output bytes depend on this."""
        shape = tuple(shape) + (self.dimension,)
        return np.zeros(shape, complex).real if complex_ else np.zeros(shape)

    def embed(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian/symmetric matrix in the embedding basis,
        or of each matrix of a stack (..., d, d).

        Coordinate k sums Re(B_k[i, j] mat[j, i]) over the nonzero entries of
        B_k only, from +0.0 in np.nonzero order, each term formed as
        b.real * x.real - b.imag * x.imag: the dense einsum over the whole
        basis adds these terms in this order plus exact zeros, so the result
        is byte-identical to it at O(d^2) instead of O(d^4) per matrix.
        """
        k, i, j, vr, vi = self.basis_entries
        mat = np.asarray(mat)
        d = self.d
        if mat.shape[-2:] != (d, d):
            raise DimensionMismatch(f"matrix is {mat.shape[-2:]}, model needs {(d, d)}")
        x = mat[..., j, i]
        complex_ = self._matrix_dtype is complex or np.iscomplexobj(mat)
        out = self._zero_coords(mat.shape[:-2], complex_)
        np.add.at(out.T, k, (vr * x.real - vi * np.imag(x)).T)
        return out

    def unembed(self, coords: np.ndarray) -> np.ndarray:
        """Matrix represented by a coordinate vector."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return np.einsum("k,kij->ij", np.asarray(coords, dtype=float), self.basis)

    def extreme_values(self, coords: np.ndarray) -> np.ndarray:
        """The values of a functional on the normalized extreme states: the
        coordinates (classical), the eigenvalues (matrix models), or g.x / g.u
        for each generator g (custom).  Their minimum and maximum bound its
        value on every normalized state, exactly; on the self-dual matrix
        and classical cones they also decide cone membership."""
        if self.kind == "classical":
            return coords
        if self.kind == "custom":
            return (self.generators @ coords) / (self.generators @ self.order_unit)
        return np.linalg.eigvalsh(self.unembed(coords))

    def cone_residual(self, coords: np.ndarray) -> float:
        """How far a coordinate vector sits outside the cone (0 = inside)."""
        coords = np.asarray(coords, dtype=float)
        if self.kind != "custom":
            return _excess(-float(self.extreme_values(coords).min()))
        from scipy.optimize import nnls  # slow to import; only custom cones need it
        _, resid = nnls(self.generators.T, coords)
        return float(resid)

    def contains(self, coords: np.ndarray) -> bool:
        return self.cone_residual(coords) <= EPS_CONE


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
    """

    projection: np.ndarray
    complement: np.ndarray = _BuiltOnFirstRead()
    blocks: Optional[tuple] = None

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
    """Outcome probabilities, clipped at 0 and completed by the blocked (not
    passed) event as the last entry, normalized to sum 1.

    Raises ValueError when the clipped probabilities sum above 1 + EPS_TOL:
    rescaling them would hide a source state that is not normalized.
    """
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 1.0 + EPS_TOL:
        raise ValueError(f"outcome probabilities sum to {total:.6g} > 1")
    full = np.append(probs, max(0.0, 1.0 - total))
    return full / full.sum()


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
    return _draw(model, [[seed, i] for i in range(n_samples)], effect=False)


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


def validate_filter(f: Filter, model: ModelSpace, states: np.ndarray) -> ValidationReport:
    """Check the three filter axioms: idempotence, neutrality, complementation.

    Neutrality and the pass/block equivalences are sampled over the given
    cone states, coordinates one per row (plus their filtered images, which
    exercise the fixed-point sets), so several filters can be checked on one
    draw of ``sample_states``; the algebraic identities are checked exactly
    on the matrices, block by block of f.blocks: the Frobenius norms are
    the square roots of the blocks' sums of squares.
    """
    P, Pc = f.projection, f.complement
    u = model.order_unit

    # sums of squares of P P - P, P Pc, Pc P, Pc Pc - Pc, P and Pc
    sq = np.zeros(6)
    for _, entries in f.blocks or one_block(len(P)):
        x = diagonal_blocks((P, Pc), entries)
        y = np.matmul(x[:, None], x[None])  # y[i, j] = x[i] x[j]
        y[0, 0] -= x[0]
        y[1, 1] -= x[1]
        terms = np.concatenate((y.reshape(4, -1), x.reshape(2, -1)))
        sq += rowdots(terms, terms)
    norm = np.sqrt(sq)
    idem = float(max(norm[0] / max(1.0, norm[4]), norm[3] / max(1.0, norm[5])))
    prod = float(max(norm[1], norm[2]) / max(1.0, norm[4]))

    passed, blocked = matvecs(P, states), matvecs(Pc, states)
    # P t for t = states, passed, blocked
    filtered = (passed, matvecs(P, passed), matvecs(P, blocked))
    neutral_worst = 0.0
    for t, pt in zip((states, passed, blocked), filtered):
        nt = t @ u
        # states the filter passes whole, of positive normalization
        kept = (nt > EPS_TOL) & (np.abs(pt @ u - nt) <= EPS_TOL * np.maximum(1.0, nt))
        dev = _rownorms((pt - t)[kept]) / np.maximum(1.0, nt[kept])
        neutral_worst = max(neutral_worst, float(dev.max(initial=0.0)))
    # pass/block equivalences on the filtered samples
    equiv_worst = float(max(_rownorms(matvecs(Pc, passed)).max(initial=0.0),
                            _rownorms(filtered[2]).max(initial=0.0)))

    return ValidationReport(
        subject="filter",
        checks=(
            CheckResult("idempotence", idem, EPS_PROJ),
            CheckResult("neutrality", neutral_worst, EPS_TOL * 10),
            CheckResult("complement_product", prod, EPS_PROJ),
            CheckResult("complement_equivalence", equiv_worst, EPS_TOL * 10),
        ),
    )


def validate_effect(e: np.ndarray, model: ModelSpace) -> ValidationReport:
    """Check 0 <= e.s <= 1 on normalized states, exactly: on the normalized
    extreme states (see ModelSpace.extreme_values)."""
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
    quantum = model.kind == "quantum"
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


def _random_state_coords(model: ModelSpace, rng) -> np.ndarray:
    if model.kind == "classical":
        return rng.dirichlet(np.ones(model.d))
    gens = model.generators
    coords = rng.dirichlet(np.ones(gens.shape[0])) @ gens
    return coords / float(model.order_unit @ coords)


def _random_effect_coords(model: ModelSpace, rng) -> np.ndarray:
    # map a random functional affinely, e -> (e - lo u) / (hi - lo), so that
    # its values on the normalized extreme states lie in [0, 1]; a draw
    # already in [0, u] (lo, hi = 0, 1) maps to itself bit for bit
    coords = rng.uniform(0.0, 1.0, size=model.dimension)
    vals = model.extreme_values(coords)
    lo, hi = min(float(vals.min()), 0.0), max(float(vals.max()), 1.0)
    return (coords - lo * model.order_unit) / (hi - lo)


def _draw(model: ModelSpace, seeds, effect: bool) -> np.ndarray:
    """Coordinates of random states (effect=False) or effects, one per row;
    row i is drawn from the substream seeds[i].

    Matrix models draw in batches of CHUNK_ELEMENTS matrix entries, so the
    linear algebra and the embedding run once per batch; the other cones
    draw one at a time.
    """
    n = len(seeds)
    if model._matrix_dtype is None:
        draw = _random_effect_coords if effect else _random_state_coords
        out = np.zeros((n, model.dimension))
        for row, seed in enumerate(seeds):
            out[row] = draw(model, np.random.default_rng(seed))
        return out
    out = model._zero_coords((n,), model.kind == "quantum")
    rows = max(1, CHUNK_ELEMENTS // model.d**2)
    for lo in range(0, n, rows):
        mats = _random_matrices(model, seeds[lo : lo + rows], effect)
        out[lo : lo + rows] = model.embed(mats)
    return out


def random_state(model: ModelSpace, seed) -> np.ndarray:
    """The coordinates of a normalized random state, deterministic in the seed.

    quantum / real_quantum draw a full-rank Ginibre density matrix, classical
    a flat Dirichlet point on the simplex, custom a convex mix of generators.
    """
    return _draw(model, [seed], effect=False)[0]


def random_effect(model: ModelSpace, seed) -> np.ndarray:
    """The coordinates of a random valid effect, deterministic in the seed.

    Matrix models use a Haar-random eigenbasis with eigenvalues uniform in
    [0, 1]; classical models draw coordinates uniform in [0, 1]; custom cones
    draw coordinates uniform in [0, 1] and map them into [0, u].
    """
    return _draw(model, [seed], effect=True)[0]


def random_pairs(model: ModelSpace, n: int, seed: int):
    """n random (state, effect) pairs as batches of coordinate arrays: yields
    (states, effects), one pair per row and CHUNK_ELEMENTS coordinates per
    array at most.  Pair i is drawn from the substreams [seed, i, 0] and
    [seed, i, 1], as random_state and random_effect draw them."""
    rows = max(1, CHUNK_ELEMENTS // model.dimension)
    for lo in range(0, n, rows):
        pairs = range(lo, min(n, lo + rows))
        yield (_draw(model, [[seed, i, 0] for i in pairs], effect=False),
               _draw(model, [[seed, i, 1] for i in pairs], effect=True))
