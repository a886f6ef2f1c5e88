"""Core operational-probabilistic model objects: states, effects, transformations,
filters, measurements, and faces on a finite-dimensional ordered vector space.

Everything lives in real coordinates.  Probabilities are plain dot products
between effect and state vectors; for the matrix-algebra models the embedding
basis is orthonormal under the trace inner product, so the dot product equals
the trace pairing exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import nnls

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


@dataclass(eq=False)
class ConeDescriptor:
    """Which positive cone the model uses.

    kind is one of "quantum", "real_quantum", "classical", "custom".
    quantum(d) embeds Hermitian d x d matrices (m = d^2), real_quantum(d)
    real symmetric ones (m = d(d+1)/2), classical(n) is the nonnegative
    orthant (m = n).  Custom cones are given by a generator list; membership
    is decided by a nonnegative-least-squares residual.
    """

    kind: str
    d: Optional[int] = None
    n: Optional[int] = None
    generators: Optional[np.ndarray] = None  # (n_gen, m)


@dataclass(eq=False)
class ModelSpace:
    """A finite-dimensional model: coordinate space, order unit, cone.

    For quantum / real_quantum models ``basis`` holds the orthonormal
    Hermitian (resp. symmetric) embedding basis with shape (m, d, d), so
    embed/unembed round-trip exactly.
    """

    label: str
    dimension: int
    order_unit: np.ndarray
    cone: ConeDescriptor
    basis: Optional[np.ndarray] = None

    def embed(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian/symmetric matrix in the embedding basis."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return np.real(np.einsum("kij,ji->k", self.basis, np.asarray(mat)))

    def unembed(self, coords: np.ndarray) -> np.ndarray:
        """Matrix represented by a coordinate vector."""
        if self.basis is None:
            raise ValueError(f"model {self.label!r} has no matrix embedding")
        return np.einsum("k,kij->ij", np.asarray(coords, dtype=float), self.basis)

    def cone_residual(self, coords: np.ndarray) -> float:
        """How far a coordinate vector sits outside the cone (0 = inside)."""
        coords = np.asarray(coords, dtype=float)
        if self.cone.kind in ("quantum", "real_quantum"):
            w = np.linalg.eigvalsh(self.unembed(coords))
            return float(max(0.0, -w.min()))
        if self.cone.kind == "classical":
            return float(max(0.0, -coords.min()))
        gens = self.cone.generators
        _, resid = nnls(gens.T, coords)
        return float(resid)

    def contains(self, coords: np.ndarray) -> bool:
        return self.cone_residual(coords) <= EPS_CONE


@dataclass(frozen=True, eq=False)
class State:
    model: ModelSpace
    coords: np.ndarray

    @property
    def normalization(self) -> float:
        return float(self.model.order_unit @ self.coords)


@dataclass(frozen=True, eq=False)
class Effect:
    model: ModelSpace
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class Transformation:
    matrix: np.ndarray


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
    """An idempotent, neutral, complemented transformation and its complement.

    ``complement`` may be given as a zero-argument function returning the
    Transformation; it is then called on the first read of the attribute,
    which pickling does.
    """

    projection: Transformation
    complement: Transformation = _BuiltOnFirstRead()

    def __getstate__(self):
        return {**self.__dict__, "complement": self.complement}


@dataclass(frozen=True, eq=False)
class Measurement:
    model: ModelSpace
    effects: tuple[Effect, ...]


@dataclass(frozen=True, eq=False)
class Face:
    """Linear-span representation of the set of states fixed by a filter."""

    projection_matrix: np.ndarray
    image_basis: np.ndarray  # (m, rank), orthonormal columns
    rank: int


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


def probability(e: Effect, s: State) -> float:
    """Outcome probability e . s."""
    if e.model.dimension != s.model.dimension:
        raise DimensionMismatch(f"dimension mismatch: {e.model.dimension} vs {s.model.dimension}")
    return float(e.coords @ s.coords)


def apply(t: Transformation, s: State) -> State:
    """Image of a state under a transformation."""
    if t.matrix.shape[1] != s.coords.shape[0]:
        raise DimensionMismatch(
            f"matrix is {t.matrix.shape}, state has length {s.coords.shape[0]}"
        )
    return State(s.model, t.matrix @ s.coords)


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


def _rel_fro(mat: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(mat, "fro") / max(1.0, np.linalg.norm(ref, "fro")))


def sample_states(model: ModelSpace, n_samples: int, seed: int) -> list[State]:
    """n_samples random states from the substreams [seed, i]."""
    return [random_state(model, seed=[seed, i]) for i in range(n_samples)]


def validate_filter(f: Filter, model: ModelSpace, states: list[State]) -> ValidationReport:
    """Check the three filter axioms: idempotence, neutrality, complementation.

    Neutrality and the pass/block equivalences are sampled over the given
    cone states (plus their filtered images, which exercise the fixed-point
    sets), so several filters can be checked on one draw of
    ``sample_states``; the algebraic identities are checked exactly on the
    matrices.
    """
    P = f.projection.matrix
    Pc = f.complement.matrix
    u = model.order_unit

    idem = max(_rel_fro(P @ P - P, P), _rel_fro(Pc @ Pc - Pc, Pc))
    prod = max(_rel_fro(P @ Pc, P), _rel_fro(Pc @ P, P))

    neutral_worst = 0.0
    equiv_worst = 0.0
    for s in states:
        for t in (s.coords, P @ s.coords, Pc @ s.coords):
            nt = float(u @ t)
            if nt <= EPS_TOL:
                continue
            pt = P @ t
            if abs(float(u @ pt) - nt) <= EPS_TOL * max(1.0, nt):
                neutral_worst = max(
                    neutral_worst, float(np.linalg.norm(pt - t)) / max(1.0, nt)
                )
        # pass/block equivalences on the filtered samples
        t = P @ s.coords
        equiv_worst = max(equiv_worst, float(np.linalg.norm(Pc @ t)))
        t = Pc @ s.coords
        equiv_worst = max(equiv_worst, float(np.linalg.norm(P @ t)))

    return ValidationReport(
        subject="filter",
        checks=(
            CheckResult("idempotence", idem, EPS_PROJ),
            CheckResult("neutrality", neutral_worst, EPS_TOL * 10),
            CheckResult("complement_product", prod, EPS_PROJ),
            CheckResult("complement_equivalence", equiv_worst, EPS_TOL * 10),
        ),
    )


def validate_effect(e: Effect, model: ModelSpace, n_samples: int = 100, seed: int = 0) -> ValidationReport:
    """Check 0 <= e.s <= 1 on normalized states (exactly where possible)."""
    if model.cone.kind in ("quantum", "real_quantum"):
        w = np.linalg.eigvalsh(model.unembed(e.coords))
        low, high = float(-min(w.min(), 0.0)), float(max(w.max() - 1.0, 0.0))
    elif model.cone.kind == "classical":
        c = e.coords
        low, high = float(-min(c.min(), 0.0)), float(max(c.max() - 1.0, 0.0))
    else:
        low = high = 0.0
        for i in range(n_samples):
            p = probability(e, random_state(model, seed=[seed, i]))
            low = max(low, -p)
            high = max(high, p - 1.0)
    return ValidationReport(
        subject="effect",
        checks=(
            CheckResult("lower_bound", low, EPS_TOL),
            CheckResult("upper_bound", high, EPS_TOL),
        ),
    )


def validate_measurement(ms: Measurement, model: ModelSpace) -> ValidationReport:
    """Effects must sum to the order unit; each effect must be in [0, u]."""
    total = np.sum([e.coords for e in ms.effects], axis=0)
    sum_resid = float(np.linalg.norm(total - model.order_unit))
    range_resid = 0.0
    for e in ms.effects:
        rep = validate_effect(e, model)
        range_resid = max(range_resid, *(c.residual for c in rep.checks))
    return ValidationReport(
        subject="measurement",
        checks=(
            CheckResult("sum_to_order_unit", sum_resid, EPS_TOL * 10),
            CheckResult("effect_range", range_resid, EPS_TOL * 10),
        ),
    )


def support_mask(mats: np.ndarray) -> np.ndarray:
    """Mask of the indices i where row i or column i of some matrix in a
    stack (n, k, k) is nonzero.  Off it every matrix of the stack, and every
    product of them, is exactly zero."""
    nonzero = mats != 0
    return nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2))


def orthonormal_column_basis(mat: np.ndarray, rtol: float = EPS_RANK_REL) -> np.ndarray:
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
    keep = s_ > rtol * s_[0]
    basis = np.zeros((mat.shape[0], int(keep.sum())))
    basis[rows] = u_[:, keep]
    return basis


def face_of(f: Filter) -> Face:
    """The face fixed by a filter, as an orthonormal basis of its image."""
    P = f.projection.matrix
    if _rel_fro(P @ P - P, P) > EPS_PROJ:
        raise NotAProjection("filter map is not idempotent; not a projection")
    basis = orthonormal_column_basis(P)
    return Face(P, basis, basis.shape[1])


def _ginibre(model: ModelSpace, rng) -> np.ndarray:
    """A d x d Gaussian matrix, complex for quantum models."""
    g = rng.standard_normal((model.cone.d,) * 2)
    return g + 1j * rng.standard_normal(g.shape) if model.cone.kind == "quantum" else g


def random_state(model: ModelSpace, seed) -> State:
    """A normalized random state, deterministic in the seed.

    quantum / real_quantum draw a full-rank Ginibre density matrix, classical
    a flat Dirichlet point on the simplex, custom a convex mix of generators.
    """
    rng = np.random.default_rng(seed)
    kind = model.cone.kind
    if kind in ("quantum", "real_quantum"):
        g = _ginibre(model, rng)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return State(model, model.embed(rho))
    if kind == "classical":
        n = model.cone.n
        return State(model, rng.dirichlet(np.ones(n)))
    gens = model.cone.generators
    w = rng.dirichlet(np.ones(gens.shape[0]))
    coords = w @ gens
    norm = float(model.order_unit @ coords)
    return State(model, coords / norm)


def random_pairs(model: ModelSpace, n: int, seed: int):
    """n random (state, effect) pairs; pair i is drawn from the substreams
    [seed, i, 0] and [seed, i, 1]."""
    for i in range(n):
        yield random_state(model, seed=[seed, i, 0]), random_effect(model, seed=[seed, i, 1])


def random_effect(model: ModelSpace, seed) -> Effect:
    """A random valid effect, deterministic in the seed.

    Matrix models use a Haar-random eigenbasis with eigenvalues uniform in
    [0, 1]; classical models draw coordinates uniform in [0, 1]; custom cones
    draw coordinates uniform in [0, 1] and map them into [0, u].
    """
    rng = np.random.default_rng(seed)
    kind = model.cone.kind
    if kind in ("quantum", "real_quantum"):
        q, r = np.linalg.qr(_ginibre(model, rng))
        q = q * np.sign(np.diagonal(r))
        lam = rng.uniform(0.0, 1.0, size=model.cone.d)
        mat = (q * lam) @ q.conj().T
        return Effect(model, model.embed(mat))
    if kind == "classical":
        return Effect(model, rng.uniform(0.0, 1.0, size=model.cone.n))
    # custom cones: map a random functional affinely, e -> (e - lo u) / (hi - lo),
    # so that g.e / g.u lies in [0, 1] on every generator g; a draw already
    # in [0, u] is kept as it is
    coords = rng.uniform(0.0, 1.0, size=model.dimension)
    gens = model.cone.generators
    norms = gens @ model.order_unit
    vals = (gens @ coords) / norms
    lo, hi = min(float(vals.min()), 0.0), max(float(vals.max()), 1.0)
    if (lo, hi) != (0.0, 1.0):
        coords = (coords - lo * model.order_unit) / (hi - lo)
    return Effect(model, coords)
