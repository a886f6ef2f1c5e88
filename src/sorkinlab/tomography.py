"""Two-slit-filtering tomography: informationally complete measurements on
the pair faces, least-squares estimation of filtered states, and the signed
reconstruction of P_[k] s from them: the sum of the pair states minus (k - 2)
times the single-slit states, s = s12 + s13 + s23 - s1 - s2 - s3 for three
slits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .gpt import (
    EPS_RANK_REL,
    Filter,
    ModelSpace,
    State,
    face_of,
    apply,
    with_blocked,
)
from .interference import SlitSystem, subset_key, subsets_of_size


def _flat_seed(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        out: list[int] = []
        for part in seed:
            out.extend(_flat_seed(part))
        return out
    return [int(seed)]


@dataclass(eq=False)
class FaceMeasurementPlan:
    """Measurements that are informationally complete on one face: each
    setting is a tuple of effect coordinate vectors summing to the order unit."""

    model: ModelSpace
    image_basis: np.ndarray  # (m, rank), orthonormal columns spanning the face
    settings: tuple[tuple[np.ndarray, ...], ...]
    design_matrix: np.ndarray  # (n_effects_total, rank)


def _subspace_vectors(pi: np.ndarray) -> list[np.ndarray]:
    w, v = np.linalg.eigh(pi)
    return [v[:, i] for i in range(len(w)) if w[i] > 0.5]


def build_face_measurement(f: Filter, model: ModelSpace) -> FaceMeasurementPlan:
    """Tomographic measurement family for the states fixed by a filter (the
    face of face_of).

    Matrix models use basis projectors of the supporting subspace plus, for
    each basis pair, superposition bases (and for complex models the
    phase-shifted ones); every family is completed to a measurement with the
    effect u - sum.  Classical faces need only their indicator measurement.
    Each effect vector keeps the layout it is computed in (a row of the
    embedding, or u - sum on its own): dot products round by layout.
    """
    basis = face_of(f)
    kind = model.cone.kind
    settings: list[tuple[np.ndarray, ...]] = []
    if kind in ("quantum", "real_quantum"):
        # the Hilbert-space projector whose conjugation map is the filter
        pi = model.unembed(f.projection @ model.order_unit)
        vecs = _subspace_vectors(pi)
        families: list[list[np.ndarray]] = []
        families.append([np.outer(v, v.conj()) for v in vecs])
        for a, b in combinations(range(len(vecs)), 2):
            plus = (vecs[a] + vecs[b]) / np.sqrt(2.0)
            minus = (vecs[a] - vecs[b]) / np.sqrt(2.0)
            families.append([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
            if kind == "quantum":
                ip = (vecs[a] + 1j * vecs[b]) / np.sqrt(2.0)
                im = (vecs[a] - 1j * vecs[b]) / np.sqrt(2.0)
                families.append([np.outer(ip, ip.conj()), np.outer(im, im.conj())])
        coords = model.embed(np.array([m for fam in families for m in fam]))
        lo = 0
        for fam in families:
            fam_coords, lo = coords[lo : lo + len(fam)], lo + len(fam)
            settings.append((*fam_coords, model.order_unit - np.sum(fam_coords, axis=0)))
    elif kind == "classical":
        mask = np.round(np.diagonal(f.projection))
        settings.append((*np.eye(model.dimension)[np.flatnonzero(mask)], 1.0 - mask))
    else:
        raise ValueError("no tomographic family available for custom cones")

    rows = np.array([e @ basis for effects in settings for e in effects])
    rank = np.linalg.matrix_rank(rows, tol=EPS_RANK_REL * max(1.0, np.abs(rows).max()))
    if rank < basis.shape[1]:
        raise ValueError(
            f"measurement family is not informationally complete on the face "
            f"(design rank {rank} < face rank {basis.shape[1]})"
        )
    return FaceMeasurementPlan(model, basis, tuple(settings), rows)


def exact_frequencies(plan: FaceMeasurementPlan, s_filtered: State) -> list[np.ndarray]:
    """Per-setting joint outcome probabilities for an already-filtered state,
    one dot product per effect."""
    return [
        np.array([float(e @ s_filtered.coords) for e in effects]) for effects in plan.settings
    ]


def sample_frequencies(
    plan: FaceMeasurementPlan, s_filtered: State, shots: int, seed
) -> list[np.ndarray]:
    """Finite-shot frequencies; the blocked (not passed) event absorbs the
    missing normalization so joint frequencies stay estimable."""
    out = []
    for idx, probs in enumerate(exact_frequencies(plan, s_filtered)):
        rng = np.random.default_rng(_flat_seed(seed) + [idx])
        counts = rng.multinomial(shots, with_blocked(probs))
        out.append(counts[:-1] / shots if shots > 0 else np.zeros(len(probs)))
    return out


def estimate_filtered_state(plan: FaceMeasurementPlan, freqs: list[np.ndarray]) -> State:
    """Least-squares fit of face coordinates to observed joint frequencies."""
    b = np.concatenate(freqs)
    if b.shape[0] != plan.design_matrix.shape[0]:
        raise ValueError("frequency vector does not match the plan's settings")
    x, *_ = np.linalg.lstsq(plan.design_matrix, b, rcond=None)
    coords = plan.image_basis @ x
    return State(plan.model, coords)


def reconstruct(estimates: dict, ss: SlitSystem) -> State:
    """Signed sum of pair states minus (k - 2) times the single-slit states.

    P_[k] = sum of the P_ij - (k - 2) sum of the P_i when there is no
    third-order interference.  Each slit appears in k - 1 pair faces; its
    single-slit component is averaged over them (identical in exact mode,
    variance-reducing with sampled estimates).
    """
    estimates = {frozenset(J): v for J, v in estimates.items()}
    pairs = subsets_of_size(ss.k, 2)
    for J in pairs:
        if J not in estimates:
            raise KeyError(f"missing pair estimate for slits {sorted(J)}")
    total = np.sum([estimates[J].coords for J in pairs], axis=0)
    for i in range(1, ss.k + 1):
        parts = [
            apply(ss.filter_for({i}).projection, estimates[J]).coords
            for J in pairs
            if i in J
        ]
        total = total - (ss.k - 2) * np.mean(parts, axis=0)
    return State(ss.model, total)


@dataclass(eq=False)
class TomographyResult:
    reconstructed: State
    per_face: dict  # frozenset -> State
    mode: str  # "exact" | "sampled"
    shots: Optional[int]
    seed: Optional[int]
    reconstruction_error: Optional[float]
    cone_distance: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shots": self.shots,
            "seed": self.seed,
            "reconstruction": self.reconstructed.coords.tolist(),
            "per_face": {
                subset_key(J): s.coords.tolist() for J, s in self.per_face.items()
            },
            "reconstruction_error": self.reconstruction_error,
            "cone_distance": self.cone_distance,
        }


def tomography_roundtrip(
    ss: SlitSystem,
    s: State,
    mode: str = "exact",
    shots: int = 100000,
    seed: int = 0,
) -> TomographyResult:
    """Full filter-measure-estimate-reconstruct cycle for one source state.

    Errors are reported against P_[k](s): systems blocked by the all-slit
    filter never reach a measurement, so that is the recoverable truth.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    truth = apply(ss.derived[ss.top].projection, s)
    estimates: dict = {}
    for pair_idx, J in enumerate(subsets_of_size(ss.k, 2)):
        filt = ss.derived[J]
        plan = build_face_measurement(filt, ss.model)
        s_filtered = apply(filt.projection, s)
        if mode == "exact":
            freqs = exact_frequencies(plan, s_filtered)
        else:
            freqs = sample_frequencies(plan, s_filtered, shots, [seed, pair_idx])
        estimates[J] = estimate_filtered_state(plan, freqs)
    recon = reconstruct(estimates, ss)
    err = float(np.linalg.norm(recon.coords - truth.coords))
    return TomographyResult(
        reconstructed=recon,
        per_face=estimates,
        mode=mode,
        shots=shots if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
        reconstruction_error=err,
        cone_distance=ss.model.cone_residual(recon.coords),
    )
