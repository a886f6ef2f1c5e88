"""Two-slit-filtering tomography: informationally complete measurements on
the pair faces, least-squares estimation of filtered states, and the signed
reconstruction of P_[k] s from them: the sum of the pair states minus (k - 2)
times the single-slit states, s = s12 + s13 + s23 - s1 - s2 - s3 for three
slits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gpt import (
    EPS_RANK_REL,
    Filter,
    ModelSpace,
    draw_counts,
    face_of,
    with_blocked,
)
from .interference import SlitSystem, subset_key, subsets_of_size


@dataclass(eq=False)
class FaceMeasurementPlan:
    """Measurements that are informationally complete on one face: each
    setting is a tuple of effect coordinate vectors summing to the order
    unit.  The arrays are read-only."""

    image_basis: np.ndarray  # (m, rank), orthonormal columns spanning the face
    settings: tuple[tuple[np.ndarray, ...], ...]
    design_matrix: np.ndarray  # (n_effects_total, rank)


def build_face_measurement(f: Filter, model: ModelSpace) -> FaceMeasurementPlan:
    """Tomographic measurement family for the states fixed by a filter (the
    face of face_of).

    The cone gives the family (see ModelSpace.face_settings).  Each effect
    vector keeps the layout it is computed in (a row of the embedding, or
    u - sum on its own): dot products round by layout.
    """
    basis = face_of(f)
    if model.face_settings is None:
        raise ValueError(f"no tomographic family available for {model.kind} cones")
    settings = model.face_settings(f)

    rows = np.array([e @ basis for effects in settings for e in effects])
    rank = np.linalg.matrix_rank(rows, tol=EPS_RANK_REL * max(1.0, np.abs(rows).max()))
    if rank < basis.shape[1]:
        raise ValueError(
            f"measurement family is not informationally complete on the face "
            f"(design rank {rank} < face rank {basis.shape[1]})"
        )
    for a in (basis, rows, *(e for effects in settings for e in effects)):
        a.flags.writeable = False
    return FaceMeasurementPlan(basis, tuple(settings), rows)


# Each filter's plan, with the model it was built for, lives as long as the
# filter: a slit system kept across calls keeps its plans.
_face_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _face_plan(f: Filter, model: ModelSpace) -> FaceMeasurementPlan:
    """build_face_measurement(f, model), built once per filter and model."""
    built = _face_plans.get(f)
    if built is None or built[0] is not model:
        built = _face_plans[f] = (model, build_face_measurement(f, model))
    return built[1]


def exact_frequencies(plan: FaceMeasurementPlan, s_filtered: np.ndarray) -> list[np.ndarray]:
    """Per-setting joint outcome probabilities for an already-filtered state,
    one dot product per effect."""
    return [
        np.array([float(e @ s_filtered) for e in effects]) for effects in plan.settings
    ]


def sample_frequencies(
    plan: FaceMeasurementPlan, s_filtered: np.ndarray, shots: int, seed: list[int]
) -> list[np.ndarray]:
    """Finite-shot frequencies; the blocked (not passed) event absorbs the
    missing normalization so joint frequencies stay estimable.  Setting idx
    draws from the substream [*seed, idx] (see draw_counts)."""
    rows = [with_blocked(probs) for probs in exact_frequencies(plan, s_filtered)]
    return [c[:-1] / shots if shots > 0 else np.zeros(len(c) - 1)
            for c in draw_counts(rows, shots, seed)]


def estimate_filtered_state(plan: FaceMeasurementPlan, freqs: list[np.ndarray]) -> np.ndarray:
    """Least-squares fit of face coordinates to observed joint frequencies."""
    b = np.concatenate(freqs)
    if b.shape[0] != plan.design_matrix.shape[0]:
        raise ValueError("frequency vector does not match the plan's settings")
    x, *_ = np.linalg.lstsq(plan.design_matrix, b, rcond=None)
    return plan.image_basis @ x


def reconstruct(estimates: dict, ss: SlitSystem) -> np.ndarray:
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
    total = np.sum([estimates[J] for J in pairs], axis=0)
    for i in range(1, ss.k + 1):
        parts = [ss.filter_for({i}).projection @ estimates[J] for J in pairs if i in J]
        total = total - (ss.k - 2) * np.mean(parts, axis=0)
    return total


@dataclass(eq=False)
class TomographyResult:
    reconstructed: np.ndarray
    per_face: dict  # frozenset -> filtered state coordinates
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
            "reconstruction": self.reconstructed.tolist(),
            "per_face": {subset_key(J): s.tolist() for J, s in self.per_face.items()},
            "reconstruction_error": self.reconstruction_error,
            "cone_distance": self.cone_distance,
        }


def tomography_roundtrip(
    ss: SlitSystem,
    s: np.ndarray,
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
    truth = ss.derived[ss.top].projection @ s
    estimates: dict = {}
    for pair_idx, J in enumerate(subsets_of_size(ss.k, 2)):
        filt = ss.derived[J]
        plan = _face_plan(filt, ss.model)
        s_filtered = filt.projection @ s
        if mode == "exact":
            freqs = exact_frequencies(plan, s_filtered)
        else:
            freqs = sample_frequencies(plan, s_filtered, shots, [seed, pair_idx])
        estimates[J] = estimate_filtered_state(plan, freqs)
    recon = reconstruct(estimates, ss)
    err = float(np.linalg.norm(recon - truth))
    return TomographyResult(
        reconstructed=recon,
        per_face=estimates,
        mode=mode,
        shots=shots if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
        reconstruction_error=err,
        cone_distance=ss.model.cone_residual(recon),
    )
