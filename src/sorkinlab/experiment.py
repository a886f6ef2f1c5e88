"""Seeded Monte Carlo simulation of the k-slit experiment, one setting per
nonempty slit subset (seven for three slits), and statistical estimation of
the order-k interference from counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .gpt import EPS_TOL, with_blocked
from .interference import (
    ProbabilityTable,
    SlitSystem,
    all_subsets,
    signed_subset_sum,
    subset_key,
)


@dataclass(eq=False)
class ExperimentPlan:
    """A k-slit experiment with a detector of effect coordinate vectors that
    sum to the order unit, one per row (any sequence of vectors will do)."""

    slits: SlitSystem
    detector: np.ndarray
    source_state: np.ndarray
    shots_per_setting: int
    seed: int

    def setting_probabilities(self, J: frozenset) -> np.ndarray:
        """Joint outcome probabilities for one setting, blocked event last.

        One dot product per effect, on the effect as it is laid out: a
        matrix-vector product, or a copy of the effects into another layout,
        rounds differently and would move the output bytes.
        """
        s_f = self.slits.derived[J].projection @ self.source_state
        probs = np.array([float(e @ s_f) for e in self.detector])
        if probs.min() < -EPS_TOL or probs.max() > 1.0 + EPS_TOL:
            raise ValueError(
                f"setting {subset_key(J)} produced probabilities outside [0, 1]; "
                "model and plan are inconsistent"
            )
        return with_blocked(probs)


@dataclass(eq=False)
class ExperimentRecord:
    """Per-setting detector counts; last outcome index is the blocked event."""

    counts: dict  # frozenset -> np.ndarray of ints, length n_outcomes + 1
    shots_per_setting: int
    seed: int
    plan_hash: str

    @property
    def settings(self) -> list[frozenset]:
        """Every nonempty subset of the slits 1..k in setting order (the order
        of the seed substreams): k >= 2 is the least with 2^k - 1 settings or
        more."""
        return all_subsets(max(2, len(self.counts).bit_length()))

    @property
    def n_outcomes(self) -> int:
        return len(next(iter(self.counts.values()))) - 1

    def frequencies(self, J) -> np.ndarray:
        if self.shots_per_setting == 0:
            return np.zeros_like(self.counts[frozenset(J)], dtype=float)
        return self.counts[frozenset(J)] / self.shots_per_setting


def plan_hash(plan: ExperimentPlan) -> str:
    h = hashlib.sha256()
    h.update(plan.slits.model.label.encode())
    h.update(np.ascontiguousarray(plan.source_state).tobytes())
    for e in plan.detector:
        h.update(np.ascontiguousarray(e).tobytes())
    for J in all_subsets(plan.slits.k):
        h.update(np.ascontiguousarray(plan.slits.derived[J].projection).tobytes())
    h.update(str((plan.shots_per_setting, plan.seed)).encode())
    return h.hexdigest()[:16]


def simulate_setting(plan: ExperimentPlan, J) -> np.ndarray:
    """Multinomial draw of all shots for one setting; deterministic in
    (seed, setting)."""
    J = frozenset(J)
    full = plan.setting_probabilities(J)
    idx = all_subsets(plan.slits.k).index(J)
    rng = np.random.default_rng([plan.seed, idx])
    return rng.multinomial(plan.shots_per_setting, full)


def run_experiment(plan: ExperimentPlan) -> ExperimentRecord:
    counts = {J: simulate_setting(plan, J) for J in all_subsets(plan.slits.k)}
    return ExperimentRecord(
        counts=counts,
        shots_per_setting=plan.shots_per_setting,
        seed=plan.seed,
        plan_hash=plan_hash(plan),
    )


def record_from_table(table: ProbabilityTable, shots: int, seed: int) -> ExperimentRecord:
    """Synthetic record from a raw probability table: outcome 0 fires with the
    tabulated probability, everything else is blocked."""
    table.require_complete()
    counts = {}
    for idx, J in enumerate(all_subsets(table.k)):
        p = min(max(table.entries[J], 0.0), 1.0)
        rng = np.random.default_rng([seed, idx])
        hit = rng.binomial(shots, p) if shots > 0 else 0
        counts[J] = np.array([hit, shots - hit], dtype=np.int64)
    entries = sorted((subset_key(J), p) for J, p in table.entries.items())
    h = hashlib.sha256(str((entries, shots, seed)).encode())
    return ExperimentRecord(counts, shots, seed, h.hexdigest()[:16])


@dataclass(eq=False)
class I3Estimate:
    """Per-detector-outcome point estimates of I_k (I3 for three slits) with
    standard errors."""

    estimates: np.ndarray
    standard_errors: np.ndarray
    z_scores: np.ndarray
    chi_square: float
    degenerate: bool
    frequency_tables: dict = field(default_factory=dict)  # str key -> list

    def to_dict(self) -> dict:
        return {
            "per_outcome": [
                {"estimate": float(e), "standard_error": float(se), "z": float(z)}
                for e, se, z in zip(self.estimates, self.standard_errors, self.z_scores)
            ],
            "chi_square": self.chi_square,
            "degenerate": self.degenerate,
            "frequency_tables": self.frequency_tables,
        }


def estimate_i3(record: ExperimentRecord) -> I3Estimate:
    """Empirical order-k interference per detector outcome, k being the
    largest setting of the record (third order for three slits).

    Each setting uses an independent sub-ensemble, so the variance is the
    sum of the per-setting binomial variances.
    """
    settings = record.settings
    for J in settings:
        if J not in record.counts:
            raise KeyError(f"record is missing setting {subset_key(J)}")
    n_out = record.n_outcomes
    shots = record.shots_per_setting
    freqs = {J: record.frequencies(J)[:n_out] for J in settings}
    est = signed_subset_sum(freqs, len(settings[-1]))
    if shots > 0:
        var = sum(f * (1.0 - f) / shots for f in freqs.values())
        se = np.sqrt(var)
    else:
        se = np.zeros(n_out)
    degenerate = bool(np.any(se == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, est / se, 0.0)
    return I3Estimate(
        estimates=est,
        standard_errors=se,
        z_scores=z,
        chi_square=float(np.sum(z**2)),
        degenerate=degenerate,
        frequency_tables={
            subset_key(J): record.frequencies(J).tolist() for J in settings
        },
    )
