"""Seeded Monte Carlo simulation of the k-slit experiment, one setting per
nonempty slit subset (seven for three slits), and statistical estimation of
the order-k interference from counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

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
    sum to the order unit, one per row (a sequence of vectors is read with
    np.asarray).

    Its probabilities are one (2^k - 1) x (n + 1) table for n effects, a row
    per setting in all_subsets order (of the seed substreams) and the blocked
    event last.  Part of the output bytes: each entry is one dot of an effect,
    as laid out, with P_J @ s (a matrix-vector product rounds differently),
    and with_blocked sums along each row.  The dots are one stacked matmul,
    which rounds as the single products do (see gpt.matvecs).
    """

    slits: SlitSystem
    detector: np.ndarray
    source_state: np.ndarray
    shots_per_setting: int
    seed: int

    def probability_table(self) -> np.ndarray:
        """The table; raises ValueError on the first setting whose
        probabilities leave [0, 1] or sum above 1 (see with_blocked)."""
        settings = all_subsets(self.slits.k)
        # one P_J @ s per setting: stacking the dense P_J would copy them
        filtered = np.array([self.slits.derived[J].projection @ self.source_state
                             for J in settings])
        effects = np.asarray(self.detector)
        # e @ s_f per setting and effect
        probs = np.matmul(effects[None, :, None, :], filtered[:, None, :, None])[:, :, 0, 0]
        outside = (probs.min(axis=1) < -EPS_TOL) | (probs.max(axis=1) > 1.0 + EPS_TOL)
        first = int(outside.argmax()) if outside.any() else len(settings)
        table = with_blocked(probs[:first])  # raises on an earlier sum above 1
        if first < len(settings):
            raise ValueError(
                f"setting {subset_key(settings[first])} produced probabilities outside "
                "[0, 1]; model and plan are inconsistent"
            )
        return table


@dataclass(eq=False)
class ExperimentRecord:
    """Detector counts per setting, keyed by subset, the blocked event last.

    count_table stacks them, a row per setting in settings order, and
    frequency_table divides it by the shots, each once, for estimate_i3 and
    serialize's writers.  estimate_i3 adds the rows one after the other, an
    order that is part of the output bytes.
    """

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

    @cached_property
    def count_table(self) -> np.ndarray:
        for J in self.settings:
            if J not in self.counts:
                raise KeyError(f"record is missing setting {subset_key(J)}")
        return np.array([self.counts[J] for J in self.settings])

    @cached_property
    def frequency_table(self) -> np.ndarray:  # all zeros at zero shots
        shots = self.shots_per_setting
        return self.count_table / shots if shots else np.zeros(self.count_table.shape)

    @property
    def n_outcomes(self) -> int:
        return self.count_table.shape[1] - 1

    def frequencies(self, J) -> np.ndarray:
        return self.frequency_table[self.settings.index(frozenset(J))]


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


def run_experiment(plan: ExperimentPlan) -> ExperimentRecord:
    """All shots of setting idx (in all_subsets order) drawn from [seed, idx]."""
    table = plan.probability_table()
    counts = np.empty(table.shape, dtype=np.int64)
    for idx, probs in enumerate(table):
        rng = np.random.default_rng([plan.seed, idx])
        counts[idx] = rng.multinomial(plan.shots_per_setting, probs)
    return ExperimentRecord(
        counts=dict(zip(all_subsets(plan.slits.k), counts)),
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
    frequency_tables: dict  # str key -> list

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
    freqs = record.frequency_table
    n_out = record.n_outcomes
    shots = record.shots_per_setting
    rows = freqs[:, :n_out]
    est = signed_subset_sum(dict(zip(settings, rows)), len(settings[-1]))
    # the settings' variances added one after the other, as a running sum
    # does (np.sum adds a single column pairwise)
    var = np.cumsum(rows * (1.0 - rows) / shots, axis=0)[-1] if shots > 0 else np.zeros(n_out)
    se = np.sqrt(var)
    z = np.divide(est, se, out=np.zeros(n_out), where=se > 0.0)
    return I3Estimate(
        estimates=est,
        standard_errors=se,
        z_scores=z,
        chi_square=float((z**2).sum()),
        degenerate=bool((se == 0.0).any()),
        frequency_tables=dict(zip(map(subset_key, settings), freqs.tolist())),
    )
