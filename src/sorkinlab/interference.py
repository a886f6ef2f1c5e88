"""The interference hierarchy: I_2 / I_3 / I_k from probability tables and
from the operator picture, the signed projector sum and its defect operator,
and the three-way equivalence check for slit systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations
from typing import Optional

import numpy as np

from .gpt import (
    CHUNK_ELEMENTS,
    EPS_PROJ,
    EPS_PROP,
    CheckResult,
    Effect,
    Filter,
    ModelSpace,
    State,
    ValidationReport,
    matvecs,
    orthonormal_column_basis,
    probability,
    apply,
    random_pairs,
    rowdots,
    support_mask,
)


def subset_key(J: frozenset) -> str:
    return "".join(str(i) for i in sorted(J))


# Cached, as immutable tuples: every slit setting of a run looks its order up.
@cache
def subsets_of_size(k: int, r: int) -> tuple[frozenset, ...]:
    """The r-element subsets of 1..k in lexicographic order."""
    return tuple(frozenset(J) for J in combinations(range(1, k + 1), r))


@cache
def all_subsets(k: int) -> tuple[frozenset, ...]:
    """The nonempty subsets of 1..k by size, then lexicographically: the
    order of slit settings and of their seed substreams."""
    return tuple(J for r in range(1, k + 1) for J in subsets_of_size(k, r))


def signed_subset_sum(terms: dict, k: int):
    """Sorkin's alternating sum over the nonempty subsets J of 1..k,
    sum over r = k..1 of (-1)^(k-r) sum_{|J|=r} terms[J].

    Each size group is summed in all_subsets order and added to (odd k - r:
    subtracted from) a running total that starts at 0.0; this order is part
    of the output bytes.  Subsets missing from terms count as zero.  Terms
    may be floats or arrays.
    """
    total = 0.0
    for r in range(k, 0, -1):
        group = sum(terms[J] for J in subsets_of_size(k, r) if J in terms)
        total = total - group if (k - r) % 2 else total + group
    return total


@dataclass(eq=False)
class SlitSystem:
    """k pairwise-orthogonal filters and the joins of every nonempty subset
    of them, keyed by subset of 1..k; k is read from their number.  report
    is the validate() report that slit_system checked, None for systems
    built otherwise."""

    model: ModelSpace
    derived: dict  # frozenset -> Filter, 2^k - 1 entries
    report: Optional[ValidationReport] = None

    @property
    def k(self) -> int:
        return len(self.derived).bit_length()

    @property
    def top(self) -> frozenset:
        """The subset of all k slits."""
        return frozenset(range(1, self.k + 1))

    def filter_for(self, J) -> Filter:
        return self.derived[frozenset(J)]

    def validate(self) -> ValidationReport:
        """Pairwise orthogonality plus the product relations P_J P_K = P_{J&K}.

        The products are formed in batched matmuls on the joint support of
        the filters, the rows and columns where some P_J is nonzero: outside
        that block every product and its target are exactly zero.
        """
        keys = list(self.derived)
        n = len(keys)
        pos = {J: i for i, J in enumerate(keys)}
        mats = np.stack([self.derived[J].projection for J in keys])
        on = np.flatnonzero(support_mask(mats))
        block = np.take(np.take(mats, on, axis=1), on, axis=2)
        # resid[J, K] = ||P_J P_K - P_{J&K}||, the target being the zero matrix
        # appended after the n filters when J & K is empty: its J = K entries
        # give idempotence, its single-slit pairs orthogonality.  Rows J go in
        # batches of CHUNK_ELEMENTS product entries.
        targets = np.concatenate([block, np.zeros((1,) + block.shape[1:])])
        target = np.array([[pos.get(J & K, n) for K in keys] for J in keys])
        resid = np.empty((n, n))
        rows = max(1, CHUNK_ELEMENTS // max(1, n * on.size**2))
        for lo in range(0, n, rows):
            diff = np.matmul(block[lo : lo + rows, None], block[None])
            diff -= targets[target[lo : lo + rows]]
            flat = diff.reshape(diff.shape[0], n, -1)
            resid[lo : lo + rows] = np.sqrt(np.einsum("jki,jki->jk", flat, flat))
        prod = resid.max()
        norms = np.linalg.norm(block.reshape(n, -1), axis=1)
        idem = (np.diagonal(resid) / np.maximum(1.0, norms)).max()
        singles = [J for J in keys if len(J) == 1]
        ortho = max(
            (resid[pos[J], pos[K]] for J, K in combinations(singles, 2)), default=0.0
        )
        return ValidationReport(
            "slit_system",
            (
                CheckResult("pairwise_orthogonality", float(ortho), EPS_PROJ),
                CheckResult("product_relations", float(prod), EPS_PROJ * 100),
                CheckResult("idempotence", float(idem), EPS_PROJ),
            ),
        )

    def with_triple_perturbation(self, bump: np.ndarray) -> "SlitSystem":
        """Copy of the system with its all-slit filter P_[k] shifted by a matrix.

        Used to probe how the equivalence checks react to a defective
        P_[k]; the perturbed system will no longer validate.
        """
        f = self.derived[self.top]
        new = dict(self.derived)
        new[self.top] = replace(f, projection=f.projection + bump)
        return SlitSystem(self.model, new)


class InvalidSlitSystem(ValueError):
    """A filter family that fails the slit-system checks."""


def slit_system(model: ModelSpace, filters: dict) -> SlitSystem:
    """Wrap and validate a full subset-filter family as a slit system."""
    ss = SlitSystem(model, {frozenset(J): f for J, f in filters.items()})
    if set(ss.derived) != set(all_subsets(ss.k)):
        raise ValueError("filters must be keyed by every nonempty subset of 1..k")
    report = ss.report = ss.validate()
    if not report.passed:
        worst = max(report.checks, key=lambda c: c.residual / c.tolerance)
        raise InvalidSlitSystem(
            f"slit system failed validation: {worst.name} residual {worst.residual:.3e}"
        )
    return ss


@dataclass(eq=False)
class ProbabilityTable:
    """Raw per-subset outcome probabilities for a k-slit experiment.

    Entries are probabilities conditioned on distinct filter settings, so no
    consistency relations between them are assumed or enforced beyond [0, 1].
    """

    k: int
    entries: dict  # frozenset -> float

    def __post_init__(self):
        self.entries = {frozenset(J): float(p) for J, p in self.entries.items()}

    def require_complete(self) -> None:
        missing = [J for J in all_subsets(self.k) if J not in self.entries]
        if missing:
            raise KeyError(
                "missing table entries: " + ", ".join(subset_key(J) for J in missing)
            )

    def __getitem__(self, J) -> float:
        return self.entries[frozenset(J)]


def i2_from_table(p12: float, p1: float, p2: float) -> float:
    """Second-order interference: p12 - p1 - p2."""
    return p12 - p1 - p2


def pair_interference(entries: dict, k: int) -> dict:
    """I2 of every slit pair, keyed by pair, from the entries of a k-slit
    table keyed by subset; entries may be floats or arrays."""
    return {
        J: i2_from_table(entries[J], *(entries[frozenset({i})] for i in sorted(J)))
        for J in subsets_of_size(k, 2)
    }


def i3_from_table(t: ProbabilityTable) -> float:
    """Third-order interference of a complete 3-slit table."""
    if t.k != 3:
        raise ValueError("table order must be 3")
    return ik_from_table(t)


def ik_from_table(t: ProbabilityTable) -> float:
    """Order-k interference: the alternating subset sum
    sum over nonempty J of (-1)^(k - |J|) p_J."""
    if t.k < 2:
        raise ValueError("hierarchy starts at k = 2")
    t.require_complete()
    return signed_subset_sum(t.entries, t.k)


def table_from_system(r: Effect, ss: SlitSystem, s: State) -> ProbabilityTable:
    """Joint probabilities r . P_J(s) for every nonempty subset setting."""
    entries = {J: probability(r, apply(ss.derived[J].projection, s)) for J in all_subsets(ss.k)}
    return ProbabilityTable(ss.k, entries)


def random_tables(ss: SlitSystem, n: int, seed: int):
    """The tables of the n random pairs random_pairs(ss.model, n, seed)
    draws, in batches: yields table entries keyed by subset, each an array
    with one probability per pair, equal to table_from_system's entries."""
    for states, effects in random_pairs(ss.model, n, seed):
        yield {
            J: rowdots(effects, matvecs(ss.derived[J].projection, states))
            for J in all_subsets(ss.k)
        }


def p3_operator(ss: SlitSystem) -> np.ndarray:
    """Minus the signed sum over the proper subsets of the slits; at k = 3
    P12 + P13 + P23 - P1 - P2 - P3 (an idempotent map)."""
    proper = {J: f.projection for J, f in ss.derived.items() if J != ss.top}
    return -signed_subset_sum(proper, ss.k)


def defect_operator(ss: SlitSystem) -> np.ndarray:
    """P_[k] minus p3_operator, the operator of I_k: zero iff no k-th order
    interference."""
    return ss.derived[ss.top].projection - p3_operator(ss)


def i3_operator(r: Effect, ss: SlitSystem, s: State) -> float:
    """Interference in operator form, r . (P_[k] - P^(k)) s; I3 for three slits."""
    if r.coords.shape[0] != s.coords.shape[0]:
        raise ValueError("effect and state dimensions differ")
    return float(r.coords @ (defect_operator(ss) @ s.coords))


def span_condition_check(ss: SlitSystem) -> float:
    """Residual of im(P_[k]) against the span of the (k-1)-slit filter images.

    0 (within the rank tolerance) means every k-slit-filtered direction is a
    linear combination of (k-1)-slit-filtered ones.
    """
    faces = [ss.derived[J].projection for J in subsets_of_size(ss.k, ss.k - 1)]
    q = orthonormal_column_basis(np.hstack(faces))
    triple_basis = orthonormal_column_basis(ss.derived[ss.top].projection)
    if triple_basis.shape[1] == 0:
        return 0.0
    resid = triple_basis - q @ (q.T @ triple_basis)
    return float(np.max(np.linalg.norm(resid, axis=0)))


@dataclass(frozen=True)
class Prop1Report:
    """Residuals and verdicts for the three equivalent no-third-order
    conditions: sampled sup |I3|, the operator gap, and the span defect.

    Each verdict compares its residual against EPS_PROP, an absolute 1e-8.
    The operator gap is the Frobenius norm of an m x m matrix, so its
    rounding noise grows with m (m = d^2 for quantum:d); the tolerance does
    not scale with it.
    """

    sup_abs_i3: float
    operator_gap: float
    span_defect: float
    verdicts: tuple[bool, bool, bool]
    consistent: bool
    samples_used: int
    seed: int
    tolerance: float = EPS_PROP

    def to_dict(self) -> dict:
        return {
            "sup_abs_i3": self.sup_abs_i3,
            "operator_gap": self.operator_gap,
            "span_defect": self.span_defect,
            "verdicts": {
                "sampled_i3_zero": self.verdicts[0],
                "operator_equality": self.verdicts[1],
                "span_condition": self.verdicts[2],
            },
            "consistent": self.consistent,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


def prop1_verify(ss: SlitSystem, n_samples: int = 500, seed: int = 0) -> Prop1Report:
    """Evaluate the three equivalent conditions on a slit system.

    The operator gap is exact and is the verdict of record; the sampled
    supremum of |I3| and the span check are consistency probes.  On a valid
    system all three verdicts must agree.
    """
    defect = defect_operator(ss)
    gap = float(np.linalg.norm(defect, "fro"))

    sup_i3 = 0.0
    for states, effects in random_pairs(ss.model, n_samples, seed):
        i3 = rowdots(effects, matvecs(defect, states))
        sup_i3 = max(sup_i3, float(np.abs(i3).max()))

    span = span_condition_check(ss)
    verdicts = (sup_i3 <= EPS_PROP, gap <= EPS_PROP, span <= EPS_PROP)
    return Prop1Report(
        sup_abs_i3=sup_i3,
        operator_gap=gap,
        span_defect=span,
        verdicts=verdicts,
        consistent=len(set(verdicts)) == 1,
        samples_used=n_samples,
        seed=seed,
    )
