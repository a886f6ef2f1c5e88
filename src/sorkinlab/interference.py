"""The interference hierarchy: I_2 / I_3 / I_k from probability tables and
from the operator picture, the signed projector sum and its defect operator,
and the three-way equivalence check for slit systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

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
    Transformation,
    ValidationReport,
    orthonormal_column_basis,
    probability,
    apply,
    random_effect,
    random_state,
    support_mask,
)

PAIRS = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
SINGLES = (frozenset({1}), frozenset({2}), frozenset({3}))
TRIPLE = frozenset({1, 2, 3})


def subset_key(J: frozenset) -> str:
    return "".join(str(i) for i in sorted(J))


def all_subsets(k: int) -> list[frozenset]:
    out = []
    for r in range(1, k + 1):
        out.extend(frozenset(J) for J in combinations(range(1, k + 1), r))
    return out


@dataclass(eq=False)
class SlitSystem:
    """Three pairwise-orthogonal filters and their seven subset joins."""

    model: ModelSpace
    derived: dict  # frozenset -> Filter, 7 entries

    @property
    def singles(self) -> tuple[Filter, Filter, Filter]:
        return tuple(self.derived[J] for J in SINGLES)

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
        mats = np.stack([self.derived[J].projection.matrix for J in keys])
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
        ortho = max(
            (
                resid[pos[J], pos[K]]
                for J, K in combinations(SINGLES, 2)
                if J in pos and K in pos
            ),
            default=0.0,
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
        """Copy of the system with the three-slit filter shifted by a matrix.

        Used to probe how the equivalence checks react to a defective
        P_123; the perturbed system will no longer validate.
        """
        f = self.derived[TRIPLE]
        new = dict(self.derived)
        new[TRIPLE] = replace(
            f, projection=Transformation(f.projection.matrix + bump)
        )
        return SlitSystem(self.model, new)


def slit_system(model: ModelSpace, filters: dict) -> SlitSystem:
    """Wrap and validate a full subset-filter family as a slit system."""
    ss = SlitSystem(model, {frozenset(J): f for J, f in filters.items()})
    report = ss.validate()
    if not report.passed:
        worst = max(report.checks, key=lambda c: c.residual / c.tolerance)
        raise ValueError(f"slit system failed validation: {worst.name} residual {worst.residual:.3e}")
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


def i3_from_table(t: ProbabilityTable) -> float:
    """Third-order interference of a complete 3-slit table."""
    if t.k != 3:
        raise ValueError("table order must be 3")
    t.require_complete()
    return (
        t[{1, 2, 3}]
        - (t[{1, 2}] + t[{1, 3}] + t[{2, 3}])
        + (t[{1}] + t[{2}] + t[{3}])
    )


def ik_from_table(t: ProbabilityTable) -> float:
    """Order-k interference: the alternating subset sum
    sum over nonempty J of (-1)^(k - |J|) p_J."""
    if t.k < 2:
        raise ValueError("hierarchy starts at k = 2")
    t.require_complete()
    # grouped by subset size so the k = 3 case reproduces i3_from_table exactly
    total = 0.0
    for r in range(t.k, 0, -1):
        subtotal = sum(
            t.entries[frozenset(J)] for J in combinations(range(1, t.k + 1), r)
        )
        total += (-1.0) ** (t.k - r) * subtotal
    return total


def table_from_filters(
    r: Effect, filters: dict, s: State, k: int
) -> ProbabilityTable:
    """Joint probabilities r . P_J(s) for every nonempty subset setting."""
    entries = {}
    for J in all_subsets(k):
        f = filters[frozenset(J)]
        entries[J] = probability(r, apply(f.projection, s))
    return ProbabilityTable(k, entries)


def table_from_system(r: Effect, ss: SlitSystem, s: State) -> ProbabilityTable:
    return table_from_filters(r, ss.derived, s, 3)


def p3_operator(ss: SlitSystem) -> Transformation:
    """The signed sum P12 + P13 + P23 - P1 - P2 - P3 (an idempotent map)."""
    mats = {J: ss.derived[J].projection.matrix for J in ss.derived}
    total = sum(mats[J] for J in PAIRS) - sum(mats[J] for J in SINGLES)
    return Transformation(total)


def defect_operator(ss: SlitSystem) -> Transformation:
    """P123 minus the signed pair/single sum; zero iff no third-order
    interference."""
    return Transformation(ss.derived[TRIPLE].projection.matrix - p3_operator(ss).matrix)


def i3_operator(r: Effect, ss: SlitSystem, s: State) -> float:
    """Third-order interference in operator form: r . (P123 - P^(3)) s."""
    if r.coords.shape[0] != s.coords.shape[0]:
        raise ValueError("effect and state dimensions differ")
    return float(r.coords @ (defect_operator(ss).matrix @ s.coords))


def span_condition_check(ss: SlitSystem) -> float:
    """Residual of im(P123) against the span of the three pair-filter images.

    0 (within the rank tolerance) means every three-slit-filtered direction
    is a linear combination of two-slit-filtered ones.
    """
    pair_cols = np.hstack([ss.derived[J].projection.matrix for J in PAIRS])
    q = orthonormal_column_basis(pair_cols)
    triple_basis = orthonormal_column_basis(ss.derived[TRIPLE].projection.matrix)
    if triple_basis.shape[1] == 0:
        return 0.0
    resid = triple_basis - q @ (q.T @ triple_basis)
    return float(np.max(np.linalg.norm(resid, axis=0)))


def mutual_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Largest defect of either orthonormal basis against the other's span."""
    qa = orthonormal_column_basis(a)
    qb = orthonormal_column_basis(b)
    r1 = qa - qb @ (qb.T @ qa) if qa.shape[1] else np.zeros((a.shape[0], 0))
    r2 = qb - qa @ (qa.T @ qb) if qb.shape[1] else np.zeros((a.shape[0], 0))
    vals = [np.linalg.norm(r, axis=0).max() for r in (r1, r2) if r.shape[1]]
    return float(max(vals)) if vals else 0.0


@dataclass(frozen=True)
class Prop1Report:
    """Residuals and verdicts for the three equivalent no-third-order
    conditions: sampled sup |I3|, the operator gap, and the span defect."""

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
    defect = defect_operator(ss).matrix
    gap = float(np.linalg.norm(defect, "fro"))

    sup_i3 = 0.0
    for i in range(n_samples):
        s = random_state(ss.model, seed=[seed, i, 0])
        r = random_effect(ss.model, seed=[seed, i, 1])
        sup_i3 = max(sup_i3, abs(float(r.coords @ (defect @ s.coords))))

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
