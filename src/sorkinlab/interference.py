"""The interference hierarchy: I_2 / I_3 / I_k from probability tables and
from the operator picture, the signed projector sum and its defect operator,
and the three-way equivalence check for slit systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .gpt import (
    CHUNK_ELEMENTS,
    EPS_PROJ,
    EPS_PROP,
    CheckResult,
    Filter,
    ModelSpace,
    ValidationReport,
    diagonal_blocks,
    matvecs,
    one_block,
    orthonormal_column_basis,
    random_pairs,
    rowdots,
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


# Cached, as read-only arrays: a system's subsets come in a few orders.
@lru_cache(maxsize=16)
def _product_table(keys: tuple) -> tuple[np.ndarray, tuple]:
    """For subsets keys, the position of J & K in keys for each pair (J, K),
    len(keys) where J & K is empty, and the index arrays of the pairs of
    single slits."""
    pos = {J: i for i, J in enumerate(keys)}
    target = np.array([[pos.get(J & K, len(keys)) for K in keys] for J in keys])
    target.flags.writeable = False
    singles = [pos[J] for J in keys if len(J) == 1]
    pairs = np.array(list(combinations(singles, 2)), dtype=np.intp).reshape(-1, 2)
    pairs.flags.writeable = False
    return target, (pairs[:, 0], pairs[:, 1])


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

    @property
    def blocks(self) -> tuple:
        """The coordinate partition that every filter of the system carries
        (see Filter.blocks), or one block of all coordinates when they do
        not share one."""
        first = next(iter(self.derived.values())).blocks
        if first is not None and all(f.blocks is first for f in self.derived.values()):
            return first
        return one_block(self.model.dimension)

    @cached_property
    def projection_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per block width, the blocks (n_blocks, w) on which some projection
        is nonzero, and the diagonal blocks of every projection there, in
        derived order, (len(derived), n_blocks, w, w): every projection is
        zero off them.  Gathered on first use, for validate and the defect
        operator, and read-only."""
        mats = [f.projection for f in self.derived.values()]
        out = []
        for coords, entries in self.blocks:
            stack = diagonal_blocks(mats, entries)
            on = stack.any(axis=(0, 2, 3))
            coords, stack = coords[on], stack[:, on]
            stack.flags.writeable = False
            out.append((coords, stack))
        return out

    @cached_property
    def defect_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The defect operator on the blocks of projection_blocks where it is
        nonzero, per block width: the blocks (n_blocks, w) and the defect's
        diagonal blocks there, (n_blocks, w, w), read-only.  The defect is
        +0.0 off them (see defect_operator); the list is empty when the
        defect operator is zero."""
        out = []
        for coords, stack in self.projection_blocks:
            mats = dict(zip(self.derived, stack))
            defect = mats[self.top] - _p3(mats, self.k)
            on = defect.any(axis=(1, 2))
            if on.any():
                coords, defect = coords[on], defect[on]
                defect.flags.writeable = False
                out.append((coords, defect))
        return out

    @cached_property
    def operator_gap(self) -> float:
        """The Frobenius norm of the defect operator; the zero blocks left
        out of defect_blocks would add exact zeros to it."""
        return float(np.sqrt(sum(np.dot(d.ravel(), d.ravel())
                                 for _, d in self.defect_blocks)))

    @cached_property
    def span_defect(self) -> float:
        """span_condition_check of the system."""
        return span_condition_check(self)

    def validate(self) -> ValidationReport:
        """Pairwise orthogonality plus the product relations P_J P_K = P_{J&K}.

        The products are formed block by block of projection_blocks, in
        batched matmuls: off those blocks every product and its target are
        exactly zero.  The Frobenius norms are the square roots of the
        blocks' sums of squares.
        """
        keys = tuple(self.derived)
        n = len(keys)
        target, singles = _product_table(keys)
        # sq[J, K] = ||P_J P_K - P_{J&K}||^2, the target being the zero matrix
        # appended after the n filters when J & K is empty: its J = K entries
        # give idempotence, its single-slit pairs orthogonality.  Rows J go in
        # batches of CHUNK_ELEMENTS product entries.
        sq, norms = np.zeros((n, n)), np.zeros(n)
        for _, stack in self.projection_blocks:
            entries = stack.reshape(n, -1)
            norms += np.add.reduce(entries * entries, axis=1)
            targets = np.concatenate([stack, np.zeros((1,) + stack.shape[1:])])
            rows = max(1, CHUNK_ELEMENTS // max(1, n * entries.shape[1]))
            for lo in range(0, n, rows):
                diff = np.matmul(stack[lo : lo + rows, None], stack[None])
                diff -= targets[target[lo : lo + rows]]
                flat = diff.reshape(diff.shape[0], n, -1)
                sq[lo : lo + rows] += np.einsum("jki,jki->jk", flat, flat)
        resid = np.sqrt(sq)
        prod = resid.max()
        idem = (np.diagonal(resid) / np.maximum(1.0, np.sqrt(norms))).max()
        ortho = resid[singles].max(initial=0.0)
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
        # the bump may reach off the family's blocks: the copy has none
        new[self.top] = Filter(f.projection + bump, f.complement)
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


def table_from_system(r: np.ndarray, ss: SlitSystem, s: np.ndarray) -> ProbabilityTable:
    """Joint probabilities r . P_J(s) for every nonempty subset setting."""
    entries = {J: float(r @ (ss.derived[J].projection @ s)) for J in all_subsets(ss.k)}
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


def _p3(mats: dict, k: int):
    """Minus the signed sum of the matrices of the proper subsets of 1..k."""
    return -signed_subset_sum({J: P for J, P in mats.items() if len(J) < k}, k)


def p3_operator(ss: SlitSystem) -> np.ndarray:
    """Minus the signed sum over the proper subsets of the slits; at k = 3
    P12 + P13 + P23 - P1 - P2 - P3 (an idempotent map)."""
    return _p3({J: f.projection for J, f in ss.derived.items()}, ss.k)


def defect_operator(ss: SlitSystem) -> np.ndarray:
    """P_[k] minus p3_operator, the operator of I_k: zero iff no k-th order
    interference.

    It is ss.defect_blocks scattered into zeros.  Each entry there is the
    same signed sum of the same filter entries as in the dense formula.
    Everywhere else the dense formula gives +0.0 too: P_[k] - p3 is -0.0
    only where p3 is +0.0, that is where the signed sum is -0.0, and a sum
    started at +0.0 never is.  So the bytes are those of the dense formula.
    """
    m = ss.model.dimension
    out = np.zeros((m, m))
    for blocks, defect in ss.defect_blocks:
        out[blocks[:, :, None], blocks[:, None, :]] = defect
    return out


def i3_operator(r: np.ndarray, ss: SlitSystem, s: np.ndarray) -> float:
    """Interference in operator form, r . (P_[k] - P^(k)) s; I3 for three slits."""
    if r.shape[0] != s.shape[0]:
        raise ValueError("effect and state dimensions differ")
    return float(r @ (defect_operator(ss) @ s))


def span_condition_check(ss: SlitSystem) -> float:
    """Residual of im(P_[k]) against the span of the (k-1)-slit filter images.

    0 (within the rank tolerance) means every k-slit-filtered direction is a
    linear combination of (k-1)-slit-filtered ones.
    """
    faces = [ss.derived[J].projection for J in subsets_of_size(ss.k, ss.k - 1)]
    q = orthonormal_column_basis(np.hstack(faces))
    triple_basis = orthonormal_column_basis(ss.derived[ss.top].projection)
    resid = triple_basis - q @ (q.T @ triple_basis)
    return float(np.max(np.linalg.norm(resid, axis=0), initial=0.0))


@dataclass(frozen=True)
class Prop1Report:
    """Residuals and verdicts for the three equivalent no-third-order
    conditions: sampled sup |I3|, the operator gap, and the span defect.

    samples_used is the number of random state/effect pairs that sup_abs_i3
    is the supremum over; on a system whose defect operator is exactly zero
    none of them is drawn, since each pair's I3 is +0.0 (see prop1_verify).

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
            "tolerance": EPS_PROP,
        }


def prop1_verify(ss: SlitSystem, n_samples: int = 500, seed: int = 0) -> Prop1Report:
    """Evaluate the three equivalent conditions on a slit system.

    The operator gap is exact and is the verdict of record; the sampled
    supremum of |I3| and the span check are consistency probes.  On a valid
    system all three verdicts must agree.  The operator gap and the span
    defect are properties of the system, computed once per system; only
    the samples are drawn per call.

    samples_used counts the samples that sup_abs_i3 is the supremum over.
    Each sample's I3 is e . (D s) with D the defect operator, the pairing
    random_tables forms for every table entry.  When D is exactly zero (no
    defect_blocks), every sample's I3 is +0.0 whatever was drawn, so no
    pair is drawn and the supremum over the n_samples samples is 0.0.
    """
    sup_i3 = 0.0
    if ss.defect_blocks:
        defect = defect_operator(ss)
        for states, effects in random_pairs(ss.model, n_samples, seed):
            i3 = rowdots(effects, matvecs(defect, states))
            sup_i3 = max(sup_i3, float(np.abs(i3).max()))

    gap, span = ss.operator_gap, ss.span_defect
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
