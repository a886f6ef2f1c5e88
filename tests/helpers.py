"""Slit systems and filters that several test modules build the same way,
and the experiment computed one setting at a time, as a reference.

one_slit_filter, basis_system and spin1_system go through slit_system
directly, so every call builds a fresh system; the tests of the system cache
build theirs through projector_slit_system, as the fixtures below do.
"""

import numpy as np

import sorkinlab as sl
from sorkinlab import serialize
from sorkinlab.experiment import plan_hash
from sorkinlab.fixtures import qutrit_projector
from sorkinlab.gpt import EPS_TOL
from sorkinlab.interference import all_subsets, signed_subset_sum, slit_system, subset_key
from sorkinlab.models import (
    basis_projectors,
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
    projector_slit_system,
    subset_filters,
)


def one_slit_filter(pi, model):
    """The Lueders filter pair of one projector, as subset_filters builds it."""
    return subset_filters([pi], model)[frozenset({1})]


def basis_system(d, kind="quantum", k=3):
    """The first k basis slits of a quantum, real_quantum or classical model."""
    if kind == "classical":
        model = build_classical_model(d)
    else:
        model = (build_quantum_model if kind == "quantum" else build_real_quantum_model)(d)
    dtype = complex if kind == "quantum" else float
    return slit_system(model, subset_filters(basis_projectors(d, dtype)[:k], model))


def spin1_system():
    """Spin-1 slits along (0.48, -0.6, 0.64) on quantum:3."""
    model = build_quantum_model(3)
    setup = sl.spin1_feynman_setup([0.48, -0.6, 0.64], [0, 0, 1])
    return slit_system(model, subset_filters(list(setup[0]), model))


def qutrit_fixture(dtype=complex):
    """(model, slit system, state, effect) for the equal-superposition qutrit
    with computational-basis slits; its hand-computable values are
    I2(12) = 2/9 and I3 = 0.  dtype=float gives the real_quantum:3 one."""
    model = (build_quantum_model if dtype is complex else build_real_quantum_model)(3)
    ss = projector_slit_system(basis_projectors(3, dtype), model)
    proj = qutrit_projector(dtype)
    return model, ss, model.embed(proj), model.embed(proj)


def classical_fixture():
    """(model, slit system, uniform state, first-coordinate effect)."""
    model = build_classical_model(3)
    ss = projector_slit_system(basis_projectors(3, float), model)
    return model, ss, np.full(3, 1.0 / 3.0), np.array([1.0, 0.0, 0.0])


def quantum4_subspace_fixture(seed: int = 0):
    """quantum(4) with three random rank-1 slits spanning a 3-dim subspace."""
    model = build_quantum_model(4)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r).real)
    pis = [np.outer(q[:, i], q[:, i].conj()) for i in range(3)]
    ss = projector_slit_system(pis, model)
    return model, ss


# --- the experiment one setting at a time ------------------------------------
# run_experiment, record_from_table, estimate_i3, serialize's record writers
# and sample_frequencies work on one table of all settings, drawn by
# gpt.draw_counts; the loops below are how they were written per setting, as
# the reference whose bytes the table reproduces.


def _with_blocked_row(probs):
    """gpt.with_blocked of a single row, as written for one row."""
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 1.0 + EPS_TOL:
        raise ValueError(f"outcome probabilities sum to {total:.6g} > 1")
    full = np.append(probs, max(0.0, 1.0 - total))
    return full / full.sum()


def per_setting_counts(plan):
    """run_experiment's count table, one setting at a time in all_subsets
    order, raising on the first setting whose probabilities are not valid."""
    counts = []
    for idx, J in enumerate(all_subsets(plan.slits.k)):
        s_f = plan.slits.derived[J].projection @ plan.source_state
        probs = np.array([float(e @ s_f) for e in plan.detector])
        if probs.min() < -EPS_TOL or probs.max() > 1.0 + EPS_TOL:
            raise ValueError(
                f"setting {subset_key(J)} produced probabilities outside [0, 1]; "
                "model and plan are inconsistent"
            )
        rng = np.random.default_rng([plan.seed, idx])
        counts.append(rng.multinomial(plan.shots_per_setting, _with_blocked_row(probs)))
    return np.array(counts)


def binomial_table_counts(table, shots, seed):
    """record_from_table's count table, one binomial draw of outcome 0 per
    setting, in all_subsets order."""
    counts = []
    for idx, J in enumerate(all_subsets(table.k)):
        p = min(max(table.entries[J], 0.0), 1.0)
        rng = np.random.default_rng([seed, idx])
        hit = rng.binomial(shots, p) if shots > 0 else 0
        counts.append([hit, shots - hit])
    return np.array(counts, dtype=np.int64)


def per_setting_frequencies(plan, s_filtered, shots, seed):
    """tomography.sample_frequencies, one setting at a time."""
    out = []
    for idx, effects in enumerate(plan.settings):
        probs = np.array([float(e @ s_filtered) for e in effects])
        rng = np.random.default_rng([*seed, idx])
        counts = rng.multinomial(shots, _with_blocked_row(probs))
        out.append(counts[:-1] / shots if shots > 0 else np.zeros(len(probs)))
    return out


def per_setting_outputs(counts, shots, seed, hash_):
    """The frequencies (keyed by setting), the CSV text and the CLI's JSON
    text of a record of this count table, one setting at a time."""
    settings = all_subsets(len(counts).bit_length())
    counts = dict(zip(settings, counts, strict=True))
    freqs = {J: counts[J] / shots if shots else np.zeros_like(counts[J], dtype=float)
             for J in settings}
    n_out = len(counts[settings[0]]) - 1
    rows = {J: f[:n_out] for J, f in freqs.items()}
    est = signed_subset_sum(rows, len(settings[-1]))
    se = (np.sqrt(sum(f * (1.0 - f) / shots for f in rows.values())) if shots > 0
          else np.zeros(n_out))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, est / se, 0.0)
    estimate = {
        "per_outcome": [{"estimate": float(e), "standard_error": float(s), "z": float(x)}
                        for e, s, x in zip(est, se, z)],
        "chi_square": float(np.sum(z**2)),
        "degenerate": bool(np.any(se == 0.0)),
        "frequency_tables": {subset_key(J): freqs[J].tolist() for J in settings},
    }
    record = {"shots_per_setting": shots, "seed": seed, "plan_hash": hash_,
              "counts": {subset_key(J): counts[J].tolist() for J in settings}}
    lines = ["setting,outcome,count,shots,frequency"]
    for J in settings:
        names = [*map(str, range(n_out)), "blocked"]
        for name, c, f in zip(names, counts[J].tolist(), freqs[J].tolist()):
            lines.append(f"{subset_key(J)},{name},{c},{shots},{f!r}")
    csv = "\r\n".join(lines + [""])
    return freqs, csv, serialize.dumps({"estimate": estimate, "record": record})


def per_setting_experiment(plan):
    """per_setting_counts of the plan and per_setting_outputs of its record."""
    counts = per_setting_counts(plan)
    return (counts, *per_setting_outputs(counts, plan.shots_per_setting, plan.seed,
                                         plan_hash(plan)))
