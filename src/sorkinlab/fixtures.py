"""Named fixtures used by the CLI and the test suite.

The qutrit fixture is the equal-superposition source with computational-basis
slits and the matching rank-1 detector; its hand-computable values are
I2(12) = 2/9 and I3 = 0.
"""

from __future__ import annotations

import numpy as np

from .gpt import Effect, State
from .interference import ProbabilityTable, slit_system
from .models import (
    basis_projectors,
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
    classical_subset_filters,
    effect_from_matrix,
    state_from_matrix,
    subset_filters,
)


def qutrit_projector(dtype=complex) -> np.ndarray:
    """|psi><psi| for the equal superposition psi = (1, 1, 1) / sqrt(3)."""
    psi = np.ones(3, dtype=dtype) / np.sqrt(3.0)
    return np.outer(psi, psi.conj())


def qutrit_fixture(dtype=complex):
    """(model, slit system, state, effect) for the equal-superposition qutrit;
    dtype=float gives the real_quantum:3 one."""
    model = (build_quantum_model if dtype is complex else build_real_quantum_model)(3)
    ss = slit_system(model, subset_filters(basis_projectors(3, dtype), model))
    proj = qutrit_projector(dtype)
    return model, ss, state_from_matrix(proj, model), effect_from_matrix(proj, model)


def classical_fixture():
    """(model, slit system, uniform state, first-coordinate effect)."""
    model = build_classical_model(3)
    ss = slit_system(model, classical_subset_filters([[0], [1], [2]], model))
    s = State(model, np.full(3, 1.0 / 3.0))
    e = Effect(model, np.array([1.0, 0.0, 0.0]))
    return model, ss, s, e


def quantum4_subspace_fixture(seed: int = 0):
    """quantum(4) with three random rank-1 slits spanning a 3-dim subspace."""
    model = build_quantum_model(4)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r).real)
    pis = [np.outer(q[:, i], q[:, i].conj()) for i in range(3)]
    ss = slit_system(model, subset_filters(pis, model))
    return model, ss


def table_06() -> ProbabilityTable:
    """Raw three-slit table with I3 = 0.6 (no underlying model)."""
    entries = {
        frozenset({1, 2, 3}): 0.9,
        frozenset({1, 2}): 0.2,
        frozenset({1, 3}): 0.2,
        frozenset({2, 3}): 0.2,
        frozenset({1}): 0.1,
        frozenset({2}): 0.1,
        frozenset({3}): 0.1,
    }
    return ProbabilityTable(3, entries)

