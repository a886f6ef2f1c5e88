"""Slit systems and filters that several test modules build the same way.

one_slit_filter, basis_system and spin1_system go through slit_system
directly, so every call builds a fresh system; the tests of the system cache
build theirs through projector_slit_system, as the fixtures below do.
"""

import numpy as np

import sorkinlab as sl
from sorkinlab.fixtures import qutrit_projector
from sorkinlab.interference import slit_system
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
