"""Slit systems and filters that several test modules build the same way.

They go through slit_system directly, so every call builds a fresh system;
the tests of the system cache build theirs through projector_slit_system.
"""

import sorkinlab as sl
from sorkinlab.fixtures import basis_projectors
from sorkinlab.interference import slit_system
from sorkinlab.models import (
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
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
