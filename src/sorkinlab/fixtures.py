"""Named fixtures of the CLI: the equal-superposition qutrit (--state and
--effect fixture:qutrit) and a raw three-slit table (--table fixture:0.6).
"""

from __future__ import annotations

import numpy as np

from .interference import ProbabilityTable


def qutrit_projector(dtype=complex) -> np.ndarray:
    """|psi><psi| for the equal superposition psi = (1, 1, 1) / sqrt(3)."""
    psi = np.ones(3, dtype=dtype) / np.sqrt(3.0)
    return np.outer(psi, psi.conj())


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

