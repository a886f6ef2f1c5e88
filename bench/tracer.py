"""Spans around the calls into each sorkinlab module, installed from outside.

``Tracer.install`` rebinds each traced function in every module namespace
that holds it (for example ``sorkinlab.interference.random_state`` and
``sorkinlab.cli.prop1_verify``), so calls made through those names open a
span.  Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.  Spans are kept in memory; a span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "fixtures", "gpt", "models", "interference", "tomography",
           "experiment", "serialize")

# span name -> (defining module, function names); the three model builders
# share one span name
SPANS = {
    "gpt.random_state": ("gpt", ("random_state",)),
    "gpt.random_effect": ("gpt", ("random_effect",)),
    "gpt.validate_filter": ("gpt", ("validate_filter",)),
    "gpt.face_of": ("gpt", ("face_of",)),
    "models.build_model": ("models", ("build_quantum_model", "build_real_quantum_model",
                                      "build_classical_model")),
    "models.subset_filters": ("models", ("subset_filters",)),
    "models.conjugation_superoperator": ("models", ("conjugation_superoperator",)),
    "models.spin1_feynman_setup": ("models", ("spin1_feynman_setup",)),
    "interference.slit_system": ("interference", ("slit_system",)),
    "interference.prop1_verify": ("interference", ("prop1_verify",)),
    "interference.table_from_system": ("interference", ("table_from_system",)),
    "tomography.build_face_measurement": ("tomography", ("build_face_measurement",)),
    "tomography.sample_frequencies": ("tomography", ("sample_frequencies",)),
    "tomography.estimate_filtered_state": ("tomography", ("estimate_filtered_state",)),
    "tomography.tomography_roundtrip": ("tomography", ("tomography_roundtrip",)),
    "experiment.run_experiment": ("experiment", ("run_experiment",)),
    "experiment.estimate_i3": ("experiment", ("estimate_i3",)),
    "serialize.dumps": ("serialize", ("dumps",)),
    "serialize.record_to_csv": ("serialize", ("record_to_csv",)),
    "cli.build_parser": ("cli", ("build_parser",)),
    "cli.main": ("cli", ("main",)),
}


def superoperator_flops(d: int, m: int, complex_: bool) -> tuple[int, int]:
    """Computed floating-point operations of the two einsums in
    ``conjugation_superoperator``: 'ab,kbc,cd->kad' and 'jdc,kcd->jk'.

    numpy's einsum without path optimisation visits every index combination
    once: m*d^4 terms of two products and a sum, then m^2*d^2 terms of one
    product and a sum.  A complex product is 6 real operations and a complex
    sum 2; real ones are 1 each.  This is a count from the shapes, not a
    measurement.
    """
    mul, add = (6, 2) if complex_ else (1, 1)
    return m * d**4 * (2 * mul + add), m * m * d * d * (mul + add)


def _count_flops(counts, args, result):
    pi, model = args[0], args[1]
    d, m = pi.shape[0], model.basis.shape[0]
    cplx = np.iscomplexobj(pi) or np.iscomplexobj(model.basis)
    counts["models.conjugation_superoperator.flops_computed"] += sum(
        superoperator_flops(d, m, cplx))


def _count_samples(counts, args, result):
    counts["interference.prop1_verify.samples"] += result.samples_used


def _count_shots(counts, args, result):
    counts["experiment.shots_simulated"] += result.shots_per_setting * len(result.counts)


def _count_bytes(counts, args, result):
    counts["serialize.bytes_out"] += len(result.encode())


COUNTERS = {
    "models.conjugation_superoperator": _count_flops,
    "interference.prop1_verify": _count_samples,
    "experiment.run_experiment": _count_shots,
    "serialize.dumps": _count_bytes,
    "serialize.record_to_csv": _count_bytes,
}


class Tracer:
    """Records spans (task, id, parent, name, start, end) while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.task, idx, parent, name, start, end)
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {n: importlib.import_module(f"sorkinlab.{n}") for n in MODULES}
        wrappers = {}
        for name, (home, funcs) in SPANS.items():
            for f in funcs:
                fn = getattr(mods[home], f)
                wrappers[id(fn)] = self._wrap(name, fn, COUNTERS.get(name))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def take(self) -> tuple[dict, dict, list]:
        """Per-name (calls, self seconds), the counters and the raw spans
        recorded since the last call; clears them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list] = {name: [0, 0.0] for name in SPANS}
        for (_, idx, _, name, start, end) in spans:
            agg[name][0] += 1
            agg[name][1] += end - start - child[idx]
        counts = dict(self.counts)
        raw = list(spans)
        spans.clear()
        self.counts.clear()
        return agg, counts, raw
