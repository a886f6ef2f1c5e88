"""Output checks for benchmark tasks.

A task's output is reduced to three parts:

- ``sha``: digest of stdout plus any CSV file the task wrote.  It tells
  whether the output is bit-identical to the seed commit's; a difference
  is reported but is not a failure on its own.
- ``exact``: digest of every non-float field of the JSON payload (verdicts,
  counts, hashes, seeds, shapes).  It must match exactly.
- ``floats``: a few key float fields per command, which must match the
  reference within ``RTOL``/``ATOL``.

The tolerance is fixed here and covers only summation-order effects; the
``sha`` comparison still reports any moved last bit.
"""

from __future__ import annotations

import hashlib
import json
import math

RTOL = 1e-9
ATOL = 1e-12


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def _strip_floats(obj):
    if isinstance(obj, float):
        return None
    if isinstance(obj, dict):
        return {k: _strip_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_floats(v) for v in obj]
    return obj


def key_floats(argv: list[str], payload: dict) -> list[float]:
    """The float fields compared against the reference for one command."""
    cmd = argv[0]
    if cmd == "prop1":
        return [payload["sup_abs_i3"], payload["operator_gap"], payload["span_defect"]]
    if cmd == "validate":
        return [max(c["residual"] for r in payload["reports"] for c in r["checks"])]
    if cmd == "interference":
        if "sweep" in payload:
            return [payload["sup_abs_i3"], payload["max_abs_i2"]]
        return [payload["i3_table"], payload["i3_operator"], *payload["i2"].values()]
    if cmd == "tomography":
        return [payload["reconstruction_error"], payload["cone_distance"],
                math.fsum(payload["reconstruction"])]
    if cmd == "experiment":
        return [payload["estimate"]["chi_square"]]
    raise ValueError(f"no reference fields defined for {cmd!r}")


def verdict_ok(argv: list[str], payload: dict) -> bool:
    """prop1 must report consistent verdicts and validate must pass."""
    if argv[0] == "prop1":
        return payload.get("consistent") is True
    if argv[0] == "validate":
        return payload.get("passed") is True
    return True


def summarize(argv: list[str], stdout: str, csv: bytes) -> dict:
    """Reference record of one task's output (raises on malformed output)."""
    payload = json.loads(stdout)
    return {
        "sha": _digest(stdout.encode() + csv),
        "exact": _digest(json.dumps(_strip_floats(payload), sort_keys=True).encode()),
        "floats": key_floats(argv, payload),
        "verdict_ok": verdict_ok(argv, payload),
    }


def to_ref(summary: dict) -> list:
    """Compact form stored in refs/*.json: [sha, exact, floats]."""
    return [summary["sha"], summary["exact"], summary["floats"]]


def compare(summary: dict, ref: list) -> tuple[list[str], float]:
    """Failure reasons against a stored reference, and the largest float
    deviation as a share of its tolerance (above 1 fails)."""
    _, exact, floats = ref
    reasons = []
    if summary["exact"] != exact:
        reasons.append("exact fields differ from reference")
    worst = 0.0
    if len(summary["floats"]) != len(floats):
        reasons.append("float field count differs from reference")
    else:
        for got, want in zip(summary["floats"], floats):
            share = abs(got - want) / (ATOL + RTOL * abs(want))
            worst = max(worst, share)
            if not share <= 1.0:
                reasons.append(f"float field {got!r} != reference {want!r}")
    return reasons, worst
