"""sorkinlab benchmark: run one workload (or all) and print its metrics.

Run from the root of a sorkinlab checkout:

    python3 bench/run.py --workload qd-build --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Each workload runs in a fresh worker process (``worker.py``) with BLAS pinned
to ``BLAS_THREADS`` threads.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload both ways.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
results, environment stamp included, go to ``.bench_out/``.

``--tiny`` runs one pass per mode and one set-up sample: the self-test in
``test_bench.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = 1  # the plain single-thread baseline; at most nproc
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it and its set-up time."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkerFailed(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker exceeded the deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args, deadline: float) -> dict:
    """One worker run (plus set-up samples for --trace 0); the result dict."""
    extra = ["--tiny"] if args.tiny else []
    setups = []

    def sample_setups(n: int) -> None:
        for _ in range(n):
            proc, setup = start_worker(args, [*extra, "--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)

    # Set-up samples before and after the measured worker, so that their
    # median spans the host's speed over the whole run.
    extra_setups = 0 if args.tiny or args.trace else SETUP_SAMPLES - 1
    sample_setups(extra_setups // 2)
    proc, setup = start_worker(args, extra, deadline)
    lines = finish(proc, deadline).strip().splitlines()
    setups.append(setup)
    sample_setups(extra_setups - extra_setups // 2)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["pass_ratio"] = (
            (result["attempted"] - result["failed"]) / result["attempted"], "ratio")
        result["details"]["setup_samples_s"] = setups
        result["details"]["fail_ratio"] = result["failed"] / result["attempted"]
    result["correct"] = (result["failed"] == 0 and not result.get("trace_inconsistent")
                         and all(math.isfinite(v) for v, _ in metrics.values()))
    result["blas_threads"] = BLAS_THREADS
    out_dir = Path(workloads.OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(prefix: str, result: dict) -> None:
    for key, (value, unit) in sorted(result["metrics"].items()):
        print(f"{prefix}{key:<52} {value:>16.6g} {unit}")
    tail = result["details"].get("tail")
    if tail:
        print(f"{prefix}task_tail_ms is p{tail['percentile']:.2f} of {tail['samples']} tasks")
    for f in result["failures"]:
        print(f"{prefix}FAILED {f['argv']}: {'; '.join(f['reasons'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    if not Path("src/sorkinlab/__init__.py").is_file():
        print("error: run from the root of a sorkinlab checkout (no src/sorkinlab)",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    runs = ([(args.workload, args.trace)] if args.workload != "all"
            else [(w, t) for w in workloads.WORKLOADS for t in (0, 1)])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
        if args.workload == "all":
            deadline = perf_counter() + DEADLINE_S
        try:
            result = run_workload(sub, deadline)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name} " if args.workload == "all" else ""
        report(prefix, result)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix.replace(" ", ".") + key] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
