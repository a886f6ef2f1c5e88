"""Benchmark worker: runs one workload in a fresh process and reports.

Started by ``run.py`` from the root of a sorkinlab checkout.  It imports the
package from that checkout's ``src/``, generates the workload's inputs from
the workload seed, prints ``READY`` (the parent times set-up up to this
line), then runs passes over the task list in a closed loop: one client,
one ``sorkinlab.cli.main(argv)`` call at a time.  Every task's output is
checked.  The last line of stdout is a JSON object with the results.

With ``--setup-only`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SELF_SHARE_MIN = 0.98  # traced self times must cover this share of task time
MAX_FAILURE_RECORDS = 20


def import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sorkinlab
    import sorkinlab.cli

    if not Path(sorkinlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sorkinlab was imported from {sorkinlab.__file__}, not {src}")
    return sorkinlab


class Checker:
    """Applies the four output checks and keeps the tallies."""

    def __init__(self, refs: list[list[list]]):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.not_bit_identical = 0
        self.max_dev_share = 0.0
        self._seen: dict[str, str] = {}

    def check_pass(self, pass_idx: int, tasks: list[list[str]], results: list[tuple]):
        for pos, (argv, (rc, out, error, _)) in enumerate(zip(tasks, results)):
            self.attempted += 1
            reasons = []
            if error is not None:
                reasons.append(error)
            elif rc != 0:
                reasons.append(f"exit code {rc!r}, expected 0")
            else:
                csv = b""
                if "--csv-out" in argv:
                    csv = Path(argv[argv.index("--csv-out") + 1]).read_bytes()
                try:
                    summary = checks.summarize(argv, out, csv)
                except (ValueError, KeyError, TypeError) as exc:
                    reasons.append(f"malformed output: {exc!r}")
                else:
                    ref = self.refs[pass_idx][pos]
                    if not summary["verdict_ok"]:
                        reasons.append("verdict is false")
                    bad, dev = checks.compare(summary, ref)
                    reasons.extend(bad)
                    self.max_dev_share = max(self.max_dev_share, dev)
                    if summary["sha"] != ref[0]:
                        self.not_bit_identical += 1
                    first = self._seen.setdefault("\0".join(argv), summary["sha"])
                    if first != summary["sha"]:
                        reasons.append("repeated argv gave different output")
            if reasons:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_RECORDS:
                    self.failures.append({"argv": argv, "reasons": reasons})


def run_pass(cli, tasks: list[list[str]], tracer=None) -> tuple[float, list[tuple]]:
    """Run every task once; returns the pass wall time and per-task
    (exit code, stdout, error, latency)."""
    results = []
    t0 = perf_counter()
    for i, argv in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code!r}): {err.getvalue().strip()[-200:]}"
        except Exception as exc:  # a failed task is counted, the run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results.append((rc, out.getvalue(), error, perf_counter() - start))
    return perf_counter() - t0, results


def tail_latency(lat: list[float]) -> dict:
    """Latency at the highest percentile with at least ten tasks beyond it
    (nearest rank); with ten tasks or fewer, the maximum."""
    s = sorted(lat)
    n = len(s)
    if n > 10:
        return {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n,
                "tasks_beyond": 10, "samples": n}
    return {"value": s[-1], "percentile": 100.0, "tasks_beyond": 0, "samples": n}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(sorkinlab, passes: list[list[list[str]]], seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, ctype, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level is None:
            break
        if ctype != "Instruction":
            caches[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    models = {"quantum:3"}
    for tasks in passes:
        for argv in tasks:
            if "--model" in argv:
                models.add(argv[argv.index("--model") + 1])
    kernels = {}
    for spec in sorted(models):
        kind, _, arg = spec.partition(":")
        d = int(arg)
        if kind == "classical":
            continue
        m = d * d if kind == "quantum" else d * (d + 1) // 2
        e1, e2 = tracing.superoperator_flops(d, m, kind == "quantum")
        kernels[spec] = {
            "m": m,
            "flops_computed_einsum_conjugate": e1,
            "flops_computed_einsum_project": e2,
            "filter_working_set_bytes": 14 * m * m * 8,
        }
    return {
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sorkinlab": sorkinlab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "kernel_counts_computed": kernels,
    }


def quiet_latencies(pass_lat: list[list[float]]) -> list[float]:
    """Each task position's latency on a quiet host: its lowest latency
    over the run's passes.

    Every pass of a workload has the same layout: position ``i`` holds the
    same task class (the same argv, in a repeating workload).  The shared
    host slows the worker by up to 1.6x for seconds to minutes at a time,
    and that only ever adds time, so a position's lowest latency is its
    cost.  Taking it position by position needs one quiet moment per task,
    not a whole quiet pass.
    """
    if len({len(p) for p in pass_lat}) != 1:
        raise RuntimeError("passes of one workload must have the same length")
    return [min(col) for col in zip(*pass_lat)]


def measure_end_to_end(timed_pass, min_passes: int, keep_going) -> tuple[dict, dict]:
    walls, pass_lat = [], []
    while len(walls) < min_passes or keep_going():
        wall, results = timed_pass()
        walls.append(wall)
        pass_lat.append([r[3] for r in results])
    lat = quiet_latencies(pass_lat)
    tail = tail_latency(lat)
    metrics = {
        "wall_s": (math.fsum(lat), "s"),
        "task_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "task_tail_ms": (tail["value"] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "pass_walls_s": walls,
        "pass_wall_median_s": statistics.median(walls),
        "tail": tail,
        "task_latencies_us": [[round(x * 1e6) for x in p] for p in pass_lat],
    }
    return metrics, details


def measure_layers(timed_pass, min_passes: int, keep_going) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes; per-pass layer metrics, details
    and the spans of the first traced pass."""
    tr = tracing.Tracer()
    plain, traced, task_time = [], [], 0.0
    plain_lat, traced_lat = [], []
    agg = {name: [0, 0.0] for name in tracing.SPANS}
    counts: dict[str, int] = {}
    first_spans = None
    while len(traced) < min_passes or keep_going():
        wall, results = timed_pass()
        plain.append(wall)
        plain_lat.append([r[3] for r in results])
        wall, results = timed_pass(tr)
        traced.append(wall)
        traced_lat.append([r[3] for r in results])
        task_time += sum(r[3] for r in results)
        pass_agg, pass_counts, spans = tr.take()
        for name, (calls, self_s) in pass_agg.items():
            agg[name][0] += calls
            agg[name][1] += self_s
        for name, value in pass_counts.items():
            counts[name] = counts.get(name, 0) + value
        if first_spans is None:
            first_spans = spans
    n = len(traced)
    metrics = {f"{name}.self_ms": (self_s * 1e3 / n, "ms")
               for name, (_, self_s) in agg.items()}
    for name in ("gpt.random_state", "gpt.random_effect", "models.subset_filters",
                 "models.conjugation_superoperator", "interference.table_from_system"):
        metrics[f"{name}.calls"] = (agg[name][0] / n, "count")
    for name, unit in (("models.conjugation_superoperator.flops_computed", "flop"),
                       ("interference.prop1_verify.samples", "count"),
                       ("experiment.shots_simulated", "count"),
                       ("serialize.bytes_out", "B")):
        metrics[name] = (counts.get(name, 0) / n, unit)
    # wall_s of the traced passes minus wall_s of the untraced ones
    metrics["trace.overhead_s"] = (
        math.fsum(quiet_latencies(traced_lat)) - math.fsum(quiet_latencies(plain_lat)), "s")
    metrics["trace.self_share"] = (sum(s for _, s in agg.values()) / task_time, "ratio")
    details = {"untraced_pass_walls_s": plain, "traced_pass_walls_s": traced,
               "self_share_min": SELF_SHARE_MIN}
    return metrics, details, first_spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sorkinlab = import_program(root)
    wl = workloads.WORKLOADS[args.workload]
    passes = workloads.catalogue(wl.name)
    order = workloads.plan(wl.name, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    refs_doc = json.loads((BENCH_DIR / "refs" / f"{wl.name}.json").read_text())
    if refs_doc["catalogue_sha256"] != workloads.catalogue_digest(passes):
        raise RuntimeError("reference file does not match the task catalogue")
    checker = Checker(refs_doc["passes"])
    (root / workloads.CSV_DIR).mkdir(parents=True, exist_ok=True)
    queue = itertools.cycle(order)

    def timed_pass(tr=None) -> tuple[float, list[tuple]]:
        idx = next(queue)
        if tr is not None:
            tr.install()
        try:
            wall, results = run_pass(sorkinlab.cli, passes[idx], tr)
        finally:
            if tr is not None:
                tr.uninstall()
        checker.check_pass(idx, passes[idx], results)
        return wall, results

    if not args.tiny:
        timed_pass()  # warm-up: checked, not timed
    start = perf_counter()

    def keep_going() -> bool:
        return not args.tiny and perf_counter() - start < args.seconds

    out: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    min_passes = 1 if args.tiny else 2
    if args.trace == 0:
        out["metrics"], out["details"] = measure_end_to_end(timed_pass, min_passes, keep_going)
    else:
        out["metrics"], out["details"], spans = measure_layers(
            timed_pass, min_passes, keep_going)
        self_share = out["metrics"]["trace.self_share"][0]
        if self_share < SELF_SHARE_MIN:
            out["trace_inconsistent"] = True
            checker.failures.append({"argv": None, "reasons": [
                f"span self times cover {self_share:.4f} of traced task time, "
                f"below {SELF_SHARE_MIN}"]})
        (root / workloads.OUT_DIR / f"{wl.name}-spans.json").write_text(json.dumps(
            {"fields": ["task", "id", "parent", "name", "start", "end"], "spans": spans}))

    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["failures"] = checker.failures
    out["outputs_not_bit_identical_to_seed_commit"] = checker.not_bit_identical
    out["max_float_dev_share_of_tolerance"] = checker.max_dev_share
    out["float_tolerance"] = {"rtol": checks.RTOL, "atol": checks.ATOL}
    out["environment"] = environment(sorkinlab, [passes[i] for i in order[:1]], args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
