"""Record the reference outputs of every catalogue task.

Run once, from the root of a checkout of the commit whose outputs are the
reference, with the same BLAS pinning the benchmark uses:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/record_refs.py [--workload NAME]

It writes ``bench/refs/<workload>.json``.  The benchmark then checks each
task's output against these records; re-recording them hides any change
in outputs, so do it only when the benchmark's task catalogue changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checks
import workloads
from worker import BENCH_DIR, import_program, run_pass


def record(cli, name: str) -> dict:
    passes = workloads.catalogue(name)
    (Path.cwd() / workloads.CSV_DIR).mkdir(parents=True, exist_ok=True)
    refs = []
    for tasks in passes:
        _, results = run_pass(cli, tasks)
        row = []
        for argv, (rc, out, error, _) in zip(tasks, results):
            if error is not None or rc != 0:
                raise SystemExit(f"{argv}: exit {rc!r} {error or ''}")
            csv = b""
            if "--csv-out" in argv:
                csv = Path(argv[argv.index("--csv-out") + 1]).read_bytes()
            summary = checks.summarize(argv, out, csv)
            if not summary["verdict_ok"]:
                raise SystemExit(f"{argv}: verdict is false")
            row.append(checks.to_ref(summary))
        refs.append(row)
    return {"workload": name, "catalogue_sha256": workloads.catalogue_digest(passes),
            "passes": refs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    cli = import_program(Path.cwd()).cli
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    (BENCH_DIR / "refs").mkdir(exist_ok=True)
    for name in names:
        doc = record(cli, name)
        path = BENCH_DIR / "refs" / f"{name}.json"
        # one line per catalogue pass keeps diffs readable
        lines = [json.dumps(row, separators=(",", ":")) for row in doc["passes"]]
        path.write_text(
            "{" + f'"workload": {json.dumps(name)}, '
            + f'"catalogue_sha256": {json.dumps(doc["catalogue_sha256"])},\n"passes": [\n'
            + ",\n".join(lines) + "\n]}\n")
        print(f"{path}: {sum(len(r) for r in doc['passes'])} tasks", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
