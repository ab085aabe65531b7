"""atugv benchmark: one workload, end-to-end metrics or per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src. A fresh
worker process runs the workload in a closed loop for S seconds, checking
every output, and measures set-up time in fresh interpreters, one at a
time, between its commands. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it give
every metric by name and unit, the failures and the environment. A full
record, with the spans of a traced run, goes to .bench_results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_GRACE_S = 60  # a worker finishes its last command group after --seconds


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "atugv" / "cli.py").is_file():
        sys.exit(f"error: no package sources under {ROOT / 'src'}")

    results = ROOT / ".bench_results"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    result_path = workdir / "result.json"
    workdir.mkdir(parents=True)
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(workdir), str(result_path)],
            cwd=ROOT, timeout=args.seconds + WORKER_GRACE_S,
        )
        if worker.returncode != 0:
            sys.exit(f"error: worker exited with code {worker.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    result.update(environment=environment(args.seed), workload=args.workload)
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}: {json.dumps(result['environment'])}")
    for key, metric in metrics.items():
        note = result["notes"].get(key)
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    failures = {}
    for r in result["records"]:
        if r["failed"]:
            what = (r["label"], r["exit_code"], r.get("exception"), r.get("failing_step"))
            failures.setdefault(what, [0, r["message"]])[0] += 1
    for (label, code, exc, step), (count, message) in sorted(failures.items(), key=str):
        print(f"  failed {count}x {label}: exit {code}, exception {exc}, step {step}: {message[:160]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
