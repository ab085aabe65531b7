"""One workload in a fresh process: drive `atugv.cli.main` in a closed loop
with one caller, check every output, and write the per-command records,
the metrics and (for a traced run) the spans to a JSON file.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import atugv.cli  # noqa: E402  (imported from the checkout's src/, not site-packages)

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import cycles  # noqa: E402

BUNDLED_DIR = ROOT / "src" / "atugv" / "scenarios"
SETUP_PROBES = 9


def import_seconds():
    """Wall time of a fresh interpreter importing atugv.cli from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import atugv.cli"], env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def execute(command, out_dir: Path):
    """Run one command; return (wall seconds, exit code, stderr, exception
    type name or None). Standard output is discarded: the check reads the
    files the command writes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", command.scenario, "--output-dir", str(out_dir)]
    err = io.StringIO()
    exc_type = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = atugv.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback out of main is a failure to record, not to stop on
            code, exc_type = None, type(exc).__name__
            traceback.print_exc(file=err)
        wall = time.perf_counter() - start
    return wall, code, err.getvalue(), exc_type


def record(command, out_dir: Path, wall, code, stderr, exc_type):
    """Check the outputs of one command and describe it for the metrics."""
    path = Path(command.scenario)
    spec = oracle.parse_scenario(path if path.exists() else BUNDLED_DIR / f"{command.scenario}.cfg")
    rec = {
        "label": command.label,
        "cells": spec.cells,
        "wall_s": wall,
        "exit_code": code,
        "steps": 0,
        "failed": False,
        "wrong": False,
    }
    if code == 2 or exc_type is not None:
        step = re.search(r"\bstep (\d+)\b", stderr)
        rec.update(
            failed=True,
            exception=exc_type,
            failing_step=int(step.group(1)) if step else None,
            message=stderr.strip().splitlines()[-1] if stderr.strip() else "",
        )
        if step:
            rec.update(steps=int(step.group(1)))
        return rec
    try:
        oracle.check_run(spec, out_dir, code, command.safe_by_construction)
    except (oracle.CheckError, OSError, ValueError) as exc:
        rec.update(failed=True, wrong=True, message=f"output check: {exc}")
        return rec
    rec.update(steps=spec.steps)
    return rec


def tail(values):
    """Highest order statistic with at least ten samples beyond it, and its
    percentile. Below 21 samples no order statistic above the median has
    ten beyond it; the upper middle one is returned then."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def group_rate(records, work):
    """Median over command groups of the group's work per second of wall
    time; the median keeps a burst of machine load from moving it."""
    groups = {}
    for r in records:
        done, wall = groups.get(r["group"], (0.0, 0.0))
        groups[r["group"]] = (done + work(r), wall + r["wall_s"])
    return statistics.median(done / wall for done, wall in groups.values())


def end_to_end(records):
    # Latency over completed commands, so a crash never reads as a speed-up;
    # failures show in the result's `failed`. If none completed, over every
    # command, so the metrics stay defined.
    ok = [r["wall_s"] for r in records if not r["failed"]] or [r["wall_s"] for r in records]
    tail_s, tail_pct = tail(ok)
    metrics = {
        "run_s.p50": (statistics.median(ok), "s"),
        "run_s.tail": (tail_s, "s"),
        "cell_steps_per_s": (group_rate(records, lambda r: r["cells"] * r["steps"]), "cell-steps/s"),
    }
    notes = {"run_s.tail": f"p{tail_pct:.0f} of {len(ok)} commands"}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv):
    workload, seed, seconds, traced, workdir, result_path = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    workdir = Path(workdir)
    out_dir = workdir / "out"
    tracer = Tracer() if traced else None
    records, traced_records = [], []
    # Set-up probes are spread over the run, one at a time between command
    # groups, so they see the same machine as the commands; the first,
    # untimed, writes the bytecode caches.
    setup = []
    if not traced:
        import_seconds()
    start = time.perf_counter()
    last_group = 0.0
    for index, group in enumerate(cycles(workload, seed, workdir / "scenarios")):
        began = time.perf_counter()
        if records and began - start + last_group > seconds:
            break
        if not traced and len(setup) < SETUP_PROBES and began - start >= seconds * len(setup) / SETUP_PROBES:
            setup.append(import_seconds())
        for command in group:
            records.append(dict(record(command, out_dir, *execute(command, out_dir)), group=index))
            if tracer is not None:
                tracer.command += 1
                tracer.install()
                try:
                    result = execute(command, out_dir)
                finally:
                    tracer.restore()
                traced_records.append(record(command, out_dir, *result))
        last_group = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not traced and len(setup) < SETUP_PROBES:
        setup.append(import_seconds())

    all_records = records + traced_records
    result = {
        "attempted": len(all_records),
        "failed": sum(r["failed"] for r in all_records),
        "correct": not any(r["wrong"] for r in all_records),
        "records": all_records,
    }
    if tracer is None:
        metrics, notes = end_to_end(records)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        notes["setup_s"] = f"median of {len(setup)} fresh imports"
        result["setup_probes_s"] = setup
    else:
        metrics = tracer.layer_metrics(len(traced_records))
        plain = sum(r["wall_s"] for r in records)
        metrics["trace.overhead"] = {
            "value": sum(r["wall_s"] for r in traced_records) / plain - 1.0,
            "unit": "ratio",
        }
        notes = {"trace.overhead": "traced / untraced wall time of the same commands, minus 1"}
        failures = {exc: n for (span, exc), n in tracer.failures.items() if span == "simulator.run"}
        notes["simulator.failures"] = f"by exception type: {failures or 'none'}"
        result["trace"] = tracer.dump()
    result.update(metrics=metrics, notes=notes)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
