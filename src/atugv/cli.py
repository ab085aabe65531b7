"""Command-line pipeline: build the cell network, plan the affine motion,
validate safety and mechanism reach, simulate, and write a plain-text report
and the CSV traces (their columns; `csvtext` owns the CSV byte format).

Subcommands:
  run        full pipeline; writes trajectory.csv, elbows.csv, report.txt
  validate   plan + safety checks only, no simulation and no trace files
  reference  print the reference configuration, d_min, and lambda_min
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import kinematics, planner, simulator
from .errors import AtugvError, UnsafePlanError, UnreachableSeparationError
from .network import solve_reference_positions  # noqa: F401  (bench/tracing.py wraps this name here)
from .scenario import BUNDLED, load_scenario

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_ERROR = 2

def _fmt(value: float) -> str:
    return format(value, ".9g")


# The writers import `csvtext` when called, which keeps its tables out of
# the start-up of every command but `run`.
def write_trajectory_csv(path: Path, trace: simulator.SimulationTrace):
    """One row per step per cell; velocity-command columns are empty for
    unpowered cells (no command exists)."""
    from .csvtext import write_csv

    header = ["t", "cell_id", "x_des", "y_des", "x_act", "y_act", "vx_cmd", "vy_cmd", "err_norm"]
    values = (trace.desired, trace.actual, trace.velocity_commands, trace.errors[..., None])
    write_csv(path, header, trace.times, [(i,) for i in trace.cells], np.concatenate(values, -1))


def write_elbow_csv(path: Path, trace: simulator.SimulationTrace):
    from .csvtext import write_csv

    header = ["t", "cell_i", "cell_j", "theta_des", "theta_act"]
    values = np.stack([trace.elbow_desired, trace.elbow_actual], -1)
    write_csv(path, header, trace.times, trace.joints, values)


def _report(scenario, verdicts, extras=()):
    """The report text around the (passed, line) `verdicts`, and its exit
    code: EXIT_OK exactly when every verdict passed."""
    reference = scenario.graph.reference
    lines = [
        f"scenario: {scenario.name}",
        f"cells: {len(scenario.graph.cells)} "
        f"(powered: {sorted(scenario.graph.powered)}, "
        f"unpowered: {sorted(scenario.graph.unpowered)})",
        f"d_min: {_fmt(reference.d_min)} m",
        f"lambda_min: {_fmt(reference.lambda_min)}",
    ]
    lines.extend(line for _, line in verdicts)
    lines.extend(extras)
    lines.append("arm/link collision: NOT VERIFIED (only cell-disk clearance is checked)")
    passed = all(ok for ok, _ in verdicts)
    return "\n".join(lines) + "\n", EXIT_OK if passed else EXIT_VERDICT


def cmd_reference(args) -> int:
    scenario = load_scenario(args.scenario)
    reference = scenario.graph.reference
    print(f"scenario: {scenario.name}")
    for i, (x, y) in enumerate(reference.positions, start=1):
        tag = "powered" if i in scenario.graph.powered else "unpowered"
        print(f"  cell {i}: ({_fmt(x)}, {_fmt(y)}) m  [{tag}]")
    print(f"d_min: {_fmt(reference.d_min)} m")
    print(f"lambda_min: {_fmt(reference.lambda_min)}")
    return EXIT_OK


def _validate_verdicts(scenario):
    """The (passed, line) pairs of the plan gate: the principal-strain bound
    and the mechanism reach, or the one that failed."""
    try:
        planner.plan(scenario.plan_spec, scenario.graph, sample_count=scenario.sample_count)
    except UnsafePlanError as exc:
        violated = "principal-strain bound violated (collision-safety guarantee)"
        return [(False, f"strain-bound verdict: UNSAFE — {violated}: {exc}")]
    except UnreachableSeparationError as exc:
        return [(False, f"mechanism-reach verdict: UNREACHABLE — {exc}")]
    return [
        (True, "strain-bound verdict: SAFE (all samples)"),
        (True, "mechanism-reach verdict: OK (all joints, all samples)"),
    ]


def _trace_verdicts(trace, graph, threshold):
    """The (passed, line) pairs of the simulated trace, in report order:
    cell clearance, realized joint reach (`kinematics.beyond_reach`) and
    terminal error, each naming where its margin is smallest."""
    k = int(np.argmin(trace.min_clearance))
    clearance, required = float(trace.min_clearance[k]), 2 * graph.cell_radius
    i, j = trace.closest_pairs[k].tolist()
    passed = clearance >= required
    yield passed, (
        f"trace clearance verdict: {'SAFE' if passed else 'UNSAFE'} "
        f"(min clearance {_fmt(clearance)} m between cells {i} and {j} at t = {_fmt(trace.times[k])} s "
        f"vs required {_fmt(required)} m)"
    )
    if trace.joints:
        k, m = np.unravel_index(np.argmax(trace.separations), trace.separations.shape)
        widest = float(trace.separations[k, m])
        passed = not kinematics.beyond_reach(widest, graph.reach)
        yield passed, (
            f"trace reach verdict: {'OK' if passed else 'UNREACHABLE'} (max separation {_fmt(widest)} m "
            f"at joint {trace.joints[m]}, t = {_fmt(trace.times[k])} s vs reach {_fmt(graph.reach)} m)"
        )
    else:
        yield True, "trace reach verdict: OK (no joints)"
    worst = float(np.max(trace.errors[-1]))
    passed = worst < threshold
    yield passed, (
        f"terminal-error verdict: {'OK' if passed else 'EXCEEDED'} "
        f"(worst {_fmt(worst)} m vs threshold {_fmt(threshold)} m)"
    )


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    text, code = _report(scenario, _validate_verdicts(scenario))
    print(text, end="")
    return code


def cmd_run(args) -> int:
    out_dir = Path(args.output_dir)
    # An earlier run's outputs would otherwise outlive a run that fails,
    # at load too. Removing a file creates no directory.
    for name in ("report.txt", "trajectory.csv", "elbows.csv"):
        (out_dir / name).unlink(missing_ok=True)
    scenario = load_scenario(args.scenario)
    out_dir.mkdir(parents=True, exist_ok=True)

    verdicts = _validate_verdicts(scenario)
    extras = []
    if all(passed for passed, _ in verdicts):
        trace = simulator.run(scenario.plan_spec, scenario.graph, scenario.sim)
        write_trajectory_csv(out_dir / "trajectory.csv", trace)
        write_elbow_csv(out_dir / "elbows.csv", trace)
        verdicts += _trace_verdicts(trace, scenario.graph, scenario.terminal_error_threshold)
        extras.append("terminal tracking errors [m]:")
        extras += (f"  cell {i}: {_fmt(err)}" for i, err in zip(trace.cells, trace.errors[-1].tolist()))

    text, code = _report(scenario, verdicts, extras)
    (out_dir / "report.txt").write_text(text)
    print(text, end="")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atugv",
        description="Plan and simulate safe affine transformations of a "
        "multi-cell ground vehicle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
        ("run", cmd_run, "full pipeline: plan, validate, simulate, emit CSVs and report"),
        ("validate", cmd_validate, "plan and safety checks only (no trace files)"),
        ("reference", cmd_reference, "print the reference configuration"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument(
            "scenario",
            help=f"scenario file path or bundled name {BUNDLED}",
        )
        if name == "run":
            p.add_argument("--output-dir", default=".", help="directory for CSVs and report")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AtugvError, OSError, MemoryError) as exc:
        # bad input, an unwritable output path, or a scenario too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
