"""Command-line pipeline: build the cell network, plan the affine motion,
validate safety and mechanism reach, simulate, and emit CSV traces plus a
plain-text report.

Subcommands:
  run        full pipeline; writes trajectory.csv, elbows.csv, report.txt
  validate   plan + safety checks only, no simulation and no trace files
  reference  print the reference configuration, d_min, and lambda_min
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import planner, simulator
from .errors import AtugvError, UnsafePlanError, UnreachableSeparationError
from .network import solve_reference_positions
from .planner import lambda_min
from .scenario import BUNDLED, load_scenario

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_ERROR = 2

_FMT = ".9g"


def _fmt(value: float) -> str:
    return format(value, _FMT)


# Bytes of one block of rows in `_write_csv`; formatting a block takes
# about seven times this in temporaries.
_CSV_BLOCK_BYTES = 1 << 17


def _write_csv(path: Path, header, times, labels, values):
    """CSV with CRLF line ends, one row per time and label: t, the label's
    integers, then values[k, m, :] for time k and label m. Values print as
    format(v, ".9g"); NaN marks a missing value and prints as an empty
    field.

    Rows are laid out as NUL-padded bytes, a block of rows at a time, and
    written without the NUL bytes."""
    # Imported here: only `run` writes CSV files, and the module's tables
    # and bytecode stay out of the start-up of every other command.
    from .csvtext import WIDTH, g9_bytes

    n_labels, n_values = values.shape[1:]
    label_text = [("," + ",".join(map(str, label))).encode() for label in labels]
    label_width = max(map(len, label_text), default=0)
    label_bytes = np.zeros((n_labels, label_width), dtype=np.uint8)
    for row, text in zip(label_bytes, label_text):
        row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    width = WIDTH + label_width + n_values * (1 + WIDTH) + 2
    block = max(1, _CSV_BLOCK_BYTES // width)
    rows = values.reshape(-1, n_values)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(rows), block):
            stop = min(start + block, len(rows))
            step, label = np.divmod(np.arange(start, stop), n_labels)
            first = start // n_labels
            text = g9_bytes(np.concatenate([rows[start:stop].ravel(), times[first : step[-1] + 1]]))
            n_fields = (stop - start) * n_values
            buf = np.empty((stop - start, width), dtype=np.uint8)
            buf[:, :WIDTH] = text[n_fields:].take(step - first, axis=0)
            buf[:, WIDTH : WIDTH + label_width] = label_bytes.take(label, axis=0)
            fields = buf[:, WIDTH + label_width : -2].reshape(-1, n_values, 1 + WIDTH)
            fields[..., 0] = ord(",")
            fields[..., 1:] = text[:n_fields].reshape(-1, n_values, WIDTH)
            buf[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
            fh.write(buf[buf != 0])


def write_trajectory_csv(path: Path, trace: simulator.SimulationTrace):
    """One row per step per cell; velocity-command columns are empty for
    unpowered cells (no command exists)."""
    header = ["t", "cell_id", "x_des", "y_des", "x_act", "y_act", "vx_cmd", "vy_cmd", "err_norm"]
    values = (trace.desired, trace.actual, trace.velocity_commands, trace.errors[..., None])
    _write_csv(path, header, trace.times, [(i,) for i in trace.cells], np.concatenate(values, -1))


def write_elbow_csv(path: Path, trace: simulator.SimulationTrace):
    header = ["t", "cell_i", "cell_j", "theta_des", "theta_act"]
    values = np.stack([trace.elbow_desired, trace.elbow_actual], -1)
    _write_csv(path, header, trace.times, trace.joints, values)


def _load(args):
    """The scenario, its reference configuration and its strain bound
    lambda_min."""
    scenario = load_scenario(args.scenario)
    reference = solve_reference_positions(scenario.graph, scenario.side_length)
    return scenario, reference, lambda_min(scenario.graph.cell_radius, reference.d_min)


def _report_lines(scenario, reference, lam, verdicts, extras=()):
    lines = [
        f"scenario: {scenario.name}",
        f"cells: {len(scenario.graph.cells)} "
        f"(powered: {sorted(scenario.graph.powered)}, "
        f"unpowered: {sorted(scenario.graph.unpowered)})",
        f"d_min: {_fmt(reference.d_min)} m",
        f"lambda_min: {_fmt(lam)}",
    ]
    lines.extend(verdicts)
    lines.extend(extras)
    lines.append("arm/link collision: NOT VERIFIED (only cell-disk clearance is checked)")
    return lines


def cmd_reference(args) -> int:
    scenario, reference, lam = _load(args)
    print(f"scenario: {scenario.name}")
    for i, (x, y) in enumerate(reference.positions, start=1):
        tag = "powered" if i in scenario.graph.powered else "unpowered"
        print(f"  cell {i}: ({_fmt(x)}, {_fmt(y)}) m  [{tag}]")
    print(f"d_min: {_fmt(reference.d_min)} m")
    print(f"lambda_min: {_fmt(lam)}")
    return EXIT_OK


def _validate_verdicts(scenario, reference):
    """Plan-time verdicts (principal-strain bound and mechanism reach) and
    the plan, or None if a verdict failed."""
    verdicts = []
    trajectory = None
    try:
        trajectory = planner.plan(
            scenario.plan_spec, scenario.graph, reference, scenario.sample_count
        )
        verdicts.append("strain-bound verdict: SAFE (all samples)")
        verdicts.append("mechanism-reach verdict: OK (all joints, all samples)")
    except UnsafePlanError as exc:
        verdicts.append(
            "strain-bound verdict: UNSAFE — principal-strain bound violated "
            f"(collision-safety guarantee): {exc}"
        )
    except UnreachableSeparationError as exc:
        verdicts.append(f"mechanism-reach verdict: UNREACHABLE — {exc}")
    return trajectory, verdicts


def cmd_validate(args) -> int:
    scenario, reference, lam = _load(args)
    trajectory, verdicts = _validate_verdicts(scenario, reference)
    for line in _report_lines(scenario, reference, lam, verdicts):
        print(line)
    return EXIT_OK if trajectory is not None else EXIT_VERDICT


def cmd_run(args) -> int:
    scenario, reference, lam = _load(args)

    out_dir = args.output_dir or os.environ.get("ATUGV_OUTPUT_DIR") or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Outputs of an earlier run would otherwise outlive a run that fails.
    for name in ("report.txt", "trajectory.csv", "elbows.csv"):
        (out_dir / name).unlink(missing_ok=True)

    trajectory, verdicts = _validate_verdicts(scenario, reference)
    ok = trajectory is not None
    extras = []
    if ok:
        sim_cfg = scenario.sim
        if args.dt is not None:
            sim_cfg = dataclasses.replace(sim_cfg, dt=args.dt)
        trace = simulator.run(trajectory, sim_cfg)
        write_trajectory_csv(out_dir / "trajectory.csv", trace)
        write_elbow_csv(out_dir / "elbows.csv", trace)
        min_clear = float(np.min(trace.min_clearance))
        clear_ok = trace.clearance_safe
        verdicts.append(
            f"trace clearance verdict: {'SAFE' if clear_ok else 'UNSAFE'} "
            f"(min clearance {_fmt(min_clear)} m vs required "
            f"{_fmt(2 * scenario.graph.cell_radius)} m)"
        )
        threshold = scenario.terminal_error_threshold
        terminal = trace.errors[-1]
        worst = float(np.max(terminal))
        err_ok = worst < threshold
        verdicts.append(
            f"terminal-error verdict: {'OK' if err_ok else 'EXCEEDED'} "
            f"(worst {_fmt(worst)} m vs threshold {_fmt(threshold)} m)"
        )
        extras.append("terminal tracking errors [m]:")
        for i, err in zip(trace.cells, terminal.tolist()):
            extras.append(f"  cell {i}: {_fmt(err)}")
        ok = ok and clear_ok and err_ok

    lines = _report_lines(scenario, reference, lam, verdicts, extras)
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_VERDICT


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
            p.add_argument("--output-dir", default=None, help="directory for CSVs and report")
            p.add_argument("--dt", type=float, default=None, help="simulation timestep override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AtugvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
