"""Closed-loop simulation: powered cells track desired positions through a
proportional velocity command; unpowered cells are dragged through the
elbow-angle kinematics of their two actuated joints.

Integration is explicit Euler at fixed dt. The double-integrator model adds
a proportional inner velocity loop (acceleration = k_v * (v_cmd - v));
joint motors are assumed to track commanded angles within one timestep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import kinematics
from .errors import (
    AtugvError,
    InconsistentAnglesError,
    InvalidArgumentError,
    UnreachableSeparationError,
)
from .network import CellGraph, min_separation
from .planner import PlannedTrajectory, desired_positions, joint_separations
from .planner import coordinates_at  # noqa: F401  (bench/tracing.py wraps this name here)

MODELS = ("single", "double")


def velocity_command(desired, actual, gain: float) -> np.ndarray:
    """Proportional velocity command v = gain * (desired - actual)."""
    if gain <= 0.0:
        raise InvalidArgumentError(f"gain must be positive, got {gain}")
    return gain * (np.asarray(desired, dtype=float) - np.asarray(actual, dtype=float))


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    model: str = "single"
    alpha: float = 10.0  # position-loop gain [1/s]
    k_v: float = 20.0  # velocity-loop gain for the double-integrator [1/s]
    initial_offsets: Optional[Dict[int, np.ndarray]] = None

    def __post_init__(self):
        # Written so that NaN fails each check.
        for name in ("dt", "alpha", "k_v"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
        if self.model not in MODELS:
            raise InvalidArgumentError(f"model must be one of {MODELS}, got {self.model!r}")
        if not self.alpha * self.dt < 2.0:
            raise InvalidArgumentError(
                f"alpha * dt = {self.alpha * self.dt:.3g} >= 2 is unstable "
                "under explicit Euler"
            )
        if self.model == "double":
            # Per-axis Euler update of (position, velocity) about a fixed target.
            dt, k_v = self.dt, self.k_v
            rho = max(abs(np.linalg.eigvals([[1.0, dt], [-dt * k_v * self.alpha, 1.0 - dt * k_v]])))
            if rho >= 1.0:
                raise InvalidArgumentError(
                    f"double-integrator loop with alpha = {self.alpha:.6g}, k_v = {k_v:.6g}, "
                    f"dt = {dt:.6g} has spectral radius {rho:.3g} >= 1 under explicit Euler"
                )


@dataclass(frozen=True)
class SimulationTrace:
    """Everything recorded per step, with row k for times[k], per-cell
    column i - 1 for cell i and per-joint column m for joints[m]:
    actual/desired positions and velocity commands (T, N, 2; NaN for
    unpowered cells, which get none), elbow angles commanded and realized
    (T, J; realized NaN beyond the mechanism reach), error norms (T, N), and
    the minimum clearance (T,), the exact closest-pair distance per step."""

    times: np.ndarray
    cells: Tuple[int, ...]
    joints: Tuple[Tuple[int, int], ...]
    actual: np.ndarray
    desired: np.ndarray
    velocity_commands: np.ndarray
    elbow_desired: np.ndarray
    elbow_actual: np.ndarray
    errors: np.ndarray
    min_clearance: np.ndarray
    cell_radius: float

    @property
    def clearance_safe(self) -> bool:
        return bool(np.min(self.min_clearance) >= 2.0 * self.cell_radius)


def _rows(cells) -> np.ndarray:
    return np.array(sorted(cells), dtype=int) - 1


def step(positions: np.ndarray, velocities: np.ndarray, desired: np.ndarray, config: SimConfig):
    """The powered cells' next (P, 2) positions and velocities, in ascending
    cell order: one explicit Euler step from t to t + dt on the commanded
    velocity, given their positions, velocities (integrated by the double
    integrator) and desired positions at t."""
    dt = config.dt
    v_cmd = velocity_command(desired, positions, config.alpha)
    if config.model == "single":
        return positions + dt * v_cmd, velocities
    return positions + dt * velocities, velocities + dt * (config.k_v * (v_cmd - velocities))


def resolve_unpowered(graph: CellGraph, actual: np.ndarray, desired: np.ndarray) -> None:
    """Fill in the unpowered rows of actual[1:], given actual[0] and the
    powered rows at every time ((T, N, 2) arrays, like `desired`).

    At every time each unpowered cell lies where the circles about the
    actual positions of its two actuated neighbors meet, with radii set by
    the elbow angles commanded for the desired positions, on the branch
    closest to where the cell was a step before. Powered motion never
    depends on unpowered cells, so each layer, in order, is one batched
    call over all steps. The error raised is the one a step-by-step
    simulation meets first: earliest step, then layer, then the commanded
    angles before the resolve, then cell. It names the failing `cell` and
    the `step` k of the move from actual[k] to actual[k + 1].
    """
    unpowered = graph.unpowered
    error, end = None, len(actual) - 1  # steps before `end` have not failed
    for layer in graph.layers:
        cells = sorted(layer & unpowered)
        if not cells:
            continue
        rows = _rows(cells)
        j1, j2 = (np.array([graph.actuated[i] for i in cells]) - 1).T
        while end > 0:
            now = slice(1, end + 1)
            try:
                theta1, theta2 = kinematics.desired_elbow_angles(
                    desired[now, rows],
                    desired[now, j1],
                    desired[now, j2],
                    graph.arm_length,
                    graph.cell_radius,
                )
                actual[now, rows] = kinematics.resolve_unpowered_position(
                    actual[now, j1],
                    actual[now, j2],
                    theta1,
                    theta2,
                    graph.arm_length,
                    graph.cell_radius,
                    previous=actual[0, rows],
                )
                break
            except (UnreachableSeparationError, InconsistentAnglesError) as exc:
                # Redo the steps before the failure: the commanded angles
                # pass there, but the resolve may fail still earlier.
                k, c = exc.index
                exc.step, exc.cell, exc.index = k, cells[c], (c,)
                error, end = exc, k
    if error is not None:
        raise error


def _name_step(exc: AtugvError, times: np.ndarray) -> None:
    """Add the time of `exc.step` and put both in front of the message."""
    t = float(times[exc.step])
    exc.time = t
    exc.args = (f"step {exc.step} (t = {t:.6g} s): {exc}",)


def run(trajectory: PlannedTrajectory, config: SimConfig) -> SimulationTrace:
    """Simulate the full horizon from the planned pose at t0 (plus any
    initial offsets) and record a deterministic trace.

    Three passes: `step` moves the powered cells through every step,
    `resolve_unpowered` then places the unpowered cells layer by layer,
    and clearance is one batched scan of the whole trace.
    """
    graph = trajectory.graph
    t0, tf = trajectory.spec.t0, trajectory.spec.tf
    horizon = tf - t0
    if config.dt > horizon / 10.0:
        raise InvalidArgumentError(
            f"dt = {config.dt} must not exceed a tenth of the horizon {horizon:.6g} s"
        )
    n_steps = int(round(horizon / config.dt))
    if abs(n_steps * config.dt - horizon) > 1e-9:
        raise InvalidArgumentError(
            f"dt = {config.dt} must evenly divide the horizon {horizon:.6g} s"
        )

    times = t0 + config.dt * np.arange(n_steps + 1)
    times[-1] = tf
    desired = desired_positions(trajectory.spec, trajectory.reference, times)
    actual = np.empty_like(desired)
    actual[0] = desired[0]
    for i, offset in (config.initial_offsets or {}).items():
        actual[0, i - 1] += np.asarray(offset, dtype=float)

    powered = _rows(graph.powered)
    targets = desired[:, powered]
    positions, velocities = actual[0, powered], np.zeros((len(powered), 2))
    path = np.empty_like(targets)
    path[0] = positions
    for k in range(n_steps):
        positions, velocities = step(positions, velocities, targets[k], config)
        path[k + 1] = positions
    actual[:, powered] = path

    try:
        resolve_unpowered(graph, actual, desired)
    except (UnreachableSeparationError, InconsistentAnglesError) as exc:
        _name_step(exc, times)
        raise
    try:
        elbow_des = kinematics.elbow_angle(
            joint_separations(graph, desired), graph.arm_length, graph.cell_radius
        )
    except UnreachableSeparationError as exc:  # a joint no unpowered cell uses
        exc.step = exc.index[0]
        _name_step(exc, times)
        raise
    v_cmd = np.full_like(desired, np.nan)
    v_cmd[:, powered] = velocity_command(targets, path, config.alpha)
    d_act = joint_separations(graph, actual)
    elbow_act = np.where(
        d_act > graph.reach,
        np.nan,
        kinematics.elbow_angle(np.minimum(d_act, graph.reach), graph.arm_length, graph.cell_radius),
    )
    return SimulationTrace(
        times=times,
        cells=graph.cells,
        joints=graph.joints,
        actual=actual,
        desired=desired,
        velocity_commands=v_cmd,
        elbow_desired=elbow_des,
        elbow_actual=elbow_act,
        errors=np.linalg.norm(desired - actual, axis=-1),
        min_clearance=min_separation(actual)[1],
        cell_radius=graph.cell_radius,
    )
