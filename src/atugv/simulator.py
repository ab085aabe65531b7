"""Closed-loop simulation: powered cells track desired positions through a
proportional velocity command; unpowered cells are dragged through the
elbow-angle kinematics of their two actuated joints.

Integration is explicit Euler at fixed dt. The double-integrator model adds
a proportional inner velocity loop (acceleration = k_v * (v_cmd - v));
joint motors are assumed to track commanded angles within one timestep.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import kinematics
from .errors import AtugvError, InvalidArgumentError
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
        if self.dt <= 0.0:
            raise InvalidArgumentError(f"dt must be positive, got {self.dt}")
        if self.model not in MODELS:
            raise InvalidArgumentError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.alpha <= 0.0 or self.k_v <= 0.0:
            raise InvalidArgumentError("gains must be positive")
        if self.alpha * self.dt >= 2.0:
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


@dataclass
class SimState:
    """Cell positions and velocities, (N, 2) with row i - 1 for cell i.
    Velocities are integrated for powered cells by the double integrator."""

    positions: np.ndarray
    velocities: np.ndarray


@dataclass(frozen=True)
class SimulationTrace:
    """Everything recorded per step, with row k for times[k], per-cell
    column i - 1 for cell i and per-joint column m for joints[m]:
    actual/desired positions and velocity commands (T, N, 2; NaN for
    unpowered cells, which get none), elbow angles commanded and realized
    (T, J; realized NaN beyond the mechanism reach), error norms (T, N), and
    the brute-force minimum clearance (T,)."""

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


def step(
    state: SimState,
    graph: CellGraph,
    desired: np.ndarray,
    desired_next: np.ndarray,
    config: SimConfig,
) -> SimState:
    """Advance one timestep from time t to t + dt, given the (N, 2) desired
    positions at both times.

    Powered cells integrate the commanded velocity; unpowered cells are
    then re-resolved, in layer order, from the updated actual positions of
    their actuated neighbors and the elbow angles commanded for t + dt.
    """
    dt = config.dt
    powered = _rows(graph.powered)
    positions, velocities = state.positions.copy(), state.velocities.copy()
    v_cmd = velocity_command(desired[powered], state.positions[powered], config.alpha)
    if config.model == "single":
        positions[powered] = state.positions[powered] + dt * v_cmd
    else:
        v = state.velocities[powered]
        velocities[powered] = v + dt * (config.k_v * (v_cmd - v))
        positions[powered] = state.positions[powered] + dt * v

    for layer in graph.layers:
        cells = sorted(layer & graph.unpowered)
        if not cells:
            continue
        rows = _rows(cells)
        j1, j2 = (np.array([graph.actuated[i] for i in cells]) - 1).T
        try:
            theta1, theta2 = kinematics.desired_elbow_angles(
                desired_next[rows],
                desired_next[j1],
                desired_next[j2],
                graph.arm_length,
                graph.cell_radius,
            )
            positions[rows] = kinematics.resolve_unpowered_position(
                positions[j1],
                positions[j2],
                theta1,
                theta2,
                graph.arm_length,
                graph.cell_radius,
                previous=state.positions[rows],
            )
        except AtugvError as exc:
            if exc.index is not None:
                exc.cell = cells[exc.index[0]]
            raise
    return SimState(positions=positions, velocities=velocities)


def run(trajectory: PlannedTrajectory, config: SimConfig) -> SimulationTrace:
    """Simulate the full horizon from the planned pose at t0 (plus any
    initial offsets) and record a deterministic trace."""
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
    state = SimState(positions=desired[0].copy(), velocities=np.zeros_like(desired[0]))
    for i, offset in (config.initial_offsets or {}).items():
        state.positions[i - 1] += np.asarray(offset, dtype=float)

    actual = np.empty_like(desired)
    for k in range(n_steps + 1):
        actual[k] = state.positions
        if k < n_steps:
            try:
                state = step(state, graph, desired[k], desired[k + 1], config)
            except AtugvError as exc:
                t = float(times[k])
                exc.step, exc.time = k, t
                exc.args = (f"step {k} (t = {t:.6g} s): {exc}",)
                raise

    powered = _rows(graph.powered)
    v_cmd = np.full_like(desired, np.nan)
    v_cmd[:, powered] = velocity_command(desired[:, powered], actual[:, powered], config.alpha)
    elbow_des = kinematics.elbow_angle(
        joint_separations(graph, desired), graph.arm_length, graph.cell_radius
    )
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
        min_clearance=np.array([min_separation(p)[1] for p in actual]),
        cell_radius=graph.cell_radius,
    )
