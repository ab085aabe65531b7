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
from .planner import PlannedTrajectory, PlanSpec, desired_positions, joint_elbow_angles, joint_separations
from .planner import coordinates_at  # noqa: F401  (bench/tracing.py wraps this name here)

MODELS = ("single", "double")


def velocity_command(desired, actual, gain: float) -> np.ndarray:
    """Proportional velocity command v = gain * (desired - actual), gain = `SimConfig.alpha` > 0."""
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
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}", field=name)
        if self.model not in MODELS:
            raise InvalidArgumentError(f"model must be one of {MODELS}, got {self.model!r}", field="model")
        if not self.alpha * self.dt < 2.0:
            raise InvalidArgumentError(
                f"alpha * dt = {self.alpha * self.dt:.3g} >= 2 is unstable "
                "under explicit Euler",
                field="alpha",
            )
        if self.model == "double":
            rho = max(abs(np.linalg.eigvals(self.euler_matrix())))
            if rho >= 1.0:
                raise InvalidArgumentError(
                    f"double-integrator loop with alpha = {self.alpha:.6g}, k_v = {self.k_v:.6g}, "
                    f"dt = {self.dt:.6g} has spectral radius {rho:.3g} >= 1 under explicit Euler",
                    field="k_v",
                )

    def euler_matrix(self) -> np.ndarray:
        """The matrix A of one Euler step x -> A x of a powered cell's state
        x = (position - target, velocity) on one axis, about a fixed target:
        `step` as one linear map. The single integrator's velocity stays 0."""
        dt, alpha, k_v = self.dt, self.alpha, self.k_v
        if self.model == "single":
            return np.array([[1.0 - alpha * dt, 0.0], [0.0, 1.0]])
        return np.array([[1.0, dt], [-dt * k_v * alpha, 1.0 - dt * k_v]])


def step_count(spec: PlanSpec, dt: float) -> int:
    """The number of steps of `dt` over the plan's horizon, which `dt` must
    divide evenly in at least ten steps."""
    horizon = spec.tf - spec.t0
    n_steps = int(round(horizon / dt))
    # On the rounded count, with the evenness test's tolerance: 0.7 / 10.0 < 0.07.
    if n_steps < 10 or 10 * dt - horizon > 1e-9:
        raise InvalidArgumentError(
            f"dt = {dt} must not exceed a tenth of the horizon {horizon:.6g} s", field="dt"
        )
    if abs(n_steps * dt - horizon) > 1e-9:
        raise InvalidArgumentError(f"dt = {dt} must evenly divide the horizon {horizon:.6g} s", field="dt")
    return n_steps


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


def track(start: np.ndarray, targets: np.ndarray, config: SimConfig) -> np.ndarray:
    """The powered cells' (T, P, 2) positions at the T times of their
    desired positions `targets`, from `start` at rest: what T - 1 calls of
    `step` give, each toward the target at its start time.

    Per cell and axis, `step` maps x = (p - d, v) to x[k + 1] = A x[k] +
    X[k + 1], with A = `config.euler_matrix()`, X[k + 1] = (d[k] - d[k + 1], 0)
    and X[0] = x[0]. So x[k] sums A^(k - j) X[j] over j <= k, which a
    Hillis-Steele prefix scan forms in ceil(log2 T) passes: pass s = 1, 2,
    4, ... adds A^s times the sums s rows back, then squares A. Scanning
    the error, not the position, keeps a fixed target a fixed point of the
    rounded arithmetic however small alpha * dt is.
    """
    (a00, a01), (a10, a11) = config.euler_matrix().tolist()
    e, v = np.empty_like(targets), np.zeros_like(targets)
    e[0] = start - targets[0]
    e[1:] = targets[:-1] - targets[1:]
    s = 1
    while s < len(targets):
        de = a00 * e[:-s] + a01 * v[:-s]
        dv = a10 * e[:-s] + a11 * v[:-s]
        e[s:] += de
        v[s:] += dv
        diagonal = a00 + a11
        a00, a01, a10, a11 = a00 * a00 + a01 * a10, diagonal * a01, diagonal * a10, a10 * a01 + a11 * a11
        s *= 2
    positions = targets + e
    positions[0] = start  # targets[0] + (start - targets[0]) may round
    return positions


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
                    desired[now, rows], desired[now, j1], desired[now, j2], graph.reach
                )
                actual[now, rows] = kinematics.resolve_unpowered_position(
                    actual[now, j1], actual[now, j2], theta1, theta2, graph.reach, previous=actual[0, rows]
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

    Three passes: `track` moves the powered cells over the whole horizon
    in one prefix scan, `resolve_unpowered` then places the unpowered cells
    layer by layer, and clearance is one batched scan of the whole trace.
    """
    graph = trajectory.graph
    for i in config.initial_offsets or ():
        if i not in graph.cells:  # row i - 1 would shift another cell or fail
            raise InvalidArgumentError(f"cell {i} is in no layer", field="initial_offsets", cell=i)
    t0, tf = trajectory.spec.t0, trajectory.spec.tf
    n_steps = step_count(trajectory.spec, config.dt)

    times = t0 + config.dt * np.arange(n_steps + 1)
    times[-1] = tf
    desired = desired_positions(trajectory.spec, trajectory.reference, times)
    actual = np.empty_like(desired)
    actual[0] = desired[0]
    for i, offset in (config.initial_offsets or {}).items():
        actual[0, i - 1] += np.asarray(offset, dtype=float)

    powered = _rows(graph.powered)
    targets = desired[:, powered]
    path = track(actual[0, powered], targets, config)
    actual[:, powered] = path

    try:
        resolve_unpowered(graph, actual, desired)
    except (UnreachableSeparationError, InconsistentAnglesError) as exc:
        _name_step(exc, times)
        raise
    try:
        elbow_des = joint_elbow_angles(graph, desired)
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
        kinematics.elbow_angle(np.minimum(d_act, graph.reach), graph.reach),
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
    )
