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
    InconsistentAnglesError,
    InvalidArgumentError,
    UnreachableSeparationError,
)
from .network import CellGraph, min_separation
from .planner import MAX_COUNT, PlannedTrajectory, PlanSpec, desired_positions, joint_elbow_angles, joint_separations
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
        for i, offset in (self.initial_offsets or {}).items():
            try:
                value = np.asarray(offset, dtype=float)
            except (TypeError, ValueError):
                value = None
            if value is None or value.shape != (2,) or not np.isfinite(value).all():
                message = f"offset of cell {i} must be two finite numbers, got {offset!r}"
                raise InvalidArgumentError(message, field="initial_offsets", cell=i)
        matrix = self.euler_matrix()  # an overflowed gain product is unstable too
        rho = max(abs(np.linalg.eigvals(matrix))) if np.isfinite(matrix).all() else math.inf
        if not rho < 1.0:
            field, gains = ("alpha", "") if self.model == "single" else ("k_v", f", k_v = {self.k_v:.6g}")
            loop = f"{self.model}-integrator loop with alpha = {self.alpha:.6g}{gains}, dt = {self.dt:.6g}"
            message = f"{loop} has spectral radius {rho:.3g} >= 1 under explicit Euler"
            raise InvalidArgumentError(message, field=field)

    def euler_matrix(self) -> np.ndarray:
        """The matrix A of one Euler step x -> A x of a powered cell's state
        x = (position - target, velocity) on one axis, about a fixed target:
        `step` as one linear map. The single integrator's velocity is always 0."""
        dt, alpha, k_v = self.dt, self.alpha, self.k_v
        if self.model == "single":
            return np.array([[1.0 - alpha * dt, 0.0], [0.0, 0.0]])
        return np.array([[1.0, dt], [-dt * k_v * alpha, 1.0 - dt * k_v]])


def step_count(spec: PlanSpec, dt: float) -> int:
    """The number of steps of `dt` over the plan's horizon, which `dt` must
    divide evenly in at least ten and at most MAX_COUNT steps."""
    horizon = spec.tf - spec.t0
    if not horizon / dt <= MAX_COUNT:  # an overflowed quotient too
        raise InvalidArgumentError(
            f"dt = {dt} divides the horizon {horizon:.6g} s into more than {MAX_COUNT} steps", field="dt"
        )
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
    (T, J; realized NaN beyond the mechanism reach) with the realized joint
    separations (T, J), error norms (T, N), and the minimum clearance (T,),
    the exact closest-pair distance per step, with that pair (T, 2)."""

    times: np.ndarray
    cells: Tuple[int, ...]
    joints: Tuple[Tuple[int, int], ...]
    actual: np.ndarray
    desired: np.ndarray
    velocity_commands: np.ndarray
    elbow_desired: np.ndarray
    elbow_actual: np.ndarray
    separations: np.ndarray
    errors: np.ndarray
    min_clearance: np.ndarray
    closest_pairs: np.ndarray


def _rows(cells) -> np.ndarray:
    return np.array(sorted(cells), dtype=int) - 1


def step(positions: np.ndarray, velocities: np.ndarray, desired: np.ndarray, config: SimConfig):
    """The powered cells' next (P, 2) positions and velocities, in ascending
    cell order: one explicit Euler step from t to t + dt, `config.euler_matrix()`
    applied to (position - desired, velocity), given their positions,
    velocities (0 under the single integrator) and desired positions at t."""
    (a00, a01), (a10, a11) = config.euler_matrix().tolist()
    error = positions - desired
    return desired + (a00 * error + a01 * velocities), a10 * error + a11 * velocities


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


def resolve_unpowered(graph: CellGraph, actual: np.ndarray, commanded: np.ndarray) -> None:
    """Fill in the unpowered rows of actual[1:], given actual[0], the
    powered rows at every time ((T, N, 2) arrays, like `desired`) and the
    angle commanded to every joint ((T, J), like `SimulationTrace.elbow_desired`).

    At every time each unpowered cell lies where the circles about the
    actual positions of its two actuated neighbors meet, with radii set by
    the angles commanded to those joints, on the branch closest to where
    the cell was a step before. Powered motion never depends on unpowered
    cells, so each layer, in order, is one batched call over all steps. The
    first layer that fails raises: its error names as `step` that layer's
    first row k that cannot be placed, and as `cell` the first failing there
    in the order `resolve_unpowered_position` reports them; its `index` is
    (k, cell - 1). `run` owns the rule that names the earliest failing row.
    """
    if not graph.unpowered or len(actual) < 2:
        return
    column = {joint: m for m, joint in enumerate(graph.joints)}
    for layer in graph.layers:
        cells = sorted(layer & graph.unpowered)
        if not cells:
            continue
        rows = _rows(cells)
        pairs = [graph.actuated[i] for i in cells]
        j1, j2 = (np.array(pairs) - 1).T
        m1, m2 = np.array([[column[i, j] for j in pair] for i, pair in zip(cells, pairs)]).T
        try:
            actual[1:, rows] = kinematics.resolve_unpowered_position(
                actual[1:, j1], actual[1:, j2], commanded[1:, m1], commanded[1:, m2],
                graph.reach, previous=actual[0, rows],
            )
        except InconsistentAnglesError as exc:
            k, c = exc.index
            exc.step, exc.cell, exc.index = k + 1, cells[c], (k + 1, cells[c] - 1)
            raise


def run(trajectory: PlannedTrajectory, config: SimConfig) -> SimulationTrace:
    """Simulate the full horizon from the planned pose at t0 (plus any
    initial offsets) and record a deterministic trace.

    Three passes: `track` moves the powered cells over the whole horizon
    in one prefix scan, `resolve_unpowered` then places the unpowered cells
    layer by layer, and clearance is one batched scan of the whole trace.
    An error names as its `step` and `time` the first row the model cannot
    define; there a commanded joint beyond the mechanism reach comes first,
    then the layers in order, and its loop is the one search for that row.
    """
    graph = trajectory.graph
    for i in config.initial_offsets or ():
        if i not in graph.cells:  # row i - 1 would shift another cell or fail
            raise InvalidArgumentError(f"cell {i} is in no layer", field="initial_offsets", cell=i)
    t0, tf = trajectory.spec.t0, trajectory.spec.tf
    n_steps = step_count(trajectory.spec, config.dt)

    times = t0 + config.dt * np.arange(n_steps + 1)
    times[-1] = tf
    desired = desired_positions(trajectory.spec, graph, times)
    actual = np.empty_like(desired)
    actual[0] = desired[0]
    for i, offset in (config.initial_offsets or {}).items():
        actual[0, i - 1] += np.asarray(offset, dtype=float)

    powered = _rows(graph.powered)
    targets = desired[:, powered]
    path = track(actual[0, powered], targets, config)
    actual[:, powered] = path

    end, error = len(times), None  # rows before `end` are not known to fail
    while True:
        try:
            elbow_des = joint_elbow_angles(graph, desired[:end])
            resolve_unpowered(graph, actual[:end], elbow_des)
            break
        except (UnreachableSeparationError, InconsistentAnglesError) as exc:
            # The rows before the failing one may hold an earlier failure.
            error, end = exc, exc.index[0]
    if error is not None:
        error.step, error.time = end, float(times[end])
        error.args = (f"step {end} (t = {error.time:.6g} s): {error}",)
        raise error
    v_cmd = np.full_like(desired, np.nan)
    v_cmd[:, powered] = velocity_command(targets, path, config.alpha)
    d_act = joint_separations(graph, actual)
    elbow_act = np.where(
        kinematics.beyond_reach(d_act, graph.reach),
        np.nan,
        kinematics.elbow_angle(np.minimum(d_act, graph.reach), graph.reach),
    )
    closest_pairs, min_clearance = min_separation(actual)
    return SimulationTrace(
        times=times,
        cells=graph.cells,
        joints=graph.joints,
        actual=actual,
        desired=desired,
        velocity_commands=v_cmd,
        elbow_desired=elbow_des,
        elbow_actual=elbow_act,
        separations=d_act,
        errors=np.linalg.norm(desired - actual, axis=-1),
        min_clearance=min_clearance,
        closest_pairs=closest_pairs,
    )
