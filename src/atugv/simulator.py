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
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kinematics
from .errors import InfeasibleMotionError, InvalidArgumentError
from .network import MAX_LENGTH, CellGraph, check_length, min_separation
from .planner import MAX_COUNT, PlanSpec, desired_positions, joint_separations, reach_error
from .planner import coordinates_at  # noqa: F401  (bench/tracing.py wraps this name here)

MODELS = ("single", "double")

# The largest position gain: alpha times a tracking error within 6 *
# MAX_LENGTH, the largest lag that `network.MAX_LENGTH` allows, stays finite.
MAX_ALPHA = float(np.finfo(float).max) / (6 * MAX_LENGTH)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    model: str = "single"
    alpha: float = 10.0  # position-loop gain [1/s]
    k_v: float = 20.0  # velocity-loop gain for the double-integrator [1/s]
    initial_offsets: Optional[Dict[int, np.ndarray]] = None  # the loader owns their shape and cells

    def __post_init__(self):
        # Written so that NaN fails each check.
        for name in ("dt", "alpha", "k_v"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}", field=name)
        if self.model not in MODELS:
            raise InvalidArgumentError(f"model must be one of {MODELS}, got {self.model!r}", field="model")
        for i, offset in (self.initial_offsets or {}).items():
            check_length(f"offset of cell {i}", np.asarray(offset, dtype=float).tolist(), "initial_offsets", cell=i)
        matrix = self.euler_matrix()  # an overflowed gain product is unstable too
        rho = max(abs(np.linalg.eigvals(matrix))) if np.isfinite(matrix).all() else math.inf
        if not rho < 1.0:
            field, gains = ("alpha", "") if self.model == "single" else ("k_v", f", k_v = {self.k_v:.6g}")
            loop = f"{self.model}-integrator loop with alpha = {self.alpha:.6g}{gains}, dt = {self.dt:.6g}"
            message = f"{loop} has spectral radius {rho:.3g} >= 1 under explicit Euler"
            raise InvalidArgumentError(message, field=field)
        if not self.alpha <= MAX_ALPHA:
            bound = f"at most {MAX_ALPHA:.6g} so that the velocity command stays finite"
            message = f"alpha must be {bound}, got {self.alpha}"
            raise InvalidArgumentError(message, field="alpha", value=self.alpha, bound=MAX_ALPHA)

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
    divide evenly in at least ten and at most MAX_COUNT steps, to within
    1e-9 of the horizon, so that no unit of time decides it."""
    horizon = spec.tf - spec.t0
    if not horizon / dt <= MAX_COUNT:  # an overflowed quotient too
        raise InvalidArgumentError(
            f"dt = {dt} divides the horizon {horizon:.6g} s into more than {MAX_COUNT} steps", field="dt"
        )
    n_steps = int(round(horizon / dt))
    # On the rounded count, with the evenness test's tolerance: 0.7 / 10.0 < 0.07.
    if n_steps < 10 or 10 * dt - horizon > 1e-9 * horizon:
        raise InvalidArgumentError(
            f"dt = {dt} must not exceed a tenth of the horizon {horizon:.6g} s", field="dt"
        )
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
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


def resolve_unpowered(graph: CellGraph, actual: np.ndarray, commanded: np.ndarray) -> List[InfeasibleMotionError]:
    """Fill in the unpowered rows of actual[1:], given actual[0], the
    powered rows at every time ((T, N, 2) arrays, like `desired`) and the
    angle commanded to every joint ((T, J), like `SimulationTrace.elbow_desired`).

    At every time each unpowered cell lies where the circles about the
    actual positions of its two actuated neighbors meet, with radii set by
    the angles commanded to those joints, on the branch closest to where
    the cell was a step before. Powered motion never depends on unpowered
    cells, so each layer, in order, is one call over all steps. Returns the
    error of each layer that cannot place a row, in layer order: the earliest
    such row k (in the order of `resolve_unpowered_position` within it),
    naming the `cell` and (k, cell - 1) as `index`. From row k on, the
    unpowered rows of that layer and of every later one are undefined.
    """
    errors = []
    column = {joint: m for m, joint in enumerate(graph.joints)}
    for layer in graph.layers:
        cells = sorted(layer & graph.unpowered)
        if not cells:
            continue
        rows = _rows(cells)
        pairs = [graph.actuated[i] for i in cells]
        j1, j2 = (np.array(pairs) - 1).T
        m1, m2 = np.array([[column[i, j] for j in pair] for i, pair in zip(cells, pairs)]).T
        actual[1:, rows], failure = kinematics.resolve_unpowered_position(
            actual[1:, j1], actual[1:, j2], commanded[1:, m1], commanded[1:, m2],
            graph.reach, previous=actual[0, rows],
        )
        if failure is not None:
            k, c = failure.index
            failure.cell, failure.index = cells[c], (k + 1, cells[c] - 1)
            errors.append(failure)
    return errors


def run(spec: PlanSpec, graph: CellGraph, config: SimConfig) -> SimulationTrace:
    """Simulate the full horizon of the plan on the graph from the planned
    pose at t0 (plus any initial offsets) and record a deterministic trace.

    Three passes: `track` moves the powered cells over the whole horizon
    in one prefix scan, `resolve_unpowered` then places the unpowered cells
    layer by layer, and clearance is one batched scan of the whole trace.
    A commanded angle beyond the mechanism reach is NaN, which no layer
    counts as its failure. The error whose `index` starts with the earliest
    row k is raised with k as `step` and times[k] as `time`: at a tie,
    `planner.reach_error` for a commanded joint, then `resolve_unpowered`'s.
    """
    n_steps = step_count(spec, config.dt)

    times = spec.t0 + config.dt * np.arange(n_steps + 1)
    times[-1] = spec.tf
    desired = desired_positions(spec, graph, times)
    actual = np.empty_like(desired)
    actual[0] = desired[0]
    for i, offset in (config.initial_offsets or {}).items():
        actual[0, i - 1] += np.asarray(offset, dtype=float)

    powered = _rows(graph.powered)
    targets = desired[:, powered]
    path = track(actual[0, powered], targets, config)
    actual[:, powered] = path

    d_des = joint_separations(graph, desired)
    elbow_des = kinematics.elbow_angle(d_des, graph.reach)
    errors = (reach_error(graph, d_des), *resolve_unpowered(graph, actual, elbow_des))
    error = min((e for e in errors if e is not None), key=lambda e: e.index[0], default=None)
    if error is not None:
        k = error.index[0]
        error.step, error.time = k, float(times[k])
        error.args = (f"step {k} (t = {error.time:.6g} s): {error}",)
        raise error
    v_cmd = np.full_like(desired, np.nan)
    v_cmd[:, powered] = config.alpha * (targets - path)
    d_act = joint_separations(graph, actual)
    elbow_act = kinematics.elbow_angle(d_act, graph.reach)
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
