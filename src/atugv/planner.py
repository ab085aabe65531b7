"""Finite-horizon planning of the generalized coordinates.

Each coordinate is interpolated between its endpoints by an increasing
blend function with beta(t0) = 0 and beta(tf) = 1. A plan is rejected
outright if any sample violates the principal-strain safety bound or asks
a joint for a separation beyond the mechanism reach (fail-closed: no
silent clamping); the gate returns the earliest failing sample's error,
its row first in `index`. `desired_positions` is the one place that maps a
(T,) batch of times to desired cell positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import affine, kinematics
from .affine import COORD_FIELDS, GeneralizedCoordinates
from .errors import AtugvError, InfeasibleMotionError, InvalidArgumentError, UnsafePlanError
from .network import CellGraph, check_length

BLEND_KINDS = ("linear", "smoothstep", "smootherstep")

# The most samples or steps: numpy can size every array of such a count
# (count + 1 float64 rows at most), so one too large for memory is a MemoryError.
MAX_COUNT = np.iinfo(np.intp).max // 16


def blend(t, t0: float, tf: float, kind: str):
    """Time-scaling beta(t) in [0, 1] of t in [t0, tf], strictly increasing on (t0, tf).

    `PlanSpec` owns the kind. linear: u; smoothstep: 3u^2 - 2u^3 (zero end velocity);
    smootherstep: 10u^3 - 15u^4 + 6u^5 (zero end velocity and acceleration), capped
    at 1, which its rounded value can pass next to tf."""
    u = (t - t0) / (tf - t0)
    if kind == "linear":
        return u
    if kind == "smoothstep":
        return u * u * (3.0 - 2.0 * u)
    return np.minimum(u * u * u * (10.0 + u * (-15.0 + 6.0 * u)), 1.0)


@dataclass(frozen=True)
class PlanSpec:
    """Endpoints of the six generalized coordinates over [t0, tf]: finite by
    the loader's rule, with the strains of both poses in (0, 1] by its own."""

    t0: float
    tf: float
    initial: GeneralizedCoordinates
    final: GeneralizedCoordinates
    blend: str = "smoothstep"

    def __post_init__(self):
        for pose in ("initial", "final"):
            for name in ("lambda1", "lambda2"):
                value = getattr(getattr(self, pose), name)
                if not 0.0 < value <= 1.0:
                    raise InvalidArgumentError(f"{name} must lie in (0, 1], got {value}", field=f"{name}_{pose}")
        if not self.tf > self.t0:
            raise InvalidArgumentError(f"tf must exceed t0, got [{self.t0}, {self.tf}]", field="tf")
        if self.blend not in BLEND_KINDS:
            raise InvalidArgumentError(
                f"unknown blend kind {self.blend!r}; choose from {BLEND_KINDS}", field="blend"
            )
        for pose in ("initial", "final"):
            for name in ("d1", "d2"):
                key, value = f"{name}_{pose}", getattr(getattr(self, pose), name)
                check_length(key, value, key)


def coordinates_at(spec: PlanSpec, t) -> GeneralizedCoordinates:
    """Convex combination of the endpoint coordinates at blend fraction
    beta(t) of each of the (T,) times `t`; exactly the endpoint at beta = 0 and beta = 1."""
    b = blend(t, spec.t0, spec.tf, spec.blend)
    values = {
        name: (1.0 - b) * getattr(spec.initial, name) + b * getattr(spec.final, name)
        for name in COORD_FIELDS
    }
    return GeneralizedCoordinates(**values)


def desired_positions(spec: PlanSpec, graph: CellGraph, times) -> np.ndarray:
    """Desired cell positions at `times`: the planned affine image of the
    graph's reference positions, (T, N, 2) for T times (row i - 1 is cell i)."""
    return affine.apply(coordinates_at(spec, np.asarray(times, dtype=float)), graph.reference.positions)


def validate_coordinates(coords: GeneralizedCoordinates, bound: float) -> Optional[UnsafePlanError]:
    """None if both principal strains of coordinates batched over T rows stay
    at or above the bound, the reference's lambda_min, else the
    UnsafePlanError naming the strain `field`, its `value` and the first
    violating row k as `index` (k,). It applies to min(lambda1, lambda2):
    the factor by which the closest pair can shrink."""
    lambda1, lambda2 = coords.lambda1, coords.lambda2
    unsafe = (lambda2 < bound) | (lambda1 < bound)
    if not unsafe.any():
        return None
    k = int(np.argmax(unsafe))
    name, values = ("lambda2", lambda2) if lambda2[k] < bound else ("lambda1", lambda1)
    value = float(values[k])
    message = f"{name} = {value:.6g} < lambda_min = {bound:.6g}"
    return UnsafePlanError(message, field=name, value=value, bound=bound, index=(k,))


def joint_separations(graph: CellGraph, positions: np.ndarray) -> np.ndarray:
    """Separation of every joint in `graph.joints` order, (..., J) for
    positions (..., N, 2)."""
    i, j = (np.array(graph.joints, dtype=int).reshape(-1, 2) - 1).T
    x, y = positions[..., 0], positions[..., 1]
    dx, dy = x[..., i] - x[..., j], y[..., i] - y[..., j]
    return np.sqrt(dx * dx + dy * dy)


def reach_error(graph: CellGraph, separations: np.ndarray) -> Optional[InfeasibleMotionError]:
    """The error of the first joint beyond reach in the (T, J) `separations`
    (row-major, columns in `graph.joints` order), or None: the one place that
    names a joint beyond reach, in front of its message, as `joint` and by its
    interior `cell`, with its separation `value`, the reach `bound` and `index` (row, column)."""
    over = kinematics.beyond_reach(separations, graph.reach)
    if not over.any():
        return None
    k, m = divmod(int(np.argmax(over)), over.shape[1])
    joint = graph.joints[m]
    value = float(separations[k, m])
    message = f"joint {joint}: separation {value:.6g} m exceeds mechanism reach {graph.reach:.6g} m"
    return InfeasibleMotionError(message, joint=joint, cell=joint[0], index=(k, m), value=value, bound=graph.reach)


def check_sample_count(samples: int) -> None:
    """Reject a sample count outside 2..MAX_COUNT, naming the `samples` field."""
    if not 2 <= samples <= MAX_COUNT:
        raise InvalidArgumentError(f"samples = {samples} must be from 2 to {MAX_COUNT}", field="samples")


def plan(spec: PlanSpec, graph: CellGraph, sample_count: int) -> Optional[AtugvError]:
    """Gate the plan on `sample_count` uniform samples: None if every one
    keeps the strain safety bound and the mechanism reach of every
    interior-cell joint, else the failing verdict's error. The earliest
    failing sample k decides the error, which names its `time` and starts
    its `index` with k; at a tie the strain verdict goes first."""
    check_sample_count(sample_count)
    times = np.linspace(spec.t0, spec.tf, sample_count)
    coords = coordinates_at(spec, times)
    unsafe = validate_coordinates(coords, graph.reference.lambda_min)
    positions = affine.apply(coords, graph.reference.positions)
    unreachable = reach_error(graph, joint_separations(graph, positions))
    error = min((e for e in (unsafe, unreachable) if e is not None), key=lambda e: e.index[0], default=None)
    if error is not None:
        error.time = t = float(times[error.index[0]])
        if error is unsafe:
            error.args = (f"plan violates the principal-strain bound at t = {t:.6g} s: {error}",)
        else:
            error.args = (f"plan is out of reach at t = {t:.6g} s, {error}",)
    return error
