"""Finite-horizon planning of the generalized coordinates.

Each coordinate is interpolated between its endpoints by an increasing
blend function with beta(t0) = 0 and beta(tf) = 1. A plan is rejected
outright if any sample violates the principal-strain safety bound or asks
a joint for a separation beyond the mechanism reach (fail-closed: no
silent clamping). Times may be floats or arrays; `desired_positions` is the
one place that maps times to desired cell positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import affine, kinematics
from .affine import COORD_FIELDS, GeneralizedCoordinates
from .errors import DomainError, InvalidArgumentError, UnreachableSeparationError, UnsafePlanError
from .network import CellGraph

BLEND_KINDS = ("linear", "smoothstep", "smootherstep")

# The most samples or steps: numpy can size every array of such a count
# (count + 1 float64 rows at most), so one too large for memory is a MemoryError.
MAX_COUNT = np.iinfo(np.intp).max // 16


def blend(t, t0: float, tf: float, kind: str = "smoothstep"):
    """Time-scaling beta(t) in [0, 1], strictly increasing on (t0, tf).

    linear: u; smoothstep: 3u^2 - 2u^3 (zero end velocity);
    smootherstep: 10u^3 - 15u^4 + 6u^5 (zero end velocity and acceleration).
    """
    if not np.all((t0 <= t) & (t <= tf)):
        raise DomainError(f"t = {t} outside planning horizon [{t0}, {tf}]")
    u = (t - t0) / (tf - t0)
    if kind == "linear":
        return u
    if kind == "smoothstep":
        return u * u * (3.0 - 2.0 * u)
    if kind == "smootherstep":
        return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    raise InvalidArgumentError(f"unknown blend kind {kind!r}; choose from {BLEND_KINDS}")


@dataclass(frozen=True)
class PlanSpec:
    """Endpoints of the six generalized coordinates over [t0, tf]."""

    t0: float
    tf: float
    initial: GeneralizedCoordinates
    final: GeneralizedCoordinates
    blend_kind: str = "smoothstep"

    def __post_init__(self):
        for name in ("t0", "tf"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be finite, got {value}", field=name)
        if not self.tf > self.t0:
            raise InvalidArgumentError(f"tf must exceed t0, got [{self.t0}, {self.tf}]", field="tf")
        if self.blend_kind not in BLEND_KINDS:
            raise InvalidArgumentError(
                f"unknown blend kind {self.blend_kind!r}; choose from {BLEND_KINDS}", field="blend_kind"
            )


def coordinates_at(spec: PlanSpec, t) -> GeneralizedCoordinates:
    """Convex combination of the endpoint coordinates at blend fraction
    beta(t); exactly the endpoint at beta = 0 and beta = 1."""
    b = blend(t, spec.t0, spec.tf, spec.blend_kind)
    values = {
        name: (1.0 - b) * getattr(spec.initial, name) + b * getattr(spec.final, name)
        for name in COORD_FIELDS
    }
    return GeneralizedCoordinates(**values)


def desired_positions(spec: PlanSpec, graph: CellGraph, times) -> np.ndarray:
    """Desired cell positions at `times`: the planned affine image of the
    graph's reference positions, (T, N, 2) for T times (row i - 1 is cell i)."""
    return affine.apply(coordinates_at(spec, np.asarray(times, dtype=float)), graph.reference.positions)


def validate_coordinates(coords: GeneralizedCoordinates, bound: float) -> None:
    """Raise UnsafePlanError, naming the strain `field`, its `value` and the
    first violating `index` of a batch (0 for a single instant), unless both
    principal strains stay at or above the bound, the reference's lambda_min.
    It applies to min(lambda1, lambda2): the factor by which the closest pair
    can shrink."""
    lambda1, lambda2 = np.atleast_1d(coords.lambda1, coords.lambda2)
    unsafe = (lambda2 < bound) | (lambda1 < bound)
    if not unsafe.any():
        return
    k = int(np.argmax(unsafe))
    name, values = ("lambda2", lambda2) if lambda2[k] < bound else ("lambda1", lambda1)
    value = float(values[k])
    message = f"{name} = {value:.6g} < lambda_min = {bound:.6g}"
    raise UnsafePlanError(message, field=name, value=value, bound=bound, index=k)


def joint_separations(graph: CellGraph, positions: np.ndarray) -> np.ndarray:
    """Separation of every joint in `graph.joints` order, (..., J) for
    positions (..., N, 2)."""
    i, j = (np.array(graph.joints, dtype=int).reshape(-1, 2) - 1).T
    return np.linalg.norm(positions[..., i, :] - positions[..., j, :], axis=-1)


def joint_elbow_angles(graph: CellGraph, positions: np.ndarray) -> np.ndarray:
    """`elbow_angle` of every joint, (..., J) like `joint_separations`; an
    out-of-reach joint is named in front of the message, as `joint` and by
    its interior `cell`."""
    try:
        return kinematics.elbow_angle(joint_separations(graph, positions), graph.reach)
    except UnreachableSeparationError as exc:
        exc.joint = joint = graph.joints[exc.index[-1]]
        exc.cell, exc.args = joint[0], (f"joint {joint}: {exc}",)
        raise


def check_sample_count(samples: int) -> None:
    """Reject a sample count outside 2..MAX_COUNT, naming the `samples` field."""
    if not 2 <= samples <= MAX_COUNT:
        raise InvalidArgumentError(f"samples = {samples} must be from 2 to {MAX_COUNT}", field="samples")


@dataclass(frozen=True)
class PlannedTrajectory:
    """A plan that passed the gate of `plan`, with the graph it was checked on."""

    spec: PlanSpec
    graph: CellGraph


def plan(spec: PlanSpec, graph: CellGraph, sample_count: int = 200) -> PlannedTrajectory:
    """Sample the plan uniformly, gating every sample on the strain safety
    bound and the mechanism reach of every interior-cell joint. The first
    failing sample decides the error, which names its `time`; the strain
    check goes first."""
    check_sample_count(sample_count)
    times = np.linspace(spec.t0, spec.tf, sample_count)
    coords = coordinates_at(spec, times)
    unsafe = None
    try:
        validate_coordinates(coords, graph.reference.lambda_min)
    except UnsafePlanError as exc:
        unsafe = exc
    positions = affine.apply(coords, graph.reference.positions)
    safe_samples = sample_count if unsafe is None else unsafe.index
    try:
        joint_elbow_angles(graph, positions[:safe_samples])
    except UnreachableSeparationError as exc:
        k = exc.index[0]  # the first unreachable sample
        exc.index, exc.time = k, float(times[k])
        exc.args = (f"plan is out of reach at t = {exc.time:.6g} s, {exc}",)
        raise
    if unsafe is not None:
        unsafe.time = t = float(times[unsafe.index])
        unsafe.args = (f"plan violates the principal-strain bound at t = {t:.6g} s: {unsafe}",)
        raise unsafe
    return PlannedTrajectory(spec=spec, graph=graph)
