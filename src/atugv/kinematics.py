"""Elbow-joint kinematics of the two-arm connection mechanism.

Both arms of a joint have length L and attach at the cell rims, so a
cell separation d corresponds to the elbow angle 2*asin(d / reach), with
the mechanism reach 2(L+r) that `CellGraph.reach` computes; a separation
beyond the reach spans no angle, which `elbow_angle` gives as NaN.
Unpowered cells are positioned by intersecting the two distance circles
implied by their actuated elbow angles.

Every function takes scalars/points or arrays of them (points as (..., 2));
an error on an array names the first failing element in `index`.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import InconsistentAnglesError, InvalidArgumentError

# Relative slacks for "at full extension" and, on the squared discriminant
# per reach^2, for tangent circles (1e-9 m^2 at the bundled reach of 0.6 m),
# so that a verdict does not depend on the unit of length.
_REACH_RTOL = 1e-12
_TANGENT_RTOL = 1e-9 / 0.36


def beyond_reach(d, reach: float):
    """Whether no elbow angle spans each separation d, past full extension's slack."""
    return d > reach * (1.0 + _REACH_RTOL)


def elbow_angle(d, reach: float):
    """Angle between the two arms spanning a cell separation d; in [0, pi],
    0 when folded, pi at full extension `reach` and within its slack, NaN
    where `beyond_reach` holds (no angle spans it)."""
    d = np.asarray(d, dtype=float)
    invalid = ~(np.isfinite(d) & (d >= 0.0))
    if invalid.any():
        raise InvalidArgumentError(
            f"separation must be a finite non-negative length, got {float(d[invalid][0])!r}"
        )
    return 2.0 * np.arcsin(np.where(beyond_reach(d, reach), np.nan, np.minimum(d, reach) / reach))


def separation_from_angle(theta, reach: float):
    """Inverse of elbow_angle on [0, pi], where `elbow_angle` puts every angle it defines."""
    return reach * np.sin(0.5 * theta)


def desired_elbow_angles(
    p_i,
    p_j1,
    p_j2,
    reach: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Elbow angles commanded to the two actuated joints of cell i given the
    desired positions of i and its actuated neighbors j1, j2; NaN for a
    joint beyond reach, as `elbow_angle` gives it."""
    to_neighbors = np.asarray(p_i, dtype=float)[..., None, :] - np.stack([p_j1, p_j2], axis=-2)
    theta = elbow_angle(np.linalg.norm(to_neighbors, axis=-1), reach)  # (..., 2): joint 1, joint 2
    return theta[..., 0], theta[..., 1]


def resolve_unpowered_position(
    p_j1,
    p_j2,
    theta1,
    theta2,
    reach: float,
    previous,
) -> Tuple[np.ndarray, Optional[InconsistentAnglesError]]:
    """Forward kinematics of an unpowered cell: intersect the circle of
    radius d_k = reach * sin(theta_k/2) about each actuated neighbor and pick
    the intersection closest to the position before (the mechanism cannot
    jump between branches). Returns the positions and the
    `InconsistentAnglesError` of the first that cannot be placed, or None.

    With `previous` of the points' shape (..., 2), each result is the
    intersection closest to it. With `previous` one axis shorter, the first
    axis of the points is a sequence of steps: the first step picks the
    intersection closest to `previous`, every later one the intersection
    closest to the step before, and the error names the earliest failing
    step. Within a step (or a single call), coincident neighbors are
    reported before disjoint circles. From a failing step on, positions are
    undefined; a NaN center or angle fails nothing.
    """
    c1 = np.asarray(p_j1, dtype=float)
    c2 = np.asarray(p_j2, dtype=float)
    previous = np.asarray(previous, dtype=float)
    steps = previous.ndim < c1.ndim
    d1 = separation_from_angle(theta1, reach)
    d2 = separation_from_angle(theta2, reach)
    delta = c2 - c1
    dist = np.linalg.norm(delta, axis=-1)
    # Standard two-circle intersection in the frame of the center line.
    with np.errstate(divide="ignore", invalid="ignore"):  # coincident neighbors fail below
        along = (d1 * d1 - d2 * d2 + dist * dist) / (2.0 * dist)
        h_sq = d1 * d1 - along * along
        u = delta / dist[..., None]
        mid = c1 + along[..., None] * u
    coincide = dist == 0.0
    disjoint = h_sq < -_TANGENT_RTOL * reach * reach
    failed = coincide | disjoint
    error = None
    if failed.any():
        at = (int(np.argmax(failed.any(axis=tuple(range(1, failed.ndim))))),) if steps else ()
        kind = coincide if coincide[at].any() else disjoint
        k = at + tuple(np.argwhere(kind[at])[0].tolist())
        message = (
            "actuated neighbors coincide; cell position is not determined" if kind is coincide else
            f"elbow angles are inconsistent: circles of radii {d1[k]:.6g} and "
            f"{d2[k]:.6g} about neighbors {dist[k]:.6g} m apart do not intersect"
        )
        error = InconsistentAnglesError(message, index=k)
    h = np.sqrt(np.maximum(h_sq, 0.0))[..., None]
    perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    cand_a = mid + h * perp
    cand_b = mid - h * perp
    if not steps:
        return np.where(_closer_to_a(cand_a, cand_b, previous)[..., None], cand_a, cand_b), error
    on_a = _follow_branches(
        _closer_to_a(cand_a, cand_b, np.concatenate([previous[None], cand_a[:-1]])),
        _closer_to_a(cand_a, cand_b, np.concatenate([previous[None], cand_b[:-1]])),
    )
    return np.where(on_a[..., None], cand_a, cand_b), error


def _closer_to_a(cand_a, cand_b, previous) -> np.ndarray:
    return np.linalg.norm(cand_a - previous, axis=-1) <= np.linalg.norm(cand_b - previous, axis=-1)


def _follow_branches(a_after_a: np.ndarray, a_after_b: np.ndarray) -> np.ndarray:
    """Whether each step lands on branch a, given for every step the choice
    after a step on branch a and after one on branch b (equal at step 0).

    A step whose two choices agree fixes the branch; a step where they
    differ keeps the branch of the step before or swaps it. So each step
    is on the branch of the last fixing step, swapped once per swapping
    step since: a prefix scan over the precomputed comparisons.
    """
    steps = np.arange(len(a_after_a)).reshape((-1,) + (1,) * (a_after_a.ndim - 1))
    last_fixed = np.maximum.accumulate(np.where(a_after_a == a_after_b, steps, 0), axis=0)
    swaps = np.cumsum(a_after_b & ~a_after_a, axis=0)
    odd = (swaps - np.take_along_axis(swaps, last_fixed, axis=0)) % 2 == 1
    return np.take_along_axis(a_after_a, last_fixed, axis=0) ^ odd
