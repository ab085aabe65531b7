"""Planar affine transformations parameterized by six generalized coordinates.

The linear part (Jacobian) factors as a rigid rotation times a symmetric
positive-definite strain matrix; the principal strains are the singular
values of the Jacobian, which is what the collision-safety bound hooks into.
All 2x2 algebra is written out entrywise so the conventions (row-major,
counterclockwise-positive angles) are explicit. Coordinates may be floats
or arrays over a batch of times; matrices then stack as (..., 2, 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

COORD_FIELDS = ("lambda1", "lambda2", "sigma_r", "sigma_d", "d1", "d2")


@dataclass(frozen=True)
class GeneralizedCoordinates:
    """The six affine degrees of freedom at one instant.

    lambda1, lambda2: principal strains in (0, 1]
    sigma_r: rigid-body rotation angle [rad]
    sigma_d: shear (principal-axis) angle [rad]
    d1, d2: translation [m]

    Each field is a float, or an array of equal shape for a batch of times.
    """

    lambda1: float
    lambda2: float
    sigma_r: float
    sigma_d: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in COORD_FIELDS:
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise InvalidArgumentError(f"{name} must be finite, got {value!r}", field=name)
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not np.all((0.0 < value) & (value <= 1.0)):
                raise InvalidArgumentError(f"{name} must lie in (0, 1], got {value}", field=name)

    @classmethod
    def identity(cls) -> "GeneralizedCoordinates":
        return cls(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def rotation_matrix(sigma_r) -> np.ndarray:
    """Counterclockwise rotation by sigma_r radians (`GeneralizedCoordinates` checks it is finite)."""
    c, s = np.cos(sigma_r), np.sin(sigma_r)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def strain_matrix(lambda1, lambda2, sigma_d) -> np.ndarray:
    """Symmetric positive-definite strain with principal values lambda1 and
    lambda2, the lambda1 axis rotated by sigma_d from +x. Its callers own the
    finite values and positive strains: `GeneralizedCoordinates`."""
    c, s = np.cos(sigma_d), np.sin(sigma_d)
    u11 = lambda1 * c * c + lambda2 * s * s
    u22 = lambda1 * s * s + lambda2 * c * c
    u12 = (lambda1 - lambda2) * c * s
    return np.moveaxis(np.array([[u11, u12], [u12, u22]]), (0, 1), (-2, -1))


def jacobian(coords: GeneralizedCoordinates) -> np.ndarray:
    """Jacobian of the affine map: rotation(sigma_r) @ strain(sigma_d, l1, l2)."""
    return rotation_matrix(coords.sigma_r) @ strain_matrix(
        coords.lambda1, coords.lambda2, coords.sigma_d
    )


def apply(coords: GeneralizedCoordinates, reference_points) -> np.ndarray:
    """Map reference points through the affine map of `coords`: Q @ a + d,
    with Q = jacobian(coords) and d = (d1, d2).

    A point (2,) or points (N, 2) map to the same shape; coordinates
    batched over T times map them to (T, 2) or (T, N, 2).
    """
    a = np.asarray(reference_points, dtype=float)
    points = (None,) * (a.ndim - 1)  # a batch of times broadcasts over the points
    q = jacobian(coords)[(..., *points, slice(None), slice(None))]
    d1, d2 = (np.asarray(d, dtype=float)[(..., *points)] for d in (coords.d1, coords.d2))
    x = q[..., 0, 0] * a[..., 0] + q[..., 0, 1] * a[..., 1] + d1
    y = q[..., 1, 0] * a[..., 0] + q[..., 1, 1] * a[..., 1] + d2
    return np.stack([x, y], axis=-1)
