"""Planar affine transformations parameterized by six generalized coordinates.

The linear part (Jacobian) factors as a rigid rotation times a symmetric
positive-definite strain matrix; the principal strains are the singular
values of the Jacobian, which is what the collision-safety bound hooks into.
All 2x2 algebra is written out entrywise so the conventions (row-major,
counterclockwise-positive angles) are explicit. Coordinates may be floats
or arrays over a batch of times; matrices then stack as (..., 2, 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, InvalidArgumentError

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
                raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not np.all((0.0 < value) & (value <= 1.0)):
                raise InvalidArgumentError(f"{name} must lie in (0, 1], got {value}")

    @classmethod
    def identity(cls) -> "GeneralizedCoordinates":
        return cls(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    @property
    def translation(self) -> np.ndarray:
        return np.stack([self.d1, self.d2], axis=-1).astype(float)


class RotationStrain(NamedTuple):
    """Rotation/strain part recovered from a Jacobian (no translation)."""

    sigma_r: float
    sigma_d: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class AffineTransform:
    """p = jacobian @ a + translation, applied uniformly to all cells."""

    jacobian: np.ndarray
    translation: np.ndarray

    @classmethod
    def from_coordinates(cls, coords: GeneralizedCoordinates) -> "AffineTransform":
        return cls(jacobian=jacobian(coords), translation=coords.translation)

    def __call__(self, reference_points) -> np.ndarray:
        return apply(self, reference_points)


def rotation_matrix(sigma_r) -> np.ndarray:
    """Counterclockwise rotation by sigma_r radians."""
    if not np.all(np.isfinite(sigma_r)):
        raise InvalidArgumentError(f"rotation angle must be finite, got {sigma_r!r}")
    c, s = np.cos(sigma_r), np.sin(sigma_r)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def strain_matrix(lambda1, lambda2, sigma_d) -> np.ndarray:
    """Symmetric positive-definite strain with principal values lambda1 and
    lambda2, the lambda1 axis rotated by sigma_d from +x."""
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2), ("sigma_d", sigma_d)):
        if not np.all(np.isfinite(value)):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    if np.any(lambda1 <= 0.0) or np.any(lambda2 <= 0.0):
        raise InvalidArgumentError(
            f"principal strains must be positive, got ({lambda1}, {lambda2})"
        )
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


def apply(transform: AffineTransform, reference_points) -> np.ndarray:
    """Map reference points through the affine transform: Q @ a + d.

    A point (2,) or points (N, 2) map to the same shape; a transform
    batched over T times maps them to (T, 2) or (T, N, 2).
    """
    a = np.asarray(reference_points, dtype=float)
    points = (None,) * (a.ndim - 1)  # a batch of times broadcasts over the points
    q = transform.jacobian[(..., *points, slice(None), slice(None))]
    d = transform.translation[(..., *points, slice(None))]
    x = q[..., 0, 0] * a[..., 0] + q[..., 0, 1] * a[..., 1] + d[..., 0]
    y = q[..., 1, 0] * a[..., 0] + q[..., 1, 1] * a[..., 1] + d[..., 1]
    return np.stack([x, y], axis=-1)


def decompose(q: np.ndarray) -> RotationStrain:
    """Recover (sigma_r, sigma_d, lambda1, lambda2) from a Jacobian.

    Conventions: lambda1 >= lambda2, sigma_d in [0, pi) (the strain matrix
    is invariant under sigma_d -> sigma_d + pi), sigma_d = 0 when the
    strains are equal and the axis is indeterminate.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (2, 2) or not np.all(np.isfinite(q)):
        raise InvalidArgumentError(f"expected a finite 2x2 matrix, got {q!r}")
    det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    if det <= 0.0:
        raise DecompositionError(
            f"matrix is singular or contains a reflection (det = {det})"
        )
    # C = Q^T Q encodes the strains squared and the principal-axis angle.
    c11 = q[0, 0] ** 2 + q[1, 0] ** 2
    c22 = q[0, 1] ** 2 + q[1, 1] ** 2
    c12 = q[0, 0] * q[0, 1] + q[1, 0] * q[1, 1]
    mean = 0.5 * (c11 + c22)
    radius = math.hypot(0.5 * (c11 - c22), c12)
    mu1, mu2 = mean + radius, mean - radius
    if mu2 <= 0.0:
        raise DecompositionError("matrix is numerically singular")
    lambda1, lambda2 = math.sqrt(mu1), math.sqrt(mu2)
    if radius == 0.0:
        sigma_d = 0.0
    else:
        sigma_d = 0.5 * math.atan2(2.0 * c12, c11 - c22)
        sigma_d %= math.pi
    u = strain_matrix(lambda1, lambda2, sigma_d)
    # R = Q U^{-1}, with the 2x2 inverse written out.
    u_det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    r00 = (q[0, 0] * u[1, 1] - q[0, 1] * u[1, 0]) / u_det
    r10 = (q[1, 0] * u[1, 1] - q[1, 1] * u[1, 0]) / u_det
    sigma_r = math.atan2(r10, r00)
    return RotationStrain(sigma_r=sigma_r, sigma_d=sigma_d, lambda1=lambda1, lambda2=lambda2)
