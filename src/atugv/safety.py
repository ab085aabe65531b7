"""Collision safety: the principal-strain lower bound and verdicts on
planned coordinates. Clearance itself is measured, independently of the
bound, by `network.min_separation`."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import GeneralizedCoordinates
from .errors import InvalidArgumentError, ReferenceOverlapError


def lambda_min(r: float, d_min: float) -> float:
    """Lower bound 2r/d_min on both principal strains: shrinking the
    closest reference pair by less than this keeps every pair of cell
    disks from overlapping."""
    if r <= 0.0:
        raise InvalidArgumentError(f"cell radius must be positive, got {r}")
    if d_min <= 2.0 * r:
        raise ReferenceOverlapError(
            f"d_min = {d_min:.6g} m must exceed the cell diameter {2 * r:.6g} m"
        )
    return 2.0 * r / d_min


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of checking generalized coordinates against the strain bound.

    When unsafe, names the violating strain field and its value, and the
    index of the first violating time in a batch (0 for a single instant).
    """

    safe: bool
    violating_field: Optional[str] = None
    violating_value: Optional[float] = None
    index: Optional[int] = None

    def __bool__(self):
        return self.safe


def validate_coordinates(coords: GeneralizedCoordinates, lambda_min: float) -> SafetyVerdict:
    """SAFE iff both principal strains stay at or above lambda_min.

    The bound applies to min(lambda1, lambda2): that is the factor by which
    the closest reference pair can shrink.
    """
    lambda1, lambda2 = np.atleast_1d(coords.lambda1, coords.lambda2)
    unsafe = (lambda2 < lambda_min) | (lambda1 < lambda_min)
    if not unsafe.any():
        return SafetyVerdict(safe=True)
    k = int(np.argmax(unsafe))
    name, values = ("lambda2", lambda2) if lambda2[k] < lambda_min else ("lambda1", lambda1)
    return SafetyVerdict(
        safe=False,
        violating_field=name,
        violating_value=float(values[k]),
        index=k,
    )
