import math

import numpy as np
import pytest

from atugv import (
    AffineTransform,
    GeneralizedCoordinates,
    ReferenceOverlapError,
    UnsafePlanError,
    jacobian,
    lambda_min,
    min_separation,
    validate_coordinates,
)
from conftest import random_layered_graph

SQRT3 = math.sqrt(3.0)


class TestLambdaMin:
    def test_direct_substitution(self):
        assert lambda_min(0.25, 1.0) == 0.5

    def test_seven_cell_value(self, seven_cell_reference):
        got = lambda_min(0.05, seven_cell_reference.d_min)
        assert abs(got - 0.9 / SQRT3) < 1e-12

    def test_overlapping_reference_rejected(self):
        with pytest.raises(ReferenceOverlapError):
            lambda_min(0.3, 0.5)

    def test_scale_invariance(self):
        base = lambda_min(0.05, 0.2)
        for scale in (0.1, 2.0, 37.5):
            assert abs(lambda_min(0.05 * scale, 0.2 * scale) - base) < 1e-15


class TestValidateCoordinates:
    def test_undeformed_is_safe(self):
        coords = GeneralizedCoordinates.identity()
        validate_coordinates(coords, 0.9)

    def test_table_strains_against_derived_bound(self, seven_cell_reference):
        bound = lambda_min(0.05, seven_cell_reference.d_min)
        coords = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
        validate_coordinates(coords, bound)

    def test_violation_names_the_strain(self):
        coords = GeneralizedCoordinates(0.9, 0.4, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(UnsafePlanError) as excinfo:
            validate_coordinates(coords, 0.5)
        error = excinfo.value
        assert (error.field, error.value, error.bound, error.index) == ("lambda2", 0.4, 0.5, 0)

    def test_batch_names_first_violating_time(self):
        lam1 = np.array([1.0, 0.9, 0.45, 0.4])
        lam2 = np.array([1.0, 0.6, 0.6, 0.3])
        zeros = np.zeros(4)
        coords = GeneralizedCoordinates(lam1, lam2, zeros, zeros, zeros, zeros)
        with pytest.raises(UnsafePlanError) as excinfo:
            validate_coordinates(coords, 0.5)
        error = excinfo.value
        assert (error.index, error.field, error.value) == (2, "lambda1", 0.45)


class TestPairwiseClearance:
    def test_just_clear(self):
        _, d = min_separation(np.array([[0.0, 0.0], [0.101, 0.0]]))
        assert d >= 2 * 0.05

    def test_seven_cell_reference_clear(self, seven_cell_reference):
        _, d = min_separation(seven_cell_reference.positions)
        assert d >= 2 * 0.05
        assert abs(d - SQRT3 / 9) < 1e-12

    def test_shrinking_below_bound_collides(self, seven_cell_reference):
        # strain slightly under lambda_min aligned with the critical pair
        pos = seven_cell_reference.positions
        lam = lambda_min(0.05, seven_cell_reference.d_min)
        coords = GeneralizedCoordinates(0.99 * lam, 0.99 * lam, 0.0, 0.0, 0.0, 0.0)
        t = AffineTransform.from_coordinates(coords)
        _, d = min_separation(t(pos))
        assert d < 2 * 0.05


class TestCollisionTheoremProperties:
    def test_safe_strains_imply_clearance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            graph, reference = random_layered_graph(rng)
            lam = 2.0 * graph.cell_radius / reference.d_min
            l_a = rng.uniform(lam, 1.0)
            l_b = rng.uniform(lam, 1.0)
            coords = GeneralizedCoordinates(
                lambda1=max(l_a, l_b),
                lambda2=min(l_a, l_b),
                sigma_r=rng.uniform(-math.pi, math.pi),
                sigma_d=rng.uniform(-math.pi, math.pi),
                d1=rng.uniform(-3, 3),
                d2=rng.uniform(-3, 3),
            )
            t = AffineTransform.from_coordinates(coords)
            _, d = min_separation(t(reference.positions))
            assert d >= 2.0 * graph.cell_radius - 1e-9

    def test_quadratic_form_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            l_a, l_b = rng.uniform(0.05, 1.0, size=2)
            coords = GeneralizedCoordinates(
                lambda1=max(l_a, l_b),
                lambda2=min(l_a, l_b),
                sigma_r=rng.uniform(-math.pi, math.pi),
                sigma_d=rng.uniform(-math.pi, math.pi),
                d1=0.0,
                d2=0.0,
            )
            q = jacobian(coords)
            diff = rng.uniform(-2, 2, size=2)
            lhs = diff @ (q.T @ q) @ diff
            rhs = min(l_a, l_b) ** 2 * float(diff @ diff)
            assert lhs >= rhs - 1e-9
