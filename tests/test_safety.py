import dataclasses
import math

import numpy as np
import pytest

from atugv.affine import GeneralizedCoordinates, apply, jacobian
from atugv.errors import InvalidArgumentError, UnsafePlanError
from atugv.network import CellGraph, min_separation, solve_reference_positions
from atugv.planner import validate_coordinates
from conftest import random_layered_graph

SQRT3 = math.sqrt(3.0)


def boundary_only(cell_radius, side_length=1.0):
    return CellGraph((frozenset({1, 2, 3}),), {}, cell_radius, 0.25, side_length=side_length)


class TestLambdaMin:
    """The reference owns the strain bound lambda_min = 2r / d_min."""

    def test_direct_substitution(self, four_cell, seven_cell):
        for graph in (boundary_only(0.25), four_cell, seven_cell):
            reference = solve_reference_positions(graph)
            assert reference.lambda_min == 2 * graph.cell_radius / reference.d_min

    def test_seven_cell_value(self, seven_cell_reference):
        assert abs(seven_cell_reference.lambda_min - 0.9 / SQRT3) < 1e-12

    def test_overlapping_reference_rejected(self):
        with pytest.raises(InvalidArgumentError, match="does not exceed the cell diameter") as info:
            solve_reference_positions(boundary_only(0.3, side_length=0.5))
        assert info.value.field == "cell_radius"

    def test_scale_invariance(self, seven_cell):
        base = solve_reference_positions(seven_cell).lambda_min
        for scale in (0.1, 2.0, 37.5):
            graph = dataclasses.replace(seven_cell, side_length=scale, cell_radius=0.05 * scale)
            assert abs(solve_reference_positions(graph).lambda_min - base) < 1e-15


def one_row(*values):
    """Generalized coordinates batched over one row."""
    return GeneralizedCoordinates(*np.array(values, dtype=float)[:, None])


class TestValidateCoordinates:
    def test_undeformed_is_safe(self):
        coords = one_row(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert validate_coordinates(coords, 0.9) is None

    def test_table_strains_against_derived_bound(self, seven_cell_reference):
        bound = seven_cell_reference.lambda_min
        coords = one_row(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
        assert validate_coordinates(coords, bound) is None

    def test_violation_names_the_strain(self):
        coords = one_row(0.9, 0.4, 0.0, 0.0, 0.0, 0.0)
        error = validate_coordinates(coords, 0.5)
        assert type(error) is UnsafePlanError
        assert (error.field, error.value, error.bound, error.index) == ("lambda2", 0.4, 0.5, (0,))

    def test_batch_names_first_violating_time(self):
        lam1 = np.array([1.0, 0.9, 0.45, 0.4])
        lam2 = np.array([1.0, 0.6, 0.6, 0.3])
        zeros = np.zeros(4)
        coords = GeneralizedCoordinates(lam1, lam2, zeros, zeros, zeros, zeros)
        error = validate_coordinates(coords, 0.5)
        assert type(error) is UnsafePlanError
        assert (error.index, error.field, error.value) == ((2,), "lambda1", 0.45)


class TestPairwiseClearance:
    def test_just_clear(self):
        _, (d,) = min_separation(np.array([[[0.0, 0.0], [0.101, 0.0]]]))
        assert d >= 2 * 0.05

    def test_seven_cell_reference_clear(self, seven_cell_reference):
        _, (d,) = min_separation(seven_cell_reference.positions[None])
        assert d >= 2 * 0.05
        assert abs(d - SQRT3 / 9) < 1e-12

    def test_shrinking_below_bound_collides(self, seven_cell_reference):
        # strain slightly under lambda_min aligned with the critical pair
        pos = seven_cell_reference.positions
        lam = seven_cell_reference.lambda_min
        coords = GeneralizedCoordinates(0.99 * lam, 0.99 * lam, 0.0, 0.0, 0.0, 0.0)
        _, (d,) = min_separation(apply(coords, pos)[None])
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
            _, (d,) = min_separation(apply(coords, reference.positions)[None])
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
