import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atugv import (
    InconsistentAnglesError,
    InvalidArgumentError,
    UnreachableSeparationError,
    desired_elbow_angles,
    elbow_angle,
    resolve_unpowered_position,
    separation_from_angle,
)

L, R = 0.25, 0.05
REACH = 2 * (L + R)


def assert_inconsistent(error, circles, index):
    """`error` is the disjoint circles' InconsistentAnglesError at `index`."""
    assert type(error) is InconsistentAnglesError
    assert (str(error), error.index) == (f"elbow angles are inconsistent: {circles}", index)


class TestElbowAngle:
    def test_folded(self):
        assert elbow_angle(0.0, REACH) == 0.0

    def test_full_extension(self):
        assert abs(elbow_angle(REACH, REACH) - math.pi) < 1e-12

    def test_exact_asin_value(self):
        assert abs(elbow_angle(L + R, REACH) - math.pi / 3) < 1e-12

    def test_unreachable_rejected(self):
        with pytest.raises(UnreachableSeparationError):
            elbow_angle(REACH + 1e-6, REACH)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            elbow_angle(-0.1, REACH)

    @given(st.floats(0.0, REACH), st.floats(0.0, REACH))
    def test_strictly_increasing(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        assert elbow_angle(lo, REACH) < elbow_angle(hi, REACH)

    @given(st.floats(0.0, REACH))
    def test_range_and_inverse(self, d):
        theta = elbow_angle(d, REACH)
        assert 0.0 <= theta <= math.pi
        assert abs(separation_from_angle(theta, REACH) - d) < 1e-12


class TestDesiredElbowAngles:
    def test_coincident_cells_fold(self):
        t1, t2 = desired_elbow_angles([1, 1], [1, 1], [1 + REACH, 1], REACH)
        assert t1 == 0.0
        assert abs(t2 - math.pi) < 1e-12

    def test_unreachable_names_joint(self):
        with pytest.raises(UnreachableSeparationError) as excinfo:
            desired_elbow_angles([0, 0], [0.1, 0], [REACH + 0.1, 0], REACH)
        assert excinfo.value.joint == 2

    def test_seven_cell_final_configuration_joint(self, seven_cell, seven_cell_reference):
        from atugv import GeneralizedCoordinates, apply

        t = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
        p5 = apply(t, seven_cell_reference.positions[4])
        p1 = apply(t, seven_cell_reference.positions[0])
        p2 = apply(t, seven_cell_reference.positions[1])
        theta1, _ = desired_elbow_angles(p5, p1, p2, REACH)
        # independent norm computation
        dx, dy = p5[0] - p1[0], p5[1] - p1[1]
        expected = 2 * math.asin(math.sqrt(dx * dx + dy * dy) / REACH)
        assert abs(theta1 - expected) < 1e-12


class TestResolveUnpoweredPosition:
    def test_symmetric_two_circle_intersection(self):
        arm, radius = 0.65, 0.06  # reach 1.42 covers sqrt(2)
        theta = 2 * math.asin(math.sqrt(2.0) / (2 * (arm + radius)))
        got, error = resolve_unpowered_position(
            [0, 0], [2, 0], theta, theta, 2 * (arm + radius), previous=[1.0, 0.5]
        )
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)
        assert error is None

    def test_continuity_picks_other_branch(self):
        arm, radius = 0.65, 0.06
        theta = 2 * math.asin(math.sqrt(2.0) / (2 * (arm + radius)))
        got, error = resolve_unpowered_position(
            [0, 0], [2, 0], theta, theta, 2 * (arm + radius), previous=[1.0, -0.5]
        )
        np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-12)
        assert error is None

    def test_zero_angles_distinct_centers_inconsistent(self):
        _, error = resolve_unpowered_position([0, 0], [1, 0], 0.0, 0.0, REACH, previous=[0, 0])
        assert_inconsistent(error, "circles of radii 0 and 0 about neighbors 1 m apart do not intersect", ())

    def test_disjoint_circles_inconsistent(self):
        _, error = resolve_unpowered_position(
            [0, 0], [5, 0], math.pi / 6, math.pi / 6, REACH, previous=[2.5, 0]
        )
        assert_inconsistent(
            error, "circles of radii 0.155291 and 0.155291 about neighbors 5 m apart do not intersect", ()
        )

    def test_round_trip_with_desired_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p_j1 = rng.uniform(-1, 1, size=2)
            p_j2 = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(p_j1 - p_j2) < 0.05:
                continue
            mid = 0.5 * (p_j1 + p_j2)
            p_i = mid + rng.uniform(-0.15, 0.15, size=2)
            if max(np.linalg.norm(p_i - p_j1), np.linalg.norm(p_i - p_j2)) > REACH * 0.99:
                continue
            # near-collinear placements make the intersection ill-conditioned
            # and the two branches indistinguishable; the physical mechanism
            # never operates there
            u = (p_j2 - p_j1) / np.linalg.norm(p_j2 - p_j1)
            off_line = abs((p_i - p_j1) @ np.array([-u[1], u[0]]))
            if off_line < 0.02:
                continue
            t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, REACH)
            got, error = resolve_unpowered_position(
                p_j1, p_j2, t1, t2, REACH, previous=p_i + rng.uniform(-0.01, 0.01, 2)
            )
            assert error is None
            np.testing.assert_allclose(got, p_i, atol=1e-9)
            assert abs(np.linalg.norm(got - p_j1) - separation_from_angle(t1, REACH)) < 1e-9
            assert abs(np.linalg.norm(got - p_j2) - separation_from_angle(t2, REACH)) < 1e-9

    def test_tangent_circles_resolve_to_touch_point(self):
        # centers 2 apart, radii 1 and 1: single intersection at the midpoint
        arm = 0.8
        theta = 2 * math.asin(1.0 / (2 * (arm + 0.2)))
        got, error = resolve_unpowered_position(
            [0, 0], [2, 0], theta, theta, 2 * (arm + 0.2), previous=[1.0, 0.3]
        )
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-9)
        assert error is None


class TestBatches:
    """Array arguments give the per-row results of scalar calls, and an
    error names the first failing row."""

    def test_elbow_angle_array_matches_scalars(self):
        d = np.array([[0.0, 0.1], [L + R, REACH]])
        got = elbow_angle(d, REACH)
        assert got.shape == d.shape
        for idx in np.ndindex(d.shape):
            assert got[idx] == elbow_angle(float(d[idx]), REACH)

    def test_elbow_angle_error_names_first_element(self):
        with pytest.raises(UnreachableSeparationError) as excinfo:
            elbow_angle(np.array([[0.1, 0.2], [REACH + 1, REACH + 2]]), REACH)
        assert excinfo.value.index == (1, 0)

    def test_desired_and_resolved_rows_match_scalars(self):
        rng = np.random.default_rng(8)
        p_j1 = rng.uniform(-0.2, 0.2, size=(5, 2))
        p_j2 = p_j1 + np.array([0.3, 0.0])
        p_i = p_j1 + np.array([0.15, 0.2]) + rng.uniform(-0.02, 0.02, size=(5, 2))
        previous = p_i + 0.01
        t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, REACH)
        got, error = resolve_unpowered_position(p_j1, p_j2, t1, t2, REACH, previous)
        assert error is None
        for m in range(5):
            s1, s2 = desired_elbow_angles(p_i[m], p_j1[m], p_j2[m], REACH)
            assert (t1[m], t2[m]) == (s1, s2)
            one, error = resolve_unpowered_position(p_j1[m], p_j2[m], s1, s2, REACH, previous[m])
            np.testing.assert_array_equal(got[m], one)
            assert error is None

    def test_desired_angles_error_names_row_and_joint(self):
        p_i = np.zeros((3, 2))
        p_j1 = np.array([[0.1, 0.0], [0.1, 0.0], [REACH + 0.1, 0.0]])
        p_j2 = np.array([[0.1, 0.0], [REACH + 0.1, 0.0], [0.1, 0.0]])
        with pytest.raises(UnreachableSeparationError) as excinfo:
            desired_elbow_angles(p_i, p_j1, p_j2, REACH)
        assert (excinfo.value.index, excinfo.value.joint) == ((1,), 2)
        assert str(excinfo.value).startswith("joint 2: ")

    def test_inconsistent_row_named(self):
        c1 = np.zeros((2, 2))
        c2 = np.array([[0.3, 0.0], [5.0, 0.0]])
        theta = np.full(2, math.pi / 2)
        _, error = resolve_unpowered_position(c1, c2, theta, theta, REACH, previous=c1)
        assert_inconsistent(
            error, "circles of radii 0.424264 and 0.424264 about neighbors 5 m apart do not intersect", (1,)
        )

    def test_step_sequence_matches_single_steps(self):
        # neighbors jitter and randomly trade places, which swaps the two
        # intersections, the cell hops across their center line, and long
        # jumps of the whole mechanism make the choice independent of the
        # step before
        rng = np.random.default_rng(9)
        steps = 400
        jumps = rng.uniform(-1, 1, size=(steps, 3, 2)) * (rng.random((steps, 3, 1)) < 0.2)
        p_j1 = rng.uniform(-0.05, 0.05, size=(steps, 3, 2)) + jumps
        p_j2 = p_j1 + np.array([0.3, 0.0]) + rng.uniform(-0.05, 0.05, size=(steps, 3, 2))
        trade = (rng.random((steps, 3)) < 0.3)[..., None]
        p_j1, p_j2 = np.where(trade, p_j2, p_j1), np.where(trade, p_j1, p_j2)
        side = rng.choice([-1.0, 1.0], size=(steps, 3, 1))
        p_i = 0.5 * (p_j1 + p_j2) + side * np.array([0.0, 0.15])
        t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, REACH)
        start = rng.uniform(-0.2, 0.2, size=(3, 2))
        got, error = resolve_unpowered_position(p_j1, p_j2, t1, t2, REACH, start)
        assert error is None
        previous = start
        for k in range(steps):
            previous, error = resolve_unpowered_position(p_j1[k], p_j2[k], t1[k], t2[k], REACH, previous)
            np.testing.assert_array_equal(got[k], previous)
            assert error is None

    def test_step_sequence_error_names_earliest_step(self):
        c1 = np.zeros((4, 2, 2))
        c2 = np.tile([0.3, 0.0], (4, 2, 1))
        theta = np.full((4, 2), math.pi / 2)
        start = np.array([[0.15, 0.2], [0.15, 0.2]])
        c2[3, 0] = 0.0  # neighbors coincide at step 3
        c2[2, 0] = [5.0, 0.0]  # disjoint circles at step 2
        got, error = resolve_unpowered_position(c1, c2, theta, theta, REACH, start)
        assert_inconsistent(
            error, "circles of radii 0.424264 and 0.424264 about neighbors 5 m apart do not intersect", (2, 0)
        )
        assert np.isfinite(got[:2]).all()  # the steps before the failing one are placed
        c2[2, 1] = 0.0  # within a step, coincident neighbors come first
        _, error = resolve_unpowered_position(c1, c2, theta, theta, REACH, start)
        assert type(error) is InconsistentAnglesError
        assert (str(error), error.index) == ("actuated neighbors coincide; cell position is not determined", (2, 1))

    def test_zero_steps(self):
        # Raised a bare `ValueError: cannot reshape array of size 0`.
        got, error = resolve_unpowered_position(
            np.zeros((0, 1, 2)), np.ones((0, 1, 2)), np.zeros((0, 1)), np.zeros((0, 1)), 0.55,
            previous=np.zeros((1, 2)),
        )
        assert got.shape == (0, 1, 2) and error is None
