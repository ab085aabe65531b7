import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_seven_cell

from atugv.errors import InfeasibleMotionError, InvalidArgumentError
from atugv.kinematics import (
    _REACH_RTOL,
    beyond_reach,
    desired_elbow_angles,
    elbow_angle,
    resolve_unpowered_position,
    separation_from_angle,
)
from atugv.planner import reach_error

L, R = 0.25, 0.05
REACH = 2 * (L + R)


def assert_inconsistent(error, circles, index):
    """`error` is the disjoint circles' placement error at `index`, which names no joint."""
    assert type(error) is InfeasibleMotionError and error.joint is None
    assert (str(error), error.index) == (f"elbow angles are inconsistent: {circles}", index)


class TestElbowAngle:
    def test_folded(self):
        assert elbow_angle(0.0, REACH) == 0.0

    def test_full_extension(self):
        assert abs(elbow_angle(REACH, REACH) - math.pi) < 1e-12

    def test_exact_asin_value(self):
        assert abs(elbow_angle(L + R, REACH) - math.pi / 3) < 1e-12

    def test_unreachable_rejected(self):
        assert math.isnan(elbow_angle(REACH + 1e-6, REACH))

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


class TestReachSlack:
    """Separations in (reach, reach * (1 + 1e-12)] are full extension, pi
    exactly; past that band no angle spans them, and `elbow_angle` gives
    NaN exactly where `beyond_reach` holds and `planner.reach_error` names
    the first such joint."""

    GRAPH = make_seven_cell()  # reach 0.6 m
    JOINTS = len(GRAPH.joints)
    EDGE = REACH * (1 + _REACH_RTOL)
    PAST = float(np.nextafter(EDGE, np.inf))

    def test_band_is_full_extension(self):
        band = np.array([np.nextafter(REACH, np.inf), REACH * (1 + 0.5 * _REACH_RTOL), self.EDGE])
        assert (band > REACH).all() and not beyond_reach(band, REACH).any()
        assert (elbow_angle(band, REACH) == math.pi).all()

    def test_just_past_the_band_is_beyond_reach(self):
        assert beyond_reach(self.PAST, REACH)
        assert math.isnan(elbow_angle(self.PAST, REACH))

    def test_reach_error_names_the_nan_element(self):
        separations = np.full((4, len(self.GRAPH.joints)), self.EDGE)
        separations[2, 5] = separations[3, 0] = self.PAST
        assert np.argwhere(np.isnan(elbow_angle(separations, REACH))).tolist() == [[2, 5], [3, 0]]
        error = reach_error(self.GRAPH, separations)
        assert type(error) is InfeasibleMotionError
        assert (error.index, error.joint) == ((2, 5), self.GRAPH.joints[5])

    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, REACH),
                st.floats(REACH * (1 - 1e-11), REACH * (1 + 1e-11)),
                st.sampled_from([REACH, float(np.nextafter(REACH, np.inf)), EDGE, PAST]),
            ),
            min_size=3 * JOINTS,
            max_size=3 * JOINTS,
        )
    )
    def test_nan_exactly_beyond_reach(self, values):
        separations = np.array(values).reshape(3, self.JOINTS)
        angles = elbow_angle(separations, REACH)
        over = beyond_reach(separations, REACH)
        assert np.array_equal(np.isnan(angles), over)
        assert np.all(angles[~over] <= math.pi)
        error = reach_error(self.GRAPH, separations)
        if over.any():
            assert error.index == tuple(np.argwhere(over)[0].tolist())
        else:
            assert error is None


class TestDesiredElbowAngles:
    def test_coincident_cells_fold(self):
        t1, t2 = desired_elbow_angles([1, 1], [1, 1], [1 + REACH, 1], REACH)
        assert t1 == 0.0
        assert abs(t2 - math.pi) < 1e-12

    def test_unreachable_names_joint(self):
        t1, t2 = desired_elbow_angles([0, 0], [0.1, 0], [REACH + 0.1, 0], REACH)
        assert not math.isnan(t1) and math.isnan(t2)  # joint 2

    def test_seven_cell_final_configuration_joint(self, seven_cell, seven_cell_reference):
        from atugv.affine import GeneralizedCoordinates, apply

        t = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
        p5, p1, p2 = apply(t, seven_cell_reference.positions[[4, 0, 1]])
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
            [[0, 0]], [[2, 0]], np.array([theta]), np.array([theta]), 2 * (arm + radius), previous=[1.0, 0.5]
        )
        np.testing.assert_allclose(got, [[1.0, 1.0]], atol=1e-12)
        assert error is None

    def test_continuity_picks_other_branch(self):
        arm, radius = 0.65, 0.06
        theta = 2 * math.asin(math.sqrt(2.0) / (2 * (arm + radius)))
        got, error = resolve_unpowered_position(
            [[0, 0]], [[2, 0]], np.array([theta]), np.array([theta]), 2 * (arm + radius), previous=[1.0, -0.5]
        )
        np.testing.assert_allclose(got, [[1.0, -1.0]], atol=1e-12)
        assert error is None

    def test_zero_angles_distinct_centers_inconsistent(self):
        _, error = resolve_unpowered_position([[0, 0]], [[1, 0]], np.zeros(1), np.zeros(1), REACH, previous=[0, 0])
        assert_inconsistent(error, "circles of radii 0 and 0 about neighbors 1 m apart do not intersect", (0,))

    def test_disjoint_circles_inconsistent(self):
        _, error = resolve_unpowered_position(
            [[0, 0]], [[5, 0]], np.full(1, math.pi / 6), np.full(1, math.pi / 6), REACH, previous=[2.5, 0]
        )
        assert_inconsistent(
            error, "circles of radii 0.155291 and 0.155291 about neighbors 5 m apart do not intersect", (0,)
        )

    def test_angles_as_lists(self):
        # Raised `TypeError: can't multiply sequence by non-int of type
        # 'float'` in `separation_from_angle`, which took the points as
        # lists but not the angles.
        got, error = resolve_unpowered_position([[0, 0]], [[2, 0]], [1.0], [1.0], 1.4, [1, 0.5])
        np.testing.assert_array_equal(got, [[1.0, 0.0]])
        assert_inconsistent(
            error, "circles of radii 0.671196 and 0.671196 about neighbors 2 m apart do not intersect", (0,)
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
            (got,), error = resolve_unpowered_position(
                [p_j1], [p_j2], t1[None], t2[None], REACH, previous=p_i + rng.uniform(-0.01, 0.01, 2)
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
            [[0, 0]], [[2, 0]], np.array([theta]), np.array([theta]), 2 * (arm + 0.2), previous=[1.0, 0.3]
        )
        np.testing.assert_allclose(got, [[1.0, 0.0]], atol=1e-9)
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
        got = elbow_angle(np.array([[0.1, 0.2], [REACH + 1, REACH + 2]]), REACH)
        assert np.argwhere(np.isnan(got)).tolist() == [[1, 0], [1, 1]]

    def test_desired_and_resolved_rows_match_scalars(self):
        rng = np.random.default_rng(8)
        p_j1 = rng.uniform(-0.2, 0.2, size=(5, 2))
        p_j2 = p_j1 + np.array([0.3, 0.0])
        p_i = p_j1 + np.array([0.15, 0.2]) + rng.uniform(-0.02, 0.02, size=(5, 2))
        previous = p_i + 0.01
        t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, REACH)
        (got,), error = resolve_unpowered_position([p_j1], [p_j2], t1[None], t2[None], REACH, previous)
        assert error is None
        for m in range(5):
            s1, s2 = desired_elbow_angles(p_i[m], p_j1[m], p_j2[m], REACH)
            assert (t1[m], t2[m]) == (s1, s2)
            (one,), error = resolve_unpowered_position([p_j1[m]], [p_j2[m]], s1[None], s2[None], REACH, previous[m])
            np.testing.assert_array_equal(got[m], one)
            assert error is None

    def test_desired_angles_error_names_row_and_joint(self):
        p_i = np.zeros((3, 2))
        p_j1 = np.array([[0.1, 0.0], [0.1, 0.0], [REACH + 0.1, 0.0]])
        p_j2 = np.array([[0.1, 0.0], [REACH + 0.1, 0.0], [0.1, 0.0]])
        t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, REACH)
        # row-major, the first NaN is row 1, joint 2
        first = np.argwhere(np.isnan(np.stack([t1, t2], axis=-1)))[0]
        assert (first[0], first[1] + 1) == (1, 2)

    def test_inconsistent_row_named(self):
        c1 = np.zeros((2, 2))
        c2 = np.array([[0.3, 0.0], [5.0, 0.0]])
        theta = np.full(2, math.pi / 2)
        _, error = resolve_unpowered_position([c1], [c2], theta[None], theta[None], REACH, previous=c1)
        assert_inconsistent(
            error, "circles of radii 0.424264 and 0.424264 about neighbors 5 m apart do not intersect", (0, 1)
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
            one_step = slice(k, k + 1)
            (previous,), error = resolve_unpowered_position(
                p_j1[one_step], p_j2[one_step], t1[one_step], t2[one_step], REACH, previous
            )
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
        assert type(error) is InfeasibleMotionError and error.joint is None
        assert (str(error), error.index) == ("actuated neighbors coincide; cell position is not determined", (2, 1))

    def test_zero_steps(self):
        # Raised a bare `ValueError: cannot reshape array of size 0`.
        got, error = resolve_unpowered_position(
            np.zeros((0, 1, 2)), np.ones((0, 1, 2)), np.zeros((0, 1)), np.zeros((0, 1)), 0.55,
            previous=np.zeros((1, 2)),
        )
        assert got.shape == (0, 1, 2) and error is None
