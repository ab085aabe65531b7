import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atugv.affine import COORD_FIELDS, GeneralizedCoordinates, jacobian
from atugv.errors import AtugvError, InfeasibleMotionError, InvalidArgumentError, UnsafePlanError
from atugv.network import MAX_LENGTH, min_separation
from atugv.planner import BLEND_KINDS, PlanSpec, blend, coordinates_at, desired_positions, joint_separations, plan
from atugv.scenario import BUNDLED, bundled_scenario_path, load_scenario, load_scenario_text

IDENTITY = GeneralizedCoordinates.identity()
SIM_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
EXP_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.2, 0.15, 1.0, 1.0)


def coordinates_at_time(spec, t):
    """`coordinates_at` on the one-row batch [t], read at row 0."""
    coords = coordinates_at(spec, np.array([t]))
    return GeneralizedCoordinates(*(float(getattr(coords, name)[0]) for name in COORD_FIELDS))


class TestBlend:
    @pytest.mark.parametrize("kind", ["linear", "smoothstep", "smootherstep"])
    def test_endpoints(self, kind):
        assert blend(0.0, 0.0, 10.0, kind) == 0.0
        assert blend(10.0, 0.0, 10.0, kind) == 1.0

    def test_smoothstep_midpoint(self):
        assert blend(5.0, 0.0, 10.0, "smoothstep") == 0.5

    @pytest.mark.parametrize("kind", ["linear", "smoothstep", "smootherstep"])
    def test_strictly_increasing(self, kind):
        ts = np.linspace(0.0, 10.0, 101)
        vals = [blend(t, 0.0, 10.0, kind) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unknown_kind_rejected(self):
        # `blend` trusts its kind: `PlanSpec` owns the rule.
        with pytest.raises(InvalidArgumentError, match=r"^unknown blend kind 'cubic'") as excinfo:
            PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY, blend="cubic")
        assert excinfo.value.field == "blend"

    def test_smootherstep_is_at_most_1(self):
        # Was 1.0000000000000004: the rounded polynomial passes 1 next to tf,
        # and a coordinate at float64's largest value overflowed to inf.
        assert blend(-2.0, -753198.0, 0.0, "smootherstep") == 1.0


class TestCoordinatesAt:
    def test_final_time_gives_simulation_row(self):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert coordinates_at_time(spec, 10.0) == SIM_FINAL

    def test_initial_time_gives_defaults(self):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert coordinates_at_time(spec, 0.0) == IDENTITY

    def test_linear_midpoint_experiment_row(self):
        spec = PlanSpec(
            t0=0.0, tf=20.0, initial=IDENTITY, final=EXP_FINAL, blend="linear"
        )
        mid = coordinates_at_time(spec, 10.0)
        assert abs(mid.lambda1 - 0.95) < 1e-15
        assert abs(mid.lambda2 - 0.9) < 1e-15
        assert abs(mid.sigma_r - 0.1) < 1e-15
        assert abs(mid.sigma_d - 0.075) < 1e-15
        assert abs(mid.d1 - 0.5) < 1e-15
        assert abs(mid.d2 - 0.5) < 1e-15

    def test_endpoint_exactness_linear(self):
        spec = PlanSpec(
            t0=2.0, tf=7.0, initial=IDENTITY, final=SIM_FINAL, blend="linear"
        )
        assert coordinates_at_time(spec, 2.0) == IDENTITY
        assert coordinates_at_time(spec, 7.0) == SIM_FINAL

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(BLEND_KINDS), st.sampled_from(BUNDLED))
    def test_every_field_is_finite(self, data, kind, scenario):
        # The loader checks every number it reads; `coordinates_at` is the
        # one producer of coordinates it does not check. Any finite
        # endpoints, float64's largest angles included, and any batch of
        # times of a horizon that `step_count` accepts (tf - t0 finite) give
        # finite coordinates, under warnings as errors.
        biggest = float(np.finfo(float).max)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        strain = st.floats(0.0, 1.0, exclude_min=True)
        angle = st.sampled_from([biggest, -biggest]) | finite
        translation = st.floats(-MAX_LENGTH, MAX_LENGTH)
        fields = (strain, strain, angle, angle, translation, translation)
        initial, final = (GeneralizedCoordinates(*map(data.draw, fields)) for _ in range(2))
        t0, tf = sorted(data.draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
        assume(math.isfinite(tf - t0))
        spec = PlanSpec(t0=t0, tf=tf, initial=initial, final=final, blend=kind)
        times = np.array([t0, t0 + (tf - t0) / 2, data.draw(st.floats(t0, tf)), tf])
        coords = coordinates_at(spec, times)
        assert all(np.isfinite(getattr(coords, name)).all() for name in COORD_FIELDS)
        # No planned strain leaves [0, 1], so the strain verdict is the one
        # check of a planned batch. `blend` keeps b in [0, 1] and rounding is
        # monotone: fl(fl(1 - b) x + fl(b y)) <= fl(fl(1 - b) + b) = 1 for
        # endpoints x, y <= 1. Only underflow takes a strain below the smaller
        # endpoint, down to 0, and the strain verdict rejects that value.
        for strains in (coords.lambda1, coords.lambda2):
            assert np.all((0.0 <= strains) & (strains <= 1.0))
        # The plan on a bundled graph gives a verdict and never raises.
        verdict = plan(spec, load_scenario(bundled_scenario_path(scenario)).graph, 3)
        assert verdict is None or isinstance(verdict, AtugvError)


class TestJointSeparations:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["four_cell_experiment", "seven_cell_sim"]), st.integers(1, 4), st.data())
    def test_equals_the_norm_of_each_joint(self, name, steps, data):
        graph = load_scenario(bundled_scenario_path(name)).graph
        magnitudes = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)
        positions = data.draw(arrays(float, (steps, len(graph.cells), 2), elements=magnitudes))
        i, j = (np.array(graph.joints) - 1).T
        expected = np.linalg.norm(positions[..., i, :] - positions[..., j, :], axis=-1)
        assert np.array_equal(joint_separations(graph, positions), expected)


class TestPlan:
    def test_identity_plan_keeps_reference(self, seven_cell, seven_cell_reference):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        assert plan(spec, seven_cell, sample_count=20) is None
        positions = desired_positions(spec, seven_cell, np.linspace(0.0, 10.0, 20))
        np.testing.assert_allclose(
            positions, np.tile(seven_cell_reference.positions, (20, 1, 1)), atol=1e-14
        )

    def test_positions_match_affine_oracle(self, seven_cell, seven_cell_reference):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=30) is None
        times = np.linspace(0.0, 10.0, 30)
        positions = desired_positions(spec, seven_cell, times)
        for k, t in enumerate(times):
            c = coordinates_at_time(spec, t)
            q = jacobian(c)
            for i, a in enumerate(seven_cell_reference.positions):
                expected = [
                    q[0, 0] * a[0] + q[0, 1] * a[1] + c.d1,
                    q[1, 0] * a[0] + q[1, 1] * a[1] + c.d2,
                ]
                np.testing.assert_allclose(positions[k, i], expected, atol=1e-12)

    def test_relative_positions_depend_only_on_jacobian(
        self, seven_cell, seven_cell_reference
    ):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=25) is None
        times = np.linspace(0.0, 10.0, 25)
        positions = desired_positions(spec, seven_cell, times)
        cells = range(len(seven_cell_reference.positions))
        for k, t in enumerate(times):
            q = jacobian(coordinates_at_time(spec, t))
            for i in cells:
                for j in cells:
                    if i >= j:
                        continue
                    lhs = positions[k, i] - positions[k, j]
                    rhs = q @ (
                        seven_cell_reference.positions[i]
                        - seven_cell_reference.positions[j]
                    )
                    np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_unsafe_final_strain_rejected(self, seven_cell):
        unsafe = GeneralizedCoordinates(0.9, 0.4, 0.0, 0.0, 0.0, 0.0)
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=unsafe)
        error = plan(spec, seven_cell, sample_count=50)
        assert type(error) is UnsafePlanError
        assert error.field == "lambda2"
        assert error.time is not None

    def test_reach_limit_rejected(self):
        from conftest import make_seven_cell

        short_arms = make_seven_cell(cell_radius=0.05, arm_length=0.2)  # reach 0.5
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        error = plan(spec, short_arms, sample_count=10)
        assert type(error) is InfeasibleMotionError and error.joint == (4, 1)

    def test_accepted_plan_clears_everywhere(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=100) is None
        for sample in desired_positions(spec, seven_cell, np.linspace(0.0, 10.0, 100)):
            _, (d,) = min_separation(sample[None])
            assert d >= 2 * seven_cell.cell_radius

    def test_monotone_coordinates(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=80) is None
        coords = coordinates_at(spec, np.linspace(0.0, 10.0, 80))
        from atugv.affine import COORD_FIELDS

        for name in COORD_FIELDS:
            series = getattr(coords, name)
            diffs = np.diff(series)
            sign = np.sign(getattr(SIM_FINAL, name) - getattr(IDENTITY, name))
            assert np.all(sign * diffs >= -1e-15)

    def test_first_failing_sample_decides_the_error(self):
        # joints out of reach from t0, strain unsafe only late: reach reported
        from conftest import make_seven_cell

        short_arms = make_seven_cell(cell_radius=0.05, arm_length=0.2)
        late_unsafe = GeneralizedCoordinates(1.0, 0.4, 0.0, 0.0, 0.0, 0.0)
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=late_unsafe)
        error = plan(spec, short_arms, sample_count=10)
        assert type(error) is InfeasibleMotionError and error.joint == (4, 1)
        # strain unsafe from t0: strain reported even though reach fails too
        spec = PlanSpec(t0=0.0, tf=10.0, initial=late_unsafe, final=late_unsafe)
        error = plan(spec, short_arms, sample_count=10)
        assert type(error) is UnsafePlanError
        assert error.time == 0.0

    def test_desired_positions_match_per_time_map(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        times = np.array([0.0, 2.5, 7.0, 10.0])
        batch = desired_positions(spec, seven_cell, times)
        assert batch.shape == (4, 7, 2)
        for k, t in enumerate(times):
            single = desired_positions(spec, seven_cell, [t])[0]
            np.testing.assert_allclose(batch[k], single, rtol=0, atol=1e-15)

    def test_too_few_samples_rejected(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        with pytest.raises(InvalidArgumentError):
            plan(spec, seven_cell, sample_count=1)

    @pytest.mark.parametrize("count", [2**62, 10**30])
    def test_sample_count_beyond_numpy_rejected(self, count, seven_cell):
        # numpy's `ValueError: array is too big; ...` (2**62) and `Maximum
        # allowed size exceeded` (10**30) escaped from `np.linspace`.
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        message = rf"^samples = {count} must be from 2 to 576460752303423487$"
        with pytest.raises(InvalidArgumentError, match=message) as error:
            plan(spec, seven_cell, count)
        assert error.value.field == "samples"

    def test_strain_bounds_enforced(self):
        # `PlanSpec` owns the strain range of both poses and names the full
        # key; the coordinate record checks nothing.
        for pose, name, value in itertools.product(("initial", "final"), ("lambda1", "lambda2"), (1.1, 0.0)):
            poses = {"initial": SIM_FINAL, "final": SIM_FINAL}
            poses[pose] = dataclasses.replace(SIM_FINAL, **{name: value})
            with pytest.raises(InvalidArgumentError, match=rf"^{name} must lie in \(0, 1\], got {value}$") as error:
                PlanSpec(t0=0.0, tf=10.0, **poses)
            assert error.value.field == f"{name}_{pose}"

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PlanSpec(t0=5.0, tf=5.0, initial=IDENTITY, final=SIM_FINAL)

    @pytest.mark.parametrize("t0, tf, field", [(0.0, math.inf, "tf"), (-math.inf, 10.0, "t0")])
    def test_infinite_horizon_rejected(self, t0, tf, field):
        # Was accepted; `plan` then failed inside np.linspace with a
        # RuntimeWarning, or with an error listing NaN times. The scenario
        # loader owns finiteness: it rejects the key.
        graph = "[graph]\nlayers = 1,2,3\n[geometry]\ncell_radius = 0.05\narm_length = 0.25\n"
        text = f"{graph}[plan]\nt0 = {t0}\ntf = {tf}\n"
        message = rf"^<scenario>:\d+: \[plan\] {field}: expected a finite number, got '-?inf'$"
        with pytest.raises(InvalidArgumentError, match=message) as excinfo:
            load_scenario_text(text)
        assert excinfo.value.field == field
