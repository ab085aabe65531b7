import math

import numpy as np
import pytest

from atugv import (
    GeneralizedCoordinates,
    InvalidArgumentError,
    PlanSpec,
    UnreachableSeparationError,
    UnsafePlanError,
    blend,
    coordinates_at,
    desired_positions,
    jacobian,
    min_separation,
    plan,
)

IDENTITY = GeneralizedCoordinates.identity()
SIM_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
EXP_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.2, 0.15, 1.0, 1.0)


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

    def test_outside_horizon_rejected(self):
        for t in (-0.1, 10.1):
            message = rf"^t = {t} outside planning horizon \[0\.0, 10\.0\]$"
            with pytest.raises(InvalidArgumentError, match=message) as excinfo:
                blend(t, 0.0, 10.0)
            assert excinfo.value.field is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            blend(1.0, 0.0, 10.0, "cubic")


class TestCoordinatesAt:
    def test_final_time_gives_simulation_row(self):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert coordinates_at(spec, 10.0) == SIM_FINAL

    def test_initial_time_gives_defaults(self):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert coordinates_at(spec, 0.0) == IDENTITY

    def test_linear_midpoint_experiment_row(self):
        spec = PlanSpec(
            t0=0.0, tf=20.0, initial=IDENTITY, final=EXP_FINAL, blend="linear"
        )
        mid = coordinates_at(spec, 10.0)
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
        assert coordinates_at(spec, 2.0) == IDENTITY
        assert coordinates_at(spec, 7.0) == SIM_FINAL


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
            c = coordinates_at(spec, float(t))
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
            q = jacobian(coordinates_at(spec, float(t)))
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
        assert type(plan(spec, short_arms, sample_count=10)) is UnreachableSeparationError

    def test_accepted_plan_clears_everywhere(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=100) is None
        for sample in desired_positions(spec, seven_cell, np.linspace(0.0, 10.0, 100)):
            _, d = min_separation(sample)
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
        assert type(plan(spec, short_arms, sample_count=10)) is UnreachableSeparationError
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
            single = desired_positions(spec, seven_cell, float(t))
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

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PlanSpec(t0=5.0, tf=5.0, initial=IDENTITY, final=SIM_FINAL)

    @pytest.mark.parametrize("t0, tf, field", [(0.0, math.inf, "tf"), (-math.inf, 10.0, "t0")])
    def test_infinite_horizon_rejected(self, t0, tf, field):
        # Was accepted; `plan` then failed inside np.linspace with a
        # RuntimeWarning, or with an error listing NaN times.
        with pytest.raises(InvalidArgumentError, match=rf"^{field} must be finite, got -?inf$") as excinfo:
            PlanSpec(t0=t0, tf=tf, initial=IDENTITY, final=IDENTITY)
        assert excinfo.value.field == field
