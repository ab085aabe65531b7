import math

import numpy as np
import pytest

from atugv import (
    GeneralizedCoordinates,
    InvalidArgumentError,
    PlanSpec,
    SimConfig,
    SimState,
    UnreachableSeparationError,
    desired_positions,
    load_scenario_text,
    plan,
    run,
    solve_reference_positions,
    step,
    velocity_command,
)

IDENTITY = GeneralizedCoordinates.identity()
SIM_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)


class TestVelocityCommand:
    def test_unit_gain(self):
        np.testing.assert_array_equal(velocity_command([1, 0], [0, 0], 1.0), [1, 0])

    def test_zero_error(self):
        np.testing.assert_array_equal(velocity_command([2, 3], [2, 3], 5.0), [0, 0])

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(
            velocity_command([1, 1], [0.6, 0.2], 2.5), [1.0, 2.0], atol=1e-15
        )

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            velocity_command([1, 0], [0, 0], 0.0)


class TestStep:
    def identity_step(self, graph, reference, state):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        desired = desired_positions(spec, reference, [0.0, 0.1])
        config = SimConfig(dt=0.1, model="single", alpha=1.0)
        return step(state, graph, desired[0], desired[1], config)

    def test_fixed_point_identity_plan(self, four_cell, four_cell_reference):
        reference = four_cell_reference.positions
        state = SimState(positions=reference.copy(), velocities=np.zeros_like(reference))
        nxt = self.identity_step(four_cell, four_cell_reference, state)
        np.testing.assert_allclose(nxt.positions, reference, atol=1e-12)

    def test_single_euler_arithmetic(self, four_cell, four_cell_reference):
        # offset cell 3 so its error is exactly (1, 0); one Euler step moves 0.1
        # (cell 3 is not an actuated neighbor of cell 4, so the offset cannot
        # make the unpowered cell's joint circles disjoint)
        reference = four_cell_reference.positions
        state = SimState(positions=reference.copy(), velocities=np.zeros_like(reference))
        state.positions[2] -= np.array([1.0, 0.0])
        nxt = self.identity_step(four_cell, four_cell_reference, state)
        moved = nxt.positions[2] - state.positions[2]
        np.testing.assert_allclose(moved, [0.1, 0.0], atol=1e-15)

    def test_error_names_the_failing_cell(self, seven_cell, seven_cell_reference):
        reference = seven_cell_reference.positions
        state = SimState(positions=reference.copy(), velocities=np.zeros_like(reference))
        desired_next = reference.copy()
        desired_next[5] += [0.0, 1.0]  # cell 6 beyond the reach of its joint to cell 2
        config = SimConfig(dt=0.1, alpha=1.0)
        with pytest.raises(UnreachableSeparationError) as excinfo:
            step(state, seven_cell, reference, desired_next, config)
        assert (excinfo.value.cell, excinfo.value.joint) == (6, 1)


class TestRun:
    def sim_trajectory(self, graph, reference, tf=10.0):
        spec = PlanSpec(t0=0.0, tf=tf, initial=IDENTITY, final=SIM_FINAL)
        return plan(spec, graph, reference, sample_count=100)

    def test_determinism(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference)
        config = SimConfig(dt=0.05, model="single", alpha=10.0)
        a = run(traj, config)
        b = run(traj, config)
        assert np.array_equal(a.actual, b.actual)
        assert np.array_equal(a.min_clearance, b.min_clearance)

    def test_fixed_point_trace(self, seven_cell, seven_cell_reference):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        traj = plan(spec, seven_cell, seven_cell_reference, sample_count=50)
        trace = run(traj, SimConfig(dt=0.1))
        assert np.max(trace.errors) < 1e-12

    def test_error_contraction_static_target(self, four_cell, four_cell_reference):
        spec = PlanSpec(t0=0.0, tf=5.0, initial=IDENTITY, final=IDENTITY)
        traj = plan(spec, four_cell, four_cell_reference, sample_count=10)
        config = SimConfig(
            dt=0.05,
            model="single",
            alpha=5.0,
            initial_offsets={1: np.array([0.01, 0.0])},
        )
        trace = run(traj, config)
        ratio = abs(1.0 - 5.0 * 0.05)
        errs = trace.errors[:, 0]
        for k in range(50):
            assert abs(errs[k + 1] - ratio * errs[k]) < 1e-12 * max(errs[k], 1.0)

    def test_clearance_monitored_and_safe(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference)
        trace = run(traj, SimConfig(dt=0.01, alpha=10.0))
        assert trace.clearance_safe
        assert np.min(trace.min_clearance) >= 2 * seven_cell.cell_radius

    def test_double_integrator_tracks(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference)
        config = SimConfig(dt=0.01, model="double", alpha=10.0, k_v=20.0)
        trace = run(traj, config)
        assert np.max(trace.errors[-1]) < 1e-2
        assert trace.clearance_safe

    def test_unstable_gain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SimConfig(dt=0.25, model="single", alpha=10.0)

    @pytest.mark.parametrize(
        "alpha, k_v",
        [(10.0, 250.0), (150.0, 20.0)],  # spectral radius 1.396 and 1.049
    )
    def test_unstable_double_integrator_gains_rejected(self, alpha, k_v):
        with pytest.raises(InvalidArgumentError, match="spectral radius"):
            SimConfig(dt=0.01, model="double", alpha=alpha, k_v=k_v)

    def test_default_double_integrator_gains_accepted(self):
        SimConfig(model="double")  # spectral radius 0.906

    def test_starts_from_planned_initial_pose(self, seven_cell, seven_cell_reference):
        start = GeneralizedCoordinates(0.7, 0.9, 0.5, 1.0, 0.0, 0.0)
        spec = PlanSpec(t0=0.0, tf=10.0, initial=start, final=SIM_FINAL)
        traj = plan(spec, seven_cell, seven_cell_reference, sample_count=50)
        offsets = {4: np.array([0.01, -0.02])}  # no unpowered cell is actuated by cell 4
        config = SimConfig(dt=0.01, initial_offsets=offsets)
        trace = run(traj, config)
        expected = desired_positions(spec, seven_cell_reference, 0.0)
        expected[3] += offsets[4]
        np.testing.assert_array_equal(trace.actual[0], expected)
        assert trace.clearance_safe
        assert np.max(trace.errors[-1]) < 1e-3

    def test_error_keeps_structured_fields(self):
        # reach 0.55 m; two plan samples miss the joint over-extension that
        # the sigma_d sweep produces between them
        scenario = load_scenario_text(
            f"""
[graph]
layers = 1,2,3 | 4
neighbors.4 = 1,2,3
[geometry]
cell_radius = 0.05
arm_length = 0.225
[plan]
tf = 10.0
lambda1_initial = 1.0
lambda2_initial = 0.6
sigma_d_final = {math.pi!r}
blend = linear
samples = 2
"""
        )
        reference = solve_reference_positions(scenario.graph, scenario.side_length)
        traj = plan(scenario.plan_spec, scenario.graph, reference, scenario.sample_count)
        with pytest.raises(UnreachableSeparationError) as excinfo:
            run(traj, scenario.sim)
        exc = excinfo.value
        assert (exc.step, exc.joint, exc.cell) == (42, 1, 4)
        assert abs(exc.time - 0.42) < 1e-12
        assert str(exc).startswith("step 42 (t = 0.42 s): joint 1: ")

    def test_coarse_dt_rejected(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference, tf=1.0)
        with pytest.raises(InvalidArgumentError):
            run(traj, SimConfig(dt=0.15, alpha=10.0))

    def test_uneven_dt_rejected(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference)
        with pytest.raises(InvalidArgumentError):
            run(traj, SimConfig(dt=0.3, alpha=1.0))

    def test_trace_covers_horizon_uniformly(self, seven_cell, seven_cell_reference):
        traj = self.sim_trajectory(seven_cell, seven_cell_reference)
        trace = run(traj, SimConfig(dt=0.05, alpha=10.0))
        assert trace.times[0] == 0.0
        assert trace.times[-1] == 10.0
        diffs = np.diff(trace.times)
        np.testing.assert_allclose(diffs, 0.05, atol=1e-9)
        assert np.all(diffs > 0)
