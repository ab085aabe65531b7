import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import make_seven_cell, random_layered_graph, stellar_layered_graph
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_bench_contract import BENCH, _bench_module

from atugv import cli, kinematics
from atugv.affine import GeneralizedCoordinates
from atugv.cli import main
from atugv.errors import AtugvError, InfeasibleMotionError, InvalidArgumentError
from atugv.kinematics import _REACH_RTOL, elbow_angle, resolve_unpowered_position
from atugv.network import barycentric_weights, min_separation
from atugv.planner import BLEND_KINDS, PlanSpec, desired_positions, joint_separations, plan
from atugv.scenario import bundled_scenario_path, load_scenario, load_scenario_text
from atugv.simulator import MODELS, SimConfig, resolve_unpowered, run, step, step_count, track

IDENTITY = GeneralizedCoordinates.identity()
SIM_FINAL = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
TRACE_ARRAYS = (
    "times",
    "actual",
    "desired",
    "velocity_commands",
    "elbow_desired",
    "elbow_actual",
    "separations",
    "errors",
    "min_clearance",
)
EXACT_ARRAYS = ("times", "desired", "elbow_desired")
ERROR_FIELDS = ("step", "time", "cell", "joint", "index", "value", "bound")

# The four-cell reach reproduction: reach 0.55 m, and two plan samples miss
# the joint over-extension that the sigma_d sweep produces between them.
REACH_SCENARIO = f"""
[graph]
layers = 1,2,3 | 4
neighbors.4 = 1,2,3
{{powered}}
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

# The same sweep on a seven-cell vehicle: cells 5, 6 and 7 hang off cell 4.
LAYERED_REACH_SCENARIO = REACH_SCENARIO.replace(
    "layers = 1,2,3 | 4\nneighbors.4 = 1,2,3",
    "layers = 1,2,3 | 4 | 5,6,7\nneighbors.4 = 1,2,3\nneighbors.5 = 1,2,4\n"
    "neighbors.6 = 2,3,4\nneighbors.7 = 1,3,4",
)


REACH_MESSAGE = "step 43 (t = 0.43 s): joint (4, 1): separation 0.550201 m exceeds mechanism reach 0.55 m"

# seven_cell_sim with tf = 1.5: cell 6 cannot be placed at step 65.
UNPLACEABLE_MESSAGE = (
    "step 65 (t = 0.65 s): elbow angles are inconsistent: circles of radii 0.477046 and 0.471772 "
    "about neighbors 0.948888 m apart do not intersect"
)

# A four-cell vehicle held at full extension: every joint is 5.0e-13
# (relative) beyond the reach 2(L + r).
FULL_EXTENSION_SCENARIO = """
[graph]
layers = 1,2,3 | 4
neighbors.4 = 1,2,3
powered = 1,2,3,4
[geometry]
cell_radius = 0.05
arm_length = 0.23867513459466855
[plan]
tf = 1.0
[sim]
dt = 0.1
"""


def reference_run(spec, graph, config):
    """The step-by-step simulation that `run` must reproduce (see
    `assert_same_as_reference`). It takes every joint's commanded
    separation from the plan first. Then each step moves the powered cells
    to row k + 1, checks the reach of every joint's commanded separation at
    row k + 1, and only then resolves the unpowered cells layer by layer
    from the positions just reached and the angles of their actuated
    joints. An error names row k + 1. Returns the trace arrays."""
    reach = graph.reach
    n_steps = int(round((spec.tf - spec.t0) / config.dt))
    times = spec.t0 + config.dt * np.arange(n_steps + 1)
    times[-1] = spec.tf
    desired = desired_positions(spec, graph, times)
    actual = np.empty_like(desired)
    actual[0] = desired[0]
    for i, offset in (config.initial_offsets or {}).items():
        actual[0, i - 1] += np.asarray(offset, dtype=float)
    powered = np.array(sorted(graph.powered)) - 1
    velocities = np.zeros((len(powered), 2))
    separations = joint_separations(graph, desired)
    elbow_desired = np.empty_like(separations)
    for row in range(n_steps + 1):
        k = row - 1
        if row > 0:
            actual[row] = actual[k]
            v_cmd = config.alpha * (desired[k, powered] - actual[k, powered])
            if config.model == "single":
                actual[row, powered] = actual[k, powered] + config.dt * v_cmd
            else:
                actual[row, powered] = actual[k, powered] + config.dt * velocities
                velocities = velocities + config.dt * (config.k_v * (v_cmd - velocities))
        over = separations[row] > reach * (1 + _REACH_RTOL)
        if over.any():
            m = int(np.argmax(over))
            joint = graph.joints[m]
            value = float(separations[row, m])
            message = f"joint {joint}: separation {value:.6g} m exceeds mechanism reach {reach:.6g} m"
            exc = InfeasibleMotionError(message, cell=joint[0], joint=joint, index=(row, m), value=value, bound=reach)
            raise _at_step(exc, row, times)
        elbow_desired[row] = elbow_angle(separations[row], reach)
        if row == 0:
            continue
        for layer in graph.layers:
            cells = sorted(layer & graph.unpowered)
            if not cells:
                continue
            rows = np.array(cells) - 1
            j1, j2 = (np.array([graph.actuated[i] for i in cells]) - 1).T
            m1, m2 = np.array([[graph.joints.index((i, j)) for j in graph.actuated[i]] for i in cells]).T
            one_step = slice(row, row + 1)  # from the row before, as its own sequence
            actual[one_step, rows], exc = resolve_unpowered_position(
                actual[one_step, j1], actual[one_step, j2],
                elbow_desired[one_step, m1], elbow_desired[one_step, m2], reach, actual[k, rows],
            )
            if exc is not None:
                exc.cell = cells[exc.index[1]]
                exc.index = (row, exc.cell - 1)
                raise _at_step(exc, row, times)
    d_act = joint_separations(graph, actual)
    v_cmd = np.full_like(desired, np.nan)
    v_cmd[:, powered] = config.alpha * (desired[:, powered] - actual[:, powered])
    return {
        "times": times,
        "actual": actual,
        "desired": desired,
        "velocity_commands": v_cmd,
        "elbow_desired": elbow_desired,
        "elbow_actual": np.where(  # NaN where `elbow_angle` rejects the separation
            d_act > reach * (1 + _REACH_RTOL), np.nan, elbow_angle(np.minimum(d_act, reach), reach)
        ),
        "separations": d_act,
        "errors": np.linalg.norm(desired - actual, axis=-1),
        "min_clearance": np.array([min_separation(p[None])[1][0] for p in actual]),
    }


def _at_step(exc, k, times):
    t = float(times[k])
    exc.step, exc.time = k, t
    exc.args = (f"step {k} (t = {t:.6g} s): {exc}",)
    return exc


def _error_of(simulate, spec, graph, config):
    with pytest.raises(AtugvError) as excinfo:
        simulate(spec, graph, config)
    exc = excinfo.value
    return type(exc), str(exc), {name: getattr(exc, name, None) for name in ERROR_FIELDS}


def assert_same_as_reference(spec, graph, config):
    """`run` gives the reference trace, or the same error with the same
    fields. The times and everything desired are bit for bit the same; what
    follows the tracking loop, which `run` sums in another order, agrees
    within 1e-12. Every NaN is where the reference has one, and the
    tracking errors are the norms of the trace's own lags bit for bit.
    Returns the error's type, message and fields, or None."""
    try:
        expected = reference_run(spec, graph, config)
    except AtugvError:
        error = _error_of(run, spec, graph, config)
        assert error == _error_of(reference_run, spec, graph, config)
        return error
    trace = run(spec, graph, config)
    for name in TRACE_ARRAYS:
        got, want = getattr(trace, name), expected[name]
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        if name in EXACT_ARRAYS:
            assert np.array_equal(got, want, equal_nan=True), name
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
    assert np.array_equal(trace.errors, np.linalg.norm(trace.desired - trace.actual, axis=-1))


def scenario_inputs(text):
    """The spec, graph and config of a scenario whose plan passes the gate."""
    scenario = load_scenario_text(text)
    assert plan(scenario.plan_spec, scenario.graph, scenario.sample_count) is None
    return scenario.plan_spec, scenario.graph, scenario.sim


class TestStep:
    def identity_step(self, graph, positions):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        desired = desired_positions(spec, graph, [0.0, 0.1])
        config = SimConfig(dt=0.1, model="single", alpha=1.0)
        return step(positions, np.zeros_like(positions), desired[0], config)

    def test_fixed_point_identity_plan(self, four_cell, four_cell_reference):
        reference = four_cell_reference.positions
        positions, _ = self.identity_step(four_cell, reference.copy())
        np.testing.assert_allclose(positions, reference, atol=1e-12)

    def test_single_euler_arithmetic(self, four_cell, four_cell_reference):
        # offset cell 3 so its error is exactly (1, 0); one Euler step moves 0.1
        reference = four_cell_reference.positions
        start = reference.copy()
        start[2] -= np.array([1.0, 0.0])
        positions, _ = self.identity_step(four_cell, start)
        moved = positions[2] - start[2]
        np.testing.assert_allclose(moved, [0.1, 0.0], atol=1e-15)

    def test_error_names_the_failing_cell(self, seven_cell, seven_cell_reference):
        reference = seven_cell_reference.positions
        actual = np.stack([reference, reference])
        commanded = elbow_angle(joint_separations(seven_cell, actual), seven_cell.reach)
        # fold both actuated joints of cell 6, to cells 2 and 3: its circles
        # about them shrink to points that do not meet
        commanded[1, [seven_cell.joints.index((6, 2)), seven_cell.joints.index((6, 3))]] = 0.0
        (error,) = resolve_unpowered(seven_cell, actual, commanded)
        assert type(error) is InfeasibleMotionError and error.joint is None
        assert str(error).startswith("elbow angles are inconsistent: circles of radii 0 and 0 about neighbors ")
        assert (error.cell, error.index, error.step) == (6, (1, 5), None)


class TestRun:
    def sim_spec(self, graph, tf=10.0):
        spec = PlanSpec(t0=0.0, tf=tf, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, graph, sample_count=100) is None
        return spec

    def test_determinism(self, seven_cell):
        spec = self.sim_spec(seven_cell)
        config = SimConfig(dt=0.05, model="single", alpha=10.0)
        a = run(spec, seven_cell, config)
        b = run(spec, seven_cell, config)
        assert np.array_equal(a.actual, b.actual)
        assert np.array_equal(a.min_clearance, b.min_clearance)

    def test_fixed_point_trace(self, seven_cell):
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=IDENTITY)
        assert plan(spec, seven_cell, sample_count=50) is None
        trace = run(spec, seven_cell, SimConfig(dt=0.1))
        assert np.max(trace.errors) < 1e-12

    def test_error_contraction_static_target(self, four_cell):
        spec = PlanSpec(t0=0.0, tf=5.0, initial=IDENTITY, final=IDENTITY)
        assert plan(spec, four_cell, sample_count=10) is None
        config = SimConfig(
            dt=0.05,
            model="single",
            alpha=5.0,
            initial_offsets={1: np.array([0.01, 0.0])},
        )
        trace = run(spec, four_cell, config)
        ratio = abs(1.0 - 5.0 * 0.05)
        errs = trace.errors[:, 0]
        for k in range(50):
            assert abs(errs[k + 1] - ratio * errs[k]) < 1e-12 * max(errs[k], 1.0)

    def test_clearance_monitored_and_safe(self, seven_cell):
        spec = self.sim_spec(seven_cell)
        trace = run(spec, seven_cell, SimConfig(dt=0.01, alpha=10.0))
        assert np.min(trace.min_clearance) >= 2 * seven_cell.cell_radius

    def test_double_integrator_tracks(self, seven_cell):
        spec = self.sim_spec(seven_cell)
        config = SimConfig(dt=0.01, model="double", alpha=10.0, k_v=20.0)
        trace = run(spec, seven_cell, config)
        assert np.max(trace.errors[-1]) < 1e-2
        assert np.min(trace.min_clearance) >= 2 * seven_cell.cell_radius

    def test_unstable_gain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SimConfig(dt=0.25, model="single", alpha=10.0)

    def test_single_integrator_stability_boundary(self):
        SimConfig(dt=0.01, alpha=199.999)  # spectral radius 0.99999
        with pytest.raises(InvalidArgumentError, match="spectral radius 1 >= 1") as excinfo:
            SimConfig(dt=0.01, alpha=200.0)
        assert excinfo.value.field == "alpha"

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_alpha_rejected(self, alpha):
        # the one check of the gain of `run`'s velocity command alpha * (desired - actual)
        with pytest.raises(InvalidArgumentError) as excinfo:
            SimConfig(alpha=alpha)
        assert excinfo.value.field == "alpha"

    @pytest.mark.parametrize(
        "alpha, k_v",
        [(10.0, 250.0), (150.0, 20.0)],  # spectral radius 1.396 and 1.049
    )
    def test_unstable_double_integrator_gains_rejected(self, alpha, k_v):
        with pytest.raises(InvalidArgumentError, match="spectral radius") as excinfo:
            SimConfig(dt=0.01, model="double", alpha=alpha, k_v=k_v)
        assert excinfo.value.field == "k_v"

    def test_double_integrator_with_alpha_dt_of_two_rejected_at_k_v(self):
        # The one stability rule; a separate `alpha * dt < 2` rule named alpha.
        with pytest.raises(InvalidArgumentError, match="spectral radius 1.14 >= 1") as excinfo:
            SimConfig(dt=0.01, model="double", alpha=250.0)
        assert excinfo.value.field == "k_v"

    @pytest.mark.parametrize(
        "model, alpha, k_v, dt, field",
        [("single", 1e308, 20.0, 10.0, "alpha"), ("double", 1.9, 1e308, 1.0, "k_v")],
    )
    def test_overflowed_gains_rejected(self, model, alpha, k_v, dt, field):
        # The double integrator's gain product overflowed to -inf, and the
        # eigenvalue solver raised numpy's LinAlgError instead.
        with pytest.raises(InvalidArgumentError, match="spectral radius inf >= 1") as excinfo:
            SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v)
        assert excinfo.value.field == field

    def test_default_double_integrator_gains_accepted(self):
        SimConfig(model="double")  # spectral radius 0.906

    def test_starts_from_planned_initial_pose(self, seven_cell):
        start = GeneralizedCoordinates(0.7, 0.9, 0.5, 1.0, 0.0, 0.0)
        spec = PlanSpec(t0=0.0, tf=10.0, initial=start, final=SIM_FINAL)
        assert plan(spec, seven_cell, sample_count=50) is None
        offsets = {4: np.array([0.01, -0.02])}  # no unpowered cell is actuated by cell 4
        config = SimConfig(dt=0.01, initial_offsets=offsets)
        trace = run(spec, seven_cell, config)
        expected = desired_positions(spec, seven_cell, [0.0])[0]
        expected[3] += offsets[4]
        np.testing.assert_array_equal(trace.actual[0], expected)
        assert np.min(trace.min_clearance) >= 2 * seven_cell.cell_radius
        assert np.max(trace.errors[-1]) < 1e-3

    def test_error_keeps_structured_fields(self):
        inputs = scenario_inputs(REACH_SCENARIO.format(powered=""))
        with pytest.raises(InfeasibleMotionError) as excinfo:
            run(*inputs)
        exc = excinfo.value
        assert (exc.step, exc.joint, exc.cell) == (43, (4, 1), 4)
        assert abs(exc.time - 0.43) < 1e-12
        assert str(exc).startswith("step 43 (t = 0.43 s): joint (4, 1): ")
        # the separation and the reach, as numbers: 0.550201 m against 0.55 m
        assert abs(exc.value - 0.550201) < 5e-7 and exc.value > exc.bound == inputs[1].reach
        assert abs(exc.bound - 0.55) < 1e-12

    def test_unused_joint_error_names_its_step(self, tmp_path, capsys):
        # every cell powered: the over-extended joint drags no unpowered cell,
        # and the commanded angles at time index 43 are out of reach
        inputs = scenario_inputs(REACH_SCENARIO.format(powered="powered = 1,2,3,4"))
        with pytest.raises(InfeasibleMotionError) as excinfo:
            run(*inputs)
        exc = excinfo.value
        assert (exc.step, exc.index, exc.cell, exc.joint) == (43, (43, 0), 4, (4, 1))
        assert abs(exc.time - 0.43) < 1e-12
        # Read `step 43 (t = 0.43 s): separation ...`, with no joint and no cell.
        assert str(exc) == REACH_MESSAGE
        cfg = tmp_path / "reach.cfg"
        cfg.write_text(REACH_SCENARIO.format(powered="powered = 1,2,3,4"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {REACH_MESSAGE}\n"

    def test_reach_error_ignores_the_powered_set(self, tmp_path, capsys):
        # Cell 4 unpowered read `step 42 (t = 0.42 s): joint 1: ...` with
        # `joint = 1`, powered `step 43 (t = 0.43 s): joint (4, 1): ...`.
        errors = [
            _error_of(run, *scenario_inputs(REACH_SCENARIO.format(powered=powered)))
            for powered in ("", "powered = 1,2,3,4")
        ]
        assert errors[0] == errors[1]
        kind, message, fields = errors[0]
        assert kind is InfeasibleMotionError
        assert message == REACH_MESSAGE
        assert (fields["step"], fields["cell"], fields["joint"], fields["index"]) == (43, 4, (4, 1), (43, 0))
        assert abs(fields["time"] - 0.43) < 1e-12
        cfg = tmp_path / "reach.cfg"
        for powered in ("", "powered = 1,2,3,4"):
            cfg.write_text(REACH_SCENARIO.format(powered=powered))
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
            assert capsys.readouterr() == ("", f"error: {REACH_MESSAGE}\n")

    def test_realized_angles_at_full_extension(self, tmp_path):
        # Every joint is 5e-13 (relative) beyond reach, within the slack
        # `elbow_angle` gives the commanded angles: `theta_act` was empty.
        cfg = tmp_path / "full_extension.cfg"
        cfg.write_text(FULL_EXTENSION_SCENARIO)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        verdict = "trace reach verdict: OK (max separation 0.577350269 m at joint (4, 1), t = 0 s"
        verdict += " vs reach 0.577350269 m)"
        assert f"\n{verdict}\n" in report
        lines = (tmp_path / "elbows.csv").read_text().splitlines()
        assert lines[1] == "0,4,1,3.14159265,3.14159265"
        assert (tmp_path / "elbows.csv").read_bytes().split(b"\n")[1] == b"0,4,1,3.14159265,3.14159265\r"
        assert all(not line.endswith(",") for line in lines)
        assert_same_as_reference(*scenario_inputs(FULL_EXTENSION_SCENARIO))

    def test_coarse_dt_rejected(self, seven_cell):
        spec = self.sim_spec(seven_cell, tf=1.0)
        with pytest.raises(InvalidArgumentError, match=r"^dt = 0\.15 must not exceed a tenth of the horizon 1 s$"):
            run(spec, seven_cell, SimConfig(dt=0.15, alpha=10.0))

    @pytest.mark.parametrize("tf, dt", [("0.7", "0.07"), ("1.4", "0.14")])
    def test_dt_of_exactly_a_tenth_loads(self, tf, dt):
        # Failed with `dt = 0.07 must not exceed a tenth of the horizon 0.7 s`:
        # 0.7 / 10.0 rounds below 0.07.
        text = _bundled_text("seven_cell_sim").replace("tf = 10.0\n", f"tf = {tf}\n")
        text = text.replace("dt = 0.01\n", f"dt = {dt}\n")
        scenario = load_scenario_text(text, name="x.cfg")
        assert step_count(scenario.plan_spec, scenario.sim.dt) == 10

    @pytest.mark.parametrize("cell", [0, 9])
    def test_offset_of_a_cell_in_no_layer(self, cell):
        # Cell 0 shifted cell 4 (row -1 is the last row); cell 9 raised a
        # bare IndexError. The scenario loader owns the rule: it rejects the key.
        text = _bundled_text("four_cell_experiment") + f"offset.{cell} = 0.3, 0\n"
        message = rf"^<scenario>:\d+: \[sim\] offset\.{cell}: cell {cell} is in no layer$"
        with pytest.raises(InvalidArgumentError, match=message) as info:
            load_scenario_text(text)
        assert info.value.field == f"offset.{cell}"

    @pytest.mark.parametrize("offset", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
    def test_offset_of_other_than_two_finite_numbers(self, offset):
        # On four_cell_experiment, NaN failed as a separation, and inf ran and
        # wrote inf at row 0. The length bound rejects both; the loader owns
        # the rule that an offset is two numbers, of a cell in the graph.
        message = rf"^offset of cell 4 must be at most 8\.37988e\+152 in magnitude .*, got \[{offset[0]}, 0\.0\]$"
        with pytest.raises(InvalidArgumentError, match=message) as info:
            SimConfig(initial_offsets={4: offset})
        assert (info.value.field, info.value.cell) == ("initial_offsets", 4)

    def test_uneven_dt_rejected(self, seven_cell):
        spec = self.sim_spec(seven_cell)
        with pytest.raises(InvalidArgumentError):
            run(spec, seven_cell, SimConfig(dt=0.3, alpha=1.0))

    def test_trace_covers_horizon_uniformly(self, seven_cell):
        spec = self.sim_spec(seven_cell)
        trace = run(spec, seven_cell, SimConfig(dt=0.05, alpha=10.0))
        assert trace.times[0] == 0.0
        assert trace.times[-1] == 10.0
        diffs = np.diff(trace.times)
        np.testing.assert_allclose(diffs, 0.05, atol=1e-9)
        assert np.all(diffs > 0)


def _bundled_text(name):
    return Path(bundled_scenario_path(name)).read_text()


class TestMatchesStepByStep:
    """`run` resolves each layer over all steps at once; the step-by-step
    reference fixes what that must give."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("four_cell_experiment", None),
            ("seven_cell_sim", None),
            ("seven_cell_sim", ("model = single", "model = double")),
            (
                "seven_cell_sim",
                ("alpha = 10.0", "alpha = 10.0\noffset = 0.01, -0.02"),
            ),
        ],
    )
    def test_bundled_scenarios(self, name, edit):
        text = _bundled_text(name)
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        assert_same_as_reference(*scenario_inputs(text))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_layered_graphs(self, seed):
        graph, _ = random_layered_graph(np.random.default_rng(seed))
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL)
        assert plan(spec, graph, sample_count=100) is None
        assert_same_as_reference(spec, graph, SimConfig(dt=0.01))

    @pytest.mark.parametrize("n_cells", [19, 67])
    def test_near_collinear_crash(self, n_cells):
        # default powered set: an unpowered cell nearly collinear with its
        # actuated neighbors loses its circle intersection to tracking lag
        graph, _ = stellar_layered_graph(n_cells, np.random.default_rng(0))
        spec = PlanSpec(t0=0.0, tf=10.0, initial=IDENTITY, final=SIM_FINAL, blend="smootherstep")
        assert plan(spec, graph, sample_count=200) is None
        kind, message, fields = _error_of(reference_run, spec, graph, SimConfig(dt=0.01))
        # read row 28 (t = 0.28 s) and row 6: the row before the one that fails
        step, cell = {19: (29, 13), 67: (7, 54)}[n_cells]
        assert (kind, fields["step"], fields["cell"], fields["joint"]) == (InfeasibleMotionError, step, cell, None)
        assert message.startswith(f"step {step} (t = {step / 100:.6g} s): elbow angles are inconsistent")
        assert_same_as_reference(spec, graph, SimConfig(dt=0.01))

    def test_later_layer_failing_first_wins(self, tmp_path, capsys):
        # cell 4 (layer 1) is asked past its reach at row 43; the offset of
        # powered cell 3 pulls the neighbors of cell 6 (layer 2) apart at row 1
        text = LAYERED_REACH_SCENARIO.format(powered="powered = 1,2,3,5,7")
        spec, graph, config = scenario_inputs(text + "[sim]\noffset.3 = 0.3, 0.3\n")
        kind, _, fields = _error_of(run, spec, graph, config)
        assert (kind, fields["step"], fields["cell"], fields["joint"]) == (InfeasibleMotionError, 1, 6, None)
        unperturbed = SimConfig(dt=config.dt)
        later = _error_of(run, spec, graph, unperturbed)[2]  # layer 1 alone fails later
        assert (later["step"], later["cell"], later["joint"]) == (43, 4, (4, 1))
        assert_same_as_reference(spec, graph, config)
        cfg = tmp_path / "layered.cfg"
        for offset, message in [
            ("", REACH_MESSAGE),
            (
                "[sim]\noffset.3 = 0.3, 0.3\n",
                "step 1 (t = 0.01 s): elbow angles are inconsistent: circles of radii 0.404881 and 0.332851 "
                "about neighbors 0.822431 m apart do not intersect",
            ),
        ]:
            cfg.write_text(text + offset)
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_undragged_joint_beats_a_later_failed_resolve(self):
        # Joint (4, 1) drags no cell, since cell 4 is powered; lagging at
        # alpha = 5, the neighbors of cell 5 move apart later. This read
        # `step 77 (t = 0.77 s): elbow angles are inconsistent: ...`: the
        # joint was checked only after the whole resolve.
        spec, graph, config = scenario_inputs(
            LAYERED_REACH_SCENARIO.format(powered="powered = 1,2,3,4,6,7") + "[sim]\nalpha = 5\n"
        )
        kind, message, fields = _error_of(run, spec, graph, config)
        assert kind is InfeasibleMotionError
        assert message.startswith("step 43 (t = 0.43 s): joint (4, 1): ")
        assert (fields["step"], fields["cell"], fields["joint"]) == (43, 4, (4, 1))
        assert_same_as_reference(spec, graph, config)

    def test_reach_errors(self):
        for powered in ("", "powered = 1,2,3,4"):
            assert_same_as_reference(*scenario_inputs(REACH_SCENARIO.format(powered=powered)))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_default_powered_synthetic_graphs(self, seed, monkeypatch):
        # 250 cells, every last-layer cell unpowered: read `step 0 (t = 0 s)`,
        # the row before the first that cannot be placed. Each graph fails at
        # step 1 (seed 9 at step 2) placing a cell, so the error names no joint.
        monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
        text = _bench_module("workloads").synthetic_scenario(np.random.default_rng([seed, 0]))
        text = "\n".join(line for line in text.splitlines() if not line.startswith("powered ="))
        spec, graph, config = scenario_inputs(text)
        assert graph.unpowered
        kind, message, fields = _error_of(run, spec, graph, config)
        step = 2 if seed == 9 else 1
        assert kind is InfeasibleMotionError and message.startswith(
            f"step {step} (t = {step * config.dt:.6g} s): elbow angles are inconsistent: "
        )
        assert (fields["step"], fields["joint"]) == (step, None)
        assert_same_as_reference(spec, graph, config)


class TestOneSearch:
    """`run` finds the first row the model cannot define in one pass. Over
    random stellar vehicles, powered sets, arm lengths, plans, gains,
    models and offsets, it gives the reference's trace or error. Each plan
    is built directly, so no plan gate filters the cases, and the sweep
    reaches every outcome."""

    OUTCOMES = {"success", "reach at row 0", "reach later", "resolve at row 1", "resolve later"}

    @staticmethod
    def random_case(rng):
        graph, _ = stellar_layered_graph(int(rng.integers(5, 41)), rng)
        interior = np.array(sorted(set(graph.cells) - graph.layers[0]))
        powered = graph.layers[0] | set(interior[rng.random(len(interior)) < rng.random()].tolist())
        graph = dataclasses.replace(
            graph, powered=frozenset(powered), arm_length=graph.arm_length * rng.uniform(0.6, 1.5)
        )

        def coordinates():
            lambdas = rng.uniform(0.5, 1.0, 2)
            return GeneralizedCoordinates(*lambdas, *rng.uniform(-1.0, 1.0, 2), *rng.uniform(-0.5, 0.5, 2))

        n_steps, dt = int(rng.integers(10, 80)), 0.01
        blend = str(rng.choice(["linear", "smoothstep", "smootherstep"]))
        spec = PlanSpec(t0=0.0, tf=n_steps * dt, initial=coordinates(), final=coordinates(), blend=blend)
        n_offsets = int(rng.integers(0, 4))
        offsets = {
            int(i): rng.normal(0.0, 0.3 * graph.reference.d_min, 2)
            for i in rng.choice(graph.cells, n_offsets, replace=False)
        }
        while True:
            try:
                config = SimConfig(
                    dt=dt, model=str(rng.choice(MODELS)), alpha=rng.uniform(1.0, 150.0),
                    k_v=rng.uniform(5.0, 250.0), initial_offsets=offsets or None,
                )
            except InvalidArgumentError:  # an unstable loop: draw the gains again
                continue
            return spec, graph, config

    def test_random_inputs_match_the_reference(self):
        rng = np.random.default_rng(15)
        seen = set()
        for _ in range(100):
            error = assert_same_as_reference(*self.random_case(rng))
            if error is None:
                seen.add("success")
                continue
            kind, _, fields = error
            assert kind is InfeasibleMotionError
            name, first = ("resolve", 1) if fields["joint"] is None else ("reach", 0)
            seen.add(f"{name} at row {first}" if fields["step"] == first else f"{name} later")
        assert seen == self.OUTCOMES


    def test_a_failing_run_resolves_each_layer_once(self, monkeypatch):
        # The search by exceptions resolved the layer over every row, then
        # again over the rows before the failing one: two calls here.
        resolve, calls = kinematics.resolve_unpowered_position, []

        def counted(*args, **kwargs):
            calls.append(args)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(kinematics, "resolve_unpowered_position", counted)
        spec, graph, config = scenario_inputs(_bundled_text("seven_cell_sim").replace("tf = 10.0\n", "tf = 1.5\n"))
        kind, message, fields = _error_of(run, spec, graph, config)
        assert kind is InfeasibleMotionError and message == UNPLACEABLE_MESSAGE
        assert (fields["step"], fields["cell"], fields["index"]) == (65, 6, (65, 5))
        assert len(calls) == sum(1 for layer in graph.layers if layer & graph.unpowered) == 1


class TestRowZeroCannotFail:
    """Row 0 of a trace is the pose the gate samples at t0, plus the
    offsets, and placement starts at row 1. So a plan that passes the gate
    runs through or fails at step 1 or later, and a failing trace always
    has a row before the failure: over both bundled graphs, random
    endpoints, blends, arm lengths, sample counts, gains and offsets. Every
    error's `index` starts with its row: the sample of a plan verdict's
    `time`, the `step` of a run error."""

    graphs = [load_scenario(name).graph for name in ("four_cell_experiment", "seven_cell_sim")]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), model=st.sampled_from(MODELS), blend=st.sampled_from(BLEND_KINDS))
    def test_a_gated_plan_fails_no_earlier_than_step_1(self, data, model, blend):
        graph = data.draw(st.sampled_from(self.graphs))
        graph = dataclasses.replace(graph, arm_length=data.draw(st.floats(0.17, 0.3)))

        def pose():
            lambdas, angles, shift = st.floats(0.35, 1.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)
            return GeneralizedCoordinates(*data.draw(st.tuples(lambdas, lambdas, angles, angles, shift, shift)))

        dt, alpha, k_v = data.draw(sim_settings(model))
        spec = PlanSpec(t0=0.0, tf=data.draw(st.integers(10, 200)) * dt, initial=pose(), final=pose(), blend=blend)
        count = data.draw(st.integers(2, 400))
        verdict = plan(spec, graph, count)
        if verdict is not None:  # located by its sample: the row of its time leads its index
            assert type(verdict.index) is tuple
            assert verdict.time == np.linspace(spec.t0, spec.tf, count)[verdict.index[0]]
        assume(verdict is None)
        offset = st.tuples(*[st.floats(-0.05, 0.05)] * 2).map(np.array)
        offsets = data.draw(st.dictionaries(st.sampled_from(graph.cells), offset, max_size=3))
        config = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v, initial_offsets=offsets or None)
        try:
            run(spec, graph, config)
        except InfeasibleMotionError as error:
            assert error.step >= 1 and error.step == error.index[0]


def _scaled(text, factor):
    """The scenario with every length of the vehicle, of its plan and of its
    terminal-error threshold multiplied by `factor`."""
    for key in ("cell_radius", "arm_length", "side_length", "d1_final", "d2_final", "terminal_error_threshold"):
        text, count = re.subn(rf"^{key} = (.*)$", lambda m: f"{key} = {float(m[1]) * factor!r}", text, flags=re.M)
        assert count == 1, key
    return text


class TestUnitsOfLength:
    """The paper's safety claim is one of shape, so no verdict may depend on
    the unit of length. Scaled by a power of two, which rounds nothing, a
    vehicle's trace scales every length exactly and keeps every time, angle
    and closest pair bit for bit."""

    LENGTHS = ("actual", "desired", "velocity_commands", "errors", "separations", "min_clearance")
    SHAPES = ("times", "elbow_desired", "elbow_actual", "closest_pairs")

    @pytest.mark.parametrize("k", [-20, -10, 10, 20])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", ["four_cell_experiment", "seven_cell_sim"])
    def test_traces_scale_exactly(self, name, model, k):
        text = _bundled_text(name).replace("model = single", f"model = {model}")
        unit, scaled = (run(*scenario_inputs(t)) for t in (text, _scaled(text, 2.0**k)))
        for array in self.LENGTHS:
            assert np.array_equal(getattr(scaled, array), 2.0**k * getattr(unit, array), equal_nan=True), array
        for array in self.SHAPES:
            assert np.array_equal(getattr(scaled, array), getattr(unit, array), equal_nan=True), array

    @pytest.mark.parametrize("k", [-20, -10, 10, 20])
    def test_unplaceable_cell_fails_at_the_same_step(self, k):
        # An absolute slack of 1e-9 m^2 on the circles' squared discriminant
        # let this vehicle at 2^-10 fail at step 77, and at 2^-14 or 2^-20 run
        # to the end with every trace verdict but the terminal error passing.
        text = _bundled_text("seven_cell_sim").replace("tf = 10.0\n", "tf = 1.5\n")
        unit, scaled = (_error_of(run, *scenario_inputs(t)) for t in (text, _scaled(text, 2.0**k)))
        assert unit[1] == UNPLACEABLE_MESSAGE
        assert scaled[0] is unit[0] is InfeasibleMotionError
        assert scaled[2] == unit[2]  # step, time, cell and index
        lengths = re.compile(r"step 65 \(t = 0\.65 s\): elbow angles are inconsistent: circles of radii (\S+) and "
                             r"(\S+) about neighbors (\S+) m apart do not intersect")
        unit_lengths, scaled_lengths = (np.array(lengths.fullmatch(e[1]).groups(), float) for e in (unit, scaled))
        np.testing.assert_allclose(scaled_lengths, 2.0**k * unit_lengths, rtol=1e-5)

    @pytest.mark.parametrize("k", [0, -14])
    def test_unplaceable_cell_ends_run_with_one_error_line(self, k, tmp_path, capsys):
        # Through `main`: the plan passes, and `run` ends in one error line at
        # step 65 at any scale, with no verdict and no report.
        text = _bundled_text("seven_cell_sim").replace("tf = 10.0\n", "tf = 1.5\n")
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_scaled(text, 2.0**k) if k else text)
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: step 65 (t = 0.65 s): elbow angles are inconsistent: ")
        if k == 0:
            assert err == f"error: {UNPLACEABLE_MESSAGE}\n"
        assert not (tmp_path / "out" / "report.txt").exists()


def _rescaled_time(text, factor):
    """The scenario with its times multiplied by `factor` and its gains,
    which are in 1/s, divided by it; `k_v` is written out at its default."""
    text = text.replace("\nalpha = 10.0\n", f"\nalpha = 10.0\nk_v = {SimConfig.k_v!r}\n")
    for key, power in (("t0", 1), ("tf", 1), ("dt", 1), ("alpha", -1), ("k_v", -1)):
        scale = factor**power
        text, count = re.subn(rf"^{key} = (.*)$", lambda m: f"{key} = {float(m[1]) * scale!r}", text, flags=re.M)
        assert count == 1, key
    return text


def _seven_cell_with(tf, dt):
    """seven_cell_sim over the horizon [0, tf] at the timestep dt."""
    return _bundled_text("seven_cell_sim").replace("tf = 10.0\n", f"tf = {tf}\n").replace("dt = 0.01\n", f"dt = {dt}\n")


class TestUnitsOfTime:
    """No verdict may depend on the unit of time either. With every time
    scaled by a power of two and every gain by its inverse, alpha * dt and
    the Euler matrix's spectrum are unchanged: positions and angles keep
    every bit, times and velocity commands scale exactly."""

    POSITIONS = ("actual", "desired", "errors", "separations", "min_clearance")
    SHAPES = ("elbow_desired", "elbow_actual", "closest_pairs")

    @pytest.mark.parametrize("k", [10, 30, 60])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", ["four_cell_experiment", "seven_cell_sim"])
    def test_traces_scale_exactly(self, name, model, k):
        text = _bundled_text(name).replace("model = single", f"model = {model}")
        unit, scaled = (load_scenario_text(t) for t in (text, _rescaled_time(text, 2.0**-k)))
        assert cli._validate_verdicts(scaled) == cli._validate_verdicts(unit)
        traces = [run(s.plan_spec, s.graph, s.sim) for s in (unit, scaled)]
        for array in self.POSITIONS + self.SHAPES:
            assert np.array_equal(getattr(traces[1], array), getattr(traces[0], array), equal_nan=True), array
        assert np.array_equal(traces[1].times, 2.0**-k * traces[0].times)
        assert np.array_equal(traces[1].velocity_commands, 2.0**k * traces[0].velocity_commands, equal_nan=True)
        passed = [
            [ok for ok, _ in cli._trace_verdicts(t, s.graph, s.terminal_error_threshold)]
            for t, s in zip(traces, (unit, scaled))
        ]
        assert passed[1] == passed[0]

    @pytest.mark.parametrize("k", [0, 20, 40])
    @pytest.mark.parametrize("dt, rule", [(0.03, "must evenly divide"), (0.104, "must not exceed a tenth of")])
    def test_dt_rule_holds_in_any_unit(self, dt, rule, k):
        # Both loaded at 2^-40 s, and at tf = 1e-8, dt = 3e-10: dt was held
        # to the horizon within an absolute 1e-9 s.
        with pytest.raises(InvalidArgumentError) as error:
            load_scenario_text(_rescaled_time(_seven_cell_with(1.0, dt), 2.0**-k), name="x.cfg")
        tf, dt = 2.0**-k, dt * 2.0**-k
        assert str(error.value) == f"x.cfg:30: [sim] dt: dt = {dt!r} {rule} the horizon {tf:.6g} s"

    @pytest.mark.parametrize("k", [-40, 0, 40])
    @pytest.mark.parametrize("tf, dt", [("0.7", "0.07"), ("0.5", "0.05"), ("10.0", "0.01")])
    def test_dividing_dt_loads_in_any_unit(self, tf, dt, k):
        # At 2^40 s, 10 * dt exceeded 0.7 s * 2^40 by one rounding, 1.2e-4 s.
        scenario = load_scenario_text(_rescaled_time(_seven_cell_with(tf, dt), 2.0**k))
        assert step_count(scenario.plan_spec, scenario.sim.dt) == round(float(tf) / float(dt))


class TestAllPoweredIsBarycentric:
    """Every desired position is the image of fixed convex weights on the
    boundary cells, and the tracking loop is linear: an all-powered vehicle
    started with one offset for every cell keeps actual = W @ boundary."""

    @staticmethod
    def assert_barycentric(text):
        spec, graph, config = scenario_inputs(text)
        assert graph.unpowered == frozenset()
        actual = run(spec, graph, config).actual
        boundary = actual[:, np.array(sorted(graph.layers[0])) - 1]
        assert np.max(np.abs(actual - barycentric_weights(graph) @ boundary)) <= 1e-12

    @pytest.mark.parametrize("offset", [None, "0.01, -0.02"])
    @pytest.mark.parametrize("model", ["single", "double"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_graphs(self, seed, model, offset, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
        text = _bench_module("workloads").synthetic_scenario(np.random.default_rng([seed, 0]))
        text = text.replace("model = single", f"model = {model}")
        self.assert_barycentric(text + (f"offset = {offset}\n" if offset else ""))

    def test_seven_cell_sim(self):
        text = _bundled_text("seven_cell_sim").replace("[graph]\n", "[graph]\npowered = 1,2,3,4,5,6,7\n")
        assert "\ndt = 0.01\n" in text and "\ntf = 10.0\n" in text  # 1001 steps
        self.assert_barycentric(text)


@st.composite
def sim_settings(draw, model):
    """(dt, alpha, k_v) that `SimConfig` accepts, with alpha at most
    200 /s and the loop's spectral radius at most 0.99 (k_v * dt in
    [0.05, 3] covers the double integrator's part of that). dt is a
    multiple of 2^-20, so that n * dt is exact: a horizon of n steps."""
    dt = draw(st.integers(2**10, 2**20)) / 2**20
    alpha = draw(st.floats(0.01 / dt, min(200.0, (1.99 if model == "single" else 0.99) / dt)))
    k_v = draw(st.floats(0.05 / dt, 3.0 / dt))
    try:
        config = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v)
    except InvalidArgumentError:
        assume(False)
    if model == "double":  # the single integrator's radius is |1 - alpha * dt|
        assume(max(abs(np.linalg.eigvals(config.euler_matrix()))) <= 0.99)
    return dt, alpha, k_v


class TestTrackingScan:
    """`run` tracks the powered cells in one prefix scan over the whole
    horizon; on an all-powered vehicle, started with a random offset per
    cell, it stays within 1e-12 of the step-by-step reference on horizons
    that are not powers of two, up to the edges alpha * dt = 1.99 and a
    double-integrator spectral radius of 0.99.

    Beyond those bounds the reference's own rounding is amplified by
    1 / (1 - spectral radius), and a velocity command is alpha times a
    position difference: over random settings up to radius 0.999998 and
    alpha = 2 / dt, the positions agreed within 3e-14, the commands only
    within 2.1e-12.
    """

    graph = dataclasses.replace(make_seven_cell(), powered=frozenset(range(1, 8)))
    final = GeneralizedCoordinates(0.95, 0.9, 0.2, 0.1, 0.1, 0.05)
    offsets = st.lists(st.tuples(*[st.floats(-0.01, 0.01)] * 2), min_size=7, max_size=7)

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), n_steps=st.sampled_from([10, 1000, 2000]), offsets=offsets)
    def test_matches_step_by_step(self, model, data, n_steps, offsets):
        dt, alpha, k_v = data.draw(sim_settings(model))
        self.assert_matches(model, dt, alpha, k_v, n_steps, offsets)

    @pytest.mark.parametrize(
        "model, alpha, k_v",
        [("single", 199.0, 20.0), ("double", 1.0, 190.0)],  # alpha * dt = 1.99; spectral radius 0.98996
    )
    def test_stability_edges(self, model, alpha, k_v):
        self.assert_matches(model, 0.01, alpha, k_v, 2000, [(0.01, -0.01)] * 7)

    def assert_matches(self, model, dt, alpha, k_v, n_steps, offsets):
        spec = PlanSpec(t0=0.0, tf=n_steps * dt, initial=IDENTITY, final=self.final)
        assert plan(spec, self.graph, sample_count=20) is None
        initial = {i: np.array(offset) for i, offset in enumerate(offsets, start=1)}
        config = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v, initial_offsets=initial)
        assert_same_as_reference(spec, self.graph, config)


class TestOneTrackingLaw:
    """`step` and `track` read the one matrix `SimConfig.euler_matrix`, and
    the one stability rule is its spectral radius."""

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), cells=st.integers(1, 8))
    def test_step_from_rest_is_the_first_row_of_track(self, model, data, cells):
        dt, alpha, k_v = data.draw(sim_settings(model))
        config = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v)
        coordinates = st.floats(-10.0, 10.0)
        start, targets = (
            np.array(data.draw(st.lists(coordinates, min_size=size, max_size=size))).reshape(shape)
            for size, shape in ((2 * cells, (cells, 2)), (4 * cells, (2, cells, 2)))
        )
        positions, velocities = step(start, np.zeros_like(start), targets[0], config)
        np.testing.assert_allclose(positions, track(start, targets, config)[1], rtol=0, atol=1e-12)
        if model == "single":
            assert not velocities.any()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_single_integrator_spectral_radius(self, data):
        dt, alpha, k_v = data.draw(sim_settings("single"))
        matrix = SimConfig(dt=dt, alpha=alpha, k_v=k_v).euler_matrix()
        assert matrix.tolist() == [[1.0 - alpha * dt, 0.0], [0.0, 0.0]]
        assert max(abs(np.linalg.eigvals(matrix))) == abs(1.0 - alpha * dt)
