import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atugv import ScenarioError, bundled_scenario_path, load_scenario, load_scenario_text
from atugv.cli import main

SEVEN = """
[graph]
layers = 1,2,3 | 4 | 5,6,7
neighbors.4 = 1,2,3
neighbors.5 = 1,2,4
neighbors.6 = 2,3,4
neighbors.7 = 1,3,4

[geometry]
cell_radius = 0.05
arm_length = 0.25
side_length = 1.0

[plan]
tf = 10.0
lambda1_final = 0.9
lambda2_final = 0.8
d1_final = 1.0
d2_final = 1.0
sigma_r_final = 0.707
sigma_d_final = 0.3

[sim]
model = single
dt = 0.01
alpha = 10.0
"""


class TestLoadScenario:
    def test_bundled_seven_cell(self):
        scenario = load_scenario("seven_cell_sim")
        assert len(scenario.graph.cells) == 7
        assert len(scenario.graph.layers) == 3
        final = scenario.plan_spec.final
        assert (final.lambda1, final.lambda2) == (0.9, 0.8)
        assert (final.sigma_r, final.sigma_d) == (0.707, 0.3)
        assert (final.d1, final.d2) == (1.0, 1.0)
        assert scenario.plan_spec.tf == 10.0

    def test_bundled_four_cell(self):
        scenario = load_scenario("four_cell_experiment")
        final = scenario.plan_spec.final
        assert (final.sigma_r, final.sigma_d) == (0.2, 0.15)
        assert scenario.plan_spec.tf == 20.0

    def test_unknown_key_rejected_in_strict_mode(self):
        text = SEVEN + "\nwarp_speed = 9\n"
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario_text(text)

    def test_four_neighbor_cell_rejected(self):
        from atugv import DegreeViolationError

        text = SEVEN.replace("neighbors.5 = 1,2,4", "neighbors.5 = 1,2,3,4")
        with pytest.raises(ScenarioError, match=r"^<scenario>:\d+: \[graph\] neighbors\.5: ") as excinfo:
            load_scenario_text(text)
        assert isinstance(excinfo.value.__cause__, DegreeViolationError)

    def test_reversed_horizon_rejected(self):
        text = SEVEN.replace("tf = 10.0", "tf = -1.0")
        with pytest.raises(ScenarioError, match="tf"):
            load_scenario_text(text)

    def test_bad_number_reports_line(self):
        text = SEVEN.replace("alpha = 10.0", "alpha = fast")
        with pytest.raises(ScenarioError, match=r":\d+.*alpha"):
            load_scenario_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.cfg")

    def test_readme_grammar_block_is_a_complete_scenario(self):
        # Could not load: two neighbour lines were missing, and its `offset`
        # sat under `initial_mode = reference`.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Scenario file grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        scenario = load_scenario_text(block, name="README.md")
        assert scenario.graph.cells == (1, 2, 3, 4, 5, 6, 7)
        assert scenario.graph.powered == {1, 2, 3, 4}
        assert scenario.sample_count == 200 and scenario.terminal_error_threshold == 1e-3
        offsets = scenario.sim.initial_offsets
        assert sorted(offsets) == [1, 2, 3, 4, 5, 6, 7]
        assert offsets[1].tolist() == [0.01, -0.02] and offsets[6].tolist() == [0.0, 0.01]

    def test_offset_alone_perturbs_the_start(self):
        # An offset needed `initial_mode = perturbed` and was rejected without it.
        from atugv import desired_positions, plan, run

        scenario = load_scenario_text(_with_key(SEVEN, "sim", "offset", "0.01, -0.02") + "offset.6 = 0.3, 0.3\n")
        trace = run(plan(scenario.plan_spec, scenario.graph), scenario.sim)
        offsets = np.array([[0.01, -0.02]] * 5 + [[0.3, 0.3], [0.01, -0.02]])
        desired = desired_positions(scenario.plan_spec, scenario.graph, scenario.plan_spec.t0)
        np.testing.assert_array_equal(trace.actual[0], desired + offsets)
        assert load_scenario_text(SEVEN).sim.initial_offsets is None


class TestCli:
    def test_run_seven_cell(self, tmp_path, capsys):
        code = main(["run", "seven_cell_sim", "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_min: 0.519615242" in out
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "elbows.csv").exists()
        assert (tmp_path / "report.txt").exists()

    def test_trajectory_csv_round_trip(self, tmp_path):
        from atugv import SimConfig, plan, run

        scenario = load_scenario("seven_cell_sim")
        assert main(["run", "seven_cell_sim", "--output-dir", str(tmp_path)]) == 0
        traj = plan(scenario.plan_spec, scenario.graph, scenario.sample_count)
        trace = run(traj, scenario.sim)
        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        n = len(trace.times)
        assert len(rows) == n * len(trace.cells)
        rng = np.random.default_rng(0)
        for idx in rng.choice(len(rows), size=200, replace=False):
            row = rows[int(idx)]
            k = int(idx) // len(trace.cells)
            i = int(row["cell_id"])
            assert math.isclose(float(row["t"]), trace.times[k], abs_tol=1e-8)
            assert math.isclose(
                float(row["x_act"]), trace.actual[k, i - 1, 0], rel_tol=1e-8, abs_tol=1e-8
            )
            assert math.isclose(
                float(row["err_norm"]), trace.errors[k, i - 1], rel_tol=1e-8, abs_tol=1e-8
            )
            if i in scenario.graph.powered:
                assert math.isclose(
                    float(row["vx_cmd"]),
                    trace.velocity_commands[k, i - 1, 0],
                    rel_tol=1e-8,
                    abs_tol=1e-8,
                )
            else:
                assert row["vx_cmd"] == ""

    def test_elbow_csv_round_trip(self, tmp_path):
        assert main(["run", "four_cell_experiment", "--output-dir", str(tmp_path)]) == 0
        with (tmp_path / "elbows.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["cell_i"] == "4"
        for row in rows[:50]:
            assert 0.0 <= float(row["theta_des"]) <= math.pi
            if row["theta_act"]:
                assert 0.0 <= float(row["theta_act"]) <= math.pi

    def test_unsafe_scenario_reports_violation(self, tmp_path, capsys):
        cfg = tmp_path / "unsafe.cfg"
        cfg.write_text(SEVEN.replace("lambda2_final = 0.8", "lambda2_final = 0.4"))
        code = main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code != 0
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "principal-strain bound" in out

    def test_validate_writes_no_csvs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["validate", "seven_cell_sim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAFE" in out
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "report.txt").exists()

    def test_reference_subcommand(self, capsys):
        code = main(["reference", "seven_cell_sim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d_min: 0.19245009" in out
        assert "cell 7" in out

    def test_output_dir_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ATUGV_OUTPUT_DIR", str(tmp_path / "envout"))  # no longer read
        assert main(["run", "four_cell_experiment"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["elbows.csv", "report.txt", "trajectory.csv"]

    @pytest.mark.parametrize(
        "name, clearance, reach",
        [
            (
                "four_cell_experiment",
                "0.46324987 m between cells 3 and 4 at t = 20 s",
                "0.577351248 m at joint (4, 3), t = 0.32 s",
            ),
            (
                "seven_cell_sim",
                "0.155756216 m between cells 4 and 5 at t = 10 s",
                "0.577350269 m at joint (4, 1), t = 0 s",
            ),
        ],
    )
    def test_trace_verdicts_name_where_the_margin_is_smallest(self, name, clearance, reach, tmp_path):
        # The clearance verdict named no pair or time, and no verdict judged
        # the realized joint separations.
        assert main(["run", name, "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert f"trace clearance verdict: SAFE (min clearance {clearance} vs required 0.1 m)" in lines
        assert f"trace reach verdict: OK (max separation {reach} vs reach 0.6 m)" in lines

    def test_realized_joint_beyond_reach_fails_its_verdict(self, tmp_path, capsys):
        # Exited 0 with every verdict SAFE/OK, though joint (4, 1) started at
        # 0.6458 m against a 0.6 m reach and stayed beyond it for rows 0-9:
        # only `theta_act` went blank.
        cfg = tmp_path / "offset.cfg"
        cfg.write_text(bundled_scenario_path("seven_cell_sim").read_text() + "offset.4 = 0.0, 0.12\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
        verdicts = [line for line in capsys.readouterr().out.splitlines() if "verdict" in line]
        failed = [line for line in verdicts if not line.split("verdict: ")[1].startswith(("SAFE ", "OK "))]
        assert failed == [
            "trace reach verdict: UNREACHABLE (max separation 0.645767269 m at joint (4, 1), t = 0 s vs reach 0.6 m)"
        ]
        assert len(verdicts) == 5
        assert (tmp_path / "out" / "elbows.csv").exists()

    def test_exit_zero_implies_all_safe_verdicts(self, tmp_path):
        assert main(["run", "seven_cell_sim", "--output-dir", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        for line in report.splitlines():
            if "verdict" in line:
                assert "UNSAFE" not in line and "EXCEEDED" not in line

    def test_non_identity_initial_pose_runs(self, tmp_path):
        cfg = tmp_path / "posed.cfg"
        cfg.write_text(
            SEVEN.replace(
                "[plan]\n",
                "[plan]\nlambda1_initial = 0.7\nlambda2_initial = 0.9\n"
                "sigma_d_initial = 1.0\nsigma_r_initial = 0.5\n",
            )
        )
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        verdicts = [line for line in report.splitlines() if "verdict" in line]
        assert len(verdicts) == 5
        assert all("SAFE" in line or "OK" in line for line in verdicts)

    def test_boundary_only_vehicle(self, tmp_path, capsys):
        # `validate` and `run` died in `joint_separations` with `ValueError:
        # not enough values to unpack`: a vehicle of three cells has no joints.
        cfg = tmp_path / "boundary.cfg"
        cfg.write_text(
            "[graph]\nlayers = 1,2,3\n[geometry]\ncell_radius = 0.05\narm_length = 0.25\n"
            "[plan]\ntf = 10\nlambda1_final = 0.9\n[sim]\ndt = 0.01\n"
        )
        assert main(["validate", str(cfg)]) == 0
        verdicts = [line for line in capsys.readouterr().out.splitlines() if "verdict" in line]
        assert verdicts == [
            "strain-bound verdict: SAFE (all samples)",
            "mechanism-reach verdict: OK (all joints, all samples)",
        ]
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        verdicts = [line for line in report.splitlines() if "verdict" in line]
        assert len(verdicts) == 5
        assert all(line.split("verdict: ")[1].startswith(("SAFE ", "OK ")) for line in verdicts)
        assert "trace reach verdict: OK (no joints)" in verdicts
        assert (tmp_path / "out" / "elbows.csv").read_bytes() == b"t,cell_i,cell_j,theta_des,theta_act\r\n"
        assert main(["reference", str(cfg)]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[graph\nlayers = 1,2,3")
        assert main(["validate", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err


def _with_key(text, section, key, value):
    """Scenario text with `key = value` in [section], replacing any old value."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


class TestRejectedInput:
    """Bad input ends at load time with exit 2 and a named error, never in a
    traceback from the simulator or in a verdict."""

    def test_boundary_cell_left_out_of_powered(self, tmp_path, capsys):
        # Passed `validate`, then `run` died with `KeyError: 1` in the simulator.
        from atugv import CellGraph, InvalidArgumentError, bundled_scenario_path

        text = bundled_scenario_path("four_cell_experiment").read_text()
        cfg = tmp_path / "idle_boundary.cfg"
        cfg.write_text(_with_key(text, "graph", "powered", "2,3,4"))
        assert main(["validate", str(cfg)]) == 2
        assert "boundary cell 1 must be powered" in capsys.readouterr().err
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "boundary cell 1 must be powered" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        graph = load_scenario("four_cell_experiment").graph
        with pytest.raises(InvalidArgumentError, match="boundary cell 3"):
            CellGraph(graph.layers, graph.neighbors, 0.05, 0.25, powered={1, 2, 4})

    def test_single_layer_graph_powers_its_boundary_by_default(self):
        from atugv import CellGraph

        assert CellGraph((frozenset({1, 2, 3}),), {}, 0.05, 0.25).powered == {1, 2, 3}

    @pytest.mark.parametrize(
        "section, key",
        [("sim", "dt"), ("geometry", "cell_radius"), ("sim", "alpha"), ("sim", "terminal_error_threshold")],
    )
    def test_nan_in_scenario_file(self, section, key, tmp_path, capsys):
        # dt: ValueError traceback in the simulator; cell_radius: an array of
        # NaNs; alpha: an unrelated separation error; threshold: EXCEEDED, exit 1.
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(_with_key(SEVEN, section, key, "nan"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "nan.cfg:" in err and f"[{section}] {key}: expected a finite number, got 'nan'" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "-nan"])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ScenarioError, match=r":\d+: \[plan\] tf: expected a finite number"):
            load_scenario_text(_with_key(SEVEN, "plan", "tf", value))
        with pytest.raises(ScenarioError, match=r"\[sim\] offset: expected two finite numbers"):
            load_scenario_text(_with_key(SEVEN, "sim", "offset", f"0.01, {value}"))

    def test_range_checks_reject_nan(self):
        from atugv import CellGraph, InvalidArgumentError, SimConfig

        for field in ("dt", "alpha", "k_v"):
            with pytest.raises(InvalidArgumentError, match=field):
                SimConfig(**{field: math.nan})
        with pytest.raises(InvalidArgumentError, match="alpha"):
            SimConfig(alpha=math.inf)
        for field in ("cell_radius", "arm_length"):
            geometry = {"cell_radius": 0.05, "arm_length": 0.25, field: math.nan}
            with pytest.raises(InvalidArgumentError, match=field):
                CellGraph((frozenset({1, 2, 3}),), {}, **geometry)

    def test_unknown_key_exits_2_and_no_flag_allows_it(self, tmp_path, capsys):
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text + "warp_speed = 9\n")
        assert main(["validate", str(cfg)]) == 2
        assert f"{cfg}:34: [sim] warp_speed: unknown key" in capsys.readouterr().err
        for flag in ("--lenient", "--strict"):
            with pytest.raises(SystemExit) as exit_info:
                main(["validate", str(cfg), flag])
            assert exit_info.value.code == 2

    def test_nan_dt_flag(self, tmp_path, capsys):
        # `--dt nan` ended in a ValueError traceback at the simulator. The
        # scenario file is now the one source of dt, so the flag is refused
        # at argument parsing and no run starts.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "seven_cell_sim", "--dt", "nan", "--output-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dt nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_terminal_error_threshold(self, value, tmp_path, capsys):
        # -1: `validate` exited 0 and `run` reported EXCEEDED, exit 1; 0: `validate` exited 0.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_with_key(text, "sim", "terminal_error_threshold", value))
        expected = f"[sim] terminal_error_threshold: threshold = {float(value)} must be positive"
        assert main(["validate", str(cfg)]) == 2
        assert expected in capsys.readouterr().err
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert expected in capsys.readouterr().err

    def test_neighbors_of_a_cell_in_no_layer(self, tmp_path, capsys):
        # Was ignored: `validate` exited 0.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text.replace("neighbors.7 = 1,3,4\n", "neighbors.7 = 1,3,4\nneighbors.9 = 1,2,3\n"))
        assert main(["validate", str(cfg)]) == 2
        assert "cell 9 is in no layer, cannot have neighbors" in capsys.readouterr().err

    def test_missing_neighbors_key_is_named(self):
        # Exited 2 as `error: interior cell 7 must have exactly 3 neighbors, got None`.
        # The absent key is located at its section's header, line 2.
        with pytest.raises(
            ScenarioError, match=r"^<scenario>:2: \[graph\] neighbors\.7: interior cell 7 must have exactly 3 neighbors"
        ):
            load_scenario_text(SEVEN.replace("neighbors.7 = 1,3,4\n", ""))

    def test_side_length_whose_squares_overflow(self, tmp_path, capsys):
        # Under `-W error`, `validate` and `run` exited 1 with `RuntimeWarning:
        # overflow encountered in square` from `min_separation`; without it, exit
        # 2 after four warnings with `error: separation must be a finite
        # non-negative length, got inf`, no line or key.
        from atugv import CellGraph, InvalidArgumentError

        cfg = tmp_path / "x.cfg"
        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg.write_text(text.replace("side_length = 1.0", "side_length = 1e155"))
        expected = (
            f"error: {cfg}:14: [geometry] side_length: side_length must be at most 6.7039e+153 "
            "so that squared distances stay finite, got 1e+155\n"
        )
        for command in (["validate", str(cfg)], ["run", str(cfg), "--output-dir", str(tmp_path / "out")]):
            assert main(command) == 2
            assert capsys.readouterr() == ("", expected)
        with pytest.raises(InvalidArgumentError) as error:
            CellGraph((frozenset({1, 2, 3}),), {}, 0.05, 0.25, side_length=1e155)
        assert error.value.field == "side_length"

    def test_largest_side_length_plans_without_overflow(self):
        # The bound's reason: every squared distance of the reference and of a
        # plan stays finite, here under warnings as errors.
        from atugv import CellGraph, plan, solve_reference_positions
        from atugv.network import MAX_SIDE_LENGTH

        seven = load_scenario("seven_cell_sim")
        s = MAX_SIDE_LENGTH
        graph = CellGraph(seven.graph.layers, seven.graph.neighbors, 0.05, s, side_length=s)
        reference = solve_reference_positions(graph)
        assert math.isfinite(reference.d_min) and reference.d_min > 0.1 * s
        plan(seven.plan_spec, graph, 200)

    def test_output_dir_that_is_a_file(self, tmp_path, capsys):
        # `mkdir` raised FileExistsError: a traceback and exit 1. The removal
        # of an earlier run's outputs now meets the file first.
        existing = tmp_path / "README.md"
        existing.write_text("notes\n")
        assert main(["run", "seven_cell_sim", "--output-dir", str(existing)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{existing / 'report.txt'}'\n"
        assert existing.read_text() == "notes\n"

    def test_scenario_path_that_is_a_directory(self, tmp_path, capsys):
        # Reading it raised IsADirectoryError: a traceback and exit 1.
        assert main(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read scenario file {tmp_path}: Is a directory\n"

    def test_directory_does_not_shadow_a_bundled_name(self, tmp_path, monkeypatch, capsys):
        # A run into `--output-dir seven_cell_sim` made the next one read
        # `error: cannot read scenario file seven_cell_sim: Is a directory`.
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["run", "seven_cell_sim", "--output-dir", "seven_cell_sim"]) == 0
        assert capsys.readouterr().err == ""
        assert load_scenario("seven_cell_sim").name == str(bundled_scenario_path("seven_cell_sim"))

    def test_scenario_file_that_is_not_utf8(self, tmp_path, capsys):
        # Decoding it raised UnicodeDecodeError: a traceback and exit 1.
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe" + "[graph]\n".encode("utf-16-le"))
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read scenario file {cfg}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_utf8_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # The mark hid line 1's `#`: `bom.cfg:1: expected a [section] header`, exit 2.
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + bundled_scenario_path("four_cell_experiment").read_bytes())
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_absent_key_is_located_at_its_section_header(self, tmp_path, capsys):
        # `error: x.cfg: [sim] k_v: ...`, with no line: the file has no k_v.
        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_with_key(_with_key(text, "sim", "model", "double"), "sim", "alpha", "150"))
        assert "k_v" not in cfg.read_text()
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:28: [sim] k_v: double-integrator loop with alpha = 150, k_v = 20, dt = 0.01 "
            "has spectral radius 1.05 >= 1 under explicit Euler\n"
        )

    @pytest.mark.parametrize(
        "edits, where, message",
        [
            # `Unable to allocate 7.11 PiB` from numpy: a traceback and exit 1.
            ([("plan", "samples", "1000000000000000")], "", "Unable to allocate 7.11 PiB for an array with shape"),
            # `ValueError: Maximum allowed size exceeded` from numpy: a traceback and exit 1.
            (
                [("plan", "tf", "9.3e18"), ("sim", "dt", "1.0"), ("sim", "alpha", "0.5")],
                ":30: [sim] dt",
                "dt = 1.0 divides the horizon 9.3e+18 s into more than 576460752303423487 steps",
            ),
            # `OverflowError: cannot convert float infinity to integer`: a traceback and exit 1.
            (
                [("plan", "tf", "1e300"), ("sim", "dt", "1e-10")],
                ":29: [sim] dt",
                "dt = 1e-10 divides the horizon 1e+300 s into more than 576460752303423487 steps",
            ),
        ],
        ids=["samples_beyond_memory", "steps_beyond_numpy", "steps_overflow"],
    )
    def test_oversized_scenario_is_one_error_line(self, edits, where, message, tmp_path, capsys):
        # Every size here is beyond a 128 TiB address space, so nothing is allocated.
        text = bundled_scenario_path("seven_cell_sim").read_text()
        for section, key, value in edits:
            text = _with_key(text, section, key, value)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text)
        prefix = f"error: {cfg}{where}: " if where else "error: "
        for command in (["validate", str(cfg)], ["run", str(cfg), "--output-dir", str(tmp_path / "out")]):
            assert main(command) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(prefix + message) and err.count("\n") == 1
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_horizon_beyond_memory_fails_run_with_one_error_line(self, tmp_path, capsys):
        # `validate` exited 0; `run` died in a numpy traceback with exit 1.
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_with_key(bundled_scenario_path("seven_cell_sim").read_text(), "plan", "tf", "1e13"))
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate 7.11 PiB") and err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []

    def test_error_line_matches_the_key_exactly(self, tmp_path):
        # Reported line 33, where `offset.3` starts with `offset`.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        offsets = text.replace(
            "terminal_error_threshold = 1e-3",
            "offset.3 = 0.01, 0.02\noffset = 0.01, nan\nterminal_error_threshold = 1e-3",
        )
        with pytest.raises(ScenarioError) as info:
            load_scenario_text(offsets, name="x.cfg")
        assert str(info.value) == "x.cfg:34: [sim] offset: expected two finite numbers"
        # A key that is a prefix of the one above it still gets its own line.
        neighbors = _with_key(_with_key(text, "graph", "neighbors.4", "1,x"), "graph", "neighbors.40", "1,2,3")
        assert neighbors.splitlines()[4:6] == ["neighbors.40 = 1,2,3", "neighbors.4 = 1,x"]
        with pytest.raises(ScenarioError) as info:
            load_scenario_text(neighbors, name="x.cfg")
        assert str(info.value) == "x.cfg:6: [graph] neighbors.4: expected a comma-separated cell list"

    def test_config_type_error_is_the_cause(self):
        from atugv import InvalidArgumentError

        with pytest.raises(ScenarioError) as info:
            load_scenario_text(_with_key(SEVEN, "sim", "model", "triple"), name="x.cfg")
        cause = info.value.__cause__
        assert isinstance(cause, InvalidArgumentError) and cause.field == "model"
        assert str(info.value) == f"x.cfg:24: [sim] model: {cause}"

    def test_default_section_is_an_unknown_section(self, tmp_path, capsys):
        # configparser copied its keys into every section, so the error
        # blamed another one, with no line: `default.cfg: [graph] dt: unknown key`.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "default.cfg"
        cfg.write_text(text + "\n[DEFAULT]\ndt = 0.02\n")
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:35: unknown section [DEFAULT]\n"
        with pytest.raises(ScenarioError, match=r"^x\.cfg:1: unknown section \[DEFAULT\]$"):
            load_scenario_text("[DEFAULT]\n" + SEVEN, name="x.cfg")

    def test_section_header_with_an_inline_comment_keeps_error_lines(self, tmp_path, capsys):
        # configparser drops the comment; the line lookup did not, so both
        # errors lost their line: `c.cfg: [sim] warp: unknown key` and
        # `d.cfg: unknown section [DEFAULT]`.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        commented = tmp_path / "c.cfg"
        commented.write_text(text.replace("[sim]\n", "[sim]  # simulation\n") + "warp = 1\n")
        assert main(["validate", str(commented)]) == 2
        assert capsys.readouterr().err == f"error: {commented}:34: [sim] warp: unknown key\n"
        default = tmp_path / "d.cfg"
        default.write_text(text + "[DEFAULT]  # note\nx = 1\n")
        assert main(["validate", str(default)]) == 2
        assert capsys.readouterr().err == f"error: {default}:34: unknown section [DEFAULT]\n"

    @pytest.mark.parametrize(
        "scenario, section, key, value, line, message",
        [
            # Exited 0: the loader kept (1, 2) and dropped the 4. `CellGraph`
            # owns the rule; the loader read its own copy of it.
            (
                "seven_cell_sim",
                "graph",
                "actuated.5",
                "1,2,4",
                5,
                "actuated joints of cell 5 must be two distinct neighbors",
            ),
            # Exited 2 with `error: sample_count must be at least 2, got 1`:
            # no file, line or key.
            ("seven_cell_sim", "plan", "samples", "1", 17, "samples = 1 must be from 2 to 576460752303423487"),
            # `ValueError: Maximum allowed size exceeded` from numpy: a traceback and exit 1.
            (
                "seven_cell_sim",
                "plan",
                "samples",
                "1000000000000000000000000000000",
                17,
                "samples = 1000000000000000000000000000000 must be from 2 to 576460752303423487",
            ),
            # Exited 0; then `run` exited 2 with no line and no report.
            ("seven_cell_sim", "sim", "dt", "0.03", 29, "dt = 0.03 must evenly divide the horizon 10 s"),
            # The rest exited 2 with no file, line or key, or with the
            # loader's own wording for `model`, `blend`, `tf` and `offset.9`.
            ("seven_cell_sim", "sim", "dt", "-1", 29, "dt must be positive and finite, got -1.0"),
            (
                "seven_cell_sim",
                "sim",
                "alpha",
                "300",
                29,
                "single-integrator loop with alpha = 300, dt = 0.01 has spectral radius 2 >= 1 under explicit Euler",
            ),
            ("seven_cell_sim", "plan", "lambda1_final", "1.5", 17, "lambda1 must lie in (0, 1], got 1.5"),
            ("seven_cell_sim", "geometry", "cell_radius", "-1", 12, "cell_radius must be positive and finite, got -1.0"),
            ("seven_cell_sim", "sim", "model", "triple", 29, "model must be one of ('single', 'double'), got 'triple'"),
            (
                "seven_cell_sim",
                "plan",
                "blend",
                "cubic",
                17,
                "unknown blend kind 'cubic'; choose from ('linear', 'smoothstep', 'smootherstep')",
            ),
            ("seven_cell_sim", "plan", "tf", "-1", 17, "tf must exceed t0, got [0.0, -1.0]"),
            ("four_cell_experiment", "graph", "powered", "2,3,4", 5, "boundary cell 1 must be powered"),
            # Exited 2 with `error: <file>: offsets reference unknown cells [9]`: no line or key.
            ("seven_cell_sim", "sim", "offset.9", "0.1, 0", 29, "cell 9 is in no layer"),
            # The graph and side_length errors exited 2 with no file, line or key.
            (
                "seven_cell_sim",
                "graph",
                "neighbors.7",
                "1,3,5",
                5,
                "cell 7 (layer 2) lists neighbor 5 (layer 2): neighbors must come from earlier layers",
            ),
            ("seven_cell_sim", "graph", "actuated.5", "1,3", 5, "actuated joints of cell 5 must be two distinct neighbors"),
            ("seven_cell_sim", "graph", "layers", "1,2,3 | 4 | 5,6,8", 5, "cells must be numbered 1..N without gaps"),
            ("seven_cell_sim", "geometry", "side_length", "-1", 12, "side_length must be positive and finite, got -1.0"),
            # Read as cells 4, 4 and 10: the first two exited 0, the third
            # failed with `cell 10 is not interior, cannot have joints`.
            ("seven_cell_sim", "graph", "neighbors.+4", "1,2,3", 5, "expected neighbors.<i> with i a cell number"),
            ("seven_cell_sim", "sim", "offset.04", "5, 5", 29, "expected offset.<i> with i a cell number"),
            ("seven_cell_sim", "graph", "actuated.1_0", "1,2", 5, "expected actuated.<i> with i a cell number"),
            # Blamed the value: `expected a comma-separated cell list`.
            ("seven_cell_sim", "graph", "neighbors.x", "1,2,3", 5, "expected neighbors.<i> with i a cell number"),
            # A cell in a list is spelled as in a key. All three exited 0;
            # the last was read as cells 1 to 4.
            ("four_cell_experiment", "graph", "layers", "1,2,03 | 4", 5, "expected cell lists separated by '|'"),
            ("four_cell_experiment", "graph", "neighbors.4", "1,2,+3", 5, "expected a comma-separated cell list"),
            ("four_cell_experiment", "graph", "powered", "1,2,3,0_4", 5, "expected a comma-separated cell list"),
            # A list names each cell once, separated by commas. All four
            # exited 0; the first was read as three neighbours.
            ("four_cell_experiment", "graph", "neighbors.4", "1,2,2,3", 5, "cell 2 is listed twice"),
            ("four_cell_experiment", "graph", "layers", "1,2,3,3 | 4", 5, "cell 3 is listed twice"),
            ("four_cell_experiment", "graph", "neighbors.4", "1 2 3", 5, "expected a comma-separated cell list"),
            ("four_cell_experiment", "graph", "neighbors.4", "1,,2,3", 5, "expected a comma-separated cell list"),
            # Read `actuated joints of cell 4 must be two distinct neighbors`.
            ("four_cell_experiment", "graph", "actuated.4", "1,1", 5, "cell 1 is listed twice"),
            # An offset is two numbers separated by a comma. Both exited 0.
            ("seven_cell_sim", "sim", "offset", "0.01,,-0.02", 29, "expected two finite numbers"),
            ("seven_cell_sim", "sim", "offset.5", "0.01 -0.02", 29, "expected two finite numbers"),
            # A coordinate error is located at its key: the field plus `_initial`.
            ("seven_cell_sim", "plan", "lambda1_initial", "1.5", 17, "lambda1 must lie in (0, 1], got 1.5"),
            # A stray `dt` under [plan] does not take the [sim] dt's error. The
            # row's key is written first, then the (old, new) replacement.
            (
                ("seven_cell_sim", "[plan]\n", "[plan]\ndt = 0.02\n"),
                "sim",
                "dt",
                "0.03",
                30,
                "dt = 0.03 must evenly divide the horizon 10 s",
            ),
            # Exited 2 with no location: the reference was solved after the load.
            (
                "four_cell_experiment",
                "geometry",
                "cell_radius",
                "1.5",
                9,
                "reference separation 0.57735 m does not exceed the cell diameter 3 m",
            ),
        ],
        ids=[
            "actuated",
            "samples",
            "samples_beyond_numpy",
            "dt_horizon",
            "dt",
            "alpha",
            "lambda1",
            "cell_radius",
            "model",
            "blend",
            "tf",
            "powered",
            "offset_cell",
            "neighbors_layering",
            "actuated_pair",
            "layers_gap",
            "side_length",
            "neighbors_signed_key",
            "offset_zero_padded_key",
            "actuated_underscored_key",
            "neighbors_word_key",
            "layers_zero_padded_cell",
            "neighbors_signed_cell",
            "powered_underscored_cell",
            "neighbors_cell_twice",
            "layers_cell_twice",
            "neighbors_no_commas",
            "neighbors_empty_entry",
            "actuated_cell_twice",
            "offset_empty_field",
            "offset_no_comma",
            "lambda1_initial",
            "dt_stray_in_plan",
            "cell_radius_overlap",
        ],
    )
    def test_bad_value_is_located(self, scenario, section, key, value, line, message, tmp_path, capsys):
        from atugv import bundled_scenario_path

        scenario, *replacement = (scenario,) if isinstance(scenario, str) else scenario
        text = _with_key(bundled_scenario_path(scenario).read_text(), section, key, value)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text.replace(*replacement) if replacement else text)
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [{section}] {key}: {message}\n"


    def test_spaces_around_commas_are_allowed(self):
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("four_cell_experiment").read_text()
        text = _with_key(_with_key(text, "graph", "neighbors.4", "1 , 2,3 "), "graph", "layers", " 1, 2 ,3|4")
        graph = load_scenario_text(text).graph
        assert graph.layers == (frozenset({1, 2, 3}), frozenset({4})) and graph.neighbors[4] == {1, 2, 3}

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (("dt = 0.01\n", "dt = 0.01\ndt = 0.02\n"), 31, "[sim] dt: duplicate key"),
            (("= 1e-3\n", "= 1e-3\n\n[sim]\ndt = 0.02\n"), 35, "duplicate section [sim]"),
            (("# Seven-cell", "layers = 1,2,3\n# Seven-cell"), 1, "expected a [section] header"),
            (("dt = 0.01\n", "dt = 0.01\ngarbage\n"), 31, "expected key = value"),
        ],
        ids=["duplicate_key", "duplicate_section", "key_above_first_header", "line_without_equals"],
    )
    def test_parse_error_is_located(self, edit, line, message, tmp_path, capsys):
        # Each printed configparser's own text after `error: parse error: `:
        # the first two on one line without the file:line form, the last two
        # on three and two lines.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        assert text.count(edit[0]) == 1
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text.replace(*edit))
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            # Read `x.cfg:32: [sim] dt: duplicate key`: a line without `=`
            # was held back until the end of the file.
            ((("[plan]\n", "[plan]\ngarbage\n"), ("dt = 0.01\n", "dt = 0.01\ndt = 0.02\n")), 17, "expected key = value"),
            # Read `x.cfg:31: [sim] alpha: expected a finite number, got
            # '10.0\n\nwarp = 1'`: the indented line, and the blank line
            # above it, were glued onto the value above them.
            ((("alpha = 10.0\n", "alpha = 10.0\n\n  warp = 1\n"),), 33, "[sim] warp: unknown key"),
            # Loaded as layers 1,2,3 | 4 | 5,6,7.
            ((("layers = 1,2,3 | 4 | 5,6,7\n", "layers = 1,2,3 |\n  4 | 5,6,7\n"),), 6, "expected key = value"),
            # Loaded as [sim], the trailing text dropped.
            ((("[sim]\n", "[sim] extra\n"),), 28, "expected key = value"),
        ],
        ids=["first_bad_line_wins", "indented_key_stands_alone", "no_continuation_line", "header_is_the_whole_line"],
    )
    def test_each_line_stands_alone(self, edits, line, message, tmp_path, capsys):
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_an_inserted_key_is_located_at_its_line(self, data):
        from atugv import bundled_scenario_path
        from atugv.scenario import BUNDLED

        lines = bundled_scenario_path(data.draw(st.sampled_from(BUNDLED))).read_text().splitlines()
        headers = [n for n, line in enumerate(lines, start=1) if line.startswith("[")]
        after = data.draw(st.integers(headers[0], len(lines)))
        section = lines[max(n for n in headers if n <= after) - 1][1:-1]
        text = "\n".join(lines[:after] + ["warp = 1"] + lines[after:]) + "\n"
        with pytest.raises(ScenarioError) as info:
            load_scenario_text(text, name="x.cfg")
        assert str(info.value) == f"x.cfg:{after + 1}: [{section}] warp: unknown key"

    def test_a_cell_key_has_one_spelling(self, tmp_path, capsys):
        # Loaded as {4: [5., 5.]}: the later spelling of cell 4 won.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_with_key(_with_key(text, "sim", "offset.04", "5, 5"), "sim", "offset.4", "0.01, 0"))
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:30: [sim] offset.04: expected offset.<i> with i a cell number\n"


def _unreachable_text():
    """four_cell_experiment with reach 0.55 m and a plan that asks joint
    (4, 1) for 0.57735 m from its first sample on."""
    from atugv import bundled_scenario_path

    text = _with_key(bundled_scenario_path("four_cell_experiment").read_text(), "geometry", "arm_length", "0.225")
    for key, value in (
        ("lambda1_final", "1.0"),
        ("lambda2_final", "0.6"),
        ("sigma_d_final", repr(math.pi)),
        ("blend", "linear"),
        ("tf", "10"),
        ("d1_final", "0"),
        ("d2_final", "0"),
        ("sigma_r_final", "0"),
    ):
        text = _with_key(text, "plan", key, value)
    return text


class TestStaleOutputs:
    """`run` removes the outputs an earlier run left in its directory, so a
    failed run never leaves another input's files behind."""

    def test_failed_runs_leave_no_earlier_outputs(self, tmp_path, capsys):
        # The second failing run exited 2 and the first one's UNREACHABLE
        # report stayed; the first left the bundled run's CSVs beside it.
        text = _unreachable_text()
        unreachable = tmp_path / "unreachable.cfg"
        unreachable.write_text(text)
        sampled = tmp_path / "sampled.cfg"
        sampled.write_text(_with_key(_with_key(text, "plan", "lambda2_initial", "0.6"), "plan", "samples", "4"))
        out = tmp_path / "out"

        assert main(["run", "four_cell_experiment", "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["elbows.csv", "report.txt", "trajectory.csv"]
        assert main(["run", str(unreachable), "--output-dir", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        assert "mechanism-reach verdict: UNREACHABLE" in (out / "report.txt").read_text()
        capsys.readouterr()
        assert main(["run", str(sampled), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 43 (t = 0.43 s): joint (4, 1): separation 0.550201 m")
        assert list(out.iterdir()) == []

    def test_overlapping_reference_leaves_no_earlier_outputs(self, tmp_path, capsys):
        # Exited 2 and left the bundled run's three files: `run` solved the
        # reference before it removed them. The overlap now fails at load, at
        # its key.
        from atugv import bundled_scenario_path

        overlapping = tmp_path / "overlapping.cfg"
        text = bundled_scenario_path("four_cell_experiment").read_text()
        overlapping.write_text(_with_key(text, "geometry", "cell_radius", "0.3"))
        out = tmp_path / "out"
        assert main(["run", "four_cell_experiment", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(overlapping), "--output-dir", str(out)]) == 2
        message = "[geometry] cell_radius: reference separation 0.57735 m does not exceed the cell diameter 0.6 m\n"
        assert capsys.readouterr().err == f"error: {overlapping}:9: {message}"
        assert list(out.iterdir()) == []

    def test_load_error_leaves_no_earlier_outputs(self, tmp_path, capsys):
        # Exited 2 and left the bundled run's three files: `run` loaded the
        # scenario before it removed them.
        from atugv import bundled_scenario_path

        bad = tmp_path / "bad.cfg"
        bad.write_text(_with_key(bundled_scenario_path("four_cell_experiment").read_text(), "plan", "tf", "-1"))
        out = tmp_path / "out"
        assert main(["run", "four_cell_experiment", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(bad), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:")
        assert list(out.iterdir()) == []

    def test_unreachable_plan_names_its_time_and_joint(self, tmp_path, capsys):
        # The verdict read `UNREACHABLE — separation 0.57735 m exceeds
        # mechanism reach 0.55 m`: no time and no joint.
        from atugv import UnreachableSeparationError, plan

        scenario = load_scenario_text(_unreachable_text())
        with pytest.raises(UnreachableSeparationError) as excinfo:
            plan(scenario.plan_spec, scenario.graph, scenario.sample_count)
        error = excinfo.value
        assert (scenario.sample_count, error.index, error.time, error.cell, error.joint) == (200, 0, 0.0, 4, (4, 1))
        message = "plan is out of reach at t = 0 s, joint (4, 1): separation 0.57735 m exceeds mechanism reach 0.55 m"
        assert str(error) == message
        cfg = tmp_path / "unreachable.cfg"
        cfg.write_text(_unreachable_text())
        assert main(["validate", str(cfg)]) == 1
        assert f"mechanism-reach verdict: UNREACHABLE — {message}\n" in capsys.readouterr().out
