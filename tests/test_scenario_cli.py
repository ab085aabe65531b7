import csv
import math

import numpy as np
import pytest

from atugv import ScenarioError, load_scenario, load_scenario_text
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
        with pytest.raises(DegreeViolationError):
            load_scenario_text(text)

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
        from atugv import SimConfig, plan, run, solve_reference_positions

        scenario = load_scenario("seven_cell_sim")
        assert main(["run", "seven_cell_sim", "--output-dir", str(tmp_path)]) == 0
        reference = solve_reference_positions(scenario.graph, scenario.side_length)
        traj = plan(
            scenario.plan_spec, scenario.graph, reference, scenario.sample_count
        )
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

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("ATUGV_OUTPUT_DIR", str(target))
        assert main(["run", "four_cell_experiment"]) == 0
        assert (target / "trajectory.csv").exists()

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
        assert len(verdicts) == 4
        assert all("SAFE" in line or "OK" in line for line in verdicts)

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
        perturbed = _with_key(SEVEN, "sim", "initial_mode", "perturbed")
        with pytest.raises(ScenarioError, match=r"\[sim\] offset: expected two finite numbers"):
            load_scenario_text(_with_key(perturbed, "sim", "offset", f"0.01, {value}"))

    def test_nan_dt_flag(self, tmp_path, capsys):
        # `--dt nan` ended in a ValueError traceback at the simulator.
        assert main(["run", "seven_cell_sim", "--dt", "nan", "--output-dir", str(tmp_path)]) == 2
        assert "dt must be positive and finite, got nan" in capsys.readouterr().err

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

    def test_offset_under_reference_mode(self, tmp_path, capsys):
        # Was ignored: `run` exited 0 from the unperturbed pose.
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text + "offset = 0.3, 0.3\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:34: [sim] offset: an offset needs initial_mode = perturbed" in err
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        with pytest.raises(ScenarioError, match=r"\[sim\] offset\.2: .*initial_mode = perturbed"):
            load_scenario_text(_with_key(SEVEN, "sim", "offset.2", "0.1, 0"))

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

    def test_error_line_matches_the_key_exactly(self, tmp_path):
        # Reported line 33, where `offset.3` starts with `offset`.
        from atugv import bundled_scenario_path
        from atugv.scenario import _line_of

        text = bundled_scenario_path("seven_cell_sim").read_text().replace(
            "initial_mode = reference",
            "initial_mode = perturbed\noffset.3 = 0.01, 0.02\noffset = 0.01, nan",
        )
        with pytest.raises(ScenarioError) as info:
            load_scenario_text(text, name="x.cfg")
        assert str(info.value) == "x.cfg:34: [sim] offset: expected two finite numbers"
        assert _line_of("[graph]\nneighbors.40 = 1,2,3\nneighbors.4 = 1,x", "graph", "neighbors.4") == 3

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
        "section, key, value, line, message",
        [
            # Exited 0: the loader kept (1, 2) and dropped the 4.
            ("graph", "actuated.5", "1,2,4", 5, "expected two comma-separated cell ids"),
            # Exited 2 with `error: sample_count must be at least 2, got 1`:
            # no file, line or key.
            ("plan", "samples", "1", 17, "samples = 1 must be at least 2"),
        ],
        ids=["actuated", "samples"],
    )
    def test_bad_value_is_located(self, section, key, value, line, message, tmp_path, capsys):
        from atugv import bundled_scenario_path

        text = bundled_scenario_path("seven_cell_sim").read_text()
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_with_key(text, section, key, value))
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [{section}] {key}: {message}\n"


class TestStaleOutputs:
    """`run` removes the outputs an earlier run left in its directory, so a
    failed run never leaves another input's files behind."""

    def test_failed_runs_leave_no_earlier_outputs(self, tmp_path, capsys):
        # The second failing run exited 2 and the first one's UNREACHABLE
        # report stayed; the first left the bundled run's CSVs beside it.
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
        assert err.startswith("error: step 42 (t = 0.42 s): joint 1: separation 0.550201 m")
        assert list(out.iterdir()) == []
