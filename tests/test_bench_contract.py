"""The benchmark in bench/ drives the package from outside: its tracer wraps
module attributes by name and its oracle reads the output files. This pins
both against a traced run of a bundled scenario, and the oracle's exit-code
rule against every way a verdict passes or fails."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import atugv.cli
from atugv.scenario import bundled_scenario_path, load_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _traced_run(name, out_dir):
    """Exit code and calls per span name of a traced `atugv run`, after
    checking its outputs with the benchmark's oracle."""
    tracing, oracle = _bench_module("tracing"), _bench_module("oracle")
    tracer = tracing.Tracer()
    tracer.install()  # fails if a wrapped name no longer resolves
    try:
        code = atugv.cli.main(["run", name, "--output-dir", str(out_dir)])
    finally:
        tracer.restore()
    assert code == 0
    spec = oracle.parse_scenario(bundled_scenario_path(name))
    oracle.check_run(spec, out_dir, code, safe_by_construction=True)
    calls = {name: values[0] for name, values in tracer.by_name().items()}
    return spec, calls


def test_traced_run_passes_the_output_oracle(tmp_path):
    _, calls = _traced_run("four_cell_experiment", tmp_path)
    assert calls["cli.command"] == 1
    assert calls["planner.plan"] == 1  # the gated plan is the simulated one
    assert calls["safety.validate"] == 1  # the strain check runs on the tracer's hook
    assert calls["planner.coordinates_at"] == 2  # one for the plan, one for the simulation
    # the tracer still wraps the one-step model, but `run` scans the whole
    # horizon without it
    assert "simulator.step" not in calls


def test_unpowered_cells_resolve_once_per_layer(tmp_path):
    _, calls = _traced_run("seven_cell_sim", tmp_path)
    assert "simulator.step" not in calls
    graph = load_scenario("seven_cell_sim").graph
    layers = sum(1 for layer in graph.layers if layer & graph.unpowered)
    assert 1 <= calls["kinematics.resolve"] <= layers
    # the resolve reads the angles `run` commands to every joint once
    assert "kinematics.desired_angles" not in calls


def test_all_powered_synthetic_run_passes_the_output_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
    workloads, oracle = _bench_module("workloads"), _bench_module("oracle")
    path = tmp_path / "all_powered.cfg"
    path.write_text(workloads.synthetic_scenario(np.random.default_rng([0, 0])))
    out_dir = tmp_path / "out"
    code = atugv.cli.main(["run", str(path), "--output-dir", str(out_dir)])
    # the 0.5 s horizon ends above the terminal-error threshold: the oracle
    # checks the exit code against the verdicts
    oracle.check_run(oracle.parse_scenario(path), out_dir, code, safe_by_construction=False)


_THRESHOLD = "terminal_error_threshold = 1e-3"
BOUNDARY_ONLY = (
    "[graph]\nlayers = 1,2,3\n[geometry]\ncell_radius = 0.05\narm_length = 0.25\n"
    "[plan]\ntf = 10\nlambda1_final = 0.9\n[sim]\ndt = 0.01\n"
)
# A base scenario, a line of it and that line's replacement, and the exit
# codes of `validate` and `run`: every verdict passing, and each failing.
VERDICT_CORPUS = {
    "four_cell_experiment": ("four_cell_experiment", "", "", 0, 0),
    "seven_cell_sim": ("seven_cell_sim", "", "", 0, 0),
    "four_double": ("four_cell_experiment", "model = single", "model = double", 0, 0),
    "seven_double": ("seven_cell_sim", "model = single", "model = double", 0, 0),
    "trace_reach_unreachable": ("seven_cell_sim", _THRESHOLD, _THRESHOLD + "\noffset.4 = 0.0, 0.12", 0, 1),
    "clearance_unsafe": ("seven_cell_sim", _THRESHOLD, _THRESHOLD + "\noffset.4 = -0.45, -0.26", 0, 1),
    "terminal_error_exceeded": ("seven_cell_sim", _THRESHOLD, "terminal_error_threshold = 1e-9", 0, 1),
    "strain_unsafe": ("seven_cell_sim", "lambda2_final = 0.8", "lambda2_final = 0.3", 1, 1),
    "plan_unreachable": ("four_cell_experiment", "arm_length = 0.25", "arm_length = 0.225", 1, 1),
    "boundary_only": ("boundary_only", "", "", 0, 0),
    "synthetic_250_cells": ("synthetic_250_cells", "", "", 0, 1),
}


def _base_text(base):
    if base == "boundary_only":
        return BOUNDARY_ONLY
    if base == "synthetic_250_cells":
        return _bench_module("workloads").synthetic_scenario(np.random.default_rng([250, 0]))
    return bundled_scenario_path(base).read_text()


@pytest.mark.parametrize("name", VERDICT_CORPUS)
def test_exit_code_agrees_with_the_verdict_lines(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
    oracle = _bench_module("oracle")
    base, line, replacement, validate_code, run_code = VERDICT_CORPUS[name]
    text = _base_text(base)
    assert line in text
    path = tmp_path / f"{name}.cfg"
    path.write_text(text.replace(line, replacement, 1) if line else text)
    code = atugv.cli.main(["validate", str(path)])
    oracle.check_verdicts(capsys.readouterr().out.splitlines(), code, safe_by_construction=False)
    assert code == validate_code
    out_dir = tmp_path / "out"
    code = atugv.cli.main(["run", str(path), "--output-dir", str(out_dir)])
    report = (out_dir / "report.txt").read_text()
    assert capsys.readouterr().out == report
    oracle.check_verdicts(report.splitlines(), code, safe_by_construction=False)
    assert code == run_code
    # the simulation, and its CSVs, follow only a plan that passed
    assert (out_dir / "trajectory.csv").exists() == (validate_code == 0)
