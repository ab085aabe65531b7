"""The benchmark in bench/ drives the package from outside: its tracer wraps
module attributes by name and its oracle reads the output files. This pins
both against a traced run of a bundled scenario."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

import atugv.cli

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
    spec = oracle.parse_scenario(atugv.bundled_scenario_path(name))
    oracle.check_run(spec, out_dir, code, safe_by_construction=True)
    calls = {name: values[0] for name, values in tracer.by_name().items()}
    return spec, calls


def test_traced_run_passes_the_output_oracle(tmp_path):
    spec, calls = _traced_run("four_cell_experiment", tmp_path)
    assert calls["cli.command"] == 1
    assert calls["planner.plan"] == 1  # the gated plan is the simulated one
    assert calls["safety.validate"] == 1  # the strain check runs on the tracer's hook
    assert calls["simulator.step"] == spec.steps


def test_unpowered_cells_resolve_once_per_layer(tmp_path):
    spec, calls = _traced_run("seven_cell_sim", tmp_path)
    assert calls["simulator.step"] == spec.steps
    graph = atugv.load_scenario("seven_cell_sim").graph
    layers = sum(1 for layer in graph.layers if layer & graph.unpowered)
    assert 1 <= calls["kinematics.resolve"] <= layers
    assert 1 <= calls["kinematics.desired_angles"] <= layers


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
