"""The benchmark in bench/ drives the package from outside: its tracer wraps
module attributes by name and its oracle reads the output files. This pins
both against a traced run of a bundled scenario."""
import importlib.util
import sys
from pathlib import Path

import atugv.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_passes_the_output_oracle(tmp_path):
    tracing, oracle = _bench_module("tracing"), _bench_module("oracle")
    tracer = tracing.Tracer()
    tracer.install()  # fails if a wrapped name no longer resolves
    try:
        code = atugv.cli.main(["run", "four_cell_experiment", "--output-dir", str(tmp_path)])
    finally:
        tracer.restore()
    assert code == 0
    spec = oracle.parse_scenario(atugv.bundled_scenario_path("four_cell_experiment"))
    oracle.check_run(spec, tmp_path, code, safe_by_construction=True)
    calls = {name: values[0] for name, values in tracer.by_name().items()}
    assert calls["cli.command"] == 1
    assert calls["planner.plan"] == 1  # the gated plan is the simulated one
    assert calls["simulator.step"] == spec.steps
