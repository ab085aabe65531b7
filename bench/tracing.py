"""Timing and counting wrappers around the public functions of each atugv
module, installed from outside the package for a traced run.

A wrapper goes where callers look the name up: a name bound with
`from ... import` is wrapped in the importing module, a name reached as a
module attribute on its own module. Every span knows its parent (the
innermost open span), so a span's self time is its duration minus the time
its child spans cover. Coarse spans (one or a few per command) are kept
whole; the fine ones (per cell, per step) are folded into per-(parent,
name) totals as they close, so memory stays flat over a run.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def _plan_samples(counts, args, kwargs):
    counts["planner.samples"] += args[3] if len(args) > 3 else kwargs.get("sample_count", 200)


def _clearance_pairs(counts, args, kwargs):
    n = len(args[0])
    counts["network.clearance_pairs"] += n * (n - 1) // 2


def _csv_output(rows_per_step):
    def count(counts, args, kwargs):
        path, trace = args[0], args[1]
        counts["cli.csv_rows"] += len(trace.times) * rows_per_step(trace)
        counts["cli.csv_bytes"] += os.path.getsize(path)

    return count


# (module, attribute, span name, keep whole spans, count after each successful call)
WRAPPED = (
    ("atugv.cli", "main", "cli.command", True, None),
    ("atugv.cli", "load_scenario", "scenario.load", True, None),
    ("atugv.cli", "solve_reference_positions", "network.reference", True, None),
    ("atugv.cli", "write_trajectory_csv", "cli.csv", True, _csv_output(lambda trace: len(trace.cells))),
    ("atugv.cli", "write_elbow_csv", "cli.csv", True, _csv_output(lambda trace: len(trace.elbow_desired))),
    ("atugv.planner", "plan", "planner.plan", True, _plan_samples),
    ("atugv.planner", "coordinates_at", "planner.coordinates_at", False, None),
    ("atugv.planner", "validate_coordinates", "safety.validate", False, None),
    ("atugv.simulator", "run", "simulator.run", True, None),
    ("atugv.simulator", "step", "simulator.step", False, None),
    ("atugv.simulator", "coordinates_at", "simulator.desired_eval", False, None),
    ("atugv.simulator", "min_separation", "network.clearance", False, _clearance_pairs),
    ("atugv.affine", "apply", "affine.apply", False, None),
    ("atugv.affine", "jacobian", "affine.jacobian", False, None),
    ("atugv.kinematics", "elbow_angle", "kinematics.elbow_angle", False, None),
    ("atugv.kinematics", "separation_from_angle", "kinematics.separation", False, None),
    ("atugv.kinematics", "desired_elbow_angles", "kinematics.desired_angles", False, None),
    ("atugv.kinematics", "resolve_unpowered_position", "kinematics.resolve", False, None),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.command = 0  # id shared by the spans of one command
        self.spans = []  # (command, parent, name, start, end) of kept spans
        self.totals = defaultdict(lambda: [0, 0, 0.0, 0.0])  # (parent, name) -> calls, errors, total_s, self_s
        self.failures = Counter()  # (span name, exception type) -> count
        self.counts = Counter()
        self._stack = []  # open spans: [name, time covered by children]
        self._originals = []

    def _wrap(self, fn, name, keep, count):
        stack, totals, clock = self._stack, self.totals, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.failures[(name, type(exc).__name__)] += 1
                totals[(parent, name)][1] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = totals[(parent, name)]
                total[0] += 1
                total[2] += duration
                total[3] += duration - frame[1]
                if keep:
                    self.spans.append((self.command, parent, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs)
            return result

        return traced

    def install(self):
        for module_name, attr, name, keep, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep, count))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def by_name(self):
        """name -> [calls, errors, total_s, self_s], summed over parents."""
        out = defaultdict(lambda: [0, 0, 0.0, 0.0])
        for (_, name), values in self.totals.items():
            out[name] = [a + b for a, b in zip(out[name], values)]
        return out

    def layer_metrics(self, commands: int):
        """Per-layer metrics, per traced command unless the unit says
        otherwise."""
        t = self.by_name()
        counts = self.counts
        per = 1.0 / commands
        steps_done = t["simulator.step"][0] - t["simulator.step"][1]
        recorded = steps_done + t["simulator.run"][0]
        m = {
            "simulator.run_s": (t["simulator.run"][2] * per, "s/cmd"),
            "simulator.self_s": ((t["simulator.run"][3] + t["simulator.step"][3]) * per, "s/cmd"),
            "simulator.step_s": (t["simulator.step"][2] / max(t["simulator.step"][0], 1), "s/step"),
            "simulator.steps": (steps_done * per, "1/cmd"),
            "simulator.failures": (t["simulator.run"][1] * per, "1/cmd"),
            "simulator.desired_evals_per_step": (
                t["simulator.desired_eval"][0] / max(recorded, 1), "1/step"),
            "network.clearance_s": (t["network.clearance"][2] * per, "s/cmd"),
            "network.clearance_calls": (t["network.clearance"][0] * per, "1/cmd"),
            "network.clearance_pairs": (counts["network.clearance_pairs"] * per, "1/cmd"),
            "network.reference_s": (t["network.reference"][2] * per, "s/cmd"),
            "affine.map_calls": (t["affine.apply"][0] * per, "1/cmd"),
            "affine.jacobian_calls": (t["affine.jacobian"][0] * per, "1/cmd"),
            "affine.self_s": ((t["affine.apply"][3] + t["affine.jacobian"][3]) * per, "s/cmd"),
            "kinematics.elbow_angle_calls": (t["kinematics.elbow_angle"][0] * per, "1/cmd"),
            "kinematics.elbow_angle_s": (t["kinematics.elbow_angle"][2] * per, "s/cmd"),
            "kinematics.resolve_calls": (t["kinematics.resolve"][0] * per, "1/cmd"),
            "kinematics.resolve_s": (t["kinematics.resolve"][2] * per, "s/cmd"),
            "planner.plan_s": (t["planner.plan"][2] * per, "s/cmd"),
            "planner.plan_calls": (t["planner.plan"][0] * per, "1/cmd"),
            "planner.samples": (counts["planner.samples"] * per, "1/cmd"),
            "planner.coordinates_at_calls": (t["planner.coordinates_at"][0] * per, "1/cmd"),
            "safety.validate_calls": (t["safety.validate"][0] * per, "1/cmd"),
            "safety.validate_s": (t["safety.validate"][2] * per, "s/cmd"),
            "scenario.load_s": (t["scenario.load"][2] * per, "s/cmd"),
            "cli.command_s": (t["cli.command"][2] * per, "s/cmd"),
            "cli.self_s": (t["cli.command"][3] * per, "s/cmd"),
            "cli.csv_s": (t["cli.csv"][2] * per, "s/cmd"),
            "cli.csv_rows": (counts["cli.csv_rows"] * per, "1/cmd"),
            "cli.csv_bytes": (counts["cli.csv_bytes"] * per, "B/cmd"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

    def dump(self):
        """Spans and the call tree, for writing out when the run ends."""
        return {
            "spans": [
                {"command": c, "parent": p, "name": n, "start": s, "end": e}
                for c, p, n, s, e in self.spans
            ],
            "tree": [
                {"parent": p, "name": n, "calls": v[0], "errors": v[1], "total_s": v[2], "self_s": v[3]}
                for (p, n), v in sorted(self.totals.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "failures": [
                {"span": n, "exception": e, "count": c} for (n, e), c in sorted(self.failures.items())
            ],
        }
