"""Scenario files: an INI-style key/value format with four sections
(graph, geometry, plan, sim). The exact grammar is documented in the
repository README. Two scenarios matching the published design-parameter
table are bundled: four_cell_experiment and seven_cell_sim.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .affine import GeneralizedCoordinates
from .errors import ScenarioError
from .network import CellGraph
from .planner import BLEND_KINDS, PlanSpec
from .simulator import MODELS, SimConfig

BUNDLED = ("four_cell_experiment", "seven_cell_sim")

_KNOWN_KEYS = {
    "graph": {"layers", "powered"},  # plus neighbors.<i> and actuated.<i>
    "geometry": {"cell_radius", "arm_length", "side_length"},
    "plan": {
        "t0",
        "tf",
        "blend",
        "samples",
        "lambda1_initial",
        "lambda2_initial",
        "sigma_r_initial",
        "sigma_d_initial",
        "d1_initial",
        "d2_initial",
        "lambda1_final",
        "lambda2_final",
        "sigma_r_final",
        "sigma_d_final",
        "d1_final",
        "d2_final",
    },
    "sim": {
        "model",
        "dt",
        "alpha",
        "k_v",
        "initial_mode",
        "terminal_error_threshold",
    },  # plus offset and offset.<i>
}


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: CellGraph
    side_length: float
    plan_spec: PlanSpec
    sample_count: int
    sim: SimConfig
    terminal_error_threshold: float


def _line_of(text: str, section: str, key: str) -> Optional[int]:
    """Best-effort line number of a key for error messages."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.lower().startswith(key.lower()):
            return lineno
    return None


class _Parsed:
    def __init__(self, text: str, name: str):
        self.text = text
        self.name = name
        parser = configparser.ConfigParser(
            delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
        )
        try:
            parser.read_string(text, source=name)
        except configparser.Error as exc:
            raise ScenarioError(f"parse error: {exc}") from None
        self.parser = parser

    def section(self, name: str) -> Dict[str, str]:
        if not self.parser.has_section(name):
            raise ScenarioError(f"{self.name}: missing required section [{name}]")
        return dict(self.parser.items(name))

    def fail(self, section: str, key: str, message: str):
        lineno = _line_of(self.text, section, key)
        where = f"{self.name}:{lineno}" if lineno else self.name
        raise ScenarioError(f"{where}: [{section}] {key}: {message}")

    def get_float(self, section: str, items: Dict[str, str], key: str, default=None) -> float:
        if key not in items:
            if default is None:
                self.fail(section, key, "required key missing")
            return default
        try:
            return _finite(items[key])
        except ValueError:
            self.fail(section, key, f"expected a finite number, got {items[key]!r}")

    def get_int(self, section: str, items: Dict[str, str], key: str, default=None) -> int:
        if key not in items:
            if default is None:
                self.fail(section, key, "required key missing")
            return default
        try:
            return int(items[key])
        except ValueError:
            self.fail(section, key, f"expected an integer, got {items[key]!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _parse_int_list(raw: str):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_scenario_text(text: str, name: str = "<scenario>", strict: bool = True) -> Scenario:
    parsed = _Parsed(text, name)

    if strict:
        for section in parsed.parser.sections():
            if section not in _KNOWN_KEYS:
                raise ScenarioError(f"{name}: unknown section [{section}]")
            for key in parsed.parser.options(section):
                base = key.split(".", 1)[0]
                known = key in _KNOWN_KEYS[section]
                known = known or (section == "graph" and base in ("neighbors", "actuated"))
                known = known or (section == "sim" and base == "offset")
                if not known:
                    parsed.fail(section, key, "unknown key (strict mode)")

    graph_items = parsed.section("graph")
    geom_items = parsed.section("geometry")
    plan_items = parsed.section("plan")
    sim_items = dict(parsed.parser.items("sim")) if parsed.parser.has_section("sim") else {}

    if "layers" not in graph_items:
        parsed.fail("graph", "layers", "required key missing")
    try:
        layers = [
            frozenset(_parse_int_list(part))
            for part in graph_items["layers"].split("|")
        ]
    except ValueError:
        parsed.fail("graph", "layers", "expected cell lists separated by '|'")
    neighbors = {}
    actuated = {}
    for key, raw in graph_items.items():
        if key.startswith("neighbors."):
            try:
                neighbors[int(key.split(".", 1)[1])] = frozenset(_parse_int_list(raw))
            except ValueError:
                parsed.fail("graph", key, "expected a comma-separated cell list")
        elif key.startswith("actuated."):
            try:
                pair = _parse_int_list(raw)
                actuated[int(key.split(".", 1)[1])] = (pair[0], pair[1])
            except (ValueError, IndexError):
                parsed.fail("graph", key, "expected two comma-separated cell ids")
    powered = None
    if "powered" in graph_items:
        try:
            powered = frozenset(_parse_int_list(graph_items["powered"]))
        except ValueError:
            parsed.fail("graph", "powered", "expected a comma-separated cell list")

    cell_radius = parsed.get_float("geometry", geom_items, "cell_radius")
    arm_length = parsed.get_float("geometry", geom_items, "arm_length")
    side_length = parsed.get_float("geometry", geom_items, "side_length", 1.0)

    graph = CellGraph(
        layers=tuple(layers),
        neighbors=neighbors,
        cell_radius=cell_radius,
        arm_length=arm_length,
        powered=powered,
        actuated=actuated or None,
    )

    t0 = parsed.get_float("plan", plan_items, "t0", 0.0)
    tf = parsed.get_float("plan", plan_items, "tf")
    blend_kind = plan_items.get("blend", "smoothstep")
    if blend_kind not in BLEND_KINDS:
        parsed.fail("plan", "blend", f"expected one of {BLEND_KINDS}")
    samples = parsed.get_int("plan", plan_items, "samples", 200)

    def coords(suffix: str, defaults) -> GeneralizedCoordinates:
        return GeneralizedCoordinates(
            lambda1=parsed.get_float("plan", plan_items, f"lambda1_{suffix}", defaults[0]),
            lambda2=parsed.get_float("plan", plan_items, f"lambda2_{suffix}", defaults[1]),
            sigma_r=parsed.get_float("plan", plan_items, f"sigma_r_{suffix}", defaults[2]),
            sigma_d=parsed.get_float("plan", plan_items, f"sigma_d_{suffix}", defaults[3]),
            d1=parsed.get_float("plan", plan_items, f"d1_{suffix}", defaults[4]),
            d2=parsed.get_float("plan", plan_items, f"d2_{suffix}", defaults[5]),
        )

    initial = coords("initial", (1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    final = coords("final", initial.astuple())
    if not tf > t0:
        parsed.fail("plan", "tf", f"tf = {tf} must exceed t0 = {t0}")
    plan_spec = PlanSpec(t0=t0, tf=tf, initial=initial, final=final, blend_kind=blend_kind)

    model = sim_items.get("model", "single")
    if model not in MODELS:
        parsed.fail("sim", "model", f"expected one of {MODELS}")
    dt = parsed.get_float("sim", sim_items, "dt", 0.01)
    alpha = parsed.get_float("sim", sim_items, "alpha", 10.0)
    k_v = parsed.get_float("sim", sim_items, "k_v", 20.0)
    threshold = parsed.get_float("sim", sim_items, "terminal_error_threshold", 1e-3)
    initial_mode = sim_items.get("initial_mode", "reference")
    offsets = None
    if initial_mode == "perturbed":
        offsets = {}
        uniform = sim_items.get("offset")
        if uniform is not None:
            try:
                dx, dy = (_finite(tok) for tok in uniform.replace(",", " ").split())
            except ValueError:
                parsed.fail("sim", "offset", "expected two finite numbers")
            offsets.update({i: np.array([dx, dy]) for i in graph.cells})
        for key, raw in sim_items.items():
            if key.startswith("offset."):
                try:
                    cell = int(key.split(".", 1)[1])
                    dx, dy = (_finite(tok) for tok in raw.replace(",", " ").split())
                except ValueError:
                    parsed.fail("sim", key, "expected two finite numbers")
                offsets[cell] = np.array([dx, dy])
        unknown = set(offsets) - set(graph.cells)
        if unknown:
            raise ScenarioError(f"{name}: offsets reference unknown cells {sorted(unknown)}")
    elif initial_mode != "reference":
        parsed.fail("sim", "initial_mode", "expected 'reference' or 'perturbed'")

    sim = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v, initial_offsets=offsets)
    return Scenario(
        name=name,
        graph=graph,
        side_length=side_length,
        plan_spec=plan_spec,
        sample_count=samples,
        sim=sim,
        terminal_error_threshold=threshold,
    )


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ScenarioError(f"no bundled scenario named {name!r}; available: {BUNDLED}")
    return Path(resources.files("atugv") / "scenarios" / f"{name}.cfg")


def load_scenario(path, strict: bool = True) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    p = Path(path)
    if not p.exists() and str(path) in BUNDLED:
        p = bundled_scenario_path(str(path))
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    return load_scenario_text(p.read_text(), name=str(p), strict=strict)
