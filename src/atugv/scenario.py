"""Scenario files: an INI-style key/value format with four sections
(graph, geometry, plan, sim). The exact grammar is documented in the
repository README. Two scenarios matching the published design-parameter
table are bundled: four_cell_experiment and seven_cell_sim.
"""
from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .affine import COORD_FIELDS, GeneralizedCoordinates
from .errors import ScenarioError
from .network import CellGraph
from .planner import BLEND_KINDS, PlanSpec
from .simulator import MODELS, SimConfig

BUNDLED = ("four_cell_experiment", "seven_cell_sim")

# Defaults of the `*_initial` keys, built once: construction runs numpy
# checks on every field, a noticeable share of loading a small file.
_IDENTITY = GeneralizedCoordinates.identity()


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: CellGraph
    side_length: float
    plan_spec: PlanSpec
    sample_count: int
    sim: SimConfig
    terminal_error_threshold: float


def _line_of(text: str, section: str, key: Optional[str] = None) -> Optional[int]:
    """Line number of `key = ...` in [section], or of its header if key is None.
    Like configparser, a `#` at the start or after whitespace begins a comment."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
        header = configparser.ConfigParser.SECTCRE.match(stripped)
        if header:
            current = header.group("header")
            if key is None and current == section:
                return lineno
        elif current == section:
            name, delimiter, _ = stripped.partition("=")
            if delimiter and name.rstrip().lower() == key.lower():
                return lineno
    return None


class _Parsed:
    """The key/value text of each section, and the keys of each section the
    loader has read: the grammar is exactly the keys the loader reads."""

    def __init__(self, text: str, name: str):
        self.text = text
        self.name = name
        # No header names "", so [DEFAULT] is one more (unknown) section.
        parser = configparser.ConfigParser(
            delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None, default_section=""
        )
        try:
            parser.read_string(text, source=name)
        except configparser.Error as exc:
            raise ScenarioError(f"parse error: {exc}") from None
        # raw: values are used as written; there is no interpolation.
        self.sections = {s: dict(parser.items(s, raw=True)) for s in parser.sections()}
        self.read = {section: set() for section in self.sections}

    def fail(self, section: str, key: str, message: str):
        lineno = _line_of(self.text, section, key)
        where = f"{self.name}:{lineno}" if lineno else self.name
        raise ScenarioError(f"{where}: [{section}] {key}: {message}")

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        if section not in self.sections:
            return default
        self.read[section].add(key)
        return self.sections[section].get(key, default)

    def indexed(self, section: str, base: str):
        """(key, i, text) of every `base.<i>` key in the section."""
        prefix = base + "."
        read = self.read.get(section, set())
        for key, text in self.sections.get(section, {}).items():
            if key.startswith(prefix):
                read.add(key)
                yield key, key[len(prefix):], text

    def number(self, section: str, key: str, default=None, kind=float):
        """The key as a finite float or an int; `default` if the file leaves
        it out, and an error if there is no default either."""
        text = self.get(section, key)
        if text is None:
            if default is None:
                self.fail(section, key, "required key missing")
            return default
        try:
            return _finite(text) if kind is float else kind(text)
        except ValueError:
            expected = "a finite number" if kind is float else "an integer"
            self.fail(section, key, f"expected {expected}, got {text!r}")

    def reject_unread(self):
        """Fail on the first section or key the loader never read."""
        for section, items in self.sections.items():
            read = self.read[section]
            if not read:
                lineno = _line_of(self.text, section)
                where = f"{self.name}:{lineno}" if lineno else self.name
                raise ScenarioError(f"{where}: unknown section [{section}]")
            unread = [key for key in items if key not in read]
            if unread:
                self.fail(section, unread[0], "unknown key")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _parse_int_list(raw: str):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_scenario_text(text: str, name: str = "<scenario>") -> Scenario:
    parsed = _Parsed(text, name)
    for section in ("graph", "geometry", "plan"):
        if section not in parsed.sections:
            raise ScenarioError(f"{name}: missing required section [{section}]")

    layers = parsed.get("graph", "layers")
    if layers is None:
        parsed.fail("graph", "layers", "required key missing")
    try:
        layers = [frozenset(_parse_int_list(part)) for part in layers.split("|")]
    except ValueError:
        parsed.fail("graph", "layers", "expected cell lists separated by '|'")
    neighbors = {}
    for key, cell, raw in parsed.indexed("graph", "neighbors"):
        try:
            neighbors[int(cell)] = frozenset(_parse_int_list(raw))
        except ValueError:
            parsed.fail("graph", key, "expected a comma-separated cell list")
    actuated = {}
    for key, cell, raw in parsed.indexed("graph", "actuated"):
        try:
            i, (j1, j2) = int(cell), _parse_int_list(raw)
        except ValueError:  # also a list of more or fewer than two ids
            parsed.fail("graph", key, "expected two comma-separated cell ids")
        actuated[i] = (j1, j2)
    powered = parsed.get("graph", "powered")
    if powered is not None:
        try:
            powered = frozenset(_parse_int_list(powered))
        except ValueError:
            parsed.fail("graph", "powered", "expected a comma-separated cell list")

    cell_radius = parsed.number("geometry", "cell_radius")
    arm_length = parsed.number("geometry", "arm_length")
    side_length = parsed.number("geometry", "side_length", 1.0)

    graph = CellGraph(
        layers=tuple(layers),
        neighbors=neighbors,
        cell_radius=cell_radius,
        arm_length=arm_length,
        powered=powered,
        actuated=actuated or None,
    )

    t0 = parsed.number("plan", "t0", 0.0)
    tf = parsed.number("plan", "tf")
    blend_kind = parsed.get("plan", "blend", PlanSpec.blend_kind)
    if blend_kind not in BLEND_KINDS:
        parsed.fail("plan", "blend", f"expected one of {BLEND_KINDS}")
    samples = parsed.number("plan", "samples", 200, int)
    if samples < 2:
        parsed.fail("plan", "samples", f"samples = {samples} must be at least 2")

    def coords(suffix: str, defaults: GeneralizedCoordinates) -> GeneralizedCoordinates:
        return GeneralizedCoordinates(**{
            field: parsed.number("plan", f"{field}_{suffix}", getattr(defaults, field))
            for field in COORD_FIELDS
        })

    initial = coords("initial", _IDENTITY)
    final = coords("final", initial)
    if not tf > t0:
        parsed.fail("plan", "tf", f"tf = {tf} must exceed t0 = {t0}")
    plan_spec = PlanSpec(t0=t0, tf=tf, initial=initial, final=final, blend_kind=blend_kind)

    model = parsed.get("sim", "model", SimConfig.model)
    if model not in MODELS:
        parsed.fail("sim", "model", f"expected one of {MODELS}")
    dt = parsed.number("sim", "dt", SimConfig.dt)
    alpha = parsed.number("sim", "alpha", SimConfig.alpha)
    k_v = parsed.number("sim", "k_v", SimConfig.k_v)
    threshold = parsed.number("sim", "terminal_error_threshold", 1e-3)
    if not threshold > 0:
        parsed.fail("sim", "terminal_error_threshold", f"threshold = {threshold} must be positive")
    initial_mode = parsed.get("sim", "initial_mode", "reference")
    offsets = None
    if initial_mode == "perturbed":
        offsets = {}
        uniform = parsed.get("sim", "offset")
        if uniform is not None:
            try:
                dx, dy = (_finite(tok) for tok in uniform.replace(",", " ").split())
            except ValueError:
                parsed.fail("sim", "offset", "expected two finite numbers")
            offsets.update({i: np.array([dx, dy]) for i in graph.cells})
        for key, cell, raw in parsed.indexed("sim", "offset"):
            try:
                cell = int(cell)
                dx, dy = (_finite(tok) for tok in raw.replace(",", " ").split())
            except ValueError:
                parsed.fail("sim", key, "expected two finite numbers")
            offsets[cell] = np.array([dx, dy])
        unknown = set(offsets) - set(graph.cells)
        if unknown:
            raise ScenarioError(f"{name}: offsets reference unknown cells {sorted(unknown)}")
    elif initial_mode == "reference":
        for key in parsed.sections.get("sim", ()):
            if key.split(".", 1)[0] == "offset":
                parsed.fail("sim", key, "an offset needs initial_mode = perturbed")
    else:
        parsed.fail("sim", "initial_mode", "expected 'reference' or 'perturbed'")

    sim = SimConfig(dt=dt, model=model, alpha=alpha, k_v=k_v, initial_offsets=offsets)
    parsed.reject_unread()
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


def load_scenario(path) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    p = Path(path)
    if not p.exists() and str(path) in BUNDLED:
        p = bundled_scenario_path(str(path))
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    return load_scenario_text(p.read_text(), name=str(p))
