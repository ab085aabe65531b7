"""Scenario files: an INI-style key/value format with four sections
(graph, geometry, plan, sim). The exact grammar is documented in the
repository README. Two scenarios matching the published design-parameter
table are bundled: four_cell_experiment and seven_cell_sim.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .affine import COORD_FIELDS, GeneralizedCoordinates
from .errors import AtugvError, InvalidArgumentError
from .network import CellGraph
from .planner import PlanSpec, check_sample_count
from .simulator import SimConfig, step_count

BUNDLED = ("four_cell_experiment", "seven_cell_sim")


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: CellGraph
    plan_spec: PlanSpec
    sample_count: int
    sim: SimConfig
    terminal_error_threshold: float


# `#` at the start of a line or after whitespace begins a comment.
_COMMENT = re.compile(r"(?<!\S)#.*")
_HEADER = re.compile(r"\[(.+)\]")


class _Parsed:
    """The key/value text of each section, the line of each header and key,
    and the keys of each section the loader has read: the grammar is exactly
    the keys the loader reads."""

    def __init__(self, text: str, name: str):
        self.name = name
        self.sections = {}
        self.lines = {}  # (section, key) -> line number; key None for the header
        section = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = _COMMENT.sub("", line).strip()
            if not line or line.startswith(";"):
                continue
            header = _HEADER.fullmatch(line)
            if header:
                section = header.group(1)
                if section in self.sections:
                    raise InvalidArgumentError(f"{name}:{lineno}: duplicate section [{section}]")
                self.sections[section] = {}
                self.lines[section, None] = lineno
                continue
            if section is None:
                raise InvalidArgumentError(f"{name}:{lineno}: expected a [section] header")
            key, delimiter, value = line.partition("=")
            key = key.strip().lower()
            if not (delimiter and key):
                raise InvalidArgumentError(f"{name}:{lineno}: expected key = value")
            if key in self.sections[section]:
                raise InvalidArgumentError(f"{name}:{lineno}: [{section}] {key}: duplicate key", field=key)
            self.sections[section][key] = value.strip()
            self.lines[section, key] = lineno
        self.read = {section: set() for section in self.sections}

    def fail(self, section: str, key: str, message: str, cause: Optional[AtugvError] = None):
        # A key the file leaves out is located at its section's header. The
        # error keeps the numbers of the config type's error it locates.
        lineno = self.lines.get((section, key)) or self.lines.get((section, None))
        where = f"{self.name}:{lineno}" if lineno else self.name
        fields = {name: getattr(cause, name) for name in ("value", "bound", "cell")} if cause else {}
        raise InvalidArgumentError(f"{where}: [{section}] {key}: {message}", field=key, **fields) from cause

    def build(self, sections: tuple, make, *args, cell_keys=None, **kwargs):
        """make(*args, **kwargs), a config type read from `sections` that
        decides what is valid: its error, which names a `field`, fails at
        its key, the field or the key that `cell_keys` gives the error's
        `cell`, in the section that read that key (the first section if
        none did), with its message, `value`, `bound` and `cell`."""
        try:
            return make(*args, **kwargs)
        except AtugvError as exc:
            key = (cell_keys or {}).get(exc.cell, exc.field)
            section = next((s for s in sections if key in self.read.get(s, ())), sections[0])
            self.fail(section, key, str(exc), cause=exc)

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        if section not in self.sections:
            return default
        self.read[section].add(key)
        return self.sections[section].get(key, default)

    def indexed(self, section: str, base: str):
        """(key, i, text) of every `base.<i>` key in the section. A cell i
        has one spelling, str(i): any other suffix fails at its key."""
        prefix = base + "."
        read = self.read.get(section, set())
        for key, text in self.sections.get(section, {}).items():
            if key.startswith(prefix):
                read.add(key)
                cell = _cell(key[len(prefix):])
                if cell is None:
                    self.fail(section, key, f"expected {base}.<i> with i a cell number")
                yield key, cell, text

    def cells(self, section: str, key: str, text: str, expected="expected a comma-separated cell list") -> list:
        """The cell list `text`, the key's value or one layer of it: cells
        spelled as in keys, each named once, separated by commas with optional
        spaces around them. A bad spelling, a missing comma or an empty entry
        fails with `expected`."""
        cells = [_cell(token.strip()) for token in text.split(",")]
        if None in cells:
            self.fail(section, key, expected)
        if len(set(cells)) < len(cells):
            twice = next(i for k, i in enumerate(cells) if i in cells[:k])
            self.fail(section, key, f"cell {twice} is listed twice")
        return cells

    def pair(self, section: str, key: str, text: str) -> tuple:
        """The value `text` as exactly two finite numbers, separated by a
        comma with optional spaces around it."""
        try:
            x, y = (_finite(token) for token in text.split(","))
        except ValueError:
            self.fail(section, key, "expected two finite numbers")
        return x, y

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
                raise InvalidArgumentError(f"{self.name}:{self.lines[section, None]}: unknown section [{section}]")
            unread = [key for key in items if key not in read]
            if unread:
                self.fail(section, unread[0], "unknown key")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


# A cell number has one spelling, str(i), of at most nine digits.
_CELL_NUMBER = re.compile(r"0|-?[1-9][0-9]{0,8}")


def _cell(text: str) -> Optional[int]:
    """The cell number `text` spells, or None if it spells none."""
    return int(text) if _CELL_NUMBER.fullmatch(text) else None


def load_scenario_text(text: str, name: str = "<scenario>") -> Scenario:
    parsed = _Parsed(text, name)
    for section in ("graph", "geometry", "plan"):
        if section not in parsed.sections:
            raise InvalidArgumentError(f"{name}: missing required section [{section}]")

    layers = parsed.get("graph", "layers")
    if layers is None:
        parsed.fail("graph", "layers", "required key missing")
    bad_layers = "expected cell lists separated by '|'"
    layers = [frozenset(parsed.cells("graph", "layers", part, bad_layers)) for part in layers.split("|")]
    neighbors = {}
    for key, i, raw in parsed.indexed("graph", "neighbors"):
        neighbors[i] = frozenset(parsed.cells("graph", key, raw))
    actuated = {}
    for key, i, raw in parsed.indexed("graph", "actuated"):
        pair = parsed.cells("graph", key, raw, "expected two comma-separated cell ids")
        actuated[i] = tuple(pair)
    powered = parsed.get("graph", "powered")
    if powered is not None:
        powered = frozenset(parsed.cells("graph", "powered", powered))

    cell_radius = parsed.number("geometry", "cell_radius")
    arm_length = parsed.number("geometry", "arm_length")
    side_length = parsed.number("geometry", "side_length", CellGraph.side_length)
    args = (tuple(layers), neighbors, cell_radius, arm_length, powered, actuated or None, side_length)
    graph = parsed.build(("graph", "geometry"), CellGraph, *args)

    t0 = parsed.number("plan", "t0", 0.0)
    tf = parsed.number("plan", "tf")
    blend = parsed.get("plan", "blend", PlanSpec.blend)
    samples = parsed.number("plan", "samples", 200, int)
    parsed.build(("plan",), check_sample_count, samples)

    def coords(suffix: str, defaults: GeneralizedCoordinates) -> GeneralizedCoordinates:
        values = {f: parsed.number("plan", f + suffix, getattr(defaults, f)) for f in COORD_FIELDS}
        return GeneralizedCoordinates(**values)

    initial = coords("_initial", GeneralizedCoordinates.identity())
    final = coords("_final", initial)
    plan_spec = parsed.build(("plan",), PlanSpec, t0, tf, initial, final, blend)

    model = parsed.get("sim", "model", SimConfig.model)
    dt = parsed.number("sim", "dt", SimConfig.dt)
    alpha = parsed.number("sim", "alpha", SimConfig.alpha)
    k_v = parsed.number("sim", "k_v", SimConfig.k_v)
    threshold = parsed.number("sim", "terminal_error_threshold", 1e-3)
    if not threshold > 0:
        parsed.fail("sim", "terminal_error_threshold", f"threshold = {threshold} must be positive")
    offsets, offset_keys = {}, {}  # a cell's offset and the key that set it
    uniform = parsed.get("sim", "offset")
    if uniform is not None:
        offset = parsed.pair("sim", "offset", uniform)
        offsets = {i: np.array(offset) for i in graph.cells}
        offset_keys = dict.fromkeys(graph.cells, "offset")
    for key, cell, raw in parsed.indexed("sim", "offset"):
        offset = parsed.pair("sim", key, raw)
        if cell not in graph.cells:
            parsed.fail("sim", key, f"cell {cell} is in no layer")
        offsets[cell], offset_keys[cell] = np.array(offset), key

    sim = parsed.build(
        ("sim",), SimConfig, dt=dt, model=model, alpha=alpha, k_v=k_v, initial_offsets=offsets or None,
        cell_keys=offset_keys,
    )
    parsed.build(("sim",), step_count, plan_spec, sim.dt)
    parsed.reject_unread()
    return Scenario(
        name=name,
        graph=graph,
        plan_spec=plan_spec,
        sample_count=samples,
        sim=sim,
        terminal_error_threshold=threshold,
    )


def bundled_scenario_path(name: str) -> Path:
    """The file of the bundled scenario `name`, one of BUNDLED, which `load_scenario` checks."""
    return Path(resources.files("atugv") / "scenarios" / f"{name}.cfg")


def load_scenario(path) -> Scenario:
    """Load a scenario from a file path, or a bundled name that names no regular file."""
    p = Path(path)
    if not p.is_file() and str(path) in BUNDLED:
        p = bundled_scenario_path(str(path))
    if not p.exists():
        raise InvalidArgumentError(f"scenario file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8-sig")  # a byte-order mark is not part of line 1
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise InvalidArgumentError(f"cannot read scenario file {p}: {reason}") from exc
    return load_scenario_text(text, name=str(p))
