"""Output checks that use only the scenario file, the command's outputs
and numpy, never the package under test.

Desired positions are recomputed in closed form: reference positions from
the barycentric recurrence (boundary triangle, then the mean of three
earlier cells), mapped by the planned affine transform
p = R(sigma_r) U(lambda1, lambda2, sigma_d) a + d at each step time.
"""
from __future__ import annotations

import configparser
import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# Values are printed with 9 significant digits: a printed value is within
# 5e-9 of the exact one, relatively; the absolute term covers values that
# cancel to ~0.
PRINT_RTOL = 6e-9
PRINT_ATOL = 1e-12
COORDS = ("lambda1", "lambda2", "sigma_r", "sigma_d", "d1", "d2")
IDENTITY = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
PASS_WORDS = ("SAFE", "OK")
TERMINAL_ERROR_LIMIT = 1e-3


class CheckError(Exception):
    """An output disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Spec:
    """The parts of a scenario file the checks need."""

    layers: List[List[int]]
    neighbors: Dict[int, Tuple[int, int, int]]
    side_length: float
    t0: float
    tf: float
    initial: Tuple[float, ...]
    final: Tuple[float, ...]
    blend: str
    dt: float

    @property
    def cells(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def joints(self) -> int:
        return 3 * len(self.neighbors)

    @property
    def steps(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))


def _ints(raw: str) -> List[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def parse_scenario(path: Path) -> Spec:
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
    )
    parser.read_string(Path(path).read_text())
    graph, geom, plan = parser["graph"], parser["geometry"], parser["plan"]
    sim = parser["sim"] if parser.has_section("sim") else {}
    initial = tuple(
        float(plan.get(f"{name}_initial", default)) for name, default in zip(COORDS, IDENTITY)
    )
    final = tuple(
        float(plan.get(f"{name}_final", start)) for name, start in zip(COORDS, initial)
    )
    return Spec(
        layers=[_ints(part) for part in graph["layers"].split("|")],
        neighbors={
            int(key.split(".", 1)[1]): tuple(_ints(value))
            for key, value in graph.items()
            if key.startswith("neighbors.")
        },
        side_length=float(geom.get("side_length", "1.0")),
        t0=float(plan.get("t0", "0.0")),
        tf=float(plan["tf"]),
        initial=initial,
        final=final,
        blend=plan.get("blend", "smoothstep"),
        dt=float(sim.get("dt", "0.01")),
    )


def reference_positions(layers, neighbors, side_length) -> np.ndarray:
    """(N, 2) reference positions, row i - 1 for cell i: the boundary
    triangle, then each cell at the mean of its neighbours, layer by layer."""
    pos = np.empty((sum(len(layer) for layer in layers), 2))
    b0, b1, b2 = sorted(layers[0])
    s = side_length
    pos[b0 - 1] = (0.0, 0.0)
    pos[b1 - 1] = (s, 0.0)
    pos[b2 - 1] = (0.5 * s, 0.5 * math.sqrt(3.0) * s)
    for layer in layers[1:]:
        for cell in sorted(layer):
            a, b, c = sorted(neighbors[cell])
            pos[cell - 1] = (pos[a - 1] + pos[b - 1] + pos[c - 1]) / 3.0
    return pos


def min_distance(pos: np.ndarray) -> float:
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def step_times(spec: Spec) -> np.ndarray:
    times = spec.t0 + spec.dt * np.arange(spec.steps + 1)
    times[-1] = spec.tf
    return times


def desired_positions(spec: Spec, times: np.ndarray) -> np.ndarray:
    """(T, N, 2) image of the reference positions under the planned map."""
    u = (times - spec.t0) / (spec.tf - spec.t0)
    if spec.blend == "linear":
        b = u
    elif spec.blend == "smoothstep":
        b = u * u * (3.0 - 2.0 * u)
    else:
        b = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    coords = (1.0 - b)[:, None] * np.array(spec.initial) + b[:, None] * np.array(spec.final)
    l1, l2, sr, sd, d1, d2 = coords.T
    cr, sn = np.cos(sr), np.sin(sr)
    c, s = np.cos(sd), np.sin(sd)
    strain = np.array([[l1 * c * c + l2 * s * s, (l1 - l2) * c * s],
                       [(l1 - l2) * c * s, l1 * s * s + l2 * c * c]])  # (2, 2, T)
    rot = np.array([[cr, -sn], [sn, cr]])
    q = np.einsum("ijt,jkt->tik", rot, strain)
    ref = reference_positions(spec.layers, spec.neighbors, spec.side_length)
    return np.einsum("tik,nk->tni", q, ref) + np.stack([d1, d2], axis=1)[:, None, :]


def _close(printed: np.ndarray, exact: np.ndarray) -> bool:
    return bool(np.all(np.abs(printed - exact) <= PRINT_RTOL * np.abs(exact) + PRINT_ATOL))


def _verdicts(lines: List[str]) -> Dict[str, str]:
    found = {}
    for line in lines:
        m = re.match(r"\s*([\w -]+) verdict: (\w+)", line)
        if m:
            found[m.group(1)] = m.group(2)
    return found


def check_verdicts(lines: List[str], exit_code: int, safe_by_construction: bool):
    verdicts = _verdicts(lines)
    if not verdicts:
        raise CheckError("no verdict lines in the report")
    passed = all(word in PASS_WORDS for word in verdicts.values())
    if exit_code != (0 if passed else 1):
        raise CheckError(f"exit code {exit_code} disagrees with verdicts {verdicts}")
    if safe_by_construction and not passed:
        raise CheckError(f"verdicts {verdicts} on a plan that is safe by construction")


def _report_value(lines: List[str], pattern: str) -> Optional[float]:
    for line in lines:
        m = re.search(pattern, line)
        if m:
            return float(m.group(1))
    return None


def check_run(spec: Spec, out_dir: Path, exit_code: int, safe_by_construction: bool):
    report = (out_dir / "report.txt").read_text().splitlines()
    check_verdicts(report, exit_code, safe_by_construction)
    if safe_by_construction:
        worst = _report_value(report, r"terminal-error verdict: \w+ \(worst (\S+) m")
        if worst is None or not worst < TERMINAL_ERROR_LIMIT:
            raise CheckError(f"terminal error {worst} is not below {TERMINAL_ERROR_LIMIT}")

    n_rec = spec.steps + 1
    with (out_dir / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n_rec * spec.cells:
        raise CheckError(f"trajectory.csv has {len(rows)} rows, expected {n_rec * spec.cells}")
    with (out_dir / "elbows.csv").open() as fh:
        elbow_rows = sum(1 for _ in fh) - 1
    if elbow_rows != n_rec * spec.joints:
        raise CheckError(f"elbows.csv has {elbow_rows} rows, expected {n_rec * spec.joints}")

    table = np.array([(r[0], r[1], r[2], r[3]) for r in rows], dtype=float)
    times = step_times(spec)
    cells = np.arange(1, spec.cells + 1)
    if not np.array_equal(table[:, 1], np.tile(cells, n_rec)):
        raise CheckError("trajectory.csv rows are not one per cell per step, in cell order")
    if not _close(table[:, 0], np.repeat(times, spec.cells)):
        raise CheckError("trajectory.csv times differ from the step grid")
    expected = desired_positions(spec, times).reshape(-1, 2)
    if not _close(table[:, 2:4], expected):
        worst = int(np.argmax(np.abs(table[:, 2:4] - expected).max(axis=1)))
        raise CheckError(
            f"x_des/y_des differ from the closed-form plan image at row {worst + 2}: "
            f"{table[worst, 2:4]} vs {expected[worst]}"
        )
