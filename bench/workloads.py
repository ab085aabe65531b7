"""Seeded inputs and command streams for the benchmark workloads.

Synthetic vehicles come from random stellar subdivision of the boundary
triangle: each new cell sits at the centroid of a randomly chosen current
triangle, which then splits in three. Every neighbour triple is a distinct
triangle, neighbours always come from earlier layers, and no two cells
coincide, so graphs of any size are valid without rejection sampling.
(Random triples of earlier cells, as in the test helper, produce
coincident cells at 70 cells and above.)

The program only ever sees the scenario files written here, in the
documented grammar.

`synthetic_run` powers every cell. With the default powered set most
250-cell graphs crash at step 0 with `InconsistentAnglesError` (an
unpowered cell nearly collinear with its neighbours), and every benchmark
command must succeed. That crash is a known simulator defect (ROADMAP
item 4) which this benchmark does not measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List

import numpy as np

from oracle import min_distance, reference_positions

WORKLOADS = ("bundled_run", "synthetic_run")

BUNDLED = ("four_cell_experiment", "seven_cell_sim")
SYNTH_CELLS = 250
# Cell radius as a share of d_min, so lambda_min = 2 * RADIUS_SHARE = 0.5;
# planned strains stay in [0.75, 1], so every synthetic plan is SAFE.
RADIUS_SHARE = 0.25
# Mechanism reach 2(L + r) as a multiple of the longest reference joint;
# strains <= 1 only shorten joints, so every joint stays reachable.
REACH_MARGIN = 1.2
RUN_STEPS = 10  # the simulator requires at least 10 steps per horizon
RUN_DT = 0.05
RUN_SAMPLES = 20


@dataclass(frozen=True)
class Command:
    """One `atugv run` and what the output check may assume."""

    scenario: str  # bundled name or path of a generated scenario file
    label: str  # e.g. "seven_cell_sim", "all_powered"
    safe_by_construction: bool = False  # check: exit 0, all verdicts SAFE/OK


def stellar_graph(n_cells: int, rng: np.random.Generator):
    """Neighbour triples and layer index of each cell, for cells 1..n."""
    triangles = [(1, 2, 3)]
    neighbors = {}
    layer = {1: 0, 2: 0, 3: 0}
    for cell in range(4, n_cells + 1):
        k = int(rng.integers(len(triangles)))
        a, b, c = triangles[k]
        triangles[k] = (a, b, cell)
        triangles.append((b, c, cell))
        triangles.append((a, c, cell))
        neighbors[cell] = tuple(sorted((a, b, c)))
        layer[cell] = 1 + max(layer[a], layer[b], layer[c])
    return neighbors, layer


def synthetic_scenario(rng: np.random.Generator):
    """Scenario text for one random vehicle with every cell powered."""
    neighbors, layer = stellar_graph(SYNTH_CELLS, rng)
    depth = max(layer.values())
    layers = [sorted(i for i, l in layer.items() if l == k) for k in range(depth + 1)]
    pos = reference_positions(layers, neighbors, 1.0)
    d_min = min_distance(pos)
    longest = max(
        float(np.linalg.norm(pos[i - 1] - pos[j - 1]))
        for i, js in neighbors.items()
        for j in js
    )
    radius = RADIUS_SHARE * d_min
    arm = 0.5 * REACH_MARGIN * longest - radius
    lines = [
        "[graph]",
        "powered = " + ",".join(str(i) for i in range(1, SYNTH_CELLS + 1)),
        "layers = " + " | ".join(",".join(map(str, l)) for l in layers),
    ]
    lines += [f"neighbors.{i} = {','.join(map(str, ns))}" for i, ns in sorted(neighbors.items())]
    lines += [
        "",
        "[geometry]",
        f"cell_radius = {radius!r}",
        f"arm_length = {arm!r}",
        "side_length = 1.0",
        "",
        "[plan]",
        "t0 = 0.0",
        f"tf = {RUN_STEPS * RUN_DT!r}",
        f"lambda1_final = {rng.uniform(0.75, 0.95)!r}",
        f"lambda2_final = {rng.uniform(0.75, 0.95)!r}",
        f"sigma_r_final = {rng.uniform(-math.pi / 4, math.pi / 4)!r}",
        f"sigma_d_final = {rng.uniform(0.0, math.pi / 2)!r}",
        f"d1_final = {rng.uniform(-0.5, 0.5)!r}",
        f"d2_final = {rng.uniform(-0.5, 0.5)!r}",
        f"blend = {('linear', 'smoothstep', 'smootherstep')[int(rng.integers(3))]}",
        f"samples = {RUN_SAMPLES}",
        "",
        "[sim]",
        "model = single",
        f"dt = {RUN_DT!r}",
        "alpha = 10.0",
    ]
    return "\n".join(lines) + "\n"


def cycles(workload: str, seed: int, scenario_dir: Path) -> Iterator[List[Command]]:
    """Endless stream of command groups; the benchmark runs whole groups."""
    if workload == "bundled_run":
        group = [Command(name, name, safe_by_construction=True) for name in BUNDLED]
        while True:
            yield group
    scenario_dir.mkdir(parents=True, exist_ok=True)
    index = 0
    while True:
        rng = np.random.default_rng([seed, index])
        index += 1
        path = scenario_dir / "all_powered.cfg"
        path.write_text(synthetic_scenario(rng))
        yield [Command(str(path), "all_powered")]
