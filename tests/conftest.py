import itertools

import numpy as np
import pytest

from atugv.errors import InvalidArgumentError
from atugv.network import CellGraph, solve_reference_positions


def make_four_cell(cell_radius=0.05, arm_length=0.25):
    return CellGraph(
        layers=(frozenset({1, 2, 3}), frozenset({4})),
        neighbors={4: frozenset({1, 2, 3})},
        cell_radius=cell_radius,
        arm_length=arm_length,
    )


def make_seven_cell(cell_radius=0.05, arm_length=0.25):
    return CellGraph(
        layers=(frozenset({1, 2, 3}), frozenset({4}), frozenset({5, 6, 7})),
        neighbors={
            4: frozenset({1, 2, 3}),
            5: frozenset({1, 2, 4}),
            6: frozenset({2, 3, 4}),
            7: frozenset({1, 3, 4}),
        },
        cell_radius=cell_radius,
        arm_length=arm_length,
    )


@pytest.fixture
def four_cell():
    return make_four_cell()


@pytest.fixture
def seven_cell():
    return make_seven_cell()


@pytest.fixture
def seven_cell_reference(seven_cell):
    return solve_reference_positions(seven_cell)


@pytest.fixture
def four_cell_reference(four_cell):
    return solve_reference_positions(four_cell)


def random_layered_graph(rng, cell_radius_fraction=0.3, max_extra_layers=3):
    """Random valid layered topology with a non-degenerate reference.

    cell_radius_fraction f sets r = f * d_min / 2, i.e. lambda_min = f.
    Distinct neighbor triples can still average to coincident positions;
    those draws are rejected and resampled.
    """
    while True:
        n_layers = int(rng.integers(1, max_extra_layers + 1))
        layers = [frozenset({1, 2, 3})]
        neighbors = {}
        prev_cells = [1, 2, 3]
        used = set()
        next_id = 4
        for _ in range(n_layers):
            candidates = [
                trip for trip in itertools.combinations(prev_cells, 3) if trip not in used
            ]
            if not candidates:
                break
            size = min(int(rng.integers(1, 4)), len(candidates))
            picks = rng.choice(len(candidates), size=size, replace=False)
            layer = []
            for idx in picks:
                trip = candidates[int(idx)]
                neighbors[next_id] = frozenset(trip)
                used.add(trip)
                layer.append(next_id)
                next_id += 1
            layers.append(frozenset(layer))
            prev_cells = prev_cells + layer
        if len(layers) < 2:
            continue
        try:
            probe = CellGraph(
                layers=tuple(layers),
                neighbors=neighbors,
                cell_radius=1e-12,
                arm_length=10.0,
            )
        except InvalidArgumentError as error:
            if error.field != "cell_radius":  # an overlapping reference is redrawn, nothing else
                raise
            continue
        if probe.reference.d_min < 1e-6:
            continue
        r = cell_radius_fraction * probe.reference.d_min / 2.0
        graph = CellGraph(
            layers=tuple(layers),
            neighbors=neighbors,
            cell_radius=r,
            arm_length=10.0,
        )
        return graph, graph.reference


def stellar_layered_graph(n_cells, rng):
    """Random stellar subdivision of the boundary triangle into n_cells
    cells, with the default powered set: each new cell sits at the centroid
    of a random current triangle, which splits in three. The cell radius is
    a quarter of d_min and the mechanism reach 1.2 times the longest
    reference joint."""
    triangles = [(1, 2, 3)]
    neighbors, layer_of = {}, {1: 0, 2: 0, 3: 0}
    for cell in range(4, n_cells + 1):
        k = int(rng.integers(len(triangles)))
        a, b, c = triangles[k]
        triangles[k] = (a, b, cell)
        triangles += [(b, c, cell), (a, c, cell)]
        neighbors[cell] = frozenset((a, b, c))
        layer_of[cell] = 1 + max(layer_of[a], layer_of[b], layer_of[c])
    layers = tuple(
        frozenset(i for i, l in layer_of.items() if l == depth)
        for depth in range(max(layer_of.values()) + 1)
    )
    probe = CellGraph(layers=layers, neighbors=neighbors, cell_radius=1e-12, arm_length=10.0)
    reference = probe.reference
    p = reference.positions
    longest = max(np.linalg.norm(p[i - 1] - p[j - 1]) for i, js in neighbors.items() for j in js)
    r = 0.25 * reference.d_min
    graph = CellGraph(layers=layers, neighbors=neighbors, cell_radius=r, arm_length=0.6 * longest - r)
    return graph, graph.reference
