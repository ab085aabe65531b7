"""Cell identities, layered interconnection network, reference configuration.

Cells form a layered graph: three boundary cells in layer 0 anchor an
equilateral triangle, and every interior cell has exactly three neighbors
from strictly earlier layers, so each reference position is the average of
three earlier ones. That layered network is linear: it folds into one N x 3
weight matrix W, and the reference positions are W @ B0 for the boundary
positions B0. Per-cell arrays are (N, 2) with row i - 1 holding cell i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Tuple

import numpy as np

from .errors import InvalidArgumentError


# The one bound on every length of the input: each geometry length, each
# component of a translation (d1, d2 of a pose) and of a start offset. A plan
# stretches no distance (both strains are at most 1), so a desired coordinate
# is within 2 * MAX_LENGTH of the origin, and a start position, offset added,
# within 3 * MAX_LENGTH. Under a single integrator with alpha * dt <= 1 each
# step moves a cell to a convex combination of where it is and where it is
# desired, so it stays in the convex hull of its start and its desired path:
# every coordinate stays within 3 * MAX_LENGTH, every difference of two, the
# tracking lag included, within 6 * MAX_LENGTH, and its squares sum to at most
# 72 / 256 of float64's largest value; `simulator.MAX_ALPHA` keeps the
# velocity command alpha * error finite on such a lag. Not covered: a gain
# with alpha * dt above 1 and the double integrator (ROADMAP item 17).
MAX_LENGTH = math.sqrt(np.finfo(float).max) / 16


def check_length(name: str, value, field: str, signed: bool = True, **fields) -> None:
    """Reject a length `value` (or any of its components) that is NaN or
    beyond MAX_LENGTH in magnitude, naming `field`, `value`, `bound` and `fields`."""
    if not (np.abs(value) <= MAX_LENGTH).all():
        bound = f"at most {MAX_LENGTH:.6g}{' in magnitude' if signed else ''}"
        message = f"{name} must be {bound} so that squared distances stay finite, got {value}"
        raise InvalidArgumentError(message, field=field, value=value, bound=MAX_LENGTH, **fields)


@dataclass(frozen=True)
class CellGraph:
    """Layered cell graph plus the geometry shared by every cell.

    layers[0] holds the three boundary cells; every cell in layers[l>=1] is
    interior with exactly three neighbors from earlier layers. `powered`
    must hold the boundary cells; it defaults to everything except the last
    layer, and to the boundary cells when they are the only layer.
    `actuated[i]` names the two neighbor joints of interior cell i that
    carry motors. `side_length` is the side of the boundary triangle.

    An error names the `field` it rejects: `layers`, `neighbors.<i>` or
    `actuated.<i>` for cell i, `powered`, or a geometry field;
    `cell_radius` for a reference that overlaps, which is solved here.
    """

    layers: Tuple[FrozenSet[int], ...]
    neighbors: Dict[int, FrozenSet[int]]
    cell_radius: float
    arm_length: float
    powered: FrozenSet[int] = field(default=None)  # type: ignore[assignment]
    actuated: Dict[int, Tuple[int, int]] = field(default=None)  # type: ignore[assignment]
    side_length: float = 1.0

    def __post_init__(self):
        layers = tuple(frozenset(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers or len(layers[0]) != 3:
            raise InvalidArgumentError("layer 0 must contain exactly 3 boundary cells", field="layers")
        cells = set()
        for layer in layers:
            if not layer:
                raise InvalidArgumentError("empty layer", field="layers")
            if layer & cells:
                duplicated = sorted(layer & cells)
                raise InvalidArgumentError(f"layers are not disjoint: {duplicated}", field="layers")
            cells |= layer
        if cells != set(range(1, len(cells) + 1)):
            raise InvalidArgumentError("cells must be numbered 1..N without gaps", field="layers")

        neighbors = {i: frozenset(js) for i, js in self.neighbors.items()}
        object.__setattr__(self, "neighbors", neighbors)
        layer_of = self.layer_of
        interior = cells - layers[0]
        for i in sorted(interior):
            ns, key = neighbors.get(i), f"neighbors.{i}"
            if ns is None or len(ns) != 3:
                raise InvalidArgumentError(
                    f"interior cell {i} must have exactly 3 neighbors, got "
                    f"{None if ns is None else sorted(ns)}", field=key
                )
            for j in ns:
                if j not in cells:
                    raise InvalidArgumentError(f"cell {i} lists unknown neighbor {j}", field=key)
                if layer_of[j] >= layer_of[i]:
                    raise InvalidArgumentError(
                        f"cell {i} (layer {layer_of[i]}) lists neighbor {j} "
                        f"(layer {layer_of[j]}): neighbors must come from earlier layers",
                        field=key,
                    )
        for i in neighbors:
            key = f"neighbors.{i}"
            if i not in cells:
                raise InvalidArgumentError(f"cell {i} is in no layer, cannot have neighbors", field=key)
            if i in layers[0]:
                raise InvalidArgumentError(f"boundary cell {i} cannot have neighbors", field=key)

        for name in ("cell_radius", "arm_length", "side_length"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}", field=name)
            check_length(name, value, name, signed=False)

        powered = self.powered
        if powered is None:
            powered = frozenset(cells - layers[-1]) | layers[0]
        powered = frozenset(powered)
        if not powered <= cells:
            raise InvalidArgumentError("powered set references unknown cells", field="powered")
        idle = sorted(layers[0] - powered)
        if idle:  # no joint drags a boundary cell; only its own drive moves it
            raise InvalidArgumentError(f"boundary cell {idle[0]} must be powered", field="powered")
        object.__setattr__(self, "powered", powered)

        actuated = dict(self.actuated) if self.actuated else {}
        for i in sorted(interior):
            if i in actuated:
                pair = tuple(actuated[i])
                if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= neighbors[i]:
                    raise InvalidArgumentError(
                        f"actuated joints of cell {i} must be two distinct neighbors",
                        field=f"actuated.{i}",
                    )
                actuated[i] = (min(pair), max(pair))
            else:
                actuated[i] = tuple(sorted(neighbors[i])[:2])
        for i in actuated:
            if i not in interior:
                message = f"cell {i} is not interior, cannot have joints"
                raise InvalidArgumentError(message, field=f"actuated.{i}")
        object.__setattr__(self, "actuated", actuated)
        self.reference  # a graph whose reference overlaps is rejected here

    @cached_property
    def reference(self) -> ReferenceConfiguration:
        """The reference configuration, a function of the graph alone."""
        return solve_reference_positions(self)

    @cached_property
    def cells(self) -> Tuple[int, ...]:
        return tuple(range(1, sum(len(layer) for layer in self.layers) + 1))

    @cached_property
    def layer_of(self) -> Dict[int, int]:
        return {i: l for l, layer in enumerate(self.layers) for i in layer}

    @cached_property
    def interior(self) -> Tuple[int, ...]:
        return tuple(i for i in self.cells if i not in self.layers[0])

    @cached_property
    def unpowered(self) -> FrozenSet[int]:
        return frozenset(set(self.cells) - self.powered)

    @cached_property
    def joints(self) -> Tuple[Tuple[int, int], ...]:
        """Every (interior cell, neighbor) joint, sorted."""
        return tuple((i, j) for i in self.interior for j in sorted(self.neighbors[i]))

    @property
    def reach(self) -> float:
        """Maximum joint separation the two-arm mechanism can span."""
        return 2.0 * (self.arm_length + self.cell_radius)


def barycentric_weights(graph: CellGraph) -> np.ndarray:
    """The layered network folded into one (N, 3) matrix W: row i - 1 holds
    the convex weights of cell i on the boundary cells, in ascending order."""
    w = np.zeros((len(graph.cells), 3))
    for k, b in enumerate(sorted(graph.layers[0])):
        w[b - 1, k] = 1.0
    for layer in graph.layers[1:]:
        cells = sorted(layer)
        rows = np.array([sorted(graph.neighbors[i]) for i in cells]) - 1
        w[np.array(cells) - 1] = w[rows].sum(axis=1) / 3.0
    return w


@dataclass(frozen=True)
class ReferenceConfiguration:
    """Reference cell positions a_i, as an (N, 2) array with row i - 1 for
    cell i, their minimum pairwise separation, and the strain bound
    lambda_min = 2r / d_min: shrinking the closest pair by less than this
    keeps every pair of cell disks from overlapping."""

    positions: np.ndarray
    d_min: float
    lambda_min: float


def min_separation(positions: np.ndarray):
    """The closest cell pair (i, j), i < j, and its distance over all pairs
    of finite (..., N, 2) positions with row i - 1 holding cell i; of equal
    distances, the lexicographically first pair. One configuration (N, 2)
    gives a pair of ints and a float; more give pairs (..., 2) and (...).

    All configurations are swept at once, cells in x order, comparing cells
    w = 1, 2, ... ranks apart until no pair has sqrt(dx * dx) within the best
    distance. dx only grows with w and sqrt(dx * dx + dy * dy) >= sqrt(dx * dx),
    so each skipped pair is strictly farther: the result is the exhaustive
    scan's, bit for bit."""
    positions = np.asarray(positions, dtype=float)
    *batch, n, _ = positions.shape
    if n < 2:
        raise InvalidArgumentError("need at least two cells")
    flat = positions.reshape(-1, n, 2)
    order = np.argsort(flat[..., 0].T, axis=0)  # (N, T): one configuration per column
    xs, ys = np.take_along_axis(flat.T, order[None], axis=1)
    best = np.full(len(flat), np.inf)
    key = np.full(len(flat), n * n)  # (i - 1) * n + j - 1 of the pair found
    for w in range(1, n):
        dx2 = np.square(xs[w:] - xs[:-w])
        if not (np.sqrt(dx2) <= best).any():
            break
        d = np.sqrt(dx2 + np.square(ys[w:] - ys[:-w]))
        new = np.minimum(best, d.min(axis=0))
        a, b = order[w:], order[:-w]
        tied = np.where(d == new, np.minimum(a, b) * n + np.maximum(a, b), n * n).min(axis=0)
        key, best = np.where(new < best, tied, np.minimum(key, tied)), new
    pairs = np.stack(np.divmod(key, n), axis=-1) + 1
    if not batch:
        return (int(pairs[0, 0]), int(pairs[0, 1])), float(best[0])
    return pairs.reshape(*batch, 2), best.reshape(batch)


def solve_reference_positions(graph: CellGraph) -> ReferenceConfiguration:
    """Place boundary cells on an equilateral triangle of side
    `graph.side_length` and each interior cell at the average of its three
    neighbors: positions = W @ B0. The reference must keep every pair of
    cells apart by more than a cell diameter, which makes lambda_min < 1;
    an overlap names `cell_radius`. Each graph solves its own once, as
    `CellGraph.reference`.

    The lowest-numbered boundary cell sits at the origin and the next on
    the +x axis; any other pose is reachable through the affine transform
    itself.
    """
    s = graph.side_length
    b0 = np.array([[0.0, 0.0], [s, 0.0], [0.5 * s, 0.5 * math.sqrt(3.0) * s]])
    positions = barycentric_weights(graph) @ b0
    _, d_min = min_separation(positions)
    if d_min <= 2.0 * graph.cell_radius:
        raise InvalidArgumentError(
            f"reference separation {d_min:.6g} m does not exceed the cell "
            f"diameter {2.0 * graph.cell_radius:.6g} m",
            field="cell_radius",
        )
    return ReferenceConfiguration(positions, d_min, 2.0 * graph.cell_radius / d_min)
