import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atugv.affine import GeneralizedCoordinates, apply
from atugv.errors import InvalidArgumentError
from atugv.network import CellGraph, barycentric_weights, min_separation, solve_reference_positions
from atugv.planner import plan
from atugv.scenario import load_scenario_text
from atugv.simulator import run
from test_bench_contract import BENCH, _bench_module

SQRT3 = math.sqrt(3.0)


class TestGraphValidation:
    def test_seven_cell_neighbor_sets(self, seven_cell):
        assert seven_cell.neighbors[4] == {1, 2, 3}
        assert seven_cell.neighbors[5] == {1, 2, 4}
        assert seven_cell.neighbors[6] == {2, 3, 4}
        assert seven_cell.neighbors[7] == {1, 3, 4}
        assert seven_cell.powered == {1, 2, 3, 4}
        assert seven_cell.unpowered == {5, 6, 7}

    def test_default_actuated_joints_are_two_lowest(self, seven_cell):
        assert seven_cell.actuated[4] == (1, 2)
        assert seven_cell.actuated[5] == (1, 2)
        assert seven_cell.actuated[6] == (2, 3)
        assert seven_cell.actuated[7] == (1, 3)

    def test_same_layer_neighbor_rejected(self):
        message = r"^cell 5 \(layer 2\) lists neighbor 6 \(layer 2\): neighbors must come from earlier layers$"
        with pytest.raises(InvalidArgumentError, match=message) as excinfo:
            CellGraph(
                layers=(frozenset({1, 2, 3}), frozenset({4}), frozenset({5, 6})),
                neighbors={
                    4: frozenset({1, 2, 3}),
                    5: frozenset({1, 2, 6}),  # cell 6 shares layer 2
                    6: frozenset({2, 3, 4}),
                },
                cell_radius=0.05,
                arm_length=0.25,
            )
        assert excinfo.value.field == "neighbors.5"

    def test_wrong_degree_rejected(self):
        message = r"^interior cell 4 must have exactly 3 neighbors, got \[1, 2\]$"
        with pytest.raises(InvalidArgumentError, match=message) as excinfo:
            CellGraph(
                layers=(frozenset({1, 2, 3}), frozenset({4})),
                neighbors={4: frozenset({1, 2})},
                cell_radius=0.05,
                arm_length=0.25,
            )
        assert excinfo.value.field == "neighbors.4"

    def test_degree_error_prints_an_empty_neighbor_list(self):
        # Read `got frozenset()`.
        with pytest.raises(InvalidArgumentError) as excinfo:
            CellGraph(layers=[{1, 2, 3}, {4}], neighbors={4: []}, cell_radius=0.05, arm_length=0.25)
        assert str(excinfo.value) == "interior cell 4 must have exactly 3 neighbors, got []"
        assert excinfo.value.field == "neighbors.4"

    def test_boundary_must_be_three_cells(self):
        with pytest.raises(InvalidArgumentError):
            CellGraph(
                layers=(frozenset({1, 2}),),
                neighbors={},
                cell_radius=0.05,
                arm_length=0.25,
            )


class TestLayeredNetwork:
    """The layered averaging network folds into one weight matrix W: row
    i - 1 holds cell i's weights on boundary cells 1, 2, 3."""

    def test_four_cell_two_layers(self, four_cell):
        w = barycentric_weights(four_cell)
        np.testing.assert_array_equal(w[:3], np.eye(3))
        np.testing.assert_allclose(w[3], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_seven_cell_three_layers(self, seven_cell):
        w = barycentric_weights(seven_cell)
        np.testing.assert_array_equal(w[:3], np.eye(3))
        np.testing.assert_allclose(w[3], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        # layer 2 averages two boundary cells and the layer-1 cell 4
        np.testing.assert_allclose(w[4], [4 / 9, 4 / 9, 1 / 9], atol=1e-15)
        np.testing.assert_allclose(w[5], [1 / 9, 4 / 9, 4 / 9], atol=1e-15)
        np.testing.assert_allclose(w[6], [4 / 9, 1 / 9, 4 / 9], atol=1e-15)
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-15)


class TestReferenceConfiguration:
    def test_four_cell_centroid(self, four_cell):
        ref = solve_reference_positions(four_cell)
        np.testing.assert_allclose(ref.positions[3], [0.5, SQRT3 / 6], atol=1e-15)

    def test_seven_cell_interior_positions(self, seven_cell_reference):
        pos = seven_cell_reference.positions
        # oracle: evaluate the 1/3-average layer by layer
        np.testing.assert_allclose(pos[4], [0.5, SQRT3 / 18], atol=1e-14)
        np.testing.assert_allclose(pos[5], [2.0 / 3.0, 2 * SQRT3 / 9], atol=1e-14)
        np.testing.assert_allclose(pos[6], [1.0 / 3.0, 2 * SQRT3 / 9], atol=1e-14)

    def test_interior_averaging_residual(self, seven_cell, seven_cell_reference):
        pos = seven_cell_reference.positions
        for i in seven_cell.interior:
            avg = sum(pos[j - 1] for j in seven_cell.neighbors[i]) / 3.0
            assert np.linalg.norm(pos[i - 1] - avg) <= 1e-10

    def test_interior_inside_neighbor_hull(self, seven_cell, seven_cell_reference):
        # a strict 1/3-convex combination lies inside the neighbor triangle
        pos = seven_cell_reference.positions
        for i in seven_cell.interior:
            tri = [pos[j - 1] for j in sorted(seven_cell.neighbors[i])]
            a = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            w = np.linalg.solve(a, pos[i - 1] - tri[0])
            assert 0.0 < w[0] < 1.0 and 0.0 < w[1] < 1.0 and w[0] + w[1] < 1.0

    def test_seven_cell_d_min(self, seven_cell_reference):
        assert abs(seven_cell_reference.d_min - SQRT3 / 9) < 1e-12

    def test_four_cell_d_min(self, four_cell):
        ref = solve_reference_positions(four_cell)
        assert abs(ref.d_min - 1.0 / SQRT3) < 1e-12

    def test_overlapping_reference_rejected(self, seven_cell):
        with pytest.raises(InvalidArgumentError, match="does not exceed the cell diameter") as info:
            solve_reference_positions(dataclasses.replace(seven_cell, side_length=0.1))
        assert info.value.field == "cell_radius"  # the graph raises it at construction

    def test_graph_owns_its_reference(self, four_cell):
        assert four_cell.reference is four_cell.reference  # solved once per graph
        np.testing.assert_array_equal(four_cell.reference.positions, solve_reference_positions(four_cell).positions)

    def test_custom_anchor(self, four_cell):
        # another pose of the boundary is an affine image of the default one
        ref = solve_reference_positions(four_cell)
        shift = GeneralizedCoordinates(1.0, 1.0, 0.0, 0.0, 2.0, 1.0)
        moved = apply(shift, ref.positions)
        anchor = [[2.0, 1.0], [3.0, 1.0], [2.5, 1.0 + SQRT3 / 2]]
        np.testing.assert_allclose(moved[:3], anchor, atol=1e-14)
        np.testing.assert_allclose(moved[3], [2.5, 1.0 + SQRT3 / 6], atol=1e-14)


class TestMinSeparation:
    def test_two_cells(self):
        pairs, distances = min_separation(np.array([[[0.0, 0.0], [1.0, 0.0]]]))
        assert pairs.tolist() == [[1, 2]] and distances.tolist() == [1.0]

    def test_matches_brute_force(self, seven_cell_reference):
        pos = seven_cell_reference.positions
        n = len(pos)
        # first closest pair in (i, j) order, as a pairwise loop finds it
        brute = min(
            (
                ((i + 1, j + 1), math.hypot(*(pos[i] - pos[j])))
                for i in range(n)
                for j in range(i + 1, n)
            ),
            key=lambda pair_distance: pair_distance[1],
        )
        (pair,), (d,) = min_separation(pos[None])
        assert abs(d - brute[1]) < 1e-15
        assert tuple(pair.tolist()) == brute[0]

    def test_random_points_match_brute_force(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 17, 60):
            pos = rng.uniform(-1, 1, size=(n, 2))
            dist = {
                (i + 1, j + 1): float(np.linalg.norm(pos[i] - pos[j]))
                for i in range(n)
                for j in range(i + 1, n)
            }
            (pair,), (d,) = min_separation(pos[None])
            assert abs(d - min(dist.values())) < 1e-15
            assert dist[tuple(pair.tolist())] == min(dist.values())

    def test_batches_match_per_configuration_calls(self):
        # many small configurations, a few large ones, and between
        rng = np.random.default_rng(11)
        for t, n in ((5000, 4), (3, 300), (40, 60)):
            pos = rng.uniform(-1, 1, size=(t, n, 2))
            # every other configuration on a coarse grid: exact ties, zeros too
            pos[::2] = rng.integers(0, 6, size=pos[::2].shape) * 0.25
            pairs, dists = min_separation(pos)
            assert pairs.shape == (t, 2) and dists.shape == (t,)
            for k in range(t):
                (pair,), (d,) = min_separation(pos[k : k + 1])
                assert tuple(pairs[k]) == tuple(pair) and dists[k] == d

    def test_ties_go_to_the_first_pair(self):
        rng = np.random.default_rng(12)
        pos = rng.integers(0, 4, size=(6, 9, 2)) * 0.5  # exact distances
        pairs, dists = min_separation(pos)
        assert pairs.shape == (6, 2) and dists.shape == (6,)
        for idx in range(6):
            p = pos[idx]
            squared = {
                (i + 1, j + 1): float((p[i] - p[j]) @ (p[i] - p[j]))
                for i in range(9)
                for j in range(i + 1, 9)
            }
            first = min(squared, key=lambda pair: (squared[pair], pair))
            assert tuple(pairs[idx]) == first
            assert dists[idx] == math.sqrt(squared[first])


def exhaustive_min_separation(positions):
    """The oracle: every pairwise distance of (..., N, 2) positions, then
    per configuration the first minimum in row-major order, as pairs
    (..., 2) and distances (...)."""
    positions = np.asarray(positions, dtype=float)
    *batch, n, _ = positions.shape
    p = positions.reshape(-1, n, 2)
    diff = p[:, :, None, :] - p[:, None, :, :]
    dist = np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff)).reshape(len(p), n * n)
    dist[:, np.arange(n) * (n + 1)] = np.inf
    # dist is exactly symmetric, so the first minimum in row-major order
    # is the lexicographically first closest pair, with i < j.
    first = np.argmin(dist, axis=1)
    pairs = np.stack(np.divmod(first, n), axis=-1) + 1
    return pairs.reshape(*batch, 2), dist[np.arange(len(p)), first].reshape(batch)


def assert_matches_oracle(positions):
    pairs, distances = min_separation(positions)
    expected_pairs, expected = exhaustive_min_separation(positions)
    assert np.array_equal(pairs, expected_pairs)
    assert np.array_equal(distances, expected)  # bitwise: no tolerance
    for k in range(len(positions)):  # batched == one row at a time
        one_pairs, one_distances = min_separation(positions[k : k + 1])
        assert one_pairs.tolist() == [pairs[k].tolist()] and one_distances.tolist() == [distances[k]]


def configurations(elements):
    """A batch of 1-4 configurations of 2-40 cells."""
    shapes = st.tuples(st.integers(1, 4), st.integers(2, 40), st.just(2))
    return shapes.flatmap(lambda shape: hnp.arrays(float, shape, elements=elements))


# Subnormals included: their differences square to zero.
random_points = configurations(st.floats(-2.0, 2.0, allow_nan=False))
# Few distinct points: exact ties and coincident cells in most draws.
lattice_points = configurations(st.integers(-3, 3).map(lambda k: 0.25 * k))


class TestSweepMatchesExhaustiveScan:
    """`min_separation` sweeps cells in x order and stops early; its pairs
    and distances must be bitwise those of the exhaustive scan."""

    @settings(max_examples=300, deadline=None)
    @given(random_points | lattice_points)
    def test_property(self, positions):
        assert_matches_oracle(positions)

    def test_lattice_full_of_ties(self):
        grid = np.stack(np.meshgrid(np.arange(16.0), np.arange(16.0)), -1).reshape(-1, 2)
        rng = np.random.default_rng(3)
        assert_matches_oracle(np.stack([grid, grid[rng.permutation(256)], 0.1 * grid]))

    def test_coincident_cells(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(-1, 1, size=(3, 12, 2))
        pos[0] = 0.0
        pos[1, 9] = pos[1, 4]
        pos[2, [2, 7, 11]] = pos[2, 5]
        assert_matches_oracle(pos)
        pairs, distances = min_separation(pos[2:3])
        assert pairs.tolist() == [[3, 6]] and distances.tolist() == [0.0]

    def test_one_shared_x(self):
        # Every pair is within every dx bound: the sweep runs to w = N - 1.
        rng = np.random.default_rng(5)
        pos = np.zeros((4, 60, 2))
        pos[..., 0] = 0.3
        pos[:2, :, 1] = rng.uniform(size=(2, 60))
        pos[2:, :, 1] = rng.integers(0, 20, size=(2, 60)) * 0.125
        assert_matches_oracle(pos)

    def test_two_cells(self):
        pos = np.array([[[0.0, 0.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [-1.0, 0.0]]])
        assert_matches_oracle(pos)
        pairs, distances = min_separation(pos)
        assert pairs.tolist() == [[1, 2]] * 3 and distances.tolist() == [5.0, 0.0, 3.0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_powered_250_cell_traces(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
        workloads = _bench_module("workloads")
        scenario = load_scenario_text(workloads.synthetic_scenario(np.random.default_rng([seed, 0])))
        reference = scenario.graph.reference
        assert reference.d_min == exhaustive_min_separation(reference.positions)[1]
        assert plan(scenario.plan_spec, scenario.graph, scenario.sample_count) is None
        trace = run(scenario.plan_spec, scenario.graph, scenario.sim)
        assert trace.actual.shape == (11, 250, 2)
        pairs, clearance = exhaustive_min_separation(trace.actual)
        assert np.array_equal(trace.min_clearance, clearance)
        assert np.array_equal(trace.closest_pairs, pairs)
        assert_matches_oracle(trace.actual)
