"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""
import math
import time

import numpy as np
import pytest

from atugv import (
    GeneralizedCoordinates,
    apply,
    coordinates_at,
    desired_elbow_angles,
    desired_positions,
    jacobian,
    load_scenario,
    plan,
    resolve_unpowered_position,
    rotation_matrix,
    run,
    min_separation,
    strain_matrix,
)
from atugv.cli import main
from conftest import random_layered_graph

SQRT3 = math.sqrt(3.0)


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def oracle_position(coords, a):
    """Desired position computed by explicit per-entry arithmetic, written
    independently of the library's matrix helpers."""
    cr, sr = math.cos(coords.sigma_r), math.sin(coords.sigma_r)
    cd, sd = math.cos(coords.sigma_d), math.sin(coords.sigma_d)
    l1, l2 = coords.lambda1, coords.lambda2
    u11 = l1 * cd * cd + l2 * sd * sd
    u22 = l1 * sd * sd + l2 * cd * cd
    u12 = (l1 - l2) * cd * sd
    q11 = cr * u11 - sr * u12
    q12 = cr * u12 - sr * u22
    q21 = sr * u11 + cr * u12
    q22 = sr * u12 + cr * u22
    return (
        q11 * a[0] + q12 * a[1] + coords.d1,
        q21 * a[0] + q22 * a[1] + coords.d2,
    )


def test_criterion_1_table_scenario_reproduction():
    scenario = load_scenario("seven_cell_sim")
    assert scenario.sim.model == "single" and scenario.sim.alpha == 10.0
    reference = scenario.graph.reference
    assert plan(scenario.plan_spec, scenario.graph, scenario.sample_count) is None
    start = time.perf_counter()
    trace = run(scenario.plan_spec, scenario.graph, scenario.sim)
    elapsed = time.perf_counter() - start
    final = scenario.plan_spec.final
    worst = 0.0
    for i in sorted(scenario.graph.powered):
        target = oracle_position(final, reference.positions[i - 1])
        err = math.hypot(
            trace.actual[-1, i - 1, 0] - target[0], trace.actual[-1, i - 1, 1] - target[1]
        )
        worst = max(worst, err)
    ok = worst < 1e-3 and elapsed < 5.0
    report(
        "1 table-scenario reproduction",
        ok,
        f"(worst powered terminal error {worst:.2e} m, runtime {elapsed:.2f} s)",
    )


def test_criterion_2_collision_bound_property_and_tightness():
    rng = np.random.default_rng(2024)
    # part A: strains at or above the bound never break clearance
    for _ in range(1000):
        graph, reference = random_layered_graph(rng)
        bound = 2.0 * graph.cell_radius / reference.d_min
        l_a = rng.uniform(bound, 1.0)
        l_b = rng.uniform(bound, 1.0)
        coords = GeneralizedCoordinates(
            lambda1=max(l_a, l_b),
            lambda2=min(l_a, l_b),
            sigma_r=rng.uniform(-math.pi, math.pi),
            sigma_d=rng.uniform(-math.pi, math.pi),
            d1=rng.uniform(-2, 2),
            d2=rng.uniform(-2, 2),
        )
        pair, d = min_separation(apply(coords, reference.positions))
        assert d >= 2.0 * graph.cell_radius - 1e-9, (
            f"clearance broken at {pair} with safe strains"
        )
    # part B: 1% below the bound, aimed along the critical pair, must collide
    for _ in range(100):
        graph, reference = random_layered_graph(rng)
        bound = 2.0 * graph.cell_radius / reference.d_min
        (ci, cj), _ = min_separation(reference.positions)
        diff = reference.positions[ci - 1] - reference.positions[cj - 1]
        # align the minor principal axis with the critical pair direction
        sigma_d = math.atan2(diff[1], diff[0]) + math.pi / 2.0
        lam2 = 0.99 * bound
        coords = GeneralizedCoordinates(
            lambda1=rng.uniform(lam2, 1.0),
            lambda2=lam2,
            sigma_r=rng.uniform(-math.pi, math.pi),
            sigma_d=sigma_d,
            d1=0.0,
            d2=0.0,
        )
        mapped = apply(coords, reference.positions)
        d_crit = float(np.linalg.norm(mapped[ci - 1] - mapped[cj - 1]))
        assert d_crit < 2.0 * graph.cell_radius - 1e-9, "bound is not tight"
    report("2 collision-bound property suite", True, "(1000 safe + 100 tight cases)")


def test_criterion_3_polar_decomposition_round_trip():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10_000):
        l_a, l_b = rng.uniform(0.02, 1.0, size=2)
        coords = GeneralizedCoordinates(
            lambda1=max(l_a, l_b),
            lambda2=min(l_a, l_b),
            sigma_r=rng.uniform(-math.pi, math.pi),
            sigma_d=rng.uniform(-math.pi, math.pi),
            d1=0.0,
            d2=0.0,
        )
        q = jacobian(coords)
        # singular values (lambda1, lambda2), determinant lambda1 * lambda2 > 0,
        # and q @ inv(strain) is the rotation by sigma_r
        sv = np.linalg.svd(q, compute_uv=False)
        det = np.linalg.det(q)
        rotation = q @ np.linalg.inv(strain_matrix(coords.lambda1, coords.lambda2, coords.sigma_d))
        assert det > 0.0
        worst = max(
            worst,
            float(np.max(np.abs(sv - [coords.lambda1, coords.lambda2]))),
            abs(det - coords.lambda1 * coords.lambda2),
            float(np.max(np.abs(rotation - rotation_matrix(coords.sigma_r)))),
        )
    report(
        "3 polar-decomposition round trip",
        worst <= 1e-9,
        f"(10000 cases, worst entrywise error {worst:.2e})",
    )


def test_criterion_4_kinematic_round_trip():
    worst = 0.0
    for name in ("four_cell_experiment", "seven_cell_sim"):
        scenario = load_scenario(name)
        graph = scenario.graph
        reference = graph.reference
        spec = scenario.plan_spec
        assert plan(spec, graph, scenario.sample_count) is None
        times = np.linspace(spec.t0, spec.tf, scenario.sample_count)
        positions = desired_positions(spec, graph, times)
        for i in sorted(graph.unpowered):
            j1, j2 = graph.actuated[i]
            previous = reference.positions[i - 1]
            for k in range(len(times)):
                p_i = positions[k, i - 1]
                p_j1 = positions[k, j1 - 1]
                p_j2 = positions[k, j2 - 1]
                t1, t2 = desired_elbow_angles(p_i, p_j1, p_j2, graph.reach)
                got, error = resolve_unpowered_position(p_j1, p_j2, t1, t2, graph.reach, previous)
                assert error is None
                worst = max(worst, float(np.linalg.norm(got - p_i)))
                previous = p_i
    report(
        "4 kinematic round trip",
        worst <= 1e-9,
        f"(both scenarios, worst recovery error {worst:.2e} m)",
    )


def test_criterion_5_error_contraction(four_cell):
    from atugv import PlanSpec, SimConfig

    identity = GeneralizedCoordinates.identity()
    spec = PlanSpec(t0=0.0, tf=5.0, initial=identity, final=identity)
    assert plan(spec, four_cell, sample_count=10) is None
    alpha, dt = 5.0, 0.05  # 100 steps over the horizon
    config = SimConfig(
        dt=dt,
        model="single",
        alpha=alpha,
        initial_offsets={1: np.array([0.01, 0.0]), 2: np.array([0.0, -0.02])},
    )
    trace = run(spec, four_cell, config)
    ratio = abs(1.0 - alpha * dt)
    worst = 0.0
    for i in (1, 2):
        errs = trace.errors[:, i - 1]
        for k in range(100):
            worst = max(worst, abs(errs[k + 1] - ratio * errs[k]))
    report(
        "5 error contraction",
        worst <= 1e-12,
        f"(per-step ratio |1 - a*dt| over 100 steps, worst deviation {worst:.2e})",
    )


def test_criterion_6_derived_constants(seven_cell_reference):
    d_min = seven_cell_reference.d_min
    lam = seven_cell_reference.lambda_min
    err_d = abs(d_min - SQRT3 / 9)
    err_l = abs(lam - 0.9 / SQRT3)
    report(
        "6 derived constants",
        err_d <= 1e-12 and err_l <= 1e-12,
        f"(d_min err {err_d:.2e}, lambda_min err {err_l:.2e})",
    )


def test_criterion_7_four_cell_experiment_scenario(tmp_path):
    code = main(["run", "four_cell_experiment", "--output-dir", str(tmp_path)])
    scenario = load_scenario("four_cell_experiment")
    spec = scenario.plan_spec
    assert plan(spec, scenario.graph, scenario.sample_count) is None
    coords = coordinates_at(spec, np.linspace(spec.t0, spec.tf, scenario.sample_count))
    from atugv.affine import COORD_FIELDS

    monotone = True
    for name in COORD_FIELDS:
        series = getattr(coords, name)
        sign = np.sign(series[-1] - series[0])
        if sign != 0 and not np.all(sign * np.diff(series) >= -1e-15):
            monotone = False
    report(
        "7 four-cell experiment scenario",
        code == 0 and monotone,
        f"(exit {code}, coordinate curves monotone: {monotone})",
    )
