"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the measured numbers, so a plain
``pytest tests/test_acceptance.py -s`` doubles as the reproduction report.
"""

import math
import time

import numpy as np

from shelfplan import (
    Plan,
    Point,
    SceneConfig,
    SearchBudget,
    generate_scene,
    make_scene,
    optimize_plan,
    plan,
    plan_to_json,
    validate_plan,
)
from shelfplan.geometry import Disc, Tunnel, tunnel_intersects_disc

from oracles import (
    arrangement_goal_test,
    bfs_min_steps,
    random_walk_instance,
    rect_disc_clearance,
    sampled_tunnel_disc_hit,
)

TIMEOUT_BUDGET = SearchBudget(wall_clock_limit=30.0)
# Stops only at the per-stage iteration cap, so its verdict does not depend on
# machine speed.
ITERATION_BUDGET = SearchBudget(wall_clock_limit=None)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_batch(seeds, counts, budget):
    solved = 0
    steps = []
    displacement = []
    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        scene = generate_scene(SceneConfig(n_objects=counts[i % len(counts)], rng_seed=seed))
        result = plan(scene, budget, seed=seed)
        if result.success:
            check = validate_plan(scene, result.plan)
            assert check.valid, f"seed {seed}: {check.reason}"
            solved += 1
            steps.append(result.plan.steps)
            displacement.append(result.plan.total_displacement)
    elapsed = time.perf_counter() - t0
    rate = 100.0 * solved / len(seeds)
    return rate, float(np.mean(steps)), float(np.mean(displacement)), elapsed


def _check_easy_medium(budget, label):
    rate, mean_steps, mean_disp, elapsed = _run_batch(range(80), (4, 5, 6), budget)
    ok = rate >= 95.0 and mean_steps <= 12.0 and mean_disp <= 100.0
    _report(
        f"easy/medium reproduction (80 cases, 4-6 objects, {label})",
        ok,
        f"success {rate:.1f}% (>=95), steps {mean_steps:.2f} (<=12), "
        f"displacement {mean_disp:.1f} (<=100), {elapsed:.0f}s",
    )


def _check_hard(budget, label):
    rate, mean_steps, mean_disp, elapsed = _run_batch(range(80, 160), (7, 8), budget)
    ok = rate >= 85.0 and mean_steps <= 22.0 and mean_disp <= 180.0
    _report(
        f"hard reproduction (80 cases, 7-8 objects, {label})",
        ok,
        f"success {rate:.1f}% (>=85), steps {mean_steps:.2f} (<=22), "
        f"displacement {mean_disp:.1f} (<=180), {elapsed:.0f}s",
    )


def test_easy_medium_reproduction():
    _check_easy_medium(TIMEOUT_BUDGET, "30 s wall clock")


def test_easy_medium_reproduction_iteration_capped():
    _check_easy_medium(ITERATION_BUDGET, "iteration cap only")


def test_hard_reproduction():
    _check_hard(TIMEOUT_BUDGET, "30 s wall clock")


def test_hard_reproduction_iteration_capped():
    _check_hard(ITERATION_BUDGET, "iteration cap only")


def test_flip_case():
    start = [Point(7, 6), Point(13, 6), Point(7, 14), Point(13, 14)]
    goal = [Point(7, 14), Point(13, 14), Point(7, 6), Point(13, 6)]
    scene = make_scene(start, goal)
    result = plan(scene, TIMEOUT_BUDGET, seed=0)
    ok = result.success and result.plan.steps <= 12 and validate_plan(scene, result.plan).valid
    _report(
        "four-object flip case",
        ok,
        f"solved={result.success}, steps {result.plan.steps if result.plan else '-'} (<=12)",
    )


def test_plan_validity_property():
    solved = 0
    violations = 0
    seed = 0
    attempts = 0
    while solved < 1000 and attempts < 1500:
        attempts += 1
        n = 2 + seed % 5  # 2..6 objects
        scene = generate_scene(SceneConfig(n_objects=n, rng_seed=seed))
        result = plan(scene, TIMEOUT_BUDGET, seed=seed)
        seed += 1
        if not result.success:
            continue
        solved += 1
        if not validate_plan(scene, result.plan).valid:
            violations += 1
    ok = solved >= 1000 and violations == 0
    _report(
        "plan validity property (>=1000 solved cases)",
        ok,
        f"{solved} solved, {violations} replay violations (0 tolerated)",
    )


def test_geometry_oracle():
    rng = np.random.default_rng(2024)
    pitch = 0.05
    clearance_floor = 2 * pitch  # comfortably above the sampling pitch
    checked = 0
    disagreements = 0
    while checked < 10_000:
        anchor = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        length, width = rng.uniform(1.0, 12.0), rng.uniform(1.0, 6.0)
        angle = rng.uniform(-math.pi, math.pi)
        tunnel = Tunnel(anchor, length, width, direction=Point(math.cos(angle), math.sin(angle)))
        disc = Disc(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0.3, 1.5))
        if abs(rect_disc_clearance(tunnel, disc)) <= clearance_floor:
            continue  # grazing pair: the sampling oracle itself is unreliable
        if tunnel_intersects_disc(tunnel, disc) != sampled_tunnel_disc_hit(tunnel, disc, pitch):
            disagreements += 1
        checked += 1
    _report(
        "geometry sampling oracle (10,000 pairs)",
        disagreements == 0,
        f"{checked} non-grazing pairs, {disagreements} disagreements (0 tolerated)",
    )


def test_small_instance_optimality():
    matches = 0
    total = 0
    worst_excess = 0
    seed = 0
    while total < 100 and seed < 400:
        scene = generate_scene(
            SceneConfig(n_objects=2, rng_seed=seed, grid_resolution=4.5)
        )
        seed += 1
        oracle = bfs_min_steps(scene, arrangement_goal_test(scene), max_depth=6)
        if oracle is None:
            continue  # unreachable within the horizon; not a comparison case
        total += 1
        result = plan(scene, TIMEOUT_BUDGET, seed=seed)
        got = result.plan.steps if result.success else math.inf
        excess = got - oracle
        worst_excess = max(worst_excess, excess)
        if excess == 0:
            matches += 1
        assert excess <= 1, f"seed {seed - 1}: planner {got} vs optimal {oracle}"
    ok = total == 100 and matches >= 90
    _report(
        "small-instance optimality (100 two-object cases, 5x5 grid)",
        ok,
        f"{matches}/{total} optimal (>=90), worst excess {worst_excess} (<=1)",
    )


def test_optimization_passes():
    checked = 0
    violations = 0
    seed = 0
    while checked < 1000:
        scene, actions = random_walk_instance(seed, n_objects=3, steps=5 + seed % 4)
        seed += 1
        if not actions:
            continue
        raw = Plan(tuple(actions))
        if not validate_plan(scene, raw).valid:
            continue
        out = optimize_plan(raw, scene)
        checked += 1
        if out.steps > raw.steps:
            violations += 1
        elif out.total_displacement > raw.total_displacement + 1e-9:
            violations += 1
        elif not validate_plan(scene, out).valid:
            violations += 1
    _report(
        "optimization passes (>=1000 random plans)",
        violations == 0,
        f"{checked} plans, {violations} regressions (0 tolerated)",
    )


def test_determinism():
    scene = generate_scene(SceneConfig(n_objects=6, rng_seed=77))
    budget = SearchBudget(wall_clock_limit=None)
    first = plan(scene, budget, seed=77)
    second = plan(scene, budget, seed=77)
    same = plan_to_json(first.plan) == plan_to_json(second.plan)
    _report(
        "determinism (identical scene+seed+budget, timeout disabled)",
        first.success and second.success and same,
        "bit-identical plan JSON across two runs" if same else "plan JSON differed",
    )
