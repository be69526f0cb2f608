import dataclasses
import json
import math

import numpy as np
import pytest

from shelfplan import (
    Action,
    InvalidPlanError,
    Plan,
    Point,
    SceneConfig,
    SearchBudget,
    generate_scene,
    make_scene,
    optimize_plan,
    plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    scene_to_json,
    validate_plan,
)
from shelfplan.geometry import Disc, discs_overlap, tunnel_intersects_disc
from shelfplan.motion import home_tunnel
from shelfplan import planner
from shelfplan.occlusion import OcclusionTable, occupancy
from shelfplan.planner import retarget_buffers
from shelfplan.topology import build_dependency_graph

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from json_fuzz import hostile_edits
from oracles import (
    collapse_by_replay,
    merge_by_replay,
    optimize_by_full_replay,
    random_walk_instance,
    replay_plan,
    retarget_by_full_replay,
    table_trail,
)
from test_golden_plans import corpus_cases as golden_cases

NO_TIMEOUT = SearchBudget(wall_clock_limit=None)


class TestPlan:
    def test_single_object(self):
        scene = make_scene([Point(10, 5)], [Point(13, 9)])
        report = plan(scene, NO_TIMEOUT)
        assert report.success
        assert report.plan.steps == 1
        assert report.plan.total_displacement == pytest.approx(5.0)

    def test_start_equals_goal(self):
        points = [Point(4, 5), Point(10, 10), Point(16, 15)]
        report = plan(make_scene(points, points), NO_TIMEOUT)
        assert report.success
        assert report.plan.steps == 0

    def test_solved_scene_with_a_goal_cycle_needs_no_steps(self):
        # Each object's tunnel at the goal touches the other's disc, a 2-cycle
        # no stage order breaks; but nothing has to move.
        points = [Point(9, 10), Point(11.5, 10)]
        scene = make_scene(points, points)
        assert build_dependency_graph(scene).edges == {(0, 1), (1, 0)}
        report = plan(scene, NO_TIMEOUT)
        assert (report.success, report.plan, report.failure_kind) == (True, Plan(()), None)
        assert validate_plan(scene, report.plan).valid

    def test_flip_case(self, flip_scene):
        report = plan(flip_scene, NO_TIMEOUT)
        assert report.success
        assert report.plan.steps <= 12
        assert validate_plan(flip_scene, report.plan).valid

    def test_random_scenes_validate(self):
        for seed in range(6):
            scene = generate_scene(SceneConfig(n_objects=5, rng_seed=seed))
            report = plan(scene, NO_TIMEOUT, seed=seed)
            assert report.success, report.failure_kind
            check = validate_plan(scene, report.plan)
            assert check.valid, (check.failed_step, check.reason)
            ok, final = replay_plan(scene, report.plan.actions)
            assert ok and tuple(final) == scene.goal

    def test_finished_objects_stay_put(self):
        # once an object makes its final move it is at its goal and never
        # touched again; untouched objects start at their goals
        for seed in (31, 32, 33):
            scene = generate_scene(SceneConfig(n_objects=5, rng_seed=seed))
            report = plan(scene, NO_TIMEOUT, seed=seed)
            assert report.success
            last_move = {}
            for i, act in enumerate(report.plan.actions):
                last_move[act.obj] = i
            for obj in range(scene.n_objects):
                if obj not in last_move:
                    assert scene.start[obj] == scene.goal[obj]
                else:
                    assert report.plan.actions[last_move[obj]].dst == scene.goal[obj]

    def test_object_free_scene_plans_and_validates(self):
        scene = make_scene([], [])
        report = plan(scene, NO_TIMEOUT)
        assert report.success and report.plan.steps == 0
        assert validate_plan(scene, report.plan).valid

    def test_scene_with_a_changed_radius_plans_on_its_own_grid(self):
        # The radius-1.5 grid has its points at half units, off the start and goal.
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=26))
        wider = dataclasses.replace(scene, object_radius=1.5)
        assert wider.candidates[0] == Point(1.5, 1.5)
        report = plan(wider, NO_TIMEOUT, seed=26)
        assert report.plan is None or validate_plan(wider, report.plan).valid

    def test_timeout_reported(self):
        scene = generate_scene(SceneConfig(n_objects=6, rng_seed=2))
        report = plan(scene, SearchBudget(wall_clock_limit=1e-4))
        assert not report.success
        assert report.failure_kind == "timeout"
        assert report.plan is None

    def test_iteration_limit_reported_apart_from_timeout(self):
        # No clock runs here: the stage stops at its one-iteration cap.
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=3))
        report = plan(scene, SearchBudget(max_iterations=1, wall_clock_limit=None))
        assert not report.success
        assert report.failure_kind == "iteration-limit"
        assert report.plan is None


# Object 0 first moves from (4, 5) to (4, 10); its second move is broken.
# Object 1 stands at (10, 12), straight ahead of the robot home at (10, -3).
BAD_SECOND_STEPS = {
    "unknown-object": (2, (4, 10), (16, 5)),
    "pick-mismatch": (0, (5, 10), (16, 5)),
    "nan-pick": (0, (math.nan, math.nan), (16, 5)),
    "tunnel-collision": (0, (4, 10), (10, 16)),
    "overlap": (0, (4, 10), (10.5, 12.5)),
    "off-floor": (0, (4, 10), (0.5, 10)),
    "nan": (0, (4, 10), (math.nan, math.nan)),
    "inf": (0, (4, 10), (math.inf, 5)),
    "-inf": (0, (4, 10), (-math.inf, 5)),
}


def bad_second_step(name):
    scene = make_scene([Point(4, 5), Point(10, 12)], [Point(16, 5), Point(10, 12)])
    obj, src, dst = BAD_SECOND_STEPS[name]
    first = Action(0, Point(4, 5), Point(4, 10))
    return scene, Plan((first, Action(obj, Point(*src), Point(*dst))))


PICK_MISMATCH = "pick location does not match the object's current region"


def assert_pick_up_rejected(scene, actions, step):
    """``validate_plan`` fails the pick-up at ``step``, and ``optimize_plan`` says the same."""
    check = validate_plan(scene, Plan(tuple(actions)))
    assert (check.valid, check.failed_step, check.reason) == (False, step, PICK_MISMATCH)
    with pytest.raises(InvalidPlanError) as err:
        optimize_plan(Plan(tuple(actions)), scene)
    assert str(err.value) == f"input plan invalid at step {step}: {check.reason}"


class TestOptimizePlan:
    def test_consecutive_moves_collapse(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        raw = Plan((Action(0, Point(4, 5), Point(16, 5)), Action(0, Point(16, 5), Point(10, 10))))
        out = optimize_plan(raw, scene)
        assert out.actions == (Action(0, Point(4, 5), Point(10, 10)),)
        assert out.total_displacement <= raw.total_displacement

    def test_table_path_outputs_the_table_points(self):
        # Every point is a table point, so the output is built from the table's
        # float Points: equal to the input's int ones, and printed as floats.
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        raw = Plan((Action(0, Point(4, 5), Point(4, 16)), Action(0, Point(4, 16), Point(10, 10))))
        out = optimize_plan(raw, scene)
        assert out.actions == (Action(0, Point(4, 5), Point(10, 10)),)
        assert '"from": [4.0, 5.0], "object": 0, "to": [10.0, 10.0]' in plan_to_json(out)

    def test_off_grid_plan_outputs_the_table_points(self):
        # (4.25, 16) is off the grid, so the steps are replayed on a table that
        # adds it: the output's points equal the input's, printed as floats.
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        first = Action(0, Point(4, 5), Point(4.25, 16))
        second = Action(0, Point(4.25, 16), Point(10, 10))
        out = optimize_plan(Plan((first, second)), scene)
        (merged,) = out.actions
        assert merged.src == first.src and merged.dst == second.dst
        assert '"from": [4.0, 5.0], "object": 0, "to": [10.0, 10.0]' in plan_to_json(out)

    def test_round_trip_vanishes(self):
        scene = make_scene([Point(4, 5), Point(16, 15)], [Point(4, 5), Point(16, 6)])
        raw = Plan(
            (
                Action(0, Point(4, 5), Point(10, 5)),
                Action(0, Point(10, 5), Point(4, 5)),
                Action(1, Point(16, 15), Point(16, 6)),
            )
        )
        out = optimize_plan(raw, scene)
        assert out.actions == (Action(1, Point(16, 15), Point(16, 6)),)

    def test_no_repeated_objects_is_fixpoint(self):
        scene = make_scene([Point(4, 5), Point(16, 15)], [Point(4, 12), Point(16, 6)])
        raw = Plan(
            (
                Action(0, Point(4, 5), Point(4, 12)),
                Action(1, Point(16, 15), Point(16, 6)),
            )
        )
        assert optimize_plan(raw, scene).actions == raw.actions

    def test_merge_rejected_when_replay_breaks(self):
        # merging object 0's two moves would park it on object 1's placing tunnel
        scene = make_scene([Point(4, 5), Point(4, 16)], [Point(10, 10), Point(10, 16)])
        raw = Plan(
            (
                Action(0, Point(4, 5), Point(16, 5)),
                Action(1, Point(4, 16), Point(10, 16)),
                Action(0, Point(16, 5), Point(10, 10)),
            )
        )
        assert validate_plan(scene, raw).valid  # construction sanity
        assert optimize_plan(raw, scene).actions == raw.actions

    def test_merge_accepted_when_replay_allows(self):
        # the detour through (4, 16) is unnecessary: A -> C directly is free
        scene = make_scene([Point(4, 5), Point(16, 15)], [Point(4, 12), Point(16, 6)])
        raw = Plan(
            (
                Action(0, Point(4, 5), Point(4, 16)),
                Action(1, Point(16, 15), Point(16, 6)),
                Action(0, Point(4, 16), Point(4, 12)),
            )
        )
        assert validate_plan(scene, raw).valid
        out = optimize_plan(raw, scene)
        assert out.steps == 2
        assert validate_plan(scene, out).valid

    def test_round_trip_from_a_pick_up_off_the_object_is_rejected(self):
        # The object stands at (4, 5); the first pick-up is 6e-10 to the right.
        scene = make_scene([Point(4, 5)], [Point(16, 5)])
        near, nearer, away = Point(4 + 6e-10, 5), Point(4 + 1.4e-9, 5), Point(10, 10)
        actions = (Action(0, near, away), Action(0, away, near), Action(0, nearer, Point(16, 5)))
        assert_pick_up_rejected(scene, actions, 0)

    @pytest.mark.parametrize("shift", [0.0, 9.999e-7, -9.999e-7])
    def test_pair_picking_up_off_the_object_is_rejected(self, shift):
        # Object 0 stands at (4, 5) and is picked up 6e-10 to the right.
        near = Point(4 + 6e-10, 5)
        scene = make_scene([Point(4, 5), Point(10, 12)], [Point(near.x + shift, 5), Point(12, 15)])
        actions = (
            Action(0, near, Point(3, 12)),
            Action(1, Point(10, 12), Point(12, 15)),
            Action(0, Point(3, 12), near),
        )
        assert_pick_up_rejected(scene, actions, 0)

    @pytest.mark.parametrize("shift", [0.0, 9.999e-7, -9.999e-7])
    def test_adjacent_pair_picking_up_off_the_object_is_rejected(self, shift):
        near, away = Point(4 + 6e-10, 5), Point(10, 10)
        scene = make_scene([Point(4, 5)], [Point(near.x + shift, 5)])
        assert_pick_up_rejected(scene, (Action(0, near, away), Action(0, away, near)), 0)

    def test_moves_shorter_than_1e_9_never_join_a_merge(self):
        # Object 0 goes A -> X, X -> Y and Y -> Z, with Y and Z within 1e-9
        # of X (but 9e-10 apart), and object 1 moves in between. Only
        # consecutive moves merge, so the plan ends exactly on Z; merged, the
        # outer pair would leave the object on Z, where X -> Y does not pick it up.
        A, B, X = Point(4, 5), Point(16, 16), Point(3, 14)
        Y, Z = Point(3 + 6e-10, 14), Point(3 - 3e-10, 14)
        B2, B3 = Point(16, 12), Point(10, 16)
        scene = make_scene([A, B], [Z, B3])
        actions = [
            Action(0, A, X),
            Action(1, B, B2),
            Action(0, X, Y),
            Action(1, B2, B3),
            Action(0, Y, Z),
        ]
        assert validate_plan(scene, Plan(tuple(actions))).valid
        out = optimize_plan(Plan(tuple(actions)), scene)
        assert out.actions == (Action(0, A, Z), Action(1, B, B3))
        assert list(out.actions) == optimize_by_full_replay(scene, actions)

    def test_invalid_input_rejected(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        broken = Plan((Action(0, Point(9, 9), Point(10, 10)),))
        with pytest.raises(InvalidPlanError):
            optimize_plan(broken, scene)

    @pytest.mark.parametrize("n_objects", [1, 2, 3, 5])
    def test_random_walks_of_every_size(self, n_objects):
        for seed in range(4):
            scene, actions = random_walk_instance(seed, n_objects=n_objects, steps=8)
            raw = Plan(tuple(actions))
            assert validate_plan(scene, raw).valid
            out = optimize_plan(raw, scene)
            assert out.steps <= raw.steps
            assert validate_plan(scene, out).valid

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_objects=st.integers(1, 5), steps=st.integers(1, 24))
    def test_equals_full_replay_oracle(self, seed, n_objects, steps):
        scene, actions = random_walk_instance(seed, n_objects=n_objects, steps=steps)
        out = optimize_plan(Plan(tuple(actions)), scene)
        assert list(out.actions) == optimize_by_full_replay(scene, actions)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_objects=st.integers(1, 5),
        steps=st.integers(1, 24),
        off_grid=st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_equals_full_replay_oracle_on_off_grid_walks(self, seed, n_objects, steps, off_grid):
        scene, actions = random_walk_instance(seed, n_objects, steps, off_grid)
        out = optimize_plan(Plan(tuple(actions)), scene)
        assert list(out.actions) == optimize_by_full_replay(scene, actions)
        assert all(type(c) is float for a in out.actions for p in (a.src, a.dst) for c in p)

    @pytest.mark.parametrize("bad", sorted(BAD_SECOND_STEPS), ids=str)
    def test_invalid_input_error_matches_validator(self, bad):
        scene, raw = bad_second_step(bad)
        check = validate_plan(scene, raw)
        assert not check.valid and check.failed_step == 1
        with pytest.raises(InvalidPlanError) as err:
            optimize_plan(raw, scene)
        assert str(err.value) == f"input plan invalid at step 1: {check.reason}"

    def test_never_worse_and_validity_preserving(self):
        for seed in range(25):
            scene, actions = random_walk_instance(seed)
            raw = Plan(tuple(actions))
            before = validate_plan(scene, raw)
            assert before.valid
            out = optimize_plan(raw, scene)
            assert out.steps <= raw.steps
            assert out.total_displacement <= raw.total_displacement + 1e-9
            assert validate_plan(scene, out).valid


def search_output(scene, seed):
    """The plan ``plan()`` re-targets: the optimised search output.

    ``plan()`` re-targets its steps in place (``planner._retarget``), so the
    spy turns them into a plan before they change.
    """
    seen = []
    real = planner._retarget

    def spy(table, steps, trail):
        seen.append(planner._as_plan(table, steps))
        return real(table, steps, trail)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_retarget", spy)
        report = plan(scene, NO_TIMEOUT, seed=seed)
    assert report.success and len(seen) == 1
    return seen[0]


def raw_search_plan(scene, seed):
    """``plan()``'s report and its search's raw plan: the stages' chains in order."""
    chains = []
    real = planner.solve_stage

    def spy(ctx, positions, budget, rng):
        chains.append(real(ctx, positions, budget, rng))
        return chains[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "solve_stage", spy)
        report = plan(scene, NO_TIMEOUT, seed=seed)
    table = OcclusionTable.shared(scene)
    points, positions, actions = table.points, table.indices(scene.start), []
    for obj, dst in (move for chain in chains for move in chain):
        actions.append(Action(obj, points[positions[obj]], points[dst]))
        positions[obj] = dst
    return report, Plan(tuple(actions))


def check_pipeline(scene, seed):
    """``plan()`` returns the public passes over its raw plan, to the byte."""
    report, raw = raw_search_plan(scene, seed)
    if not report.success:
        return False
    assert validate_plan(scene, raw).valid
    expected = optimize_plan(retarget_buffers(optimize_plan(raw, scene), scene), scene)
    assert report.plan == expected
    assert plan_to_json(report.plan) == plan_to_json(expected)
    return True


class TestPipeline:
    @pytest.mark.parametrize("case", golden_cases(), ids=lambda case: f"{case[0]}-{case[1]}")
    def test_plan_is_the_public_passes_on_golden_scenes(self, case):
        _, seed, n_objects, grid = case
        scene = generate_scene(
            SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid)
        )
        assert check_pipeline(scene, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_objects=st.integers(1, 6),
        grid=st.sampled_from([0.5, 1.0]),
    )
    def test_plan_is_the_public_passes_on_grid_scenes(self, seed, n_objects, grid):
        scene = generate_scene(
            SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid)
        )
        assume(check_pipeline(scene, seed))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_objects=st.integers(1, 5),
        shift=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    )
    def test_plan_is_the_public_passes_on_off_grid_scenes(self, seed, n_objects, shift):
        # A grid scene's start moved off the grid: its points join the table.
        base = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
        dx, dy = shift
        start = [Point(p.x + dx, p.y + dy) for p in base.start]
        try:
            scene = make_scene(start, base.goal)
        except ValueError:
            assume(False)
        assume(check_pipeline(scene, seed))


def check_retarget(scene, raw):
    """``retarget_buffers`` equals the full-replay oracle and only shortens a valid plan."""
    out = retarget_buffers(raw, scene)
    assert list(out.actions) == retarget_by_full_replay(scene, raw.actions)
    assert out.steps == raw.steps
    assert out.total_displacement <= raw.total_displacement + 1e-9
    assert validate_plan(scene, out).valid
    return out


class TestRetargetBuffers:
    @pytest.mark.parametrize("case", golden_cases(), ids=lambda case: f"{case[0]}-{case[1]}")
    def test_equals_full_replay_oracle_on_search_outputs(self, case):
        _, seed, n_objects, grid = case
        scene = generate_scene(
            SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid)
        )
        raw = search_output(scene, seed)
        assert validate_plan(scene, raw).valid
        check_retarget(scene, raw)

    def test_every_scan_tests_every_buffer_step(self, monkeypatch):
        # As the oracle does: each scan tests every pair, until one re-targets nothing.
        calls = []
        real = planner._retarget_step

        def counted(*args):
            calls.append(args[3:5])  # the pair (k, n)
            return real(*args)

        monkeypatch.setattr(planner, "_retarget_step", counted)
        for _, seed, n_objects, grid in golden_cases():
            scene = generate_scene(
                SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid)
            )
            raw = search_output(scene, seed)
            counts = {}
            expected = retarget_by_full_replay(scene, raw.actions, counts)
            calls.clear()
            assert list(retarget_buffers(raw, scene).actions) == expected
            assert len(calls) == counts["pairs"] * counts["scans"]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_objects=st.integers(1, 5), steps=st.integers(1, 24))
    def test_equals_full_replay_oracle_on_walks(self, seed, n_objects, steps):
        scene, actions = random_walk_instance(seed, n_objects=n_objects, steps=steps)
        check_retarget(scene, Plan(tuple(actions)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_objects=st.integers(1, 5),
        steps=st.integers(1, 24),
        off_grid=st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_equals_full_replay_oracle_on_off_grid_walks(self, seed, n_objects, steps, off_grid):
        scene, actions = random_walk_instance(seed, n_objects, steps, off_grid)
        check_retarget(scene, Plan(tuple(actions)))

    def test_buffer_on_the_way_replaces_a_detour(self):
        # Alone on the shelf, the object parks far off its line to the goal;
        # the best candidate lies on that line, so the detour becomes straight.
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        raw = Plan(
            (Action(0, Point(10, 5), Point(16, 16)), Action(0, Point(16, 16), Point(10, 15)))
        )
        out = check_retarget(scene, raw)
        via = out.actions[0].dst
        assert via.x == 10 and 5 < via.y < 15
        assert out.total_displacement == pytest.approx(10.0)
        assert optimize_plan(out, scene).actions == (Action(0, Point(10, 5), Point(10, 15)),)

    @pytest.mark.parametrize("arrives", [False, True], ids=["stands-there", "arrives-between"])
    def test_overlap_with_a_disc_no_tunnel_touches(self, arrives):
        # (10, 10) is the one candidate on object 0's line from (8, 5) to (12,
        # 15). Object 1 at (8.5, 10), there from the start or placed between
        # object 0's two moves, overlaps its disc, yet a 0.5-wide tunnel
        # misses object 1, so only the disc test rules (10, 10) out.
        goal = (Point(12, 15), Point(8.5, 10))
        moves = [Action(0, Point(8, 5), Point(16, 16)), Action(0, Point(16, 16), Point(12, 15))]
        if arrives:
            scene = make_scene([Point(8, 5), Point(4, 16)], goal, tunnel_width=0.5)
            moves.insert(1, Action(1, Point(4, 16), Point(8.5, 10)))
        else:
            scene = make_scene([Point(8, 5), Point(8.5, 10)], goal, tunnel_width=0.5)
        out = check_retarget(scene, Plan(tuple(moves)))
        assert out.actions[0].dst not in (Point(16, 16), Point(10, 10))

    def test_plan_without_buffer_steps_is_unchanged(self):
        scene = make_scene([Point(4, 5), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        raw = Plan(
            (Action(0, Point(4, 5), Point(4, 15)), Action(1, Point(16, 5), Point(16, 15)))
        )
        assert retarget_buffers(raw, scene) == raw

    def test_invalid_input_rejected(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        broken = Plan((Action(0, Point(9, 9), Point(10, 10)),))
        with pytest.raises(InvalidPlanError, match="input plan invalid at step 0"):
            retarget_buffers(broken, scene)

    @pytest.mark.parametrize("bad", sorted(BAD_SECOND_STEPS), ids=str)
    def test_invalid_input_error_matches_validator(self, bad):
        scene, raw = bad_second_step(bad)
        check = validate_plan(scene, raw)
        with pytest.raises(InvalidPlanError) as err:
            retarget_buffers(raw, scene)
        assert str(err.value) == f"input plan invalid at step 1: {check.reason}"

    def test_shifted_pick_up_rejected(self):
        # The goal puts (4 + 1e-10, 5) in the table, and the plan picks the
        # object up there although it stands on (4, 5).
        near, away = Point(4 + 1e-10, 5), Point(10, 10)
        scene = make_scene([Point(4, 5)], [near])
        shifted = Plan((Action(0, near, away), Action(0, away, near)))
        assert OcclusionTable.shared(scene).covers([near, away])
        with pytest.raises(InvalidPlanError) as err:
            retarget_buffers(shifted, scene)
        assert str(err.value) == f"input plan invalid at step 0: {PICK_MISMATCH}"

    def test_off_table_point_retargeted(self):
        # (10.25, 10) is no point of the scene's table: the optimiser's table adds it.
        scene = make_scene([Point(4, 5)], [Point(4, 5)])
        off_grid = Plan(
            (Action(0, Point(4, 5), Point(10.25, 10)), Action(0, Point(10.25, 10), Point(4, 5)))
        )
        assert validate_plan(scene, off_grid).valid
        assert not OcclusionTable.shared(scene).covers([Point(10.25, 10)])
        out = check_retarget(scene, off_grid)
        assert out.actions[0].dst == Point(4, 4)  # the nearest candidate but the pick-up


class BlindTable(OcclusionTable):
    """A shelf table that has none of a plan's points, so the optimiser builds a private one."""

    def get(self, p):
        return None

    def covers(self, points):
        return False


def blind_store(monkeypatch):
    """``OcclusionTable.shared`` patched to hand out a fresh ``BlindTable``."""
    monkeypatch.setattr(OcclusionTable, "shared", classmethod(lambda cls, scene: BlindTable(scene)))


@pytest.fixture(params=["shared", "private"])
def step_check(request, monkeypatch):
    """Optimise on the shared table, or on a private table over the scene's and the plan's points."""
    if request.param == "private":
        blind_store(monkeypatch)
    return request.param


class TestMergeShortcut:
    """A merge is decided on bit sets: the merged move, and the new point against the steps between.

    Object 0 goes A -> B, others move, then it goes B -> C. Merged, it stands
    on C while the others move, so C must lie in the window of their steps:
    clear of each one's destination disc and of both its tunnels. No pair
    with a move of object 0 between them is tried.
    """

    def optimized(self, scene, actions, step_check):
        assert validate_plan(scene, Plan(tuple(actions))).valid  # construction sanity
        points = [p for a in actions for p in (a.src, a.dst)]
        table = OcclusionTable.shared(scene)
        assert table.covers(points) == (step_check == "shared")
        assert tried_merges(step_check, scene, actions)  # each answer is the replay's
        out = optimize_plan(Plan(tuple(actions)), scene)
        assert validate_plan(scene, out).valid
        assert list(out.actions) == optimize_by_full_replay(scene, actions)
        return out

    def test_middle_tunnel_touching_the_new_point_blocks_the_merge(self, step_check):
        A, B, C = Point(4, 5), Point(3, 14), Point(10, 8)
        home_pick, away = Point(10, 16), Point(16, 16)
        scene = make_scene([A, home_pick], [C, away])
        # Object 1's pick-up tunnel runs straight ahead through C.
        assert tunnel_intersects_disc(home_tunnel(scene, home_pick), Disc(C, 1.0))
        actions = [Action(0, A, B), Action(1, home_pick, away), Action(0, B, C)]
        assert self.optimized(scene, actions, step_check).actions == tuple(actions)

    def test_middle_destination_overlapping_the_new_point_blocks_the_merge(self, step_check):
        # A tunnel narrower than a disc: object 1 parks beside C, touching no tunnel,
        # and waits there until object 2 clears its way out.
        A, B, C = Point(4, 5), Point(3, 14), Point(11.8, 12)
        beside, away = Point(10, 12), Point(16, 5)
        starts, goals = [A, Point(16, 16), Point(14, 1)], [C, away, Point(6, 17)]
        scene = make_scene(starts, goals, tunnel_width=1.5)
        assert discs_overlap(Disc(beside, 1.0), Disc(C, 1.0))
        for target in (starts[1], beside):
            assert not tunnel_intersects_disc(home_tunnel(scene, target), Disc(C, 1.0))
        actions = [
            Action(0, A, B),
            Action(1, starts[1], beside),
            Action(2, starts[2], goals[2]),
            Action(1, beside, away),
            Action(0, B, C),
        ]
        assert self.optimized(scene, actions, step_check).actions == tuple(actions)

    def test_own_middle_move_picking_up_off_the_object_is_rejected(self, step_check):
        # Object 3 leaves B', 5e-10 off the grid point B; object 0 is put on B'
        # and then picked up at B, where it does not stand. Both are table
        # points, so the table replay rejects the step as the validator does.
        B = Point(3, 14)
        shifted = Point(B.x + 5e-10, B.y - 5e-10)
        A, C, away = Point(15, 15), Point(3, 1), Point(8, 17)
        starts = [A, Point(17, 6), Point(3, 6), shifted]
        goals = [shifted, Point(14, 19), Point(14, 10), away]
        scene = make_scene(starts, goals)
        actions = [
            Action(3, shifted, away),
            Action(0, A, shifted),
            Action(1, starts[1], goals[1]),
            Action(0, B, C),
            Action(2, starts[2], goals[2]),
            Action(0, C, shifted),
        ]
        points = [p for a in actions for p in (a.src, a.dst)]
        table = OcclusionTable.shared(scene)
        assert table.covers(points) == (step_check == "shared")
        assert_pick_up_rejected(scene, actions, 3)

    def test_own_middle_move_picking_up_away_from_the_merged_point(self, step_check, monkeypatch):
        # Merging object 0's first and last moves would leave it on D, but its
        # middle move picks it up at B, 8.5 away: no pair with a move of the
        # object between them is tried, and the consecutive pairs merge.
        A, B, C, D = Point(4, 5), Point(4, 12), Point(10, 10), Point(10, 16)
        starts, goals = [A, Point(16, 5)], [D, Point(16, 16)]
        scene = make_scene(starts, goals)
        actions = [
            Action(0, A, B),
            Action(1, starts[1], Point(16, 12)),
            Action(0, B, C),
            Action(1, Point(16, 12), goals[1]),
            Action(0, C, D),
        ]
        tried = []
        merge_pair = planner._merge_pair

        def spy(table, steps, trail, t, s):
            between = [step.obj for step in steps[t + 1 : s]]
            tried.append((t, s, steps[t].obj in between))
            return merge_pair(table, steps, trail, t, s)

        monkeypatch.setattr(planner, "_merge_pair", spy)
        out = self.optimized(scene, actions, step_check)
        assert tried and not any(own_move_between for _, _, own_move_between in tried)
        assert out.actions == (Action(0, A, D), Action(1, starts[1], goals[1]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_objects=st.integers(1, 5), steps=st.integers(1, 24))
@pytest.mark.parametrize("kind", ["shared", "private"])
def test_optimiser_trail_equals_a_fresh_replay(kind, seed, n_objects, steps):
    # Every collapse and merge hands on the trail a replay of its steps from
    # the start would give: the merge's skip of the suffix and plan()'s
    # second optimise rely on it.
    scene, actions = random_walk_instance(seed, n_objects=n_objects, steps=steps)
    handed_on = []  # (steps, trail) out of each pass
    used = []  # the optimiser's table
    collapse_runs, sweep_merge = planner._collapse_runs, planner._sweep_merge

    def collapse_spy(steps, trail):
        out = collapse_runs(steps, trail)
        handed_on.append(out)
        return out

    def sweep_spy(table, steps, trail):
        used.append(table)
        out = sweep_merge(table, steps, trail)
        handed_on.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if kind == "private":
            blind_store(mp)
        mp.setattr(planner, "_collapse_runs", collapse_spy)
        mp.setattr(planner, "_sweep_merge", sweep_spy)
        checked_trail(mp)
        out = optimize_plan(Plan(tuple(actions)), scene)
    table = used[0]
    assert (table is OcclusionTable.shared(scene)) == (kind == "shared")
    start = tuple(map(table.index_of, scene.start))
    for kept, trail in handed_on:
        assert table_trail(table, start, kept) == trail
    assert planner._as_plan(table, handed_on[-1][0]) == out


def checked_trail(monkeypatch):
    """Patch ``planner._trail`` to check every trail it returns against ``oracles.table_trail``."""
    trail = planner._trail

    def spy(table, start, steps):
        got = trail(table, start, steps)
        assert got == table_trail(table, start, steps)
        return got

    monkeypatch.setattr(planner, "_trail", spy)


def tried_merges(kind, scene, actions) -> list[tuple[bool, bool, bool]]:
    """Optimise ``actions``, checking every pair ``_merge_pair`` is asked about against the replay.

    On the shared table, or on a private one (``kind``). Each answer must
    equal ``oracles.merge_by_replay``'s, plan and trail alike. Returns, for
    each pair, whether it is adjacent, a round trip, and kept.
    """
    tried = []
    merge_pair = planner._merge_pair

    def spy(table, steps, trail, t, s):
        got = merge_pair(table, steps, trail, t, s)
        assert got == merge_by_replay(table, steps, trail, t, s), (t, s)
        tried.append((s == t + 1, steps[t].src == steps[s].dst, got is not None))
        return got

    with pytest.MonkeyPatch.context() as mp:
        if kind == "private":
            blind_store(mp)
        mp.setattr(planner, "_merge_pair", spy)
        checked_trail(mp)
        out = optimize_plan(Plan(tuple(actions)), scene)
    assert list(out.actions) == optimize_by_full_replay(scene, actions)
    return tried


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_objects=st.integers(1, 6),
    steps=st.integers(1, 30),
    off_grid=st.sampled_from([0.0, 0.3, 1.0]),
    back=st.sampled_from([0.0, 0.3, 0.7]),
    width=st.sampled_from([4.0, 1.5]),
)
@pytest.mark.parametrize("kind", ["shared", "private"])
def test_merge_equals_the_replay_merge(kind, seed, n_objects, steps, off_grid, back, width):
    # Grid and off-grid walks, with round trips in some, on either table; in
    # tunnels narrower than a disc a destination can block a point no tunnel touches.
    scene, actions = random_walk_instance(seed, n_objects, steps, off_grid, back, width)
    tried_merges(kind, scene, actions)


@pytest.mark.parametrize("kind", ["shared", "private"])
def test_replay_merge_check_sees_every_kind_of_pair(kind):
    # Pairs apart, round trips or not, kept and rejected. Adjacent pairs
    # never reach the check: they merge in the collapse pass.
    seen = set()
    for seed in range(12):
        scene, actions = random_walk_instance(seed, 6, 30, off_grid=0.3, back=0.5)
        seen.update(tried_merges(kind, scene, actions))
    apart = {(False, round_trip, kept) for round_trip in (False, True) for kept in (False, True)}
    assert apart == seen


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_objects=st.integers(1, 6),
    steps=st.integers(1, 30),
    off_grid=st.sampled_from([0.0, 0.3, 1.0]),
    back=st.sampled_from([0.0, 0.3, 0.7]),
    width=st.sampled_from([4.0, 1.0, 0.5]),
)
def test_collapse_equals_the_replay_scan(seed, n_objects, steps, off_grid, back, width):
    # The stack pass checks no pair; the scan replays each adjacent pair and
    # steps back after a round trip. They agree, steps and trail alike, and
    # the scan leaves no adjacent pair unmerged.
    scene, actions = random_walk_instance(seed, n_objects, steps, off_grid, back, width)
    table, table_steps = planner._table_steps(scene, Plan(tuple(actions)))
    trail = planner._trail(table, tuple(map(table.index_of, scene.start)), table_steps)
    scanned = collapse_by_replay(table, table_steps, trail)
    assert planner._collapse_runs(table_steps, trail) == scanned
    kept = scanned[0]
    assert all(a.obj != b.obj for a, b in zip(kept, kept[1:]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_objects=st.integers(2, 6),
    steps=st.integers(2, 20),
    off_grid=st.sampled_from([0.0, 0.3]),
    width=st.sampled_from([1.0, 0.5]),
)
def test_window_equals_move_valid_step_by_step(seed, n_objects, steps, off_grid, width):
    # In tunnels narrower than a disc an object can park beside a step's
    # destination, touching neither tunnel: only the destination disc term
    # of the window keeps that point out.
    scene, actions = random_walk_instance(seed, n_objects, steps, off_grid, 0.0, width)
    table, table_steps = planner._table_steps(scene, Plan(tuple(actions)))
    trail = planner._trail(table, tuple(map(table.index_of, scene.start)), table_steps)
    full = (1 << table.n_candidates) - 1

    def allowed(m: int, obj: int) -> int:
        """The candidates where ``obj`` may stand while step ``m`` moves another object."""
        step = table_steps[m]
        others = occupancy(trail[m]) & ~(1 << trail[m][obj] | 1 << step.src)
        bits = 0
        for q in range(table.n_candidates):
            if table.move_valid(others | 1 << q, step.src, step.dst):
                bits |= 1 << q
        return bits

    for k, first in enumerate(table_steps):
        ok = full
        for n in range(k + 1, len(table_steps)):
            if table_steps[n].obj == first.obj:
                break
            ok &= allowed(n, first.obj)
            assert planner._window(table, table_steps, k, n + 1, full) == ok, (k, n)


class TestValidatePlan:
    def test_planner_output_validates(self):
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=12))
        report = plan(scene, NO_TIMEOUT, seed=12)
        assert validate_plan(scene, report.plan).valid

    def test_mismatched_pick_location(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        bad = Plan((Action(0, Point(5, 5), Point(10, 10)),))
        check = validate_plan(scene, bad)
        assert not check.valid
        assert check.failed_step == 0

    def test_nan_pick_location_is_a_mismatch(self):
        check = validate_plan(*bad_second_step("nan-pick"))
        assert (check.valid, check.failed_step) == (False, 1)
        assert check.reason == "pick location does not match the object's current region"
        lone = make_scene([Point(4, 5)], [Point(16, 5)])
        plan_ = Plan((Action(0, Point(math.nan, math.nan), Point(16, 5)),))
        assert not validate_plan(lone, plan_).valid

    @pytest.mark.parametrize("obj", [2, -1])
    def test_unknown_object_has_its_own_reason(self, obj):
        scene, bad = bad_second_step("unknown-object")
        second = bad.actions[1]
        bad = Plan((bad.actions[0], Action(obj, second.src, second.dst)))
        check = validate_plan(scene, bad)
        assert (check.valid, check.failed_step) == (False, 1)
        assert check.reason == f"unknown object {obj}"

    @pytest.mark.parametrize("bad", ["off-floor", "nan", "inf", "-inf"])
    def test_destination_leaving_workspace_has_its_own_reason(self, bad):
        check = validate_plan(*bad_second_step(bad))
        assert (check.valid, check.failed_step) == (False, 1)
        assert check.reason == "destination leaves the workspace"

    @pytest.mark.parametrize("bad", ["tunnel-collision", "overlap"])
    def test_collision_reason(self, bad):
        check = validate_plan(*bad_second_step(bad))
        assert (check.valid, check.failed_step) == (False, 1)
        assert check.reason == "relocation is not collision-free"

    def test_validator_never_touches_the_table(self, monkeypatch):
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=12))
        full = plan(scene, NO_TIMEOUT, seed=12).plan
        cut = Plan(full.actions[:-1])
        expected = [validate_plan(scene, p) for p in (full, cut)]
        assert expected[0].valid and not expected[1].valid

        def refuse(*args, **kwargs):
            raise AssertionError("validate_plan read the occlusion table")

        methods = ("__init__", "shared", "covers", "get", "index_of", "move_valid")
        methods += ("row", "far", "clear")
        for name in methods:
            monkeypatch.setattr(OcclusionTable, name, refuse)
        assert [validate_plan(scene, p) for p in (full, cut)] == expected

    def test_end_1e_7_off_the_goal_misses_it(self):
        scene = make_scene([Point(4, 5)], [Point(10 + 1e-7, 10)])
        check = validate_plan(scene, Plan((Action(0, Point(4, 5), Point(10, 10)),)))
        assert (check.valid, check.failed_step) == (False, 1)
        assert check.reason == "terminal arrangement misses the goal"

    def test_empty_plan_misses_goal(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        check = validate_plan(scene, Plan(()))
        assert not check.valid
        assert check.failed_step == 0
        assert "goal" in check.reason


class TestPlanJson:
    def test_roundtrip(self):
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=5))
        report = plan(scene, NO_TIMEOUT, seed=5)
        text = plan_to_json(report.plan)
        again = plan_from_json(text)
        assert again == report.plan

    def test_schema(self):
        scene = make_scene([Point(4, 5)], [Point(10, 10)])
        report = plan(scene, NO_TIMEOUT)
        data = json.loads(plan_to_json(report.plan, wall_time=report.wall_time))
        assert set(data) == {"actions", "steps", "total_displacement", "wall_time"}
        assert data["steps"] == 1
        assert set(data["actions"][0]) == {"object", "from", "to"}

    def test_integer_coordinate_scene_prints_floats(self):
        # Pick-ups used to print as the table's floats and goals as the scene's ints.
        scene = make_scene([Point(10, 5), Point(10, 12)], [Point(4, 5), Point(16, 12)])
        report = plan(scene, NO_TIMEOUT)
        assert report.success
        scene_data = json.loads(scene_to_json(scene))
        points = [scene_data["robot_home"], *scene_data["start"], *scene_data["goal"]]
        for act in json.loads(plan_to_json(report.plan))["actions"]:
            points += [act["from"], act["to"]]
        assert all(type(c) is float for p in points for c in p)
        assert '"to": [4.0, 5.0]' in plan_to_json(report.plan)

    def test_deterministic_json(self):
        scene = generate_scene(SceneConfig(n_objects=5, rng_seed=40))
        a = plan(scene, NO_TIMEOUT, seed=40)
        b = plan(scene, NO_TIMEOUT, seed=40)
        assert plan_to_json(a.plan) == plan_to_json(b.plan)


FUZZ_SCENE = make_scene([Point(4, 5), Point(10, 12)], [Point(10, 12), Point(16, 5)])


@st.composite
def plan_dicts(draw):
    """Plan mappings: relocations between grid and off-grid points, then hostile edits."""
    spot = st.one_of(
        st.sampled_from(FUZZ_SCENE.candidates), st.tuples(st.floats(-2, 22), st.floats(-2, 22))
    )
    moves = st.fixed_dictionaries(
        {
            "object": st.one_of(st.integers(-1, 3), st.floats(-1, 3)),
            "from": spot.map(list),
            "to": spot.map(list),
        }
    )
    data = {"actions": draw(st.lists(moves, max_size=4)), "steps": 0, "wall_time": None}
    return draw(hostile_edits(data))


class TestPlanFromDict:
    @pytest.mark.parametrize("obj", [1.7, 1.0, math.inf, math.nan, True, "1", None, [1]], ids=repr)
    def test_object_must_be_a_json_integer(self, obj):
        move = {"object": obj, "from": [4.0, 5.0], "to": [4.0, 8.0]}
        with pytest.raises(TypeError, match=r"actions\[0\] object must be an integer"):
            plan_from_dict({"actions": [move]})

    @pytest.mark.parametrize("field", ["from", "to"])
    @pytest.mark.parametrize("point", [[4.0], [4.0, 8.0, 1.0], []])
    def test_points_must_have_two_coordinates(self, field, point):
        move = {"object": 0, "from": [4.0, 5.0], "to": [4.0, 8.0], field: point}
        with pytest.raises(ValueError, match=f"actions\\[0\\] {field} must have 2 coordinates"):
            plan_from_dict({"actions": [move]})

    @settings(max_examples=400, deadline=None)
    @given(plan_dicts())
    def test_parses_to_a_plan_or_raises_an_input_error(self, data):
        try:
            parsed = plan_from_dict(data)
        except (ValueError, KeyError, TypeError):
            return
        assert plan_to_dict(parsed)["actions"] == data["actions"]  # nothing truncated or dropped
        for act in parsed.actions:
            assert type(act.obj) is int
            assert all(math.isfinite(v) for v in (*act.src, *act.dst))
        validate_plan(FUZZ_SCENE, parsed)  # a verdict, never an exception
