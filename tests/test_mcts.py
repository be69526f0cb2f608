
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shelfplan import (
    Action,
    Point,
    SceneConfig,
    SearchBudget,
    action_valid,
    generate_scene,
    make_scene,
    plan,
    validate_plan,
)
from shelfplan import mcts
from shelfplan.geometry import Disc, distance, tunnel_intersects_disc
from shelfplan.mcts import (
    SearchNode,
    StageContext,
    StageIterationLimit,
    StageTimeout,
    _candidate_moves,
    backpropagate,
    expand,
    get_blocking_objects,
    new_region,
    select,
    simulate,
    solve_stage,
    stage_complete,
)
from shelfplan.motion import home_tunnel
from shelfplan.occlusion import OcclusionTable
from shelfplan.topology import build_dependency_graph, stage_order

from oracles import bfs_min_steps, closest_by_argsort

BUDGET = SearchBudget(max_iterations=5000, wall_clock_limit=None)


def ctx_for(scene, order=None, index=0):
    if order is None:
        order = list(range(scene.n_objects))
    return StageContext(scene, tuple(order), index, OcclusionTable(scene))


def at(ctx, arrangement):
    """Index vector of an arrangement in the stage's occlusion table."""
    return ctx.table.indices(arrangement)


def as_actions(ctx, positions, moves):
    """``moves`` played from the index vector ``positions``, as ``Action``s."""
    points, pos, actions = ctx.table.points, list(positions), []
    for obj, dst in moves:
        actions.append(Action(obj, points[pos[obj]], points[dst]))
        pos[obj] = dst
    return actions


def manual_children(root, stats):
    """Attach children with prescribed (visits, total_reward) to a root node."""
    children = []
    for i, (visits, total) in enumerate(stats):
        child = SearchNode(root.positions.copy(), incoming=(0, i), parent=root)
        child.visits = visits
        child.total_reward = total
        root.children.append(child)
        children.append(child)
    root.visits = sum(v for v, _ in stats)
    return children


class TestSelect:
    def setup_method(self):
        self.root = SearchNode([0])

    def test_unvisited_child_first(self):
        children = manual_children(self.root, [(0, 0.0), (5, -10.0)])
        assert select(self.root, 1.4) is children[0]

    def test_lower_visits_wins_on_equal_means(self):
        children = manual_children(self.root, [(2, -6.0), (8, -24.0)])
        assert select(self.root, 1.4) is children[0]

    def test_pure_exploitation_picks_best_mean(self):
        children = manual_children(self.root, [(3, -9.0), (3, -21.0)])
        assert select(self.root, 0.0) is children[0]

    def test_reward_shift_invariance(self):
        stats = [(4, -12.0), (2, -11.0), (6, -30.0)]
        children = manual_children(self.root, stats)
        pick = select(self.root, 0.9)
        shifted_root = SearchNode([0])
        shifted = manual_children(shifted_root, [(v, t + 7.5 * v) for v, t in stats])
        assert shifted[children.index(pick)] is select(shifted_root, 0.9)

    def test_dead_children_skipped(self):
        children = manual_children(self.root, [(1, -1.0), (4, -40.0)])
        children[0].dead = True
        assert select(self.root, 1.4) is children[1]


class TestGetBlockingObjects:
    def test_focus_alone(self):
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        ctx = ctx_for(scene)
        assert get_blocking_objects(ctx, at(ctx, scene.start)) == set()

    def test_object_on_goal_placing_tunnel(self):
        scene = make_scene([Point(4, 5), Point(10, 8)], [Point(10, 12), Point(16, 14)])
        ctx = ctx_for(scene, order=[0, 1])
        assert get_blocking_objects(ctx, at(ctx, scene.start)) == {1}

    def test_goal_shadow_blocks_future_pickup(self):
        # focus goal (10, 6) sits between home and object 1 at (10, 12)
        scene = make_scene([Point(4, 5), Point(10, 12)], [Point(10, 6), Point(16, 14)])
        ctx = ctx_for(scene, order=[0, 1])
        pick = home_tunnel(scene, scene.start[1])
        assert tunnel_intersects_disc(pick, Disc(scene.goal[0], 1.0))  # construction sanity
        assert get_blocking_objects(ctx, at(ctx, scene.start)) == {1}


class TestNewRegion:
    def test_width_one_returns_nearest_valid(self):
        scene = make_scene(
            [Point(4, 4), Point(10, 10), Point(16, 16)],
            [Point(4, 12), Point(10, 18), Point(16, 8)],
        )
        ctx = ctx_for(scene, order=[0, 1, 2])
        got = [scene.candidates[i] for i in new_region(ctx, 1, set(), at(ctx, scene.start))[:1]]
        assert len(got) == 1
        # scalar re-derivation of the acceptance rule, nearest first
        pos = np.asarray(scene.start, float)
        b = scene.object_radius
        tunnels = [home_tunnel(scene, scene.start[0]), home_tunnel(scene, scene.goal[0])]
        best = None
        for cand in sorted(scene.candidates, key=lambda p: (distance(p, scene.start[1]), p.y, p.x)):
            if cand == scene.start[1]:
                continue
            if any(distance(cand, scene.start[o]) < 2 * b for o in (0, 2)):
                continue
            if any(tunnel_intersects_disc(t, Disc(cand, b)) for t in tunnels):
                continue
            place = home_tunnel(scene, cand)
            if any(tunnel_intersects_disc(place, Disc(scene.start[o], b)) for o in (0, 2)):
                continue
            best = cand
            break
        assert got[0] == best

    def test_a_candidate_1e_7_away_is_the_nearest_buffer(self):
        # Only the object's own point is excluded, so the candidate beside it comes first.
        scene = make_scene([Point(4, 4), Point(16.0000001, 16)], [Point(4, 12), Point(16, 8)])
        ctx = ctx_for(scene, order=[0, 1])
        found = new_region(ctx, 1, set(), at(ctx, scene.start))
        assert found[0] == ctx.table.index_of(Point(16, 16))
        assert action_valid(scene, scene.start, Action(1, scene.start[1], Point(16, 16)))

    def test_equals_the_argsort_pick_in_plans(self, monkeypatch):
        # Every buffer choice of four hard and four fine-grid plans, against
        # the array pick it once made, on the bit set it built.
        asked, found = [], []
        closest, real = OcclusionTable.closest, mcts.new_region

        def closest_spy(self, j, ok, count):
            asked.append((self, j, ok, count))
            return closest(self, j, ok, count)

        def new_region_spy(*args, **kwargs):
            found.append(real(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(OcclusionTable, "closest", closest_spy)
        monkeypatch.setattr(mcts, "new_region", new_region_spy)
        for grid, seeds, counts in ((1.0, range(80, 84), (7, 8)), (0.5, range(4), (5, 6))):
            for seed in seeds:
                n = counts[seed % 2]
                config = SceneConfig(n_objects=n, rng_seed=seed, grid_resolution=grid)
                assert plan(generate_scene(config), BUDGET, seed=seed).success
        assert len(asked) > 100 and found.count([]) == len(found) - len(asked)
        expected = [closest_by_argsort(*call) for call in asked]
        assert [f for f in found if f] == expected
        assert {count for *_, count in asked} == {mcts.EXPANSION_WIDTH}

    def test_full_rejection_returns_empty(self):
        # a tunnel as wide as the workspace rejects every candidate
        scene = make_scene([Point(4, 4), Point(16, 16)], [Point(4, 12), Point(16, 8)], tunnel_width=40)
        ctx = ctx_for(scene, order=[0, 1])
        assert new_region(ctx, 1, set(), at(ctx, scene.start)) == []

    def test_accepted_regions_survive_action_validation(self):
        scene = make_scene(
            [Point(4, 4), Point(10, 10), Point(16, 16)],
            [Point(4, 12), Point(10, 18), Point(16, 8)],
        )
        ctx = ctx_for(scene, order=[0, 1, 2])
        for target in new_region(ctx, 1, {0}, at(ctx, scene.start)):
            act = Action(1, scene.start[1], scene.candidates[target])
            assert action_valid(scene, scene.start, act)


def near_points(scene):
    """Candidates, points 1e-7 from a candidate, and other off-grid points."""
    inside = st.floats(scene.object_radius, scene.workspace.width - scene.object_radius)
    nudge = st.sampled_from([(1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7)])
    candidate = st.sampled_from(scene.candidates)
    return st.one_of(
        candidate,
        st.builds(lambda p, d: Point(p.x + d[0], p.y + d[1]), candidate, nudge),
        st.builds(Point, inside, inside),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_proposed_move_changes_the_point_and_is_valid(data):
    # Only the object's own point is excluded as a buffer, so a candidate 1e-7
    # from it is a move like any other, and the float geometry accepts it.
    kw = data.draw(st.sampled_from([{}, {"grid_resolution": 0.5}, {"tunnel_width": 1.5}]))
    base = make_scene([Point(4, 4)], [Point(16, 16)], **kw)
    n = data.draw(st.integers(1, 5), label="n_objects")
    points = near_points(base)
    try:
        scene = make_scene(
            data.draw(st.lists(points, min_size=n, max_size=n), label="start"),
            data.draw(st.lists(points, min_size=n, max_size=n), label="goal"),
            **kw,
        )
    except ValueError:
        assume(False)  # discs overlap, or one leaves the floor
    order = data.draw(st.permutations(range(n)), label="order")
    ctx = StageContext(scene, tuple(order), 0, OcclusionTable(scene))
    points = ctx.table.points
    for stuck in (False, True):
        for obj, dst in _candidate_moves(ctx, at(ctx, scene.start), stuck):
            assert points[dst] != scene.start[obj]
            assert action_valid(scene, scene.start, Action(obj, scene.start[obj], points[dst]))


class TestExpand:
    def test_unblocked_focus_single_goal_child(self):
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        ctx = ctx_for(scene)
        root = SearchNode(at(ctx, scene.start))
        root.visits = 1
        child = expand(ctx, root)
        assert len(root.children) == 1
        assert child.incoming == (0, ctx.table.index_of(Point(10, 15)))
        assert child.path_cost == 10.0
        reward, moves = simulate(ctx, child, np.random.default_rng(0))
        assert reward == pytest.approx(-10.0)
        assert moves == []

    def test_single_blocker_children_relocate_it_only(self):
        scene = make_scene([Point(4, 5), Point(10, 8)], [Point(10, 12), Point(16, 14)])
        ctx = ctx_for(scene, order=[0, 1])
        root = SearchNode(at(ctx, scene.start))
        root.visits = 1
        expand(ctx, root)
        assert root.children
        for child in root.children:
            obj, dst = child.incoming
            assert obj == 1
            before = tuple(ctx.table.points[i] for i in root.positions)
            after = tuple(ctx.table.points[i] for i in child.positions)
            assert action_valid(scene, before, Action(obj, before[obj], ctx.table.points[dst]))
            assert child.path_cost == distance(before[obj], after[obj])
            moved = [o for o in range(2) if after[o] != before[o]]
            assert moved == [1]

    def test_focus_relocates_itself_when_it_traps_its_blocker(self):
        # object 1 occupies the focus goal; its escape tunnel crosses the focus
        scene = make_scene([Point(10, 5), Point(10, 12)], [Point(10, 12), Point(16, 5)])
        ctx = ctx_for(scene, order=[0, 1])
        root = SearchNode(at(ctx, scene.start))
        root.visits = 1
        expand(ctx, root)
        assert any(obj == 0 for obj, _ in (child.incoming for child in root.children))


class TestSimulate:
    def test_node_with_focus_at_goal(self):
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        ctx = ctx_for(scene)
        root = SearchNode(at(ctx, scene.start))
        root.visits = 1
        child = expand(ctx, root)
        assert stage_complete(ctx, child.positions)
        # rollout length 0: reward is the root-to-node distance, negated
        reward, moves = simulate(ctx, child, np.random.default_rng(3))
        assert reward == pytest.approx(-10.0)
        assert moves == []

    def test_unblocked_focus_costs_straight_line(self):
        scene = make_scene([Point(10, 5)], [Point(13, 9)])
        ctx = ctx_for(scene)
        root = SearchNode(at(ctx, scene.start))
        reward, moves = simulate(ctx, root, np.random.default_rng(0))
        assert reward == pytest.approx(-5.0)
        assert moves == [(0, ctx.focus_goal)]

    def test_same_seed_same_rollout(self, flip_scene):
        ctx = ctx_for(flip_scene, order=[0, 1, 2, 3])
        root = SearchNode(at(ctx, flip_scene.start))
        rollouts = [
            simulate(ctx, root, np.random.default_rng(11)),
            simulate(ctx, root, np.random.default_rng(11)),
        ]
        assert rollouts[0] == rollouts[1]

    def test_rewards_never_positive(self):
        rng = np.random.default_rng(2)
        for seed in range(8):
            scene = generate_scene(SceneConfig(n_objects=4, rng_seed=seed))
            ctx = ctx_for(scene, order=list(range(4)))
            root = SearchNode(at(ctx, scene.start))
            reward, _ = simulate(ctx, root, rng)
            assert reward <= 0.0

    def test_completed_rollout_replays_from_its_node(self):
        # Rollouts from the root and from each of its children on the first
        # stage of hard-band scenes: a completed one's moves are valid
        # relocations from the node, they complete the stage, and with the
        # node's path they cost exactly the negated reward.
        completed = 0
        for seed in (82, 99, 109):
            scene = generate_scene(SceneConfig(n_objects=7 + (seed - 80) % 2, rng_seed=seed))
            order = stage_order(build_dependency_graph(scene), scene)
            ctx = ctx_for(scene, order=order)
            root = SearchNode(at(ctx, scene.start))
            root.visits = 1
            expand(ctx, root)
            rng = np.random.default_rng(seed)
            for node in [root, *root.children] * 4:
                reward, moves = simulate(ctx, node, rng)
                if moves is None:
                    continue
                completed += 1
                points = ctx.table.points
                positions = [points[i] for i in node.positions]
                cost = node.path_cost
                for obj, dst in moves:
                    act = Action(obj, positions[obj], points[dst])
                    assert action_valid(scene, tuple(positions), act)
                    positions[obj] = act.dst
                    cost += act.displacement
                assert stage_complete(ctx, at(ctx, positions))
                assert cost == pytest.approx(-reward, rel=1e-12)
        assert completed > 20

    def test_failed_rollout_returns_no_moves(self):
        # A tunnel as wide as the shelf makes object 1 block the focus and leaves it no buffer spot.
        scene = make_scene(
            [Point(4, 4), Point(16, 16)], [Point(4, 12), Point(16, 8)], tunnel_width=40
        )
        ctx = ctx_for(scene, order=[0, 1])
        reward, moves = simulate(ctx, SearchNode(at(ctx, scene.start)), np.random.default_rng(0))
        assert moves is None
        assert reward < 0.0


class TestBackpropagate:
    def test_updates_whole_path(self):
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        nodes = [SearchNode(at(ctx_for(scene), scene.start))]
        for depth in range(3):
            child = SearchNode(nodes[-1].positions.copy(), incoming=(0, depth), parent=nodes[-1])
            nodes[-1].children.append(child)
            nodes.append(child)
        backpropagate(nodes[-1], -7.0)
        assert [n.visits for n in nodes] == [1, 1, 1, 1]
        backpropagate(nodes[-1], -3.0)
        assert all(n.total_reward == -10.0 for n in nodes)
        assert all(n.visits == 2 for n in nodes)


class TestSolveStage:
    def test_unblocked_focus_single_action(self):
        scene = make_scene([Point(10, 5), Point(16, 16)], [Point(10, 15), Point(16, 8)])
        ctx = ctx_for(scene, order=[0, 1])
        moves = solve_stage(ctx, at(ctx, scene.start), BUDGET, np.random.default_rng(0))
        assert moves == [(0, ctx.table.index_of(Point(10, 15)))]

    def test_focus_already_at_goal(self):
        scene = make_scene([Point(10, 12), Point(4, 5)], [Point(10, 12), Point(4, 15)])
        ctx = ctx_for(scene, order=[0, 1])
        assert solve_stage(ctx, at(ctx, scene.start), BUDGET, np.random.default_rng(0)) == []

    def test_start_vector_is_left_as_it_was(self):
        scene = make_scene([Point(10, 5), Point(10, 12)], [Point(10, 5), Point(16, 12)])
        ctx = ctx_for(scene, order=[0, 1])
        start = at(ctx, scene.start)
        assert solve_stage(ctx, start, BUDGET, np.random.default_rng(0))
        assert start == at(ctx, scene.start)

    def test_focus_at_goal_but_trapping_another(self):
        # the finished focus would seal object 1 in; the stage must shuffle
        scene = make_scene([Point(10, 5), Point(10, 12)], [Point(10, 5), Point(16, 12)])
        ctx = ctx_for(scene, order=[0, 1])
        start = at(ctx, scene.start)
        actions = as_actions(ctx, start, solve_stage(ctx, start, BUDGET, np.random.default_rng(0)))
        assert actions  # something had to move
        positions = list(scene.start)
        for act in actions:
            assert action_valid(scene, tuple(positions), act)
            positions[act.obj] = act.dst
        assert stage_complete(ctx, at(ctx, positions))

    def test_matches_bfs_on_swap_stage(self):
        # coarse 5x5 grid; object 1 sits on the focus goal
        scene = make_scene(
            [Point(5.5, 10), Point(10, 10)],
            [Point(10, 10), Point(14.5, 10)],
            grid_resolution=4.5,
        )
        ctx = ctx_for(scene, order=[0, 1])

        def stage_goal(state):
            if state[0] != scene.goal[0]:
                return False
            goal_disc = Disc(scene.goal[0], scene.object_radius)
            pick = home_tunnel(scene, state[1])
            return not tunnel_intersects_disc(pick, goal_disc)

        oracle = bfs_min_steps(scene, stage_goal, max_depth=4)
        moves = solve_stage(ctx, at(ctx, scene.start), BUDGET, np.random.default_rng(0))
        assert oracle == 2
        assert len(moves) == oracle

    def test_solution_replays_validly(self):
        for seed in (0, 1, 2, 3):
            scene = generate_scene(SceneConfig(n_objects=5, rng_seed=seed))
            ctx = ctx_for(scene, order=list(range(5)), index=0)
            start = at(ctx, scene.start)
            moves = solve_stage(ctx, start, BUDGET, np.random.default_rng(seed))
            actions = as_actions(ctx, start, moves)
            positions = list(scene.start)
            for act in actions:
                assert action_valid(scene, tuple(positions), act)
                positions[act.obj] = act.dst
            assert positions[0] == scene.goal[0]

    @pytest.mark.parametrize("seed, n_objects", [(82, 7), (99, 8), (109, 8), (3, 5), (17, 5)])
    def test_chain_is_no_costlier_than_any_completed_trajectory_seen(
        self, seed, n_objects, monkeypatch
    ):
        # Record every trajectory the search completes: a rollout that
        # completes the stage (its cost is the negated reward), or a child
        # that completes it on its own (its path cost). Each stage of the
        # plan returns a chain no costlier than any of them.
        seen: list[float] = []

        def recording_simulate(ctx, node, rng):
            reward, moves = simulate(ctx, node, rng)
            if moves is not None:
                seen.append(-reward)
            return reward, moves

        def recording_expand(ctx, node):
            first = expand(ctx, node)
            seen.extend(ch.path_cost for ch in node.children if stage_complete(ctx, ch.positions))
            return first

        monkeypatch.setattr(mcts, "simulate", recording_simulate)
        monkeypatch.setattr(mcts, "expand", recording_expand)
        scene = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
        order = stage_order(build_dependency_graph(scene), scene)
        table = OcclusionTable(scene)
        rng = np.random.default_rng(seed)
        positions = list(scene.start)
        searched = 0
        for index in range(len(order)):
            seen.clear()
            ctx = StageContext(scene, tuple(order), index, table)
            start = at(ctx, positions)
            chain = as_actions(ctx, start, solve_stage(ctx, start, BUDGET, rng))
            for act in chain:
                assert action_valid(scene, tuple(positions), act)
                positions[act.obj] = act.dst
            if chain:
                searched += 1
                cost = sum(act.displacement for act in chain)
                assert seen and cost <= min(seen) + 1e-9
        assert positions == list(scene.goal)
        assert searched

    def test_root_is_expanded_before_a_completed_rollout_returns(self):
        # The root's own rollout completes the stage in the first round, but
        # the stage returns only once the root has been expanded, in round two.
        scene = make_scene([Point(10, 5), Point(16, 16)], [Point(10, 15), Point(16, 8)])
        ctx = ctx_for(scene, order=[0, 1])
        start = at(ctx, scene.start)
        with pytest.raises(StageIterationLimit, match="iteration budget") as err:
            solve_stage(ctx, start, SearchBudget(1, None), np.random.default_rng(0))
        assert isinstance(err.value, StageTimeout)  # stage-failure counts still see it
        moves = solve_stage(ctx, start, SearchBudget(2, None), np.random.default_rng(0))
        assert moves == [(0, ctx.table.index_of(Point(10, 15)))]

    def test_completing_child_counts_when_no_rollout_completes(self, monkeypatch):
        # With every rollout reported as failed, the only completed trajectory
        # is the root's child that makes the direct move.
        def failing_simulate(ctx, node, rng):
            reward, _ = simulate(ctx, node, rng)
            return reward, None

        monkeypatch.setattr(mcts, "simulate", failing_simulate)
        scene = make_scene([Point(10, 5), Point(16, 16)], [Point(10, 15), Point(16, 8)])
        ctx = ctx_for(scene, order=[0, 1])
        moves = solve_stage(ctx, at(ctx, scene.start), BUDGET, np.random.default_rng(0))
        assert moves == [(0, ctx.table.index_of(Point(10, 15)))]

    def test_planning_the_benchmark_self_test_scene_reaches_expand(self, monkeypatch):
        # The benchmark's self-test plans this scene and requires every traced
        # search function, expand included, to be called.
        calls = []

        def counting_expand(ctx, node):
            calls.append(node.depth)
            return expand(ctx, node)

        monkeypatch.setattr(mcts, "expand", counting_expand)
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=3))
        report = plan(scene, SearchBudget(wall_clock_limit=None), seed=0)
        assert report.success and validate_plan(scene, report.plan).valid
        assert calls


class TestStageEntry:
    def test_off_grid_start_and_goal_are_known(self):
        scene = make_scene([Point(10.3, 5), Point(16, 16)], [Point(10, 15.2), Point(16, 8)])
        ctx = ctx_for(scene, order=[0, 1])
        start = at(ctx, scene.start)
        moves = solve_stage(ctx, start, BUDGET, np.random.default_rng(0))
        assert moves == [(0, ctx.table.index_of(Point(10, 15.2)))]
        assert as_actions(ctx, start, moves) == [Action(0, Point(10.3, 5.0), Point(10, 15.2))]

    def test_static_object_off_its_goal_at_stage_entry(self):
        # Stage 1 of the order (0, 1): object 0 is done, yet the start leaves it off its goal.
        scene = make_scene([Point(4, 5), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        ctx = ctx_for(scene, order=[0, 1], index=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="static object 0 is not at its goal at stage entry"):
            solve_stage(ctx, at(ctx, scene.start), BUDGET, rng)
        moves = solve_stage(ctx, at(ctx, (Point(4, 15), Point(16, 5))), BUDGET, rng)
        assert moves == [(1, ctx.table.index_of(Point(16, 15)))]

    def test_static_object_5e_10_off_its_goal_at_stage_entry(self):
        # Object 0 starts 5e-10 right of its goal: a point of the table, but not the goal.
        scene = make_scene([Point(4 + 5e-10, 15), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        ctx = ctx_for(scene, order=[0, 1], index=1)
        with pytest.raises(ValueError, match="static object 0 is not at its goal at stage entry"):
            solve_stage(ctx, at(ctx, scene.start), BUDGET, np.random.default_rng(0))

    def test_context_rejects_another_scenes_table(self):
        # A table of the same shelf serves the scene; one of another shelf does not.
        scene = make_scene([Point(10, 5)], [Point(10, 15)])
        same_shelf = OcclusionTable(make_scene([Point(4, 5)], [Point(16, 15)]))
        assert StageContext(scene, (0,), 0, same_shelf).table is same_shelf
        other_shelf = OcclusionTable(make_scene([Point(10, 5)], [Point(10, 15)], tunnel_width=3.0))
        with pytest.raises(ValueError, match="another shelf"):
            StageContext(scene, (0,), 0, other_shelf)

    @pytest.mark.parametrize(
        "order, index",
        [((0,), 0), ((0, 0), 0), ((1, 2), 0), ((0, 1), 2), ((0, 1), -1)],
        ids=["too-short", "repeated", "unknown-ids", "past-the-end", "negative"],
    )
    def test_context_rejects_a_stage_that_is_not_one(self, order, index):
        scene = make_scene([Point(4, 5), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        with pytest.raises(ValueError, match="stage"):
            StageContext(scene, order, index, OcclusionTable(scene))

    def test_stage_is_derived_from_order_and_index(self):
        scene = make_scene(
            [Point(4, 5), Point(10, 5), Point(16, 5)], [Point(4, 15), Point(10, 15), Point(16, 15)]
        )
        ctx = StageContext(scene, (2, 0, 1), 1, OcclusionTable(scene))
        assert ctx.focus == 0
        assert ctx.focus_goal == ctx.table.index_of(Point(4, 15))
        assert ctx.movable_ids == (0, 1)
        assert ctx.movers_except_focus == (1,)

    @pytest.mark.parametrize("seed, n_objects", [(82, 7), (99, 8)])
    def test_every_field_equals_its_definition_at_every_stage(self, seed, n_objects):
        scene = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
        order = tuple(stage_order(build_dependency_graph(scene), scene))
        table = OcclusionTable(scene)
        memos = []
        for index in range(len(order)):
            ctx = StageContext(scene, order, index, table)
            focus = order[index]
            goal_indices = [table.index_of(p) for p in scene.goal]
            assert ctx.focus == focus
            assert ctx.movable_ids == tuple(sorted(order[index:]))
            assert ctx.goal_indices == goal_indices
            assert ctx.focus_goal == goal_indices[focus]
            assert ctx.movers_except_focus == tuple(o for o in sorted(order[index:]) if o != focus)
            assert ctx.move_memo == {} and all(ctx.move_memo is not m for m in memos)
            memos.append(ctx.move_memo)
            for name in (f.name for f in dataclasses.fields(ctx)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(ctx, name, getattr(ctx, name))
            # Equality, hashing and repr see the four arguments only, memo filled or not.
            _candidate_moves(ctx, list(table.indices(scene.start)))
            again = StageContext(scene, order, index, table)
            assert ctx == again and hash(ctx) == hash(again) and repr(ctx) == repr(again)

    @pytest.mark.parametrize("seed, n_objects", [(82, 7), (99, 8)])
    def test_at_equals_the_context_built_for_that_stage(self, seed, n_objects):
        scene = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
        order = tuple(stage_order(build_dependency_graph(scene), scene))
        table = OcclusionTable(scene)
        first = StageContext(scene, order, 0, table)
        _candidate_moves(first, list(table.indices(scene.start)))  # a memo not to hand on
        memo = dict(first.move_memo)
        stepped = first
        for index in range(len(order)):
            built = StageContext(scene, order, index, table)
            # From the first stage, and stage after stage as plan() steps.
            for ctx in (first.at(index), stepped.at(index)):
                for name in (f.name for f in dataclasses.fields(built) if f.name != "move_memo"):
                    assert getattr(ctx, name) == getattr(built, name), name
                assert ctx.move_memo == {} and ctx.move_memo is not first.move_memo
                assert ctx == built and hash(ctx) == hash(built) and repr(ctx) == repr(built)
            stepped = ctx
        # Stepping leaves the context it started from as it was.
        assert first.index == 0 and first.focus == order[0] and first.move_memo == memo
        for index in (-1, len(order)):
            with pytest.raises(ValueError, match="stage"):
                first.at(index)

    def test_plan_indexes_the_goal_once_per_plan(self, monkeypatch):
        calls = []
        indices = OcclusionTable.indices

        def spy(table, arrangement):
            calls.append(arrangement)
            return indices(table, arrangement)

        monkeypatch.setattr(OcclusionTable, "indices", spy)
        for seed, n_objects in [(82, 7), (99, 8)]:
            scene = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
            calls.clear()
            assert plan(scene, BUDGET, seed=seed).success
            assert calls == [scene.goal]


class TestMoveMemo:
    @pytest.mark.parametrize("seed, n_objects", [(82, 7), (99, 8)])
    def test_memo_equals_a_fresh_context_on_every_visited_arrangement(self, seed, n_objects):
        # Hard-band scenes planned stage by stage as plan() does: every stage
        # shares the plan's table but starts with an empty memo, and every
        # arrangement its search asked about gets the same moves from a fresh
        # context (so a fresh memo) over a fresh table, stuck or not. A search
        # visits 11-37 arrangements per hard scene, so the case plans the
        # scene of ``seed`` and the five after it, with object counts
        # alternating from ``n_objects`` as in the band, to reach the floor.
        visited = 0
        for k in range(6):
            count = n_objects if k % 2 == 0 else 15 - n_objects
            scene = generate_scene(SceneConfig(n_objects=count, rng_seed=seed + k))
            order = stage_order(build_dependency_graph(scene), scene)
            table = OcclusionTable(scene)
            rng = np.random.default_rng(seed + k)
            positions = table.indices(scene.start)
            for index in range(len(order)):
                ctx = StageContext(scene, tuple(order), index, table)
                assert ctx.move_memo == {}
                for obj, dst in solve_stage(ctx, positions, BUDGET, rng):
                    positions[obj] = dst
                assert all(type(moves) is tuple for moves in ctx.move_memo.values())
                fresh_table = OcclusionTable(scene)
                arrangements = {arrangement for arrangement, _ in ctx.move_memo}
                for arrangement in arrangements:
                    for stuck in (False, True):
                        fresh = StageContext(scene, tuple(order), index, fresh_table)
                        warm = _candidate_moves(ctx, list(arrangement), stuck)
                        assert warm == _candidate_moves(fresh, list(arrangement), stuck)
                visited += len(arrangements)
        assert visited > 100
