import pytest

from shelfplan import Point, SceneConfig, generate_scene, make_scene
from shelfplan.geometry import Disc, tunnel_intersects_disc
from shelfplan.motion import home_tunnel
from shelfplan.topology import CycleError, DependencyGraph, build_dependency_graph, stage_order


class TestDependencyGraph:
    def test_laterally_separated_goals_no_edges(self):
        scene = make_scene(
            [Point(4, 5), Point(16, 5)],
            [Point(3, 10), Point(17, 10)],
        )
        assert build_dependency_graph(scene).edges == frozenset()

    def test_front_goal_blocks_rear_goal(self):
        # object 0's goal sits on the ray from home to object 1's goal
        scene = make_scene(
            [Point(4, 5), Point(16, 5)],
            [Point(10, 5), Point(10, 12)],
        )
        front_goal_disc = Disc(scene.goal[0], scene.object_radius)
        rear_place = home_tunnel(scene, scene.goal[1])
        assert tunnel_intersects_disc(rear_place, front_goal_disc)  # construction sanity
        g = build_dependency_graph(scene)
        assert (1, 0) in g.edges  # blocked object 1 -> blocker object 0
        assert (0, 1) not in g.edges

    def test_never_self_edges(self):
        for seed in range(8):
            scene = generate_scene(SceneConfig(n_objects=6, rng_seed=seed))
            g = build_dependency_graph(scene)
            assert all(u != v for u, v in g.edges)

    def test_self_edge_rejected_by_type(self):
        with pytest.raises(ValueError):
            DependencyGraph(n=2, edges=frozenset({(1, 1)}))


class TestStageOrder:
    def test_zero_edges_sorts_by_depth(self):
        scene = make_scene(
            [Point(3, 3), Point(10, 3), Point(17, 3)],
            [Point(4, 5), Point(10, 17), Point(16, 11)],
        )
        g = DependencyGraph(n=3, edges=frozenset())
        assert stage_order(g, scene) == [1, 2, 0]  # goal depths 17, 11, 5

    def test_edges_dominate_longitude(self):
        scene = make_scene(
            [Point(3, 3), Point(10, 3), Point(17, 3)],
            [Point(4, 17), Point(10, 10), Point(16, 5)],
        )
        # chain: 2 before 1 before 0 although object 0's goal is deepest
        g = DependencyGraph(n=3, edges=frozenset({(2, 1), (1, 0)}))
        assert stage_order(g, scene) == [2, 1, 0]

    def test_tie_breaks_by_lowest_id(self):
        scene = make_scene(
            [Point(3, 3), Point(10, 3)],
            [Point(4, 10), Point(16, 10)],
        )
        g = DependencyGraph(n=2, edges=frozenset())
        assert stage_order(g, scene) == [0, 1]

    def test_cycle_detected(self):
        scene = make_scene(
            [Point(3, 3), Point(10, 3)],
            [Point(4, 10), Point(16, 10)],
        )
        g = DependencyGraph(n=2, edges=frozenset({(0, 1), (1, 0)}))
        with pytest.raises(CycleError):
            stage_order(g, scene)

    def test_order_respects_all_edges(self):
        for seed in range(12):
            scene = generate_scene(SceneConfig(n_objects=7, rng_seed=seed))
            g = build_dependency_graph(scene)
            order = stage_order(g, scene)
            position = {obj: i for i, obj in enumerate(order)}
            assert sorted(order) == list(range(7))
            for u, v in g.edges:
                assert position[u] < position[v]
