import pytest

from shelfplan import Point, SceneConfig, generate_scene, make_scene
from shelfplan.bench import LEVEL_OBJECT_COUNTS
from shelfplan.geometry import Disc, tunnel_intersects_disc
from shelfplan.motion import home_tunnel
from shelfplan.occlusion import OcclusionTable
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

    @pytest.mark.parametrize("grid", [1.0, 0.5])
    @pytest.mark.parametrize(
        "n_objects", sorted({n for counts in LEVEL_OBJECT_COUNTS.values() for n in counts})
    )
    def test_edges_are_the_goal_tunnel_rows(self, n_objects, grid):
        # Object i blocks j exactly when the home tunnel to j's goal touches
        # i's goal disc: bit goal_i of the table's row(goal_j).
        for seed in range(10):
            scene = generate_scene(
                SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid)
            )
            table = OcclusionTable(scene)
            goal = table.indices(scene.goal)
            expected = {
                (j, i)
                for j in range(n_objects)
                for i in range(n_objects)
                if i != j and table.row(goal[j]) >> goal[i] & 1
            }
            assert build_dependency_graph(scene).edges == expected

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
