import math

import numpy as np
import pytest

from shelfplan import (
    Point,
    SceneConfig,
    SceneGenerationError,
    generate_scene,
    make_scene,
    scene_from_json,
    scene_to_json,
)
from shelfplan.geometry import Workspace
from shelfplan.scene import arrangement_valid, candidate_grid


class TestCandidateGrid:
    def test_default_grid_count_matches_closed_form(self):
        grid = candidate_grid(Workspace(20, 20), 1.0, 1.0)
        per_axis = math.floor((20 - 2 * 1.0) / 1.0) + 1
        assert per_axis == 19
        assert len(grid) == per_axis * per_axis == 361
        xs = [p.x for p in grid]
        ys = [p.y for p in grid]
        assert min(xs) == min(ys) == 1.0
        assert max(xs) == max(ys) == 19.0

    def test_row_major_order(self):
        grid = candidate_grid(Workspace(4, 4), 1.0, 1.0)
        assert grid[:3] == [Point(1, 1), Point(2, 1), Point(3, 1)]
        assert grid[3] == Point(1, 2)

    def test_tight_workspace_single_point(self):
        assert candidate_grid(Workspace(2, 2), 1.0, 1.0) == [Point(1, 1)]

    def test_too_small_workspace(self):
        with pytest.raises(ValueError):
            candidate_grid(Workspace(1, 1), 1.0, 1.0)


class TestGenerateScene:
    def test_deterministic(self):
        cfg = SceneConfig(n_objects=5, rng_seed=11)
        a = generate_scene(cfg)
        b = generate_scene(SceneConfig(n_objects=5, rng_seed=11))
        assert a.start == b.start
        assert a.goal == b.goal

    def test_min_separation_respected(self):
        scene = generate_scene(SceneConfig(n_objects=4, rng_seed=3))
        for points in (scene.start, scene.goal):
            arr = np.asarray(points)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.linalg.norm(arr[i] - arr[j]) >= 4.0 - 1e-12

    def test_overdense_config_fails(self):
        # 50 centers with separation 4 cannot pack into an 18x18 interior.
        with pytest.raises(SceneGenerationError):
            generate_scene(SceneConfig(n_objects=50, rng_seed=0))

    def test_generated_arrangements_are_valid(self):
        for seed in range(10):
            scene = generate_scene(SceneConfig(n_objects=6, rng_seed=seed))
            assert arrangement_valid(scene.start, scene)
            assert arrangement_valid(scene.goal, scene)

    def test_robot_home_outside_workspace(self):
        scene = generate_scene(SceneConfig(rng_seed=1))
        assert scene.robot_home.y < 0
        assert scene.robot_home.x == 10.0


class TestArrangementValid:
    def test_coincident_objects_invalid(self):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=0))
        assert not arrangement_valid((Point(5, 5), Point(5, 5)), scene)

    def test_wall_violation_invalid(self):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=0))
        assert not arrangement_valid((Point(0.5, 5), Point(10, 10)), scene)

    def test_wrong_length_invalid(self):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=0))
        assert not arrangement_valid((Point(5, 5),), scene)


class TestSceneChecks:
    def test_rejects_overlapping_start(self):
        with pytest.raises(ValueError):
            make_scene([Point(5, 5), Point(6, 5)], [Point(5, 5), Point(10, 10)])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_scene([Point(5, 5)], [Point(5, 5), Point(10, 10)])

    def test_rejects_home_inside_workspace(self):
        with pytest.raises(ValueError):
            make_scene([Point(5, 5)], [Point(10, 10)], robot_home=Point(10, 5))


class TestSceneJson:
    def test_roundtrip_is_exact(self):
        scene = generate_scene(SceneConfig(n_objects=6, rng_seed=99))
        again = scene_from_json(scene_to_json(scene))
        assert again.start == scene.start
        assert again.goal == scene.goal
        assert again.workspace == scene.workspace
        assert again.robot_home == scene.robot_home
        assert again.tunnel_width == scene.tunnel_width
        assert again.grid_resolution == scene.grid_resolution
        assert again.candidates == scene.candidates

    def test_roundtrip_survives_ugly_floats(self):
        start = [Point(1 / 3 + 1, 2 / 7 + 1), Point(11.1, 17.3)]
        goal = [Point(math.pi, math.e + 1), Point(15.000000001, 3.3)]
        scene = make_scene(start, goal)
        again = scene_from_json(scene_to_json(scene))
        assert again.start == scene.start  # bit-exact, not merely close
        assert again.goal == scene.goal

    def test_schema_keys(self):
        import json

        scene = generate_scene(SceneConfig(rng_seed=0))
        data = json.loads(scene_to_json(scene))
        assert set(data) == {
            "workspace",
            "object_radius",
            "robot_home",
            "tunnel_width",
            "grid_resolution",
            "start",
            "goal",
        }
        assert set(data["workspace"]) == {"width", "depth"}
