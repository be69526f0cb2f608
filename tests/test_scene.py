import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from json_fuzz import hostile_edits
from oracles import arrangement_valid

from shelfplan import (
    Point,
    SceneConfig,
    SceneGenerationError,
    SearchBudget,
    SuiteConfig,
    generate_scene,
    make_scene,
    scene_from_dict,
    scene_from_json,
    scene_to_dict,
    scene_to_json,
)
from shelfplan.geometry import Disc, Workspace, disc_in_workspace
from shelfplan.scene import MAX_CANDIDATES, candidate_grid


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

    def test_integer_settings_give_float_points(self):
        assert all(type(c) is float for p in candidate_grid(Workspace(4, 4), 1, 1) for c in p)

    def test_too_small_workspace(self):
        with pytest.raises(ValueError):
            candidate_grid(Workspace(1, 1), 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, args",
        [
            ("workspace width", lambda v: (Workspace(v, 20), 1.0, 1.0)),
            ("workspace depth", lambda v: (Workspace(20, v), 1.0, 1.0)),
            ("object_radius", lambda v: (Workspace(20, 20), v, 1.0)),
            ("grid_resolution", lambda v: (Workspace(20, 20), 1.0, v)),
        ],
    )
    def test_non_finite_dimension_is_named(self, field, args, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            candidate_grid(*args(bad))

    @pytest.mark.parametrize(
        "workspace, resolution, count",
        [
            (Workspace(1e12, 20), 1.0, "18,999,999,999,981"),  # 999,999,999,999 x 19
            (Workspace(20, 20), 1e-9, "324,000,000,036,000,000,001"),  # 18,000,000,001 squared
        ],
        ids=["1e12-wide-floor", "1e-9-pitch"],
    )
    def test_grid_over_the_cap_fails_before_it_is_built(self, workspace, resolution, count):
        with pytest.raises(ValueError, match=f"= {count} candidates exceeds the cap of 65,536"):
            candidate_grid(workspace, 1.0, resolution)
        with pytest.raises(ValueError, match=count):
            SceneConfig(width=workspace.width, depth=workspace.depth, grid_resolution=resolution)

    def test_cap_is_a_256_by_256_grid(self):
        assert len(candidate_grid(Workspace(257, 257), 1.0, 1.0)) == MAX_CANDIDATES == 256 * 256
        with pytest.raises(ValueError, match="257 x 256 = 65,792 candidates"):
            candidate_grid(Workspace(258, 257), 1.0, 1.0)

    def test_last_column_leaving_the_floor_by_a_rounding_error_is_dropped(self):
        # 19.4 / 0.1 rounds below 194, and the slack admits a 195th column whose
        # computed x, 0.3 + 194 * 0.1 = 19.700000000000003, puts the disc past the wall.
        ws = Workspace(20, 20)
        grid = candidate_grid(ws, 0.3, 0.1)
        assert len(grid) == 194 * 194
        assert max(p.x for p in grid) == max(p.y for p in grid) == 0.3 + 193 * 0.1
        assert all(disc_in_workspace(Disc(p, 0.3), ws) for p in grid)

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.floats(0.5, 25.0),
        depth=st.floats(0.5, 25.0),
        radius=st.floats(0.05, 2.0),
        resolution=st.one_of(st.floats(0.1, 3.0), st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3])),
    )
    def test_every_candidate_disc_lies_in_the_workspace(self, width, depth, radius, resolution):
        ws = Workspace(width, depth)
        try:
            grid = candidate_grid(ws, radius, resolution)
        except ValueError:
            assume(False)
        assert all(disc_in_workspace(Disc(p, radius), ws) for p in grid)
        assert all(type(c) is float for p in grid for c in p)

    def test_pitch_within_two_float_spacings_is_rejected(self):
        # Near 2e6 floats are 2.3e-10 apart, so b + i * 5e-12 repeats points.
        size = 2e6 + 1e-9
        with pytest.raises(ValueError, match="twice the float spacing"):
            candidate_grid(Workspace(size, size), 1e6, 5e-12)
        with pytest.raises(ValueError, match="twice the float spacing"):
            make_scene(
                [Point(1e6, 1e6)],
                [Point(1e6, 1e6)],
                width=size,
                depth=size,
                object_radius=1e6,
                grid_resolution=5e-12,
                robot_home=Point(1e6, -3),
            )

    def test_pitch_rule_bound(self):
        spacing = math.ulp(2e6)
        workspace, radius = Workspace(2e6, 2e6), 1e6 - 1e-9
        with pytest.raises(ValueError, match="twice the float spacing"):
            candidate_grid(workspace, radius, 2 * spacing)
        grid = candidate_grid(workspace, radius, math.nextafter(2 * spacing, math.inf))
        assert len(set(grid)) == len(grid) == 25
        # One point per axis has no neighbour to collide with, whatever the pitch.
        assert candidate_grid(Workspace(2, 2), 1.0, 1e-300) == [Point(1, 1)]

    @pytest.mark.parametrize("resolution", [1.0, 0.5, 1.5, 2.0, 4.5])
    def test_usual_pitches_pass_the_pitch_rule(self, resolution):
        grid = candidate_grid(Workspace(20, 20), 1.0, resolution)
        assert len(set(grid)) == len(grid) > 1
        assert make_scene([Point(4, 4)], [Point(4, 4)], grid_resolution=resolution).candidates

    def test_pitch_whose_count_overflows_a_float(self):
        with pytest.raises(ValueError, match="too many candidates"):
            candidate_grid(Workspace(1e300, 20), 1.0, 1e-300)


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

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            # 2.5 and True used to end in a TypeError from numpy.
            ("n_objects", 2.5, "n_objects must be a positive int"),
            ("n_objects", True, "n_objects must be a positive int"),
            ("n_objects", 0, "need at least one object"),
            ("n_objects", -2, "n_objects must be a positive int"),
            # -1 ended in numpy's "expected non-negative integer", 1.5 in SeedSequence.
            ("rng_seed", -1, "rng_seed must be a non-negative int"),
            ("rng_seed", 1.5, "rng_seed must be a non-negative int"),
            ("rng_seed", True, "rng_seed must be a non-negative int"),
        ],
    )
    def test_config_rejects_a_bad_count_or_seed_by_name(self, field, bad, message):
        with pytest.raises(ValueError, match=message):
            generate_scene(SceneConfig(**{field: bad}))

    @pytest.mark.parametrize("field", ["min_center_separation", "tunnel_width"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_config_rejects_a_non_finite_length_by_name(self, field, bad):
        # A nan separation used to pass: no d2 < nan, so placement ignored it.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SceneConfig(**{field: bad})

    @pytest.mark.parametrize(
        "config, field",
        [
            (SearchBudget(), "wall_clock_limit"),
            (SceneConfig(), "rng_seed"),
            (SuiteConfig(), "base_seed"),
        ],
        ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v,
    )
    def test_configs_cannot_be_changed_after_their_checks(self, config, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, -1)

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
    """The oracle that the generator and JSON tests check arrangements with rejects bad ones."""

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

    def test_rejects_more_candidates_than_the_cap(self):
        scene = make_scene([Point(5, 5)], [Point(10, 10)])  # 18 x 18 units of grid span
        with pytest.raises(ValueError, match="257 x 257 = 66,049 candidates exceeds the cap"):
            dataclasses.replace(scene, grid_resolution=18 / 256)
        capped = dataclasses.replace(scene, grid_resolution=18 / 255)
        assert len(capped.candidates) == MAX_CANDIDATES == 256 * 256

    def test_candidates_follow_the_grid_settings(self):
        start, goal = [Point(5, 5), Point(10, 10)], [Point(10, 10), Point(5, 5)]
        scene = dataclasses.replace(make_scene(start, goal), grid_resolution=0.5)
        assert scene.candidates == make_scene(start, goal, grid_resolution=0.5).candidates
        assert len(scene.candidates) == 37 * 37
        assert scene_from_json(scene_to_json(scene)) == scene

    def test_scenes_of_one_shelf_share_one_candidate_tuple(self):
        drawn = generate_scene(SceneConfig(n_objects=3, rng_seed=4, grid_resolution=0.5))
        again = make_scene(drawn.goal, drawn.start, grid_resolution=0.5)
        assert again.candidates is drawn.candidates
        assert drawn.candidates == tuple(candidate_grid(Workspace(20, 20), 1.0, 0.5))
        # A resolution of another type gets a grid of its own, of points of that type.
        typed = make_scene(drawn.start, drawn.goal, grid_resolution=np.float64(0.5))
        assert type(typed.candidates[1].x) is np.float64
        plain = make_scene(drawn.start, drawn.goal, grid_resolution=0.5)
        assert type(plain.candidates[1].x) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, change",
        [
            ("object_radius", lambda v: {"object_radius": v}),
            ("tunnel_width", lambda v: {"tunnel_width": v}),
            ("grid_resolution", lambda v: {"grid_resolution": v}),
            ("workspace width", lambda v: {"workspace": Workspace(v, 20.0)}),
            ("workspace depth", lambda v: {"workspace": Workspace(20.0, v)}),
            ("robot_home x", lambda v: {"robot_home": Point(v, -3.0)}),
            ("robot_home y", lambda v: {"robot_home": Point(10.0, v)}),
        ],
    )
    def test_rejects_non_finite_parameter_by_name(self, field, change, bad):
        scene = make_scene([Point(5, 5)], [Point(10, 10)])
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(scene, **change(bad))


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


def spot(width: float):
    """A point on the grid of pitch 1 or anywhere on a width × width floor."""
    return st.one_of(
        st.lists(st.integers(1, max(1, int(width) - 1)), min_size=2, max_size=2),
        st.lists(st.floats(0, width), min_size=2, max_size=2),
    )


@st.composite
def scene_dicts(draw):
    """Scene mappings: a well-formed one, then up to three hostile edits.

    An edit puts NaN, ±inf, an unrepresentable integer, a non-number, a list
    of the wrong length, or nothing at all (a deleted key) into any field,
    coordinate or point. Workspace sizes and grid pitches stay bounded so any
    grid the parser builds is small.
    """
    width = draw(st.floats(4, 24))
    n = draw(st.integers(0, 3))
    starts = draw(st.lists(spot(width), min_size=n, max_size=n))
    goals = draw(st.lists(spot(width), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        goals[draw(st.integers(0, n - 1))] = list(draw(st.sampled_from(starts)))
    data = {
        "workspace": {"width": width, "depth": draw(st.one_of(st.just(width), st.floats(4, 24)))},
        "object_radius": draw(st.floats(0.3, 2)),
        "robot_home": [draw(st.floats(0, width)), draw(st.floats(-5, -0.5))],
        "tunnel_width": draw(st.floats(0.5, 6)),
        "grid_resolution": draw(st.floats(0.5, 4)),
        "start": starts,
        "goal": goals,
    }
    return draw(hostile_edits(data))


class TestSceneFromDictFuzz:
    @settings(max_examples=400, deadline=None)
    @given(scene_dicts())
    def test_parses_to_a_valid_scene_or_raises_an_input_error(self, data):
        try:
            scene = scene_from_dict(data)
        except (ValueError, KeyError, TypeError):
            return
        numbers = [
            scene.object_radius,
            scene.tunnel_width,
            scene.grid_resolution,
            *scene.workspace,
            *scene.robot_home,
        ]
        assert all(math.isfinite(v) for v in numbers)
        assert scene.object_radius > 0 and scene.tunnel_width > 0 and scene.robot_home.y < 0
        assert arrangement_valid(scene.start, scene) and arrangement_valid(scene.goal, scene)
        assert scene_to_dict(scene) == data  # nothing truncated or dropped

    @pytest.mark.parametrize("text", ["[]", "null", '"scene"', "{}"])
    def test_wrong_top_level_shape_is_an_input_error(self, text):
        with pytest.raises((ValueError, KeyError, TypeError)):
            scene_from_json(text)

    def test_empty_scene_parses(self):
        data = scene_to_dict(make_scene([], []))
        assert scene_from_dict(data).n_objects == 0

    @pytest.mark.parametrize("home", [[10.0, -3.0, 1.0], [10.0], "10,-3"])
    def test_robot_home_must_be_a_pair(self, home):
        data = scene_to_dict(make_scene([Point(5, 5)], [Point(10, 10)]))
        data["robot_home"] = home
        with pytest.raises((ValueError, TypeError), match="robot_home"):
            scene_from_dict(data)
