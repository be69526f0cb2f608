import numpy as np
import pytest

from shelfplan import Action, Point, SceneConfig, action_valid, generate_scene, make_scene
from shelfplan.geometry import Disc, tunnel_intersects_disc
from shelfplan.motion import collision_objs, home_tunnel, placement_sweep_mask
from shelfplan.scene import arrangement_valid


def single_object_scene():
    return make_scene([Point(10, 5)], [Point(10, 15)])


class TestSweptVolume:
    def test_vertical_relocation_lengths(self):
        scene = single_object_scene()  # home defaults to (10, -3)
        act = Action(0, Point(10, 5), Point(10, 15))
        pick, place = home_tunnel(scene, act.src), home_tunnel(scene, act.dst)
        assert pick.length == pytest.approx(9.0, abs=1e-9)  # 8 + radius
        assert place.length == pytest.approx(19.0, abs=1e-9)  # 18 + radius
        assert pick.anchor == scene.robot_home
        assert place.anchor == scene.robot_home

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            Action(0, Point(10, 5), Point(10, 5))

    def test_anchored_at_home_for_arbitrary_actions(self):
        scene = generate_scene(SceneConfig(n_objects=3, rng_seed=8))
        act = Action(1, scene.start[1], Point(4, 7))
        pick, place = home_tunnel(scene, act.src), home_tunnel(scene, act.dst)
        assert pick.anchor == place.anchor == scene.robot_home


class TestActionValid:
    def test_single_object_always_free(self):
        scene = single_object_scene()
        assert action_valid(scene, scene.start, Action(0, Point(10, 5), Point(3, 17)))

    def test_destination_on_other_object(self):
        scene = make_scene([Point(4, 5), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        assert not action_valid(scene, scene.start, Action(0, Point(4, 5), Point(16, 5)))
        # near-coincident destination overlaps as well
        assert not action_valid(scene, scene.start, Action(0, Point(4, 5), Point(15, 5)))

    def test_destination_outside_workspace(self):
        scene = single_object_scene()
        assert not action_valid(scene, scene.start, Action(0, Point(10, 5), Point(19.5, 19.5)))

    def test_front_object_blocks_rear_pick(self, collinear_scene):
        scene = collinear_scene  # object 0 at (10,5) in front of object 1 at (10,12)
        front_disc = Disc(scene.start[0], scene.object_radius)
        rear_pick = home_tunnel(scene, scene.start[1])
        assert tunnel_intersects_disc(rear_pick, front_disc)  # construction sanity
        assert not action_valid(scene, scene.start, Action(1, Point(10, 12), Point(16, 5)))
        # the front object itself is free to move aside
        assert action_valid(scene, scene.start, Action(0, Point(10, 5), Point(16, 5)))

    def test_valid_action_yields_valid_arrangement(self):
        rng = np.random.default_rng(17)
        for seed in range(30):
            scene = generate_scene(SceneConfig(n_objects=4, rng_seed=seed))
            obj = int(rng.integers(4))
            dst = scene.candidates[int(rng.integers(len(scene.candidates)))]
            if dst == scene.start[obj]:
                continue
            act = Action(obj, scene.start[obj], dst)
            if action_valid(scene, scene.start, act):
                after = list(scene.start)
                after[obj] = dst
                assert arrangement_valid(tuple(after), scene)

    def test_removing_bystander_never_invalidates(self, collinear_scene):
        # valid with both objects present stays valid when the bystander leaves
        scene = collinear_scene
        act = Action(0, Point(10, 5), Point(16, 5))
        assert action_valid(scene, scene.start, act)
        solo = make_scene([Point(10, 5)], [Point(4, 5)])
        assert action_valid(solo, (Point(10, 5),), act)


class TestCollisionObjs:
    def test_empty_candidates(self, collinear_scene):
        t = home_tunnel(collinear_scene, Point(10, 12))
        assert collision_objs(collinear_scene, collinear_scene.start, set(), t) == set()

    def test_far_tunnel_hits_nothing(self, collinear_scene):
        t = home_tunnel(collinear_scene, Point(19, 1))
        assert collision_objs(collinear_scene, collinear_scene.start, {0, 1}, t) == set()

    def test_collinear_blocker_found(self, collinear_scene):
        t = home_tunnel(collinear_scene, Point(10, 12))
        hits = collision_objs(collinear_scene, collinear_scene.start, {0, 1}, t)
        assert hits == {0, 1}  # the rear object itself is inside its own tunnel
        hits = collision_objs(collinear_scene, collinear_scene.start, {0}, t)
        assert hits == {0}

    def test_matches_scalar_definition(self):
        scene = generate_scene(SceneConfig(n_objects=6, rng_seed=21))
        t = home_tunnel(scene, Point(9, 16))
        expected = {
            o
            for o in range(6)
            if tunnel_intersects_disc(t, Disc(scene.start[o], scene.object_radius))
        }
        assert collision_objs(scene, scene.start, set(range(6)), t) == expected


class TestPlacementSweepMask:
    def test_no_obstacles_clears_every_target_but_the_home(self):
        scene = single_object_scene()  # home at (10, -3)
        targets = np.array([[4.0, 5.0], [10.0, 15.0], [10.0, -3.0]])
        mask = placement_sweep_mask(scene, targets, np.empty((0, 2)))
        assert mask.tolist() == [True, True, False]
        # The home stays blocked with obstacles too, and the other targets answer alike.
        far_away = np.array([[19.0, 19.0]])
        assert placement_sweep_mask(scene, targets, far_away).tolist() == mask.tolist()
