import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfplan import (
    Action,
    Plan,
    PlanReport,
    Point,
    SceneConfig,
    SearchBudget,
    action_valid,
    generate_scene,
    make_scene,
    plan,
    plan_to_json,
    scene_to_json,
)
from shelfplan.cli import main
from shelfplan.geometry import (
    Disc,
    tunnel_disc_mask,
    tunnel_hits,
    tunnel_hits_disc,
    tunnel_intersects_disc,
    tunnel_to,
)
from shelfplan.motion import collision_objs, home_tunnel, placement_sweep_mask

from oracles import action_valid_by_legs, arrangement_valid
from test_occlusion import LATTICE_TANGENCIES

# Grid points, where exact tangencies live, and arbitrary floats around the floor.
coords = st.one_of(st.integers(-1, 21).map(float), st.floats(-2.0, 22.0))
points = st.builds(Point, coords, coords)
# Legs may also be aimed at non-finite points, or at the robot home itself.
destinations = st.one_of(
    points,
    st.builds(Point, st.sampled_from([np.nan, np.inf, -np.inf, 10.0]), coords),
    st.just(Point(10.0, -3.0)),
)
# Far-corner tangencies of tilted tunnels: every path reads these as misses.
FAR_CORNER_TANGENCIES = [
    (Point(7.0, 1.0), Point(8.0, 4.0)),
    (Point(4.0, 5.0), Point(5.0, 8.0)),
    (Point(1.0, 9.0), Point(2.0, 12.0)),
    (Point(19.0, 9.0), Point(18.0, 12.0)),
]


def outcome(fn, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


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

    @pytest.mark.parametrize("obj", [-1, -3, 2, 7])
    def test_object_outside_the_arrangement_raises(self, obj):
        # A negative id used to stand for object n - 1; an id >= n was a bare IndexError.
        scene = make_scene([Point(4, 5), Point(16, 5)], [Point(4, 15), Point(16, 15)])
        act = Action(obj, Point(4, 5), Point(10, 15))
        with pytest.raises(ValueError, match=f"object {obj} is not in an arrangement of 2"):
            action_valid(scene, scene.start, act)

    def test_removing_bystander_never_invalidates(self, collinear_scene):
        # valid with both objects present stays valid when the bystander leaves
        scene = collinear_scene
        act = Action(0, Point(10, 5), Point(16, 5))
        assert action_valid(scene, scene.start, act)
        solo = make_scene([Point(10, 5)], [Point(4, 5)])
        assert action_valid(solo, (Point(10, 5),), act)


FORMS = ["points", "lists", "float-array", "int-array"]


def arrangement_forms(points):
    """The same arrangement as Points, as ``[x, y]`` lists, as a float array and an int array."""
    floats = np.array(points, dtype=float)
    ints = floats.astype(int)
    assert np.array_equal(ints, floats)  # grid points: the int form is the same arrangement
    return {
        "points": tuple(points),
        "lists": [[p.x, p.y] for p in points],
        "float-array": floats,
        "int-array": ints,
    }


class TestAgainstTwoLegs:
    """``action_valid`` answers as the leg-by-leg definition, exact tangencies included."""

    @settings(max_examples=300, deadline=None)
    @given(arrangement=st.lists(points, min_size=1, max_size=7), data=st.data())
    def test_random_arrangements(self, arrangement, data):
        scene = single_object_scene()
        obj = data.draw(st.integers(0, len(arrangement) - 1))
        src = data.draw(st.one_of(st.just(arrangement[obj]), destinations))
        dst = data.draw(destinations.filter(lambda p: p != src))
        act = Action(obj, src, dst)
        expected = outcome(action_valid_by_legs, scene, arrangement, act)
        assert outcome(action_valid, scene, arrangement, act) == expected

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("leg", ["pick", "place"])
    def test_tangent_pairs_on_both_legs(self, leg, form):
        scene = single_object_scene()
        for target, disc in LATTICE_TANGENCIES + FAR_CORNER_TANGENCIES:
            for other in scene.candidates[::7]:
                src, dst = (target, other) if leg == "pick" else (other, target)
                if src == dst:
                    continue
                arrangement = arrangement_forms([src, disc])[form]
                act = Action(0, src, dst)
                expected = action_valid_by_legs(scene, (src, disc), act)
                assert action_valid(scene, arrangement, act) == expected, (leg, target, disc)
                if (target, disc) in LATTICE_TANGENCIES:
                    assert not expected  # closed contact blocks the leg
            hits = collision_objs(scene, arrangement_forms([disc])[form], {0}, target)
            assert hits == ({0} if (target, disc) in LATTICE_TANGENCIES else set())

    @pytest.mark.parametrize("form", FORMS)
    def test_grid_walk_in_every_form(self, form):
        scene = generate_scene(SceneConfig(n_objects=6, rng_seed=5))
        rng = np.random.default_rng(5)
        arrangement = list(scene.start)
        for _ in range(200):
            obj = int(rng.integers(len(arrangement)))
            dst = scene.candidates[int(rng.integers(len(scene.candidates)))]
            if dst == arrangement[obj]:
                continue
            act = Action(obj, arrangement[obj], dst)
            expected = action_valid_by_legs(scene, arrangement, act)
            assert action_valid(scene, arrangement_forms(arrangement)[form], act) == expected
            if expected:
                arrangement[obj] = dst

    def test_target_at_home_still_raises(self):
        scene = single_object_scene()
        with pytest.raises(ValueError, match="coincides with its anchor"):
            action_valid(scene, scene.start, Action(0, scene.robot_home, Point(10, 15)))
        with pytest.raises(ValueError, match="coincides with its anchor"):
            collision_objs(scene, scene.start, set(), scene.robot_home)


class TestCollisionObjs:
    def test_empty_candidates(self, collinear_scene):
        target = Point(10, 12)
        assert collision_objs(collinear_scene, collinear_scene.start, set(), target) == set()

    def test_no_targets_no_tunnels(self, collinear_scene):
        assert collision_objs(collinear_scene, collinear_scene.start, {0, 1}) == set()

    @pytest.mark.parametrize("target", [Point(np.inf, 5.0), Point(-np.inf, 5.0), Point(10.0, np.inf)])
    def test_infinite_leg_aims_nowhere(self, collinear_scene, target):
        assert collision_objs(collinear_scene, collinear_scene.start, {0, 1}, target) == set()

    def test_far_tunnel_hits_nothing(self, collinear_scene):
        target = Point(19, 1)
        assert collision_objs(collinear_scene, collinear_scene.start, {0, 1}, target) == set()

    def test_collinear_blocker_found(self, collinear_scene):
        target = Point(10, 12)
        hits = collision_objs(collinear_scene, collinear_scene.start, {0, 1}, target)
        assert hits == {0, 1}  # the rear object itself is inside its own tunnel
        hits = collision_objs(collinear_scene, collinear_scene.start, {0}, target)
        assert hits == {0}

    def test_matches_scalar_definition(self):
        scene = generate_scene(SceneConfig(n_objects=6, rng_seed=21))
        t = home_tunnel(scene, Point(9, 16))
        expected = {
            o
            for o in range(6)
            if tunnel_intersects_disc(t, Disc(scene.start[o], scene.object_radius))
        }
        assert collision_objs(scene, scene.start, set(range(6)), Point(9, 16)) == expected

    def test_every_grid_pair_matches_its_tunnel(self):
        # One call per target over every candidate disc equals that target's tunnel mask.
        scene = single_object_scene()
        grid = np.asarray(scene.candidates, dtype=float)
        ids = set(range(len(grid)))
        for target in scene.candidates:
            mask = tunnel_disc_mask(home_tunnel(scene, target), grid, scene.object_radius)
            assert collision_objs(scene, grid, ids, target) == set(np.flatnonzero(mask).tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        arrangement=st.lists(points, min_size=1, max_size=7),
        targets=st.lists(points.filter(lambda p: p != Point(10.0, -3.0)), max_size=4),
        data=st.data(),
    )
    def test_several_targets_are_the_union_of_one_each(self, arrangement, targets, data):
        scene = single_object_scene()
        candidates = data.draw(st.sets(st.integers(0, len(arrangement) - 1)))
        union = set()
        for target in targets:
            union |= collision_objs(scene, arrangement, candidates, target)
        assert collision_objs(scene, arrangement, candidates, *targets) == union


def scalar_and_array(target, anchor, center, width, radius):
    """``tunnel_hits_disc`` and ``tunnel_hits`` on the tunnel from ``anchor`` to ``target``."""
    t = tunnel_to(target, anchor, radius, width)
    (ax, ay), (c, s) = t.anchor, t.direction
    dx, dy = center[0] - ax, center[1] - ay
    scalar = tunnel_hits_disc(dx, dy, ((c, s, t.length),), 0.5 * t.width, radius)
    array = tunnel_hits(t.anchor, t.direction, t.length, t.width, np.array([center]), radius)
    return scalar, bool(array[0])


class TestScalarTunnelTest:
    """``tunnel_hits_disc`` answers as ``tunnel_hits`` on every pair."""

    @settings(max_examples=500, deadline=None)
    @given(
        anchor=st.one_of(st.just(Point(10.0, -3.0)), points),
        target=destinations,
        center=points,
        width=st.one_of(st.sampled_from([4.0, 3.0, 1.5]), st.floats(0.1, 8.0)),
        radius=st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
    )
    def test_random_legs_and_centers(self, anchor, target, center, width, radius):
        if target == anchor:
            return  # no direction to aim at: ``tunnel_to`` raises
        scalar, array = scalar_and_array(target, anchor, center, width, radius)
        assert scalar == array

    def test_tangent_pairs(self):
        scene = single_object_scene()
        for target, disc in LATTICE_TANGENCIES + FAR_CORNER_TANGENCIES:
            hits = scalar_and_array(target, scene.robot_home, disc, scene.tunnel_width, 1.0)
            assert hits == ((True, True) if (target, disc) in LATTICE_TANGENCIES else (False, False))


def any_leg_hits(anchor, legs, width, center, radius) -> bool:
    """``tunnel_hits`` on ``(c, s, length)`` legs as k tunnels, reduced with ``.any(axis=0)``."""
    c, s, length = (np.array([leg[i] for leg in legs]).reshape(-1, 1) for i in range(3))
    hits = tunnel_hits(anchor, (c, s), length, width, np.array([center]), radius)
    return bool(hits.any(axis=0)[0])


def legs_and_array(anchor, targets, center, width, radius):
    """``tunnel_hits_disc`` on the legs to ``targets`` and ``tunnel_hits`` on them as k tunnels."""
    legs = []
    for target in targets:
        t = tunnel_to(target, anchor, radius, width)
        legs.append((*t.direction, t.length))
    dx, dy = center[0] - anchor[0], center[1] - anchor[1]
    scalar = tunnel_hits_disc(dx, dy, legs, 0.5 * width, radius)
    return scalar, any_leg_hits(anchor, legs, width, center, radius)


class TestLegsForm:
    """``tunnel_hits_disc`` on k legs answers as ``tunnel_hits`` on k tunnels, reduced with any."""

    @settings(max_examples=500, deadline=None)
    @given(
        targets=st.lists(destinations.filter(lambda p: p != Point(10.0, -3.0)), max_size=3),
        center=points,
        width=st.one_of(st.just(4.0), st.floats(0.1, 8.0)),
        radius=st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
    )
    def test_zero_to_three_legs(self, targets, center, width, radius):
        scalar, array = legs_and_array(Point(10.0, -3.0), targets, center, width, radius)
        assert scalar == array
        if not targets:
            assert not scalar

    @settings(max_examples=500, deadline=None)
    @given(
        legs=st.lists(
            st.tuples(st.floats(), st.floats(), st.floats(allow_nan=False)), max_size=3
        ),
        center=points,
    )
    def test_raw_legs(self, legs, center):
        # Any (c, s, length) triples, not only reachable legs: NaN and infinite
        # directions, infinite lengths. Not a NaN length: numpy's clamp passes
        # a NaN bound on and a comparison drops it, and no leg has one, since
        # a NaN length comes with a NaN direction.
        dx, dy = center[0] - 10.0, center[1] + 3.0
        with np.errstate(all="ignore"):  # huge triples overflow in numpy's products
            array = any_leg_hits((10.0, -3.0), legs, 4.0, center, 1.0)
        assert tunnel_hits_disc(dx, dy, legs, 2.0, 1.0) == array

    def test_tangent_pairs_among_other_legs(self):
        scene = single_object_scene()
        home, width = scene.robot_home, scene.tunnel_width
        nowhere = [Point(np.nan, 5.0), Point(np.inf, 5.0)]  # legs that touch no disc
        for target, disc in LATTICE_TANGENCIES + FAR_CORNER_TANGENCIES:
            touches = (target, disc) in LATTICE_TANGENCIES
            for targets in ([target], [target, *nowhere], [*nowhere, target], nowhere):
                expected = touches and target in targets
                got = legs_and_array(home, targets, disc, width, 1.0)
                assert got == (expected, expected), (target, disc, targets)
            # Beside a finite leg the answer is the two legs' union, on both paths.
            scalar, array = legs_and_array(home, [Point(19.0, 19.0), target], disc, width, 1.0)
            assert scalar == array


class TestOverflowingLegs:
    """With the home at (-1.5e308, -1.5e308) a leg's length overflows to inf, as ``np.hypot``'s."""

    HOME = Point(-1.5e308, -1.5e308)

    def scene(self):
        return make_scene(
            [Point(4, 5), Point(10, 10), Point(16, 15)],
            [Point(4, 5), Point(12, 12), Point(16, 15)],
            robot_home=self.HOME,
        )

    def test_action_valid_matches_the_legs(self):
        scene = self.scene()
        for obj, src in enumerate(scene.start):
            for dst in scene.candidates[::5]:
                if dst == src:
                    continue
                act = Action(obj, src, dst)
                with np.errstate(over="ignore"):
                    expected = action_valid_by_legs(scene, scene.start, act)
                assert action_valid(scene, scene.start, act) == expected, act
        solo = make_scene([Point(10, 10)], [Point(12, 12)], robot_home=self.HOME)
        act = Action(0, Point(10, 10), Point(12, 12))
        with np.errstate(over="ignore"):
            expected = action_valid_by_legs(solo, solo.start, act)
        assert action_valid(solo, solo.start, act) == expected

    def test_tunnels_take_an_infinite_length_without_a_warning(self):
        scene = self.scene()
        targets = scene.candidates[::7]
        obstacle = Disc(scene.start[1], scene.object_radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leg = home_tunnel(scene, Point(10, 10))
            clear = placement_sweep_mask(
                scene, np.asarray(targets, dtype=float), np.asarray([obstacle.center])
            )
            scalar = [not tunnel_intersects_disc(home_tunnel(scene, t), obstacle) for t in targets]
        with np.errstate(over="ignore"):
            assert leg.length == float(np.hypot(10 - self.HOME.x, 10 - self.HOME.y)) + 1.0
        assert leg.length == math.inf and leg.direction == Point(0.0, 0.0)
        # A leg of direction (0, 0) and infinite length touches every disc, on either path.
        assert clear.tolist() == scalar == [False] * len(targets)

    def test_plan_answers_without_a_warning(self):
        # The pick-up legs of all three objects are infinite and touch every
        # other disc, so each object waits on the others: a cycle.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = plan(self.scene(), SearchBudget(wall_clock_limit=None), seed=0)
        assert isinstance(report, PlanReport)
        assert not report.success and report.failure_kind == "topology-cycle"

    def test_validate_command_answers(self, tmp_path, capsys):
        # Both legs are infinitely long and touch every other disc, so the step collides.
        scene = self.scene()
        scene_path, plan_path = tmp_path / "scene.json", tmp_path / "plan.json"
        scene_path.write_text(scene_to_json(scene))
        plan_path.write_text(plan_to_json(Plan((Action(1, Point(10, 10), Point(12, 12)),))))
        assert main(["validate", str(scene_path), str(plan_path)]) == 1
        assert capsys.readouterr().out == "invalid at step 0: relocation is not collision-free\n"


class TestSideTangency:
    """A disc touching a straight-ahead tunnel's side collides; one ulp farther out it does not.

    Object 0 goes from (10, 5) to (10, 12), straight ahead of the home at
    (10, -3), and object 1 stands at (13, 8) or (7, 8): exactly ``h + r =
    3`` beside both legs, within the placing leg's span. The kernel's
    lateral cull must not fire at that equality.
    """

    MOVE = Action(0, Point(10.0, 5.0), Point(10.0, 12.0))

    @staticmethod
    def scene(x):
        return make_scene([Point(10.0, 5.0), Point(x, 8.0)], [Point(10.0, 12.0), Point(x, 8.0)])

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_tangent_disc_collides_and_one_ulp_out_does_not(self, side):
        tangent = 10.0 + 3.0 * side
        inward, outward = math.nextafter(tangent, 10.0), math.nextafter(tangent, side * np.inf)
        for x in (inward, tangent, outward):
            scene = self.scene(x)
            touches = abs(x - 10.0) <= 3.0
            assert action_valid(scene, scene.start, self.MOVE) == (not touches), x
            assert action_valid_by_legs(scene, scene.start, self.MOVE) == (not touches), x
            hits = collision_objs(scene, scene.start, [1], self.MOVE.src, self.MOVE.dst)
            assert hits == ({1} if touches else set()), x

    def test_validate_command_rejects_the_tangent_step(self, tmp_path, capsys):
        scene_path, plan_path = tmp_path / "scene.json", tmp_path / "plan.json"
        scene_path.write_text(scene_to_json(self.scene(13.0)))
        plan_path.write_text(plan_to_json(Plan((self.MOVE,))))
        assert main(["validate", str(scene_path), str(plan_path)]) == 1
        assert capsys.readouterr().out == "invalid at step 0: relocation is not collision-free\n"

    def test_non_finite_centres_answer_as_the_masks(self):
        # NaN and infinite centres touch nothing, beside a tangent and a clear disc.
        scene = single_object_scene()
        arrangement = [Point(np.nan, 5.0), Point(np.inf, 8.0), Point(-np.inf, -np.inf)]
        arrangement += [Point(13.0, np.nan), Point(13.0, 8.0), Point(7.0, 8.0), Point(17.0, 8.0)]
        centres = np.asarray(arrangement, dtype=float)
        ids = range(len(arrangement))
        nowhere = [Point(np.inf, 5.0), Point(np.nan, 5.0)]
        for targets in ([Point(10.0, 12.0)], [Point(10.0, 5.0), Point(10.0, 12.0)], nowhere):
            expected = set()
            for target in targets:
                with np.errstate(all="ignore"):
                    mask = tunnel_disc_mask(home_tunnel(scene, target), centres, 1.0)
                expected |= set(np.flatnonzero(mask).tolist())
            assert collision_objs(scene, arrangement, ids, *targets) == expected, targets
        assert collision_objs(scene, arrangement, ids, Point(10.0, 12.0)) == {4, 5}


class TestPlacementSweepMask:
    def test_no_obstacles_clears_every_target_but_the_home(self):
        scene = single_object_scene()  # home at (10, -3)
        targets = np.array([[4.0, 5.0], [10.0, 15.0], [10.0, -3.0]])
        mask = placement_sweep_mask(scene, targets, np.empty((0, 2)))
        assert mask.tolist() == [True, True, False]
        # The home stays blocked with obstacles too, and the other targets answer alike.
        far_away = np.array([[19.0, 19.0]])
        assert placement_sweep_mask(scene, targets, far_away).tolist() == mask.tolist()
