"""The occlusion table must answer exactly as the kernels it caches.

Entries are bit sets (bit ``k`` for point ``k``). Each kind is compared with
the function the search called before the table existed, over every point
pair of a scene: ``row`` with ``tunnel_disc_mask`` (and the scalar
``tunnel_intersects_disc``), ``clear`` with ``placement_sweep_mask``, ``far``
with ``discs_overlap``, ``free`` with ``far & clear``, ``ranked`` with a
stable sort of the squared distances, ``closest`` with the array pick that
buffer choice made before (``oracles.closest_by_argsort``), and ``reach``
with ``distance``. All
tunnel paths share one kernel, so ``row`` and ``clear`` agree with each other
too, exact tangencies included.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shelfplan import (
    Action,
    InvalidPlanError,
    Plan,
    Point,
    SceneConfig,
    SearchBudget,
    action_valid,
    generate_scene,
    make_scene,
    optimize_plan,
    plan,
    plan_to_json,
)
from shelfplan.geometry import (
    Disc,
    Workspace,
    disc_in_workspace,
    discs_overlap,
    distance,
    tunnel_disc_mask,
    tunnel_intersects_disc,
)
from shelfplan.motion import home_tunnel, placement_sweep_mask
from shelfplan import mcts, occlusion, planner
from shelfplan.occlusion import OcclusionTable, occupancy, other_points, to_bits
from shelfplan.planner import retarget_buffers

from oracles import closest_by_argsort

SCENES = {
    "default-grid": lambda: make_scene([Point(4, 4), Point(16, 16)], [Point(16, 4), Point(4, 16)]),
    "half-grid": lambda: make_scene(
        [Point(4, 4), Point(16, 16)], [Point(16, 4), Point(4, 16)], grid_resolution=0.5
    ),
    # A tunnel narrower than a disc: only the overlap test rejects a destination beside an object.
    "narrow-tunnel": lambda: make_scene(
        [Point(4, 4), Point(16, 16)], [Point(16, 4), Point(4, 16)], tunnel_width=1.5
    ),
    "off-grid": lambda: make_scene(
        [Point(4.3, 4.7), Point(15.9, 16.25), Point(10, 9.5)],
        [Point(16.1, 3.8), Point(3.6, 16.4), Point(10.05, 14)],
    ),
}


def unpack(bits, n):
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def full_rows(table):
    return np.array([unpack(table.row(t), len(table.points)) for t in range(len(table.points))])


def full_clear(table):
    return np.array([unpack(table.clear(j), table.n_candidates) for j in range(len(table.points))])


# A plan's own points for a private table: off-grid ones on the floor, one of
# them twice, a start or goal point, int candidates, and points whose disc
# leaves the floor or that are not finite, which the table leaves out.
PLAN_POINTS = (
    Point(4.5, 9.25),
    Point(10, 10),
    Point(12.75, 3.125),
    Point(0.5, 3.0),
    Point(math.nan, math.nan),
    Point(math.inf, 5.0),
    Point(5.0, -math.inf),
    Point(4.5, 9.25),
    Point(16.1, 3.8),  # a goal point of the off-grid scene
    Point(7, 19),
    Point(19, 7.5),
)


@pytest.fixture(scope="module", params=[*sorted(SCENES), "off-grid-plan"])
def table(request):
    if request.param == "off-grid-plan":
        return OcclusionTable(SCENES["off-grid"](), PLAN_POINTS)
    return OcclusionTable(SCENES[request.param]())


class TestPoints:
    def test_candidates_first_then_off_grid_points(self, table):
        scene = table.scene
        assert table.points[: table.n_candidates] == scene.candidates
        for p in scene.start + scene.goal:
            assert table.points[table.index_of(p)] == p

    def test_off_grid_points_are_appended(self):
        table = OcclusionTable(SCENES["off-grid"]())
        assert len(table.points) == table.n_candidates + 6

    def test_plan_points_on_the_floor_are_appended_once_as_floats(self):
        scene = SCENES["off-grid"]()
        table = OcclusionTable(scene, PLAN_POINTS)
        cold = OcclusionTable(scene)
        assert table.points[: len(cold.points)] == cold.points
        added = [Point(4.5, 9.25), Point(12.75, 3.125), Point(19.0, 7.5)]
        assert list(table.points[len(cold.points) :]) == added
        assert all(type(c) is float for p in table.points for c in p)

    def test_int_plan_points_are_stored_as_floats(self):
        # The radius-1.5 grid has its points at half units, so (7, 9) is off it.
        scene = dataclasses.replace(SCENES["default-grid"](), object_radius=1.5)
        table = OcclusionTable(scene, [Point(7, 9)])
        assert table.index_of(Point(7, 9)) == len(table.points) - 1 == table.n_candidates + 4
        assert all(type(c) is float for p in table.points for c in p)

    def test_coords_are_the_points_as_an_array(self, table):
        expected = np.asarray(table.points, dtype=float)
        assert table.coords.dtype == expected.dtype and table.coords.shape == expected.shape
        assert table.coords.tobytes() == expected.tobytes()

    def test_index_round_trip(self, table):
        idx = table.indices(table.scene.start)
        assert all(type(i) is int for i in idx)
        assert tuple(table.points[i] for i in idx) == table.scene.start

    def test_bits_round_trip(self, table):
        rng = np.random.default_rng(5)
        mask = rng.random(table.n_candidates) < 0.3
        bits = to_bits(mask)
        set_bits = [k for k in range(bits.bit_length()) if bits >> k & 1]
        assert set_bits == np.flatnonzero(mask).tolist()
        assert to_bits(np.zeros(0, dtype=bool)) == 0

    def test_integer_points_read_as_floats(self):
        # make_scene stores float points, so the table's points, its keys, are floats too.
        scene = make_scene([Point(7, 6)], [Point(7.5, 14)])
        table = OcclusionTable(scene)
        assert scene.start == (Point(7.0, 6.0),)
        assert all(type(c) is float for p in table.points for c in p)

    def test_every_point_disc_lies_in_the_workspace(self, table):
        scene = table.scene
        for p in table.points:
            assert disc_in_workspace(Disc(p, scene.object_radius), scene.workspace), p

    def test_covers_exactly_its_points(self, table):
        scene = table.scene
        assert table.covers(scene.candidates + scene.start + scene.goal)
        assert table.covers([])
        assert not table.covers([scene.candidates[0], Point(4.5, 4.25)])

    @pytest.mark.parametrize("bad", [Point(4.5, 4.5), Point(float("nan"), 4.0), (1.0, 2.0, 3.0)])
    def test_unknown_point_is_value_error_naming_it(self, bad):
        table = OcclusionTable(SCENES["default-grid"]())
        with pytest.raises(ValueError, match="not a candidate, start or goal point") as err:
            table.index_of(bad)
        assert str(tuple(bad)) in str(err.value)

    def test_indices_name_the_point_that_is_not_a_candidate(self):
        table = OcclusionTable(SCENES["default-grid"]())
        with pytest.raises(ValueError, match=r"\(16\.5, 16\.0\) is not a candidate"):
            table.indices((Point(10, 5), Point(16.5, 16.0)))


def plan_points(scene):
    """Points a plan may name: the scene's own, ints, points on and off the floor, NaN and ±inf."""
    r, ws = scene.object_radius, scene.workspace
    return st.one_of(
        st.sampled_from(scene.candidates + scene.start + scene.goal),
        st.builds(Point, st.integers(-2, 22), st.integers(-2, 22)),
        st.builds(Point, st.floats(r, ws.width - r), st.floats(r, ws.depth - r)),
        st.builds(Point, st.floats(-2.0, 22.0), st.floats(-2.0, 22.0)),
        st.builds(Point, st.floats(), st.floats()),
    )


@functools.cache
def cold_table(name):
    return OcclusionTable(SCENES[name]())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_plan_points_join_a_table_only_on_the_floor(data):
    # A table built for a plan numbers the scene's points as a cold table does,
    # then each new plan point whose disc lies on the floor, once and as floats,
    # and its entries for the scene's points are the cold table's.
    name = data.draw(st.sampled_from(sorted(SCENES)), label="scene")
    scene, cold = SCENES[name](), cold_table(name)
    points = data.draw(st.lists(plan_points(scene), max_size=12), label="points")
    table = OcclusionTable(scene, points)
    r, ws = scene.object_radius, scene.workspace
    on_floor = [p for p in points if disc_in_workspace(Disc(p, r), ws)]
    new = dict.fromkeys(Point(float(p.x), float(p.y)) for p in on_floor if not cold.covers([p]))
    assert table.points == cold.points + tuple(new)
    assert all(type(c) is float and math.isfinite(c) for p in table.points for c in p)
    for p in points:
        assert table.covers([p]) == disc_in_workspace(Disc(p, r), ws), p
    low = (1 << len(cold.points)) - 1
    picks = st.lists(st.integers(0, len(cold.points) - 1), min_size=1, max_size=4)
    for j in data.draw(picks, label="scene points"):
        assert table.row(j) & low == cold.row(j)
        assert table.far(j) & low == cold.far(j)
        assert (table.clear(j), table.free(j)) == (cold.clear(j), cold.free(j))
        assert table.ranked(j) == cold.ranked(j)
        assert np.array_equal(table.reach(j), cold.reach(j))


class TestKernelEquivalence:
    def test_row_equals_tunnel_disc_mask(self, table):
        scene = table.scene
        for t, p in enumerate(table.points):
            expected = tunnel_disc_mask(home_tunnel(scene, p), table.coords, scene.object_radius)
            assert table.row(t) == to_bits(expected), p

    def test_clear_equals_placement_sweep_mask(self, table):
        scene = table.scene
        grid = table.coords[: table.n_candidates]
        for j in range(len(table.points)):
            expected = placement_sweep_mask(scene, grid, table.coords[j : j + 1])
            assert table.clear(j) == to_bits(expected), table.points[j]

    def test_far_equals_not_discs_overlap(self, table):
        b = table.scene.object_radius
        sample = range(0, len(table.points), 7)
        for j in sample:
            disc = Disc(table.points[j], b)
            expected = [not discs_overlap(disc, Disc(q, b)) for q in table.points]
            assert table.far(j) == to_bits(np.array(expected))

    @pytest.mark.parametrize("name", ["default-grid", "half-grid", "off-grid"])
    def test_free_is_far_and_clear(self, name):
        # Asked first, on every point, of a table whose far and clear entries are cold.
        scene = SCENES[name]()
        table, cold = OcclusionTable(scene), OcclusionTable(scene)
        for j in range(len(table.points)):
            assert table.free(j) == cold.far(j) & cold.clear(j), table.points[j]

    def test_ranked_is_stable_distance_order(self, table):
        grid = np.asarray(table.scene.candidates, dtype=float)
        n = table.n_candidates
        for j in range(0, len(table.points), 11):
            prefixes, rank = table.ranked(j)
            d2 = ((grid - table.coords[j]) ** 2).sum(axis=1)
            order = np.argsort(d2, kind="stable")
            assert np.array_equal(np.asarray(rank)[order], np.arange(n))
            assert rank.format == "H" and rank.readonly
            sizes = [prefix.bit_count() for prefix in prefixes]
            assert sizes == [math.ceil(2 ** (k / 2)) for k in range(6, 6 + len(sizes))]
            assert sizes[-1] < n <= math.ceil(math.sqrt(2) * sizes[-1])
            for prefix, m in zip(prefixes, sizes):
                assert prefix == to_bits(np.isin(np.arange(n), order[:m]))

    def test_squared_distances_are_summed_squares_bit_for_bit(self, table):
        # ``far`` and ``ranked`` read these: the row sum of squared differences.
        for j in range(len(table.points)):
            expected = ((table.coords - table.coords[j]) ** 2).sum(axis=1)
            assert np.array_equal(table._distances(j), expected), table.points[j]

    def test_reach_is_distance_bit_for_bit(self, table):
        # Re-targeting orders candidates by sums of these entries, so each must
        # be the float ``distance`` gives in either direction, not a near one.
        for j in range(0, len(table.points), 11):
            reach = table.reach(j)
            p = table.points[j]
            assert reach.tolist() == [distance(p, q) for q in table.scene.candidates]
            assert reach.tolist() == [distance(q, p) for q in table.scene.candidates]
            assert not reach.flags.writeable

    @pytest.mark.parametrize("name", ["default-grid", "off-grid"])
    def test_row_equals_scalar_test(self, name):
        table = OcclusionTable(SCENES[name]())
        scene = table.scene
        b = scene.object_radius
        discs = [Disc(q, b) for q in table.points]
        for t, p in enumerate(table.points):
            tunnel = home_tunnel(scene, p)
            expected = [tunnel_intersects_disc(tunnel, d) for d in discs]
            assert table.row(t) == to_bits(np.array(expected)), p


# (target, disc) points of the default grid where the home tunnel to the
# target touches the disc exactly: the rectangle lies at a distance of exactly
# one radius from the disc center. Straight-ahead tunnels and tilted ones.
LATTICE_TANGENCIES = [
    (Point(10.0, 18.0), Point(7.0, 1.0)),
    (Point(10.0, 4.0), Point(7.0, 5.0)),
    (Point(13.0, 1.0), Point(10.0, 2.0)),
    (Point(16.0, 5.0), Point(13.0, 6.0)),
    (Point(19.0, 9.0), Point(16.0, 10.0)),
    (Point(2.0, 12.0), Point(7.0, 9.0)),
    (Point(5.0, 9.0), Point(3.0, 6.0)),
    (Point(4.0, 5.0), Point(1.0, 4.0)),
    (Point(1.0, 9.0), Point(1.0, 4.0)),
]


class TestTangentPairs:
    """Every tunnel path gives the same answer on every point pair, exact tangencies included."""

    def test_every_path_agrees(self, table):
        scene, b, points = table.scene, table.scene.object_radius, table.points
        g = table.n_candidates
        tunnels = [home_tunnel(scene, p) for p in points]
        rows = full_rows(table)  # [target, disc] over every point
        clear = full_clear(table)  # [disc, candidate target]
        masks = np.array([tunnel_disc_mask(t, table.coords, b) for t in tunnels])
        scalar = np.array([[tunnel_intersects_disc(t, Disc(q, b)) for q in points] for t in tunnels])
        grid = table.coords[:g]
        sweeps = np.array(
            [placement_sweep_mask(scene, grid, table.coords[j : j + 1]) for j in range(len(points))]
        )
        assert np.array_equal(masks, rows)
        assert np.array_equal(scalar, rows)
        assert np.array_equal(sweeps, clear)
        assert np.array_equal(~clear.T, rows[:g])

    def test_known_tangent_case(self):
        # Each listed contact is a hit on every path; cos(pi/2) is about 6e-17,
        # so a rotation by the tunnel's angle used to miss the straight-ahead ones.
        table = OcclusionTable(SCENES["default-grid"]())
        scene, b = table.scene, table.scene.object_radius
        for target, disc in LATTICE_TANGENCIES:
            t, j = table.index_of(target), table.index_of(disc)
            tunnel = home_tunnel(scene, target)
            assert table.row(t) >> j & 1, (target, disc)
            assert not table.clear(j) >> t & 1
            assert tunnel_intersects_disc(tunnel, Disc(disc, b))
            assert tunnel_disc_mask(tunnel, np.array([disc]), b)[0]
            assert not placement_sweep_mask(scene, np.array([target]), np.array([disc]))[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_objects=st.integers(1, 6),
    grid=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=30
    ),
)
def test_random_entries_match_kernels(seed, n_objects, grid, picks):
    config = SceneConfig(
        n_objects=n_objects, rng_seed=seed, grid_resolution=grid, min_center_separation=2.0
    )
    scene = generate_scene(config)
    table = OcclusionTable(scene)
    b = scene.object_radius
    for a, c in picks:
        t, j = a % len(table.points), c % len(table.points)
        p, q = table.points[t], table.points[j]
        assert table.row(t) >> j & 1 == tunnel_intersects_disc(home_tunnel(scene, p), Disc(q, b))
        assert table.far(t) >> j & 1 == (not discs_overlap(Disc(p, b), Disc(q, b)))
        i = c % table.n_candidates
        target = table.coords[i : i + 1]
        sweep = placement_sweep_mask(scene, target, table.coords[j : j + 1])[0]
        assert table.clear(j) >> i & 1 == sweep
    # Reductions over an arrangement equal the batched kernels the search called.
    grid = table.coords[: table.n_candidates]
    occupied = table.indices(scene.start)
    centers = table.coords[occupied]
    swept = spaced = (1 << table.n_candidates) - 1
    for j in occupied:
        swept &= table.clear(j)
        spaced &= table.far(j)
    assert swept == to_bits(placement_sweep_mask(scene, grid, centers))
    gaps = grid[:, None, :] - centers[None, :, :]
    assert spaced == to_bits(((gaps**2).sum(axis=-1) >= (2.0 * b) ** 2).all(axis=1))
    # Lazy filling in any order gives the same table as filling in index order.
    fresh = OcclusionTable(scene)
    for t in sorted({a % len(table.points) for a, _ in picks}):
        assert fresh.row(t) == table.row(t)


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 10_000),
    grid=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    angles=st.lists(
        st.one_of(st.floats(0.0, np.pi), st.just(np.pi / 2)), min_size=1, max_size=8
    ),
)
def test_scalar_mask_and_sweep_agree(data, seed, grid, angles):
    config = SceneConfig(n_objects=4, rng_seed=seed, grid_resolution=grid)
    scene = generate_scene(config)
    b, home = scene.object_radius, scene.robot_home
    centers = np.asarray(scene.candidates, dtype=float)
    # Grid targets, and targets at random directions and distances from home;
    # straight ahead at a whole distance, a target is tangent to discs on the grid.
    reach = st.one_of(st.floats(0.5, 25.0), st.integers(1, 22).map(float))
    targets = data.draw(st.lists(st.sampled_from(scene.candidates), max_size=8), label="grid")
    for angle in angles:
        r = data.draw(reach, label="reach")
        targets.append(Point(home.x + r * np.cos(angle), home.y + r * np.sin(angle)))
    sweeps = np.array(
        [placement_sweep_mask(scene, np.asarray(targets, float), c[None]) for c in centers]
    )  # [disc, target]
    for k, target in enumerate(targets):
        tunnel = home_tunnel(scene, target)
        mask = tunnel_disc_mask(tunnel, centers, b)
        scalar = [tunnel_intersects_disc(tunnel, Disc(q, b)) for q in scene.candidates]
        assert mask.tolist() == scalar, target
        assert np.array_equal(mask, ~sweeps[:, k]), target


# Points of the default and half grids, 3 apart, so no two of their discs overlap.
SPREAD = [Point(float(x), float(y)) for y in range(1, 20, 3) for x in range(1, 20, 3)]


def move_check(scene, arrangement, act):
    """``move_valid`` in the table of a scene that holds the arrangement and the destination.

    The scene starts at ``arrangement`` and ends with ``act.dst`` among points
    of ``SPREAD`` that clear it. None when the destination disc leaves the
    floor: no scene, so no table, holds that point, and the optimiser's
    replay says a plan with such a step leaves the workspace.
    """
    b = scene.object_radius
    filler = [p for p in SPREAD if not discs_overlap(Disc(p, b), Disc(act.dst, b))]
    goal = (act.dst, *filler[: len(arrangement) - 1])
    try:
        carrier = dataclasses.replace(scene, start=tuple(arrangement), goal=goal)
    except ValueError:
        return None
    assert act.src == arrangement[act.obj]
    table = OcclusionTable(carrier)
    positions = table.indices(arrangement)
    others = occupancy(other_points(positions, act.obj))
    return table.move_valid(others, positions[act.obj], table.index_of(act.dst))


def parked_clear_of(scene, disc):
    """A corner point whose home tunnel misses the disc at ``disc``."""
    for parked in (Point(1.0, 1.0), Point(19.0, 1.0)):
        if not tunnel_intersects_disc(home_tunnel(scene, parked), Disc(disc, scene.object_radius)):
            return parked
    raise AssertionError(f"no clear corner for {disc}")


class TestMoveValid:
    """``move_valid`` answers exactly as the float ``action_valid``."""

    def test_tangent_pairs_on_both_legs(self):
        # A leg that only touches another object's disc makes the move invalid.
        scene = SCENES["default-grid"]()
        for target, disc in LATTICE_TANGENCIES:
            parked = parked_clear_of(scene, disc)
            place = Action(0, parked, target)  # placing leg to the tangent target
            pick = Action(0, target, parked)  # picking leg from it
            for act, arrangement in ((place, (parked, disc)), (pick, (target, disc))):
                assert not action_valid(scene, arrangement, act), (act, disc)
                assert not move_check(scene, arrangement, act), (act, disc)

    def test_known_tangent_case_is_rejected(self):
        # The tunnel to (10, 18) touches the disc at (7, 1) on its side.
        scene = SCENES["default-grid"]()
        arrangement = (Point(16.0, 4.0), Point(7.0, 1.0))
        act = Action(0, Point(16.0, 4.0), Point(10.0, 18.0))
        assert not action_valid(scene, arrangement, act)
        assert not move_check(scene, arrangement, act)

    def test_overlap_beside_a_narrow_tunnel_is_rejected(self):
        # The disc at (11.8, 10) overlaps the destination (10, 10), yet clears the
        # placing tunnel, 0.75 to either side of x = 10, by 0.05.
        scene = SCENES["narrow-tunnel"]()
        arrangement = (Point(4.0, 4.0), Point(11.8, 10.0))
        act = Action(0, Point(4.0, 4.0), Point(10.0, 10.0))
        assert not tunnel_intersects_disc(home_tunnel(scene, act.dst), Disc(arrangement[1], 1.0))
        assert not action_valid(scene, arrangement, act)
        assert move_check(scene, arrangement, act) is False

    @pytest.mark.parametrize(
        "dst", [(0.5, 10.0), (10.0, 19.5), (np.nan, np.nan), (np.inf, 5.0), (5.0, -np.inf)]
    )
    def test_destination_off_the_floor_leaves_the_workspace(self, dst):
        # No scene holds the point, so no table does, not even one built for the
        # plan, and the optimiser reports the validator's reason for the step.
        scene = SCENES["default-grid"]()
        arrangement = (Point(4.0, 4.0), Point(16.0, 16.0))
        act = Action(0, Point(4.0, 4.0), Point(*dst))
        assert not action_valid(scene, arrangement, act)
        assert move_check(scene, arrangement, act) is None
        assert not OcclusionTable(scene, [act.dst]).covers([act.dst])
        with pytest.raises(InvalidPlanError, match="step 0: destination leaves the workspace"):
            optimize_plan(Plan((act,)), scene)


def fits(scene, arrangement):
    """The arrangement is collision-free on the scene's floor."""
    try:
        dataclasses.replace(scene, start=arrangement, goal=arrangement)
    except ValueError:
        return False
    return True


def grid_or_off_grid_points(scene):
    inside = st.floats(scene.object_radius, 20.0 - scene.object_radius)
    return st.one_of(
        st.sampled_from(scene.candidates),
        st.builds(Point, inside, inside),
        st.builds(Point, st.floats(-2.0, 22.0), st.floats(-2.0, 22.0)),  # may leave the floor
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_move_valid_equals_action_valid(data):
    # The table answers for moves between its points; a destination that no
    # scene holds leaves the floor, which action_valid rejects too.
    scene = SCENES[data.draw(st.sampled_from(sorted(SCENES)))]()
    n = data.draw(st.integers(1, 6), label="n_objects")
    points = grid_or_off_grid_points(scene)
    on_floor = points.filter(lambda p: 1 <= p.x <= 19 and 1 <= p.y <= 19)
    arrangement = tuple(data.draw(st.lists(on_floor, min_size=n, max_size=n), label="arrangement"))
    assume(fits(scene, arrangement))
    obj = data.draw(st.integers(0, n - 1), label="obj")
    src = arrangement[obj]
    offset = st.one_of(st.floats(-2.5, 2.5), st.sampled_from([-2.0, 0.0, 2.0]))
    dst = data.draw(
        st.one_of(
            points,
            st.sampled_from(arrangement),  # onto an object: overlap
            st.builds(
                lambda p, dx, dy: Point(p.x + dx, p.y + dy),
                st.sampled_from(arrangement),
                offset,
                offset,
            ),  # near an object: overlap, or tangency at a distance of exactly 2
            st.sampled_from(
                [Point(np.nan, np.nan), Point(np.nan, 5.0), Point(np.inf, 5.0), Point(5.0, -np.inf)]
            ),
        ),
        label="dst",
    )
    assume(dst != src)
    act = Action(obj, src, dst)
    table_says = move_check(scene, arrangement, act)
    if table_says is None:
        assert not action_valid(scene, arrangement, act)
    else:
        assert table_says == action_valid(scene, arrangement, act)


def touching(scene, p):
    """Candidates other than ``p`` whose discs overlap or touch the disc at ``p``."""
    gap = 2.0 * scene.object_radius
    return [q for q in scene.candidates if q != p and distance(p, q) <= gap]


# Besides ``SCENES``: on a half grid with a 0.5-wide tunnel, discs 1.5 apart
# overlap although neither tunnel touches the other, so ``far`` alone rejects them.
GRID_SCENES = {
    **SCENES,
    "thin-tunnel-half-grid": lambda: make_scene(
        [Point(4, 4), Point(16, 16)],
        [Point(16, 4), Point(4, 16)],
        tunnel_width=0.5,
        grid_resolution=0.5,
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_move_valid_on_the_search_bit_set_equals_action_valid(data):
    # Moves between candidates, each asked as the search asks it: the bit set of
    # the whole arrangement, less the mover's own bit.
    scene = GRID_SCENES[data.draw(st.sampled_from(sorted(GRID_SCENES)))]()
    table = OcclusionTable(dataclasses.replace(scene, start=(), goal=()))
    n = data.draw(st.integers(1, 6), label="n_objects")
    cells = st.lists(st.sampled_from(scene.candidates), min_size=n, max_size=n, unique=True)
    arrangement = tuple(data.draw(cells, label="arrangement"))
    assume(fits(scene, arrangement))
    obj = data.draw(st.integers(0, n - 1), label="obj")
    src = arrangement[obj]
    dst = data.draw(
        st.one_of(
            st.sampled_from(scene.candidates),
            st.sampled_from(arrangement),  # onto another object's point
            st.sampled_from(touching(scene, src)),  # next to the mover's own point
            st.sampled_from([q for p in arrangement for q in touching(scene, p)]),
        ),
        label="dst",
    )
    assume(dst != src)
    positions = table.indices(arrangement)
    others = occupancy(positions) & ~(1 << positions[obj])
    assert others == occupancy(other_points(positions, obj))
    got = table.move_valid(others, positions[obj], table.index_of(dst))
    assert got == action_valid(scene, arrangement, Action(obj, src, dst))


def entries(table):
    """Every entry of a table, filled for every point."""
    size = range(len(table.points))
    return {
        "row": [table.row(t) for t in size],
        "clear": [table.clear(j) for j in size],
        "far": [table.far(j) for j in size],
        "free": [table.free(j) for j in size],
        "ranked": [table.ranked(j) for j in size],
    }


class TestSharedStore:
    """``OcclusionTable.shared`` answers as a cold table, whatever the store held before."""

    @pytest.mark.parametrize(
        "change",
        [
            {"workspace": Workspace(20.0, 19.5)},  # one row of candidates fewer
            {"object_radius": 1.2},
            {"robot_home": Point(9.0, -3.0)},
            {"tunnel_width": 3.0},
            {"grid_resolution": 1.5},
        ],
        ids=["workspace", "object_radius", "robot_home", "tunnel_width", "grid"],
    )
    def test_scene_differing_in_one_key_field_gets_its_own_entries(self, change):
        base = SCENES["default-grid"]()
        warm = entries(OcclusionTable.shared(base))
        scene = dataclasses.replace(base, **change)
        table = OcclusionTable.shared(scene)
        assert table.serves(scene) and not table.serves(base)
        cold = entries(OcclusionTable(scene))
        assert warm != cold  # the field matters, so sharing across it would show
        assert entries(table) == cold

    def test_scenes_on_one_shelf_share_points_and_entries(self):
        first = OcclusionTable.shared(SCENES["default-grid"]())
        scene = make_scene([Point(7, 6), Point(13, 6)], [Point(7, 14), Point(13, 14)])
        second = OcclusionTable.shared(scene)
        assert second is first
        assert entries(second) == entries(OcclusionTable(scene))

    @pytest.mark.parametrize(
        "start, goal",
        [
            (None, None),  # the off-grid scene
            ([(4.5, 4.5), (16, 16)], [(16, 4), (4, 16)]),
            ([(4, 4), (16, 16)], [(16, 4), (10.5, 3.5)]),
        ],
        ids=["off-grid", "start", "goal"],
    )
    def test_off_grid_points_get_a_table_that_then_serves_the_shelf(self, start, goal):
        grid_scene = SCENES["default-grid"]()
        shelf = OcclusionTable.shared(grid_scene)
        scene = SCENES["off-grid"]() if start is None else make_scene(start, goal)
        table = OcclusionTable.shared(scene)
        assert table is not shelf
        assert table.covers(scene.start + scene.goal)
        assert entries(table) == entries(OcclusionTable(scene))
        assert OcclusionTable.shared(grid_scene) is table
        assert OcclusionTable.shared(scene) is table

    def test_optimizing_an_off_grid_plan_keeps_the_shelf_table(self):
        scene = SCENES["default-grid"]()
        shelf = OcclusionTable.shared(scene)
        points = shelf.points
        off_grid_move = Action(0, Point(4, 4), Point(4.5, 9.25))
        assert optimize_plan(Plan((off_grid_move,)), scene).actions == (off_grid_move,)
        walk = Plan((off_grid_move, Action(0, Point(4.5, 9.25), Point(16, 4))))
        retarget_buffers(walk, make_scene(scene.start, [Point(16, 4), Point(16, 16)]))
        assert OcclusionTable.shared(scene) is shelf
        assert shelf.points == points and not shelf.covers([Point(4.5, 9.25)])

    def test_a_plan_off_the_scene_takes_one_path_whatever_the_store_held(self, monkeypatch):
        # A grid scene's plan through (10.25, 10) gets a private table that adds
        # the point. An off-grid scene then leaves the point in the store, whose
        # table the plan gets next: optimised and re-targeted, it is the same.
        grid = make_scene([Point(4, 5)], [Point(4, 8)])
        via = Point(10.25, 10)
        walk = Plan((Action(0, Point(4, 5), via), Action(0, via, Point(4, 8))))
        monkeypatch.setattr(occlusion, "_store", None)
        assert not OcclusionTable.shared(grid).covers([via])
        fresh = [plan_to_json(f(walk, grid)) for f in (optimize_plan, retarget_buffers)]
        assert '"from": [4.0, 5.0]' in fresh[0]
        OcclusionTable.shared(make_scene([via], [Point(16, 16)]))
        assert OcclusionTable.shared(grid).covers([via])
        assert [plan_to_json(f(walk, grid)) for f in (optimize_plan, retarget_buffers)] == fresh

    def test_off_grid_plan_builds_one_table_that_a_grid_plan_reuses(self, monkeypatch):
        # Hard scene 81 with its starts moved off the grid: the search and the
        # optimiser share one table, and the grid scene 81 planned next gets it too.
        grid_scene = generate_scene(SceneConfig(n_objects=8, rng_seed=81))
        start = tuple(Point(p.x + 0.25, p.y + 0.125) for p in grid_scene.start)
        scene = dataclasses.replace(grid_scene, start=start)
        budget = SearchBudget(wall_clock_limit=None)
        monkeypatch.setattr(occlusion, "_store", None)
        built = []
        init = OcclusionTable.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(OcclusionTable, "__init__", counted)
        shared = [plan_to_json(plan(s, budget, seed=81).plan) for s in (scene, grid_scene)]
        assert len(built) == 1
        assert OcclusionTable.shared(grid_scene) is built[0]
        monkeypatch.setattr(OcclusionTable, "shared", classmethod(lambda cls, *args: cls(*args)))
        assert shared == [plan_to_json(plan(s, budget, seed=81).plan) for s in (scene, grid_scene)]


HARD_SEEDS = range(80, 88)


def recording(real, calls):
    """``real``, appending each call's result to ``calls``."""

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    return spy


def test_no_candidate_selection_on_an_empty_bit_set(monkeypatch):
    # Buffer choice returns before it reads a ``ranked`` entry once no
    # candidate is left. ``new_region`` returns [] exactly then, which these
    # scenes make it do.
    picked, found = [], []
    closest = OcclusionTable.closest

    def closest_spy(self, j, ok, count):
        picked.append(ok)
        return closest(self, j, ok, count)

    monkeypatch.setattr(OcclusionTable, "closest", closest_spy)
    monkeypatch.setattr(mcts, "new_region", recording(mcts.new_region, found))
    hard_plans(HARD_SEEDS)
    assert picked and all(picked) and [] in found
    assert len(picked) == len(found) - found.count([])


def test_retargeting_builds_each_detour_bit_set_once_a_pass(monkeypatch):
    # Re-targeting turns one bool array into a bit set per (src, buffer
    # point, dst) of a ``_retarget`` pass, however often its scans test the
    # pair, and builds no bool array from a bit set.
    passes, testing = [], []
    retarget, retarget_step, bits = planner._retarget, planner._retarget_step, planner.to_bits

    def retarget_spy(*args):
        passes.append([])
        return retarget(*args)

    def step_spy(table, steps, trail, k, n, detours):
        testing.append((steps[k].src, steps[k].dst, steps[n].dst))
        try:
            return retarget_step(table, steps, trail, k, n, detours)
        finally:
            testing.pop()

    def bits_spy(mask):
        assert mask.dtype == bool and len(testing) == 1
        passes[-1].append(testing[0])
        return bits(mask)

    def unpack_spy(*args, **kwargs):
        raise AssertionError("a bit set was unpacked into an array")

    monkeypatch.setattr(planner, "_retarget", retarget_spy)
    monkeypatch.setattr(planner, "_retarget_step", step_spy)
    monkeypatch.setattr(planner, "to_bits", bits_spy)
    monkeypatch.setattr(np, "unpackbits", unpack_spy)
    hard_plans(HARD_SEEDS)
    assert len(passes) == len(HARD_SEEDS) and any(passes)
    assert all(len(built) == len(set(built)) for built in passes)
    assert not hasattr(OcclusionTable, "candidate_mask")


def hard_plans(seeds):
    budget = SearchBudget(wall_clock_limit=None)
    plans = {}
    for seed in seeds:
        scene = generate_scene(SceneConfig(n_objects=7 + (seed - 80) % 2, rng_seed=seed))
        plans[seed] = plan_to_json(plan(scene, budget, seed=seed).plan)
    return plans


def test_hard_plans_do_not_depend_on_what_the_store_held(monkeypatch):
    # An off-grid scene of the hard band's shelf is planned first, so the
    # forward plans come from a table with its off-grid points besides the candidates.
    monkeypatch.setattr(occlusion, "_store", None)
    grid_scene = generate_scene(SceneConfig(n_objects=7, rng_seed=80))
    off_grid = dataclasses.replace(grid_scene, goal=(Point(6.25, 12.5), *grid_scene.goal[1:]))
    assert plan(off_grid, SearchBudget(wall_clock_limit=None), seed=80).success
    table = OcclusionTable.shared(off_grid)
    assert len(table.points) == table.n_candidates + 1
    forward = hard_plans(HARD_SEEDS)
    assert OcclusionTable.shared(grid_scene) is table
    backward = hard_plans(reversed(HARD_SEEDS))
    monkeypatch.setattr(OcclusionTable, "shared", classmethod(lambda cls, *args: cls(*args)))
    cold = hard_plans(HARD_SEEDS)
    assert forward == backward == cold


# Tables for the nearest-first pick: the 1.0 and 0.5 grids, and off-grid
# points 1e-7 from a candidate or with exact ties: (10.5, 10.5) lies as far
# from four candidates, (7.5, 14) from two, and a candidate from its four
# neighbours.
CLOSEST_SCENES = {
    "default-grid": SCENES["default-grid"],
    "half-grid": SCENES["half-grid"],
    "near-grid": lambda: make_scene(
        [Point(16.0000001, 16), Point(4, 3.9999999), Point(10.5, 10.5)],
        [Point(3.9999999, 12), Point(16, 8.0000001), Point(7.5, 14)],
    ),
}


@functools.cache
def closest_table(name):
    return OcclusionTable(CLOSEST_SCENES[name]())


def bits_of(indices):
    return occupancy(set(int(i) for i in indices))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_closest_equals_the_argsort_pick(data):
    table = closest_table(data.draw(st.sampled_from(sorted(CLOSEST_SCENES)), label="table"))
    n, size = table.n_candidates, len(table.points)
    j = data.draw(st.one_of(st.integers(size - 6, size - 1), st.integers(0, size - 1)), label="j")
    d2 = ((table.coords[:n] - table.coords[j]) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    index, rank = st.integers(0, n - 1), st.integers(0, n)
    # A band of the distance order: ``ok``'s nearest candidates lie at any depth.
    band = st.builds(lambda a, b: bits_of(order[min(a, b) : max(a, b)]), rank, rank)
    ok = data.draw(
        st.one_of(
            st.just(0),
            st.just((1 << n) - 1),
            st.lists(index, max_size=4).map(bits_of),
            st.lists(index, min_size=5, max_size=60).map(bits_of),
            st.integers(0, (1 << n) - 1),
            band,
            st.builds(lambda a, b: a | b, band, st.lists(index, max_size=8).map(bits_of)),
        ),
        label="ok",
    )
    count = data.draw(st.one_of(st.just(mcts.EXPANSION_WIDTH), st.integers(0, 40)), label="count")
    got = table.closest(j, ok, count)
    assert got == closest_by_argsort(table, j, ok, count)
    assert all(type(i) is int for i in got)
