import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shelfplan.geometry import (
    Disc,
    Point,
    Tunnel,
    Workspace,
    disc_in_workspace,
    discs_overlap,
    distance,
    leg_length,
    tunnel_disc_mask,
    tunnel_hits,
    tunnel_hits_disc,
    tunnel_intersects_disc,
    tunnel_to,
)

from oracles import rect_disc_clearance, sampled_tunnel_disc_hit, tunnel_hits_disc_by_min_max

ORIGIN = Point(0, 0)


def along(angle):
    """Unit direction at ``angle`` radians from +x."""
    return Point(math.cos(angle), math.sin(angle))


def heading(t):
    """Signed angle of a tunnel's direction from +x, in (-pi, pi]."""
    return math.atan2(t.direction.y, t.direction.x)


class TestTunnelTo:
    def test_axis_aligned(self):
        t = tunnel_to(Point(0, 5), ORIGIN, 1.0, 4.0)
        assert t.length == pytest.approx(6.0, abs=1e-9)
        assert heading(t) == pytest.approx(math.pi / 2, abs=1e-9)
        assert t.direction == Point(0.0, 1.0)
        assert t.width == 4.0
        assert t.anchor == ORIGIN

    def test_tilted_closed_form(self):
        # distance 5, so length 5 + 1; angle from the arccos closed form
        t = tunnel_to(Point(3, 4), ORIGIN, 1.0, 4.0)
        assert t.length == pytest.approx(6.0, abs=1e-9)
        assert heading(t) == pytest.approx(math.acos(3 / 5), abs=1e-9)
        assert heading(t) == pytest.approx(0.9272952180016122, abs=1e-9)
        assert t.direction == Point(0.6, 0.8)

    def test_angle_is_signed(self):
        below = tunnel_to(Point(3, -4), ORIGIN, 1.0, 4.0)
        assert heading(below) == pytest.approx(-math.acos(3 / 5), abs=1e-9)
        left = tunnel_to(Point(-3, 4), ORIGIN, 1.0, 4.0)
        assert heading(left) == pytest.approx(math.pi - math.acos(3 / 5), abs=1e-9)

    def test_degenerate_target(self):
        with pytest.raises(ValueError):
            tunnel_to(Point(2, 2), Point(2, 2), 1.0, 4.0)

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0.1, 3),
    )
    def test_length_is_distance_plus_radius(self, ax, ay, tx, ty, b):
        anchor, target = Point(ax, ay), Point(tx, ty)
        if distance(anchor, target) == 0:
            return
        t = tunnel_to(target, anchor, b, 4.0)
        assert t.length >= b
        assert abs(t.length - (distance(anchor, target) + b)) < 1e-9


class TestTunnelDisc:
    TUNNEL = Tunnel(ORIGIN, 6.0, 4.0, along(math.pi / 2))

    def test_disc_on_spine(self):
        assert tunnel_intersects_disc(self.TUNNEL, Disc(Point(0, 3), 1.0))

    def test_disc_far_lateral(self):
        assert not tunnel_intersects_disc(self.TUNNEL, Disc(Point(10, 3), 1.0))

    def test_boundary_contact_counts(self):
        # Disc tangent to the side of the tunnel: lateral gap exactly 2 + 1.
        assert tunnel_intersects_disc(self.TUNNEL, Disc(Point(3.0, 3), 1.0))
        assert not tunnel_intersects_disc(self.TUNNEL, Disc(Point(3.0 + 1e-9, 3), 1.0))

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(5)
        centers = rng.uniform(-8, 8, size=(200, 2))
        t = Tunnel(Point(1, -2), 7.0, 3.0, along(0.7))
        mask = tunnel_disc_mask(t, centers, 1.2)
        for (x, y), hit in zip(centers, mask):
            assert hit == tunnel_intersects_disc(t, Disc(Point(x, y), 1.2))

    def test_agrees_with_sampling_oracle(self):
        rng = np.random.default_rng(42)
        pitch = 0.04
        checked = 0
        while checked < 2000:
            anchor = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            length, width = rng.uniform(1, 12), rng.uniform(1, 6)
            t = Tunnel(anchor, length, width, along(rng.uniform(-math.pi, math.pi)))
            d = Disc(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0.3, 2.0))
            if abs(rect_disc_clearance(t, d)) <= 2 * pitch:
                continue  # grazing pair, oracle unreliable
            assert tunnel_intersects_disc(t, d) == sampled_tunnel_disc_hit(t, d, pitch)
            checked += 1

    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.5, 8),
        st.floats(1, 5),
        st.floats(-math.pi, math.pi),
        st.floats(-6, 6),
        st.floats(-6, 6),
        st.floats(0.2, 2),
        st.floats(-math.pi, math.pi),
        st.floats(-4, 4),
        st.floats(-4, 4),
    )
    @settings(max_examples=150)
    def test_rigid_transform_invariance(self, ax, ay, ln, w, ang, cx, cy, r, rot, sx, sy):
        t = Tunnel(Point(ax, ay), ln, w, along(ang))
        d = Disc(Point(cx, cy), r)
        # exact tangency is not preserved by finite-precision isometries
        assume(abs(rect_disc_clearance(t, d)) > 1e-6)
        base = tunnel_intersects_disc(t, d)
        c, s = math.cos(rot), math.sin(rot)

        def moved(p):
            return Point(c * p.x - s * p.y + sx, s * p.x + c * p.y + sy)

        t2 = Tunnel(moved(t.anchor), ln, w, along(ang + rot))
        d2 = Disc(moved(d.center), r)
        assert tunnel_intersects_disc(t2, d2) == base


INF, NAN = math.inf, math.nan
LENGTH, HALF = 3.0, 2.0


class TestClampsByComparison:
    """``tunnel_hits_disc`` clamps with comparisons and answers as its ``min``/``max`` form."""

    def test_special_values(self):
        # Axis-aligned directions give u == dx and v == dy exactly, so the grid
        # puts the center at the anchor (0, 0), at u == length and at
        # v == +-half_width, alongside signed zeros, infinities and NaN in
        # every argument.
        specials = [0.0, -0.0, INF, -INF, NAN]
        offsets = specials + [-1.0, 1.0, LENGTH, 5.0, HALF, -HALF]
        directions = [(1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8)]
        directions += [(NAN, NAN), (INF, 0.0)]
        lengths = specials + [LENGTH]
        halves = specials + [HALF]
        radii = [0.0, -0.0, 1.0, INF, NAN]
        grid = itertools.product(offsets, offsets, directions, lengths, halves, radii)
        for dx, dy, (c, s), length, half, r in grid:
            args = (dx, dy, ((c, s, length),), half, r)
            assert tunnel_hits_disc(*args) == tunnel_hits_disc_by_min_max(*args), args

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=7, max_size=7))
    def test_raw_floats(self, args):
        # Not only reachable legs: any seven floats, unit directions or not.
        dx, dy, c, s, length, half, r = args
        args = (dx, dy, ((c, s, length),), half, r)
        assert tunnel_hits_disc(*args) == tunnel_hits_disc_by_min_max(*args)


def kernel_answers(dx, dy, legs, half, r) -> tuple[bool, bool, bool]:
    """``tunnel_hits_disc``, its un-culled ``min``/``max`` oracle, and ``tunnel_hits``.

    The last runs the legs as k tunnels from the origin, reduced with
    ``.any(axis=0)``.
    """
    c, s, length = (np.array([leg[i] for leg in legs], float).reshape(-1, 1) for i in range(3))
    with np.errstate(all="ignore"):  # non-finite legs and centres make NaN on the way
        hits = tunnel_hits((0.0, 0.0), (c, s), length, 2.0 * half, np.array([[dx, dy]]), r)
    args = (dx, dy, legs, half, r)
    return tunnel_hits_disc(*args), tunnel_hits_disc_by_min_max(*args), bool(hits.any(axis=0)[0])


def ulps(x: float, n: int) -> list[float]:
    """``x`` and the ``n`` floats on either side of it, in order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -INF))
        above.append(math.nextafter(above[-1], INF))
    return below[:0:-1] + above


def side_centres(c: float, s: float, u: float, v: float) -> list[tuple[float, float]]:
    """Centres ``u`` along and ``v`` beside the ``(c, s)`` spine, by the kernel's lateral term.

    Searches the coordinates a few ulps around the exact centre for those
    whose rounded lateral term ``-dx * s + dy * c`` is the largest below
    ``v``, exactly ``v``, and the smallest above it: one ulp either side on an
    axis-aligned spine. Empty when no centre there gives exactly ``v``.
    """
    x0, y0 = u * c - v * s, u * s + v * c
    terms = {-dx * s + dy * c: (dx, dy) for dx in ulps(x0, 24) for dy in ulps(y0, 24)}
    if v not in terms:
        return []
    below = max(t for t in terms if t < v)
    above = min(t for t in terms if t > v)
    return [terms[below], terms[v], terms[above]]


class TestLateralCull:
    """The kernel skips a leg on its lateral term alone, and answers as the un-culled forms.

    The boundary is a lateral gap of exactly ``h + r``: the disc touches the
    tunnel's side there, so the cull must not fire at equality.
    """

    # (c, s) spines: four axis-aligned, and two tilted legs of the default
    # shelf from its home (10, -3), to (13, 8) and to (2, 12).
    SPINES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    SPINES += [tuple(tunnel_to(Point(13.0, 8.0), Point(10.0, -3.0), 1.0, 4.0).direction)]
    SPINES += [tuple(tunnel_to(Point(2.0, 12.0), Point(10.0, -3.0), 1.0, 4.0).direction)]

    # h + r and (h + r) - h == r exactly, so a lateral term of h + r is an exact tangency.
    @pytest.mark.parametrize("spine", SPINES, ids=str)
    @pytest.mark.parametrize("half, r", [(2.0, 1.0), (0.75, 1.0), (2.0, 0.5), (1.25, 0.375)])
    def test_side_tangency_and_one_ulp_either_side(self, spine, half, r):
        c, s = spine
        length = 12.0
        found = 0
        for u in (0.0, 0.25, 0.5, 1.0, 5.0, length):  # along the side, ends included
            for side in (1.0, -1.0):
                centres = side_centres(c, s, u, side * (half + r))
                found += bool(centres)
                for k, (dx, dy) in enumerate(centres):
                    got = kernel_answers(dx, dy, ((c, s, length),), half, r)
                    # On the side or inside touches; one ulp outside misses.
                    outside = k == (2 if side > 0 else 0)
                    assert got == (not outside,) * 3, (spine, u, side, k)
        assert found == 12

    @pytest.mark.parametrize("spine", SPINES, ids=str)
    def test_side_tangency_among_other_legs(self, spine):
        # The culled leg comes before, after or between legs that miss the disc.
        c, s = spine
        dx, dy = side_centres(c, s, 0.5, 3.0)[1]
        miss = [(NAN, NAN, INF), (-s, c, 1.0), (NAN, 0.0, INF)]
        for legs in ([(c, s, 12.0), *miss], [*miss, (c, s, 12.0)], miss):
            got = kernel_answers(dx, dy, legs, 2.0, 1.0)
            assert got == ((c, s, 12.0) in legs,) * 3, (spine, legs)

    def test_non_finite_legs_and_centres(self):
        # The legs a scene can make from a non-finite target, and finite ones;
        # centres NaN, infinite, on the side and on the spine.
        legs = [(NAN, NAN, INF), (NAN, NAN, NAN), (NAN, 0.0, INF), (0.0, NAN, INF)]
        legs += [(0.0, 1.0, INF), (1.0, 0.0, 12.0), (INF, 0.0, 12.0), (0.0, -INF, 12.0)]
        coords = [NAN, INF, -INF, 0.0, -0.0, 3.0, -3.0, 5.0]
        for dx, dy in itertools.product(coords, coords):
            for k in (1, 2):
                for chosen in itertools.permutations(legs, k):
                    got = kernel_answers(dx, dy, list(chosen), 2.0, 1.0)
                    assert got[0] == got[1] == got[2], (dx, dy, chosen)


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit, or both NaN (whose sign and payload no hypot promises)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# Every finite float, subnormals and signed zeros among them; multiples of a
# quarter, where the grid's legs live; and the non-finite values.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-400, 400).map(lambda k: 0.25 * k),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([INF, -INF, NAN]))


class TestLegLength:
    """``leg_length`` is ``np.hypot`` bit for bit: the C library's ``hypot`` on both paths."""

    @staticmethod
    def numpy_hypot(dx, dy):
        with np.errstate(over="ignore"):  # numpy warns on overflow and returns inf
            return float(np.hypot(dx, dy))

    @settings(max_examples=3000, deadline=None)
    @given(dx=ANY_FLOAT, dy=ANY_FLOAT)
    def test_matches_numpy(self, dx, dy):
        assert same_float(leg_length(dx, dy), self.numpy_hypot(dx, dy)), (dx, dy)

    @pytest.mark.parametrize("grid", [0.25, 0.5, 1.0])
    def test_every_grid_leg(self, grid):
        # Legs from a home at (10, -3) to every point of a 20 x 20 floor on the grid.
        steps = np.arange(0.0, 20.0 + grid, grid)
        for x in steps.tolist():
            for y in steps.tolist():
                dx, dy = x - 10.0, y + 3.0
                assert same_float(leg_length(dx, dy), float(np.hypot(dx, dy))), (dx, dy)

    @pytest.mark.parametrize(
        "dx, dy", [(INF, NAN), (NAN, -INF), (NAN, 1.0), (0.0, NAN), (-INF, 0.0)]
    )
    def test_non_finite(self, dx, dy):
        assert same_float(leg_length(dx, dy), float(np.hypot(dx, dy)))

    @pytest.mark.parametrize(
        "dx, dy", [(1.5e308, 1.5e308), (-1.7976931348623157e308, 1e308), (1e308, -1.5e308)]
    )
    def test_overflow_is_infinite(self, dx, dy):
        assert leg_length(dx, dy) == INF == self.numpy_hypot(dx, dy)


class TestDiscs:
    def test_tangency_is_not_overlap(self):
        assert not discs_overlap(Disc(Point(0, 0), 1), Disc(Point(2, 0), 1))

    def test_close_discs_overlap(self):
        assert discs_overlap(Disc(Point(0, 0), 1), Disc(Point(1.9, 0), 1))

    def test_coincident(self):
        assert discs_overlap(Disc(Point(0, 0), 1), Disc(Point(0, 0), 1))

    @given(st.floats(-9, 9), st.floats(-9, 9), st.floats(-9, 9), st.floats(-9, 9))
    def test_symmetric(self, x1, y1, x2, y2):
        a, b = Disc(Point(x1, y1), 1.3), Disc(Point(x2, y2), 0.7)
        assert discs_overlap(a, b) == discs_overlap(b, a)


class TestDiscInWorkspace:
    WS = Workspace(20, 20)

    def test_boundary_contact_allowed(self):
        assert disc_in_workspace(Disc(Point(1, 1), 1), self.WS)

    def test_left_wall_violation(self):
        assert not disc_in_workspace(Disc(Point(0.5, 1), 1), self.WS)

    def test_far_corner_violation(self):
        assert not disc_in_workspace(Disc(Point(19.5, 19.5), 1), self.WS)
