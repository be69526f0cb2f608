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
