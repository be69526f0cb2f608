"""Planar primitives: discs, tilted rectangular tunnels, and their intersection tests.

The workspace frame puts the origin at the front-left corner of the floor,
+x to the right and +y pointing into the workspace, so the front opening lies
along y = 0 and the robot waits at negative y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    """A location on the workspace floor."""

    x: float
    y: float


class Disc(NamedTuple):
    """Footprint of a cylindrical object."""

    center: Point
    radius: float


class Workspace(NamedTuple):
    """Interior floor dimensions of the confined region."""

    width: float
    depth: float


@dataclass(frozen=True)
class Tunnel:
    """Swept volume of one linear gripper motion.

    A rectangle anchored at the robot home: it extends ``length`` along the
    unit vector ``direction`` and spans ``width / 2`` to either side of that
    spine.
    """

    anchor: Point
    length: float
    width: float
    direction: Point

    def corners(self) -> list[Point]:
        """Rectangle corners in counter-clockwise order."""
        (ax, ay), (c, s) = self.anchor, self.direction
        h = 0.5 * self.width
        return [
            Point(ax + u * c - v * s, ay + u * s + v * c)
            for u, v in ((0.0, -h), (self.length, -h), (self.length, h), (0.0, h))
        ]


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two floor locations."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def tunnel_to(
    target: Point, anchor: Point, object_radius: float, tunnel_width: float
) -> Tunnel:
    """Tunnel that carries the gripper from ``anchor`` to an object at ``target``.

    The rectangle overshoots the target center by ``object_radius`` so its far
    end covers the whole footprint being grasped or released.

    Raises ``ValueError`` when ``target`` coincides with ``anchor`` (the aiming
    direction would be undefined).
    """
    dx = target[0] - anchor[0]
    dy = target[1] - anchor[1]
    # The bits of numpy's hypot, as in the batched ``placement_sweep_mask``.
    dist = leg_length(dx, dy)
    if dist == 0.0:
        raise ValueError("tunnel target coincides with its anchor")
    return Tunnel(
        anchor=Point(anchor[0], anchor[1]),
        length=dist + object_radius,
        width=tunnel_width,
        direction=Point(dx / dist, dy / dist),
    )


def tunnel_hits(
    anchor, direction, length, width: float, centers: np.ndarray, radius: float
) -> np.ndarray:
    """The array tunnel--disc kernel: which closed discs touch the closed rectangle.

    Boundary contact counts, so a sweep is treated conservatively. ``centers``
    is (m, 2). One tunnel: ``direction`` is a unit ``(c, s)`` pair and ``length``
    a float; returns (m,) bools. k tunnels from one anchor: ``c``, ``s`` and
    ``length`` are (k, 1) columns; returns (k, m). Its scalar twin
    ``tunnel_hits_disc`` does the same arithmetic on Python floats, one disc
    against k legs at a time, with comparisons where this kernel calls
    ``np.maximum`` and ``np.minimum``; the two answer alike bit for bit.
    """
    c, s = direction
    dx = centers[:, 0] - anchor[0]
    dy = centers[:, 1] - anchor[1]
    u = dx * c + dy * s  # along the spine
    v = -dx * s + dy * c  # lateral offset
    # ``np.clip`` spelled out: the same clamped values, less call overhead.
    uc = np.minimum(np.maximum(u, 0.0), length)
    h = 0.5 * width
    vc = np.minimum(np.maximum(v, -h), h)
    return (u - uc) ** 2 + (v - vc) ** 2 <= radius * radius


def leg_length(dx: float, dy: float) -> float:
    """``float(np.hypot(dx, dy))`` without a numpy scalar call, at about a fifth of the cost.

    CPython's complex ``abs`` calls the C library's ``hypot`` on finite
    parts, as numpy does, so the two agree bit for bit; ``math.hypot`` has
    its own algorithm and does not. An infinite part gives ``inf`` and a NaN
    one ``nan``, as in numpy. Where the length overflows, ``abs`` raises
    ``OverflowError`` and numpy returns ``inf``, so this does too
    (``tests/test_geometry.py::TestLegLength``).
    """
    try:
        return abs(complex(dx, dy))
    except OverflowError:
        return math.inf


def tunnel_hits_disc(dx: float, dy: float, legs, half_width: float, r: float) -> bool:
    """``tunnel_hits`` on floats for the disc at ``(dx, dy)`` from the anchor.

    ``legs`` is a sequence of ``(c, s, length)`` tunnels from one anchor, and
    the answer is whether any of them touches the disc: the k-tunnel form of
    ``tunnel_hits`` reduced with ``.any(axis=0)``; no legs answers False.
    Each leg takes the operations of ``tunnel_hits`` (numpy squares by
    multiplying), so both answer alike bit for bit, exact tangencies and NaN
    legs included. The lateral term comes first, and a leg whose squared
    lateral gap ``dv * dv`` exceeds ``r * r`` is skipped before its
    along-spine term is computed. The skip is exact: ``du * du`` is at least
    0 or NaN, and rounding is monotone, so ``fl(du * du + dv * dv)`` is at
    least ``dv * dv`` or NaN, and the full test would answer False too. Most
    discs of a shelf lie beside a leg, not past its end, so most legs stop
    there. The clamps are comparisons, not ``min``/``max`` builtin calls,
    which on CPython 3.11 make a call about three times as costly.
    ``max(a, b)`` returns ``a`` unless ``b > a``, and ``min(a, b)`` returns
    ``a`` unless ``b < a``, so each conditional expression below returns the
    builtin's very value, NaN, signed zeros and infinities included
    (``tests/oracles.tunnel_hits_disc_by_min_max``). Where the builtins and
    numpy's clamps part is a NaN bound: ``np.minimum`` passes a NaN length
    on, a comparison drops it. No leg has one without a NaN direction, which
    makes ``u`` and ``v`` NaN on both paths.
    """
    rr = r * r
    for c, s, length in legs:
        v = -dx * s + dy * c
        lo = -half_width if -half_width > v else v
        dv = v - (half_width if half_width < lo else lo)
        vv = dv * dv
        if vv > rr:
            continue  # beside the leg: the sum below would be at least vv
        u = dx * c + dy * s
        lo = 0.0 if 0.0 > u else u
        du = u - (length if length < lo else lo)
        if du * du + vv <= rr:
            return True
    return False


def tunnel_intersects_disc(t: Tunnel, d: Disc) -> bool:
    """True iff the closed rectangle and the closed disc share a point (``tunnel_hits_disc``)."""
    (ax, ay), (cx, cy), (c, s) = t.anchor, d.center, t.direction
    return tunnel_hits_disc(cx - ax, cy - ay, ((c, s, t.length),), 0.5 * t.width, d.radius)


def tunnel_disc_mask(t: Tunnel, centers: np.ndarray, radius: float) -> np.ndarray:
    """``tunnel_hits`` of one tunnel against an (n, 2) array of disc centers."""
    return tunnel_hits(t.anchor, t.direction, t.length, t.width, centers, radius)


def discs_overlap(a: Disc, b: Disc) -> bool:
    """Strict interior overlap; tangent discs do not overlap."""
    dx = b.center[0] - a.center[0]
    dy = b.center[1] - a.center[1]
    r = a.radius + b.radius
    return dx * dx + dy * dy < r * r


def disc_in_workspace(d: Disc, w: Workspace) -> bool:
    """True iff the disc lies fully on the floor; wall contact is allowed."""
    x, y = d.center
    r = d.radius
    return x - r >= 0.0 and y - r >= 0.0 and x + r <= w.width and y + r <= w.depth
