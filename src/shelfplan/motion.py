"""Linear pick-and-place motions: swept tunnels and relocation validity.

The gripper always returns to its home location between the pick and the
place leg, so one relocation sweeps exactly two home-anchored tunnels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import (
    Disc,
    Point,
    Tunnel,
    disc_in_workspace,
    distance,
    leg_length,
    tunnel_hits,
    tunnel_hits_disc,
    tunnel_to,
)
from .scene import ObjectId, Scene


@dataclass(frozen=True)
class Action:
    """One pick-and-place relocation of a single object."""

    obj: ObjectId
    src: Point
    dst: Point

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("relocation must change the object's region")

    @property
    def displacement(self) -> float:
        return distance(self.src, self.dst)


def home_tunnel(scene: Scene, target: Point) -> Tunnel:
    """Tunnel swept by one gripper leg from the robot home to ``target``."""
    return tunnel_to(target, scene.robot_home, scene.object_radius, scene.tunnel_width)


def action_valid(scene: Scene, arrangement, action: Action) -> bool:
    """Check the collision constraint for one relocation.

    Valid iff neither sweep tunnel has a collision object other than the moved
    object, and the destination disc fits the workspace without overlapping
    another object. The moved object itself travels inside the tunnels and is
    ignored on both legs. ``arrangement`` is a sequence of ``(x, y)`` pairs:
    Points, lists or the rows of an array. ``action`` is read only through
    its ``obj``, ``src`` and ``dst``, so it may be any record with those
    fields, such as the validator's replay step, which is not rebuilt as an
    ``Action`` for each check. Such a record must have ``src != dst``, as an
    ``Action`` checks on construction.

    The workspace test reads the destination as given, and the overlap test
    runs on Python floats, with ``ex * ex + ey * ey``: the arithmetic numpy
    does for a squared difference summed over two columns. One
    ``collision_objs`` call then answers both legs, on floats too, with one
    scalar kernel call per other object. Raises
    ``ValueError`` when ``action.obj`` is not an index of ``arrangement``, and
    when a leg is aimed at the robot home.
    """
    obj, dst, n = action.obj, action.dst, len(arrangement)
    if not 0 <= obj < n:
        raise ValueError(f"object {obj} is not in an arrangement of {n}")
    b = scene.object_radius
    if not disc_in_workspace(Disc(dst, b), scene.workspace):
        return False
    x, y = dst
    reach = (2.0 * b) ** 2
    others = []
    for o, p in enumerate(arrangement):
        if o != obj:
            ex = p[0] - x
            ey = p[1] - y
            if ex * ex + ey * ey < reach:
                return False
            others.append(o)
    return not collision_objs(scene, arrangement, others, action.src, dst)


def collision_objs(
    scene: Scene, arrangement, candidates: Iterable[ObjectId], *targets: Point
) -> set[ObjectId]:
    """Subset of ``candidates`` whose current disc a home tunnel to one of ``targets`` touches.

    Each tunnel's ``(c, s, length)`` is built on floats with the expressions of
    ``tunnel_to``, its length from ``leg_length``, which gives ``np.hypot``'s
    bits. Each candidate takes one ``tunnel_hits_disc`` call over all the
    legs, so it answers as ``tunnel_disc_mask(home_tunnel(scene, target),
    ...)`` on each target bit for bit. A disc beside a leg ends that leg's
    test at its lateral term, exactly (see ``tunnel_hits_disc``). The
    per-candidate loop timed cheaper than one packed ``tunnel_hits`` call up
    to about 300 candidates before that skip, which only makes it cheaper
    (README, "A scalar tunnel test"); a default shelf holds at most 21
    objects.
    Raises ``ValueError`` when a target coincides with the robot home, as
    ``home_tunnel`` does, even with no candidates.
    """
    b = scene.object_radius
    hx, hy = scene.robot_home
    legs = []
    for t in targets:
        dx, dy = t[0] - hx, t[1] - hy
        dist = leg_length(dx, dy)
        if dist == 0.0:
            raise ValueError("tunnel target coincides with its anchor")
        # inf / inf is nan in Python as in numpy: an infinite leg aims nowhere.
        legs.append((dx / dist, dy / dist, dist + b))
    h = 0.5 * scene.tunnel_width
    hits = set()
    for o in candidates:
        x, y = arrangement[o]
        if tunnel_hits_disc(x - hx, y - hy, legs, h, b):
            hits.add(o)
    return hits


def placement_sweep_mask(scene: Scene, targets: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """Which home->target placing tunnels clear every obstacle disc.

    ``targets`` is (n, 2), ``obstacles`` (k, 2); returns an (n,) bool array that
    is True where the tunnel to the target touches no obstacle.
    """
    b = scene.object_radius
    home = np.asarray(scene.robot_home, dtype=float)
    vec = targets - home
    with np.errstate(over="ignore"):  # a leg past the largest float is inf, as in ``leg_length``
        dist = np.hypot(vec[:, :1], vec[:, 1:])  # one tunnel per row
    # Targets coinciding with the home anchor cannot be aimed at; mark blocked.
    degenerate = dist[:, 0] == 0.0
    dist[degenerate] = 1.0
    with np.errstate(invalid="ignore"):  # an infinite leg aims nowhere, as in ``tunnel_to``
        unit = vec / dist
    direction = (unit[:, :1], unit[:, 1:])
    hit = tunnel_hits(home, direction, dist + b, scene.tunnel_width, obstacles, b)
    clear = ~hit.any(axis=1)
    clear[degenerate] = False
    return clear
