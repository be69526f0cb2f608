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
    tunnel_hits,
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
    ignored on both legs. One ``collision_objs`` call answers both legs.
    """
    b = scene.object_radius
    if not disc_in_workspace(Disc(Point(*action.dst), b), scene.workspace):
        return False
    pos = np.asarray(arrangement, dtype=float)
    d2 = ((pos - np.asarray(action.dst, dtype=float)) ** 2).sum(axis=1)
    d2[action.obj] = np.inf  # the moved object vacates its own disc
    if (d2 < (2.0 * b) ** 2).any():
        return False
    others = [o for o in range(len(pos)) if o != action.obj]
    return not collision_objs(scene, pos, others, action.src, action.dst)


def collision_objs(
    scene: Scene, arrangement, candidates: Iterable[ObjectId], *targets: Point
) -> set[ObjectId]:
    """Subset of ``candidates`` whose current disc a home tunnel to one of ``targets`` touches.

    The tunnels are (k, 1) columns built with the expressions of ``tunnel_to``
    and ``placement_sweep_mask``, so each one answers as
    ``tunnel_disc_mask(home_tunnel(scene, target), ...)`` bit for bit, and one
    ``tunnel_hits`` call covers them all. Raises ``ValueError`` when a target
    coincides with the robot home, as ``home_tunnel`` does.
    """
    b = scene.object_radius
    home = scene.robot_home
    vec = np.array([(t[0] - home[0], t[1] - home[1]) for t in targets], dtype=float)
    vec = vec.reshape(-1, 2)  # no targets: no tunnels
    dist = np.hypot(vec[:, :1], vec[:, 1:])  # one tunnel per row
    if not dist.all():
        raise ValueError("tunnel target coincides with its anchor")
    ids = sorted(candidates)
    if not ids:
        return set()
    with np.errstate(invalid="ignore"):  # an infinite leg aims nowhere, as in ``tunnel_to``
        unit = vec / dist
    direction = (unit[:, :1], unit[:, 1:])
    centers = np.asarray(arrangement, dtype=float).take(ids, axis=0)
    hits = tunnel_hits(home, direction, dist + b, scene.tunnel_width, centers, b)
    return {o for o, hit in zip(ids, hits.any(axis=0).tolist()) if hit}


def placement_sweep_mask(scene: Scene, targets: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """Which home->target placing tunnels clear every obstacle disc.

    ``targets`` is (n, 2), ``obstacles`` (k, 2); returns an (n,) bool array that
    is True where the tunnel to the target touches no obstacle.
    """
    b = scene.object_radius
    home = np.asarray(scene.robot_home, dtype=float)
    vec = targets - home
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
