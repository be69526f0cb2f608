"""Occlusion table: the search's geometric queries, answered by index.

Every position a search can put an object on is a candidate grid point, a
start point or a goal point. The table numbers these P points (the candidates
first, in grid order, then any off-grid start or goal point) and caches the
answers between them as bit sets, Python ints whose bit ``k`` stands for
point ``k``. Each entry is computed on first use by the same function the
search would otherwise call, so a looked-up answer equals a recomputed one
bit for bit:

- ``row(t)``: the point discs the home tunnel to point ``t`` touches
  (``tunnel_disc_mask``);
- ``clear(j)``: the candidates whose placing sweep misses the disc at point
  ``j`` (``placement_sweep_mask``);
- ``far(j)``: the point discs that do not overlap the disc at point ``j``;
- ``nearest(j)``: the candidates in stable order of distance from point
  ``j``, and those at point ``j``'s own spot (closer than 1e-6);
- ``reach(j)``: the distance from point ``j`` to each candidate, as
  ``geometry.distance`` computes it.

``move_valid`` combines them into ``action_valid`` for one relocation between
table points, given the bit set of the points the other objects stand on
(``occupancy``). Each point is a candidate or a start or goal point that
``Scene`` checked, so its disc lies in the workspace; any other point is left
to the float geometry.

Both tunnel entries come from one kernel (``geometry.tunnel_hits``), so for a
candidate ``t`` bit ``t`` of ``clear(j)`` is set exactly when bit ``j`` of
``row(t)`` is not, exact tangencies included.

A search visits only a small share of the points, so filling the whole table
up front would cost more than most plans. Every entry is a pure function of
the shelf (workspace, object radius, robot home, tunnel width and grid
resolution, which fix the candidates) and of the table's points. Task after
task on one shelf only the start and goal arrangements change, and on a grid
they stand on candidates. So ``OcclusionTable.shared`` keeps one process-wide
table of the last shelf it served, over its candidates only (a transposition
table over geometry that spans searches), and returns that object for every
scene of the shelf whose points are all candidates; one with an off-grid start
or goal point gets a cold table of its own, kept until another off-grid scene
asks, and leaves the shelf's table alone. A table
``serves`` every scene of its shelf. The store assumes one thread: an entry
is filled by a plain list write, and two writes of one entry store equal
values. ``OcclusionTable(scene)`` stays cold and private to its caller.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .geometry import Point, tunnel_disc_mask
from .motion import home_tunnel, placement_sweep_mask
from .scene import Arrangement, ObjectId, Scene

_SAME_SPOT_D2 = 1e-12  # squared distance under which a candidate is point j's own spot


def _shelf(scene: Scene) -> tuple:
    """What the entries depend on besides the table's points.

    The grid resolution stands for the candidates, which it determines together
    with the workspace and the object radius.
    """
    return (
        scene.workspace,
        scene.object_radius,
        scene.robot_home,
        scene.tunnel_width,
        scene.grid_resolution,
    )


def other_points(positions: Sequence[int], obj: ObjectId) -> list[int]:
    """The points that every object but ``obj`` stands on."""
    return [j for o, j in enumerate(positions) if o != obj]


def occupancy(positions: Iterable[int]) -> int:
    """Bit set of the points the objects stand on.

    No two objects of an arrangement share a point, so clearing one object's
    bit leaves the points of all the others.
    """
    bits = 0
    for j in positions:
        bits |= 1 << j
    return bits


def to_bits(mask: np.ndarray) -> int:
    """Bit set of a bool array: bit ``k`` is ``mask[k]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class OcclusionTable:
    """Lazily filled collision answers between the points of one scene."""

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self.n_candidates = len(scene.candidates)
        index = {p: i for i, p in enumerate(scene.candidates)}
        if len(index) < self.n_candidates:
            raise ValueError("scene candidates must be distinct points")
        for p in scene.start + scene.goal:
            index.setdefault(p, len(index))
        self._index = index
        self.points = tuple(index)
        self.coords = np.asarray(self.points, dtype=float)
        self._min_gap2 = (2.0 * scene.object_radius) ** 2
        size = len(self.points)
        self._rows: list[int | None] = [None] * size
        self._clear: list[int | None] = [None] * size
        self._far: list[int | None] = [None] * size
        self._nearest: list[tuple[np.ndarray, int] | None] = [None] * size
        self._reach: list[np.ndarray | None] = [None] * size

    @classmethod
    def shared(cls, scene: Scene) -> OcclusionTable:
        """The process-wide table of ``scene``'s shelf, or a cold table for off-grid points.

        The shelf's table numbers the candidates only, so it indexes every
        scene of the shelf whose start and goal points are all candidates, and
        each of them gets that one object and the entries the ones before
        filled. When a point is not a candidate, the result is a cold
        ``OcclusionTable(scene)`` and the shelf's table is kept for the next
        grid scene. The last such table is kept as well, so asking again for
        an equal scene, as ``plan()``'s search and its optimiser do, returns
        it with its entries filled.
        """
        global _store, _cold
        if _store is None or not _store.serves(scene):
            _store = cls(dataclasses.replace(scene, start=(), goal=()))
        if _store.covers(scene.start + scene.goal):
            return _store
        if _cold is None or _cold.scene != scene:
            _cold = cls(scene)
        return _cold

    def serves(self, scene: Scene) -> bool:
        """The table's entries hold for ``scene``: both stand on one shelf."""
        return _shelf(self.scene) == _shelf(scene)

    def covers(self, points: Iterable[Point]) -> bool:
        """Every one of ``points`` is a point of the table."""
        return all(p in self._index for p in points)

    def index_of(self, p) -> int:
        """Index of a position; ``ValueError`` if the scene has no such point."""
        try:
            return self._index[p]  # a Point, or any tuple equal to one
        except (KeyError, TypeError):
            raise ValueError(
                f"position {tuple(p)} is not a candidate, start or goal point of the scene"
            ) from None

    def indices(self, arrangement: Arrangement) -> list[int]:
        """Index vector of an arrangement."""
        return [self.index_of(p) for p in arrangement]

    def candidate_mask(self, bits: int) -> np.ndarray:
        """Bool array over the candidates of a bit set."""
        raw = np.frombuffer(bits.to_bytes((self.n_candidates + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.n_candidates, bitorder="little").view(bool)

    def row(self, t: int) -> int:
        """Point discs that the home tunnel to point ``t`` touches."""
        hits = self._rows[t]
        if hits is None:
            tunnel = home_tunnel(self.scene, self.points[t])
            hits = to_bits(tunnel_disc_mask(tunnel, self.coords, self.scene.object_radius))
            self._rows[t] = hits
        return hits

    def clear(self, j: int) -> int:
        """Candidates whose placing sweep misses the disc at point ``j``."""
        ok = self._clear[j]
        if ok is None:
            grid = self.coords[: self.n_candidates]
            ok = to_bits(placement_sweep_mask(self.scene, grid, self.coords[j : j + 1]))
            self._clear[j] = ok
        return ok

    def far(self, j: int) -> int:
        """Point discs that do not overlap the disc at point ``j``."""
        ok = self._far[j]
        if ok is None:
            ok = self._far[j] = to_bits(self._distances(j) >= self._min_gap2)
        return ok

    def nearest(self, j: int) -> tuple[np.ndarray, int]:
        """Candidates by distance from point ``j`` (stable argsort), and those at its own spot."""
        entry = self._nearest[j]
        if entry is None:
            d2 = self._distances(j)[: self.n_candidates]
            # uint16 holds every candidate index: a scene has at most 65,536 candidates.
            order = np.argsort(d2, kind="stable").astype(np.uint16)
            order.flags.writeable = False  # shared by every table of the store
            entry = (order, to_bits(d2 <= _SAME_SPOT_D2))
            self._nearest[j] = entry
        return entry

    def reach(self, j: int) -> np.ndarray:
        """Distance from point ``j`` to each candidate, bit for bit ``geometry.distance``.

        ``math.hypot`` and ``np.hypot`` can differ in the last bit, so the
        entry is filled by the former: sums of entries then order candidates
        exactly as sums of ``distance`` calls do.
        """
        entry = self._reach[j]
        if entry is None:
            x, y = self.points[j]
            grid = self.points[: self.n_candidates]
            entry = np.fromiter((math.hypot(p.x - x, p.y - y) for p in grid), float, len(grid))
            entry.flags.writeable = False  # shared by every table of the store
            self._reach[j] = entry
        return entry

    def move_valid(self, others: int, src: int, dst: int) -> bool:
        """``action_valid`` for an object picked up at point ``src`` and placed at point ``dst``.

        ``others`` is the bit set of the points the other objects stand on
        (``occupancy``), which a caller that asks about many moves from one
        arrangement builds once. The move is valid iff the destination disc
        overlaps no other object and neither home tunnel touches one; the disc
        at a table point always lies in the workspace.
        """
        if self.far(dst) & others != others:
            return False
        return not (self.row(src) | self.row(dst)) & others

    def _distances(self, j: int) -> np.ndarray:
        return ((self.coords - self.coords[j]) ** 2).sum(axis=1)


# The table of the shelf ``OcclusionTable.shared`` last served, over its candidates.
_store: OcclusionTable | None = None
# The cold table of the last off-grid scene ``OcclusionTable.shared`` served.
_cold: OcclusionTable | None = None
