"""Occlusion table: the search's geometric queries, answered by index.

Every position a search can put an object on is a candidate grid point, a
start point or a goal point. The table numbers these P points (the candidates
first, in grid order, then any off-grid start or goal point, then any other
point of a plan it was built for) and caches the answers between them as bit
sets, Python ints whose bit ``k`` stands for point ``k``. Each entry is
computed on first use by the same function the search would otherwise call,
so a looked-up answer equals a recomputed one bit for bit:

- ``row(t)``: the point discs the home tunnel to point ``t`` touches
  (``tunnel_disc_mask``);
- ``clear(j)``: the candidates whose placing sweep misses the disc at point
  ``j`` (``placement_sweep_mask``);
- ``far(j)``: the point discs that do not overlap the disc at point ``j``;
- ``free(j)``: ``far(j) & clear(j)``, the candidates whose disc and placing
  sweep both miss the disc at point ``j``, which buffer choice asks of every
  other object;
- ``ranked(j)``: the candidates in stable order of distance from point
  ``j``, as nested bit sets of the nearest ones and each candidate's rank,
  which ``closest`` reads to pick the nearest candidates of a bit set with
  no array work;
- ``reach(j)``: the distance from point ``j`` to each candidate, as
  ``geometry.distance`` computes it.

``move_valid`` combines them into ``action_valid`` for one relocation between
table points, given the bit set of the points the other objects stand on
(``occupancy``). Every table point's disc lies in the workspace: ``Scene``
checks the start and goal points, and a plan's own point joins a table only
when its disc does.

Both tunnel entries come from one kernel (``geometry.tunnel_hits``), so for a
candidate ``t`` bit ``t`` of ``clear(j)`` is set exactly when bit ``j`` of
``row(t)`` is not, exact tangencies included.

A search visits only a small share of the points, so filling the whole table
up front would cost more than most plans. Every entry is a pure function of
the shelf (workspace, object radius, robot home, tunnel width and grid
resolution, which fix the candidates) and of the table's points, and a point
added to a table changes no entry's bits for the points it had. Task after
task on one shelf only the start and goal arrangements change, and on a grid
they stand on candidates. So ``OcclusionTable.shared`` keeps one process-wide
table, the last one it built (a transposition table over geometry that spans
searches), and returns that object for every scene of its shelf whose start
and goal points it indexes; for any other scene it builds and keeps the
scene's own table. A table ``serves`` every scene of its shelf. The store
assumes one thread: an entry is filled by a plain list write, and two writes
of one entry store equal values. ``OcclusionTable(scene)`` stays cold and
private to its caller, and so does ``OcclusionTable(scene, points)``, the
table the optimiser builds for a plan whose points the store lacks.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .geometry import Disc, Point, disc_in_workspace, tunnel_disc_mask
from .motion import home_tunnel, placement_sweep_mask
from .scene import Arrangement, ObjectId, Scene


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

    def __init__(self, scene: Scene, points: Iterable[Point] = ()) -> None:
        """A cold table over the scene's points and then those of ``points`` on the floor.

        ``points`` are a plan's own points. Each one whose disc lies in the
        workspace gets the next index, as a Point of floats, unless an equal
        point has one already; any other point, NaN and ±inf included, is left
        out, so every table point's disc lies in the workspace.
        """
        self.scene = scene
        self.n_candidates = len(scene.candidates)
        index = {p: i for i, p in enumerate(scene.candidates)}
        if len(index) < self.n_candidates:
            raise ValueError("scene candidates must be distinct points")
        for p in scene.start + scene.goal:
            index.setdefault(p, len(index))
        for p in points:
            if p not in index and disc_in_workspace(Disc(p, scene.object_radius), scene.workspace):
                index[Point(float(p.x), float(p.y))] = len(index)
        self._index = index
        self.points = tuple(index)
        coords = itertools.chain.from_iterable(self.points)
        self.coords = np.fromiter(coords, float, 2 * len(index)).reshape(-1, 2)
        self._xy = np.ascontiguousarray(self.coords.T)
        self._min_gap2 = (2.0 * scene.object_radius) ** 2
        size = len(self.points)
        self._rows: list[int | None] = [None] * size
        self._clear: list[int | None] = [None] * size
        self._far: list[int | None] = [None] * size
        self._free: list[int | None] = [None] * size
        self._ranked: list[tuple[tuple[int, ...], memoryview] | None] = [None] * size
        self._prefix_sizes = np.array(_prefix_sizes(self.n_candidates), dtype=np.uint16)
        self._reach: list[np.ndarray | None] = [None] * size

    @classmethod
    def shared(cls, scene: Scene) -> OcclusionTable:
        """The process-wide table, when it serves ``scene`` and indexes its points.

        Otherwise a cold ``OcclusionTable(scene)`` takes the store's place and
        is returned. A table built for a scene on candidates numbers the
        candidates only, so every grid scene of the shelf gets that one object
        and the entries the ones before filled. A table built for an off-grid
        scene adds its start and goal points; asking again for that scene, as
        ``plan()``'s optimiser does after its search, returns it with its
        entries filled, and so does asking for a grid scene of its shelf.
        """
        global _store
        if _store is None or not (_store.serves(scene) and _store.covers(scene.start + scene.goal)):
            _store = cls(scene)
        return _store

    def serves(self, scene: Scene) -> bool:
        """The table's entries hold for ``scene``: both stand on one shelf."""
        return _shelf(self.scene) == _shelf(scene)

    def covers(self, points: Iterable[Point]) -> bool:
        """Every one of ``points`` is a point of the table."""
        return all(p in self._index for p in points)

    def get(self, p: Point) -> int | None:
        """Index of a position, or None when the table lacks it."""
        return self._index.get(p)

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

    def free(self, j: int) -> int:
        """Candidates whose disc and placing sweep both miss the disc at point ``j``."""
        ok = self._free[j]
        if ok is None:
            ok = self._free[j] = self.far(j) & self.clear(j)
        return ok

    def ranked(self, j: int) -> tuple[tuple[int, ...], memoryview]:
        """Candidates in stable order of distance from point ``j`` (ties to the lower index).

        The entry holds two views of ``np.argsort``'s stable order of the
        squared distances: bit sets of the nearest m candidates, nested, for
        m = 8, 12, 16, 23, 32, ... (``ceil(2 ** (k / 2))``, growing by about
        √2) below the number of candidates; and each candidate's rank in that
        order, as a read-only ``uint16`` view (a scene has at most 65,536
        candidates).
        """
        entry = self._ranked[j]
        if entry is None:
            n = self.n_candidates
            order = np.argsort(self._distances(j)[:n], kind="stable")
            rank = np.empty(n, dtype=np.uint16)
            rank[order] = np.arange(n, dtype=np.uint16)
            inside = np.packbits(rank < self._prefix_sizes[:, None], axis=1, bitorder="little")
            prefixes = tuple(int.from_bytes(row.tobytes(), "little") for row in inside)
            # Shared by every search that asks the store: bytes keep it read-only.
            entry = (prefixes, memoryview(rank.tobytes()).cast("H"))
            self._ranked[j] = entry
        return entry

    def closest(self, j: int, ok: int, count: int) -> list[int]:
        """The ``count`` candidates of bit set ``ok`` nearest point ``j``, nearest first.

        ``ok`` holds candidates only. The answer is the first ``count`` of
        them in ``ranked(j)``'s order, ties to the lower index. The smallest
        prefix of that entry holding ``count`` candidates of ``ok`` holds them
        all, since every candidate outside a prefix ranks after every one
        inside it. That prefix's candidates of ``ok`` are sorted by rank, or
        all of ``ok`` when no prefix holds ``count`` of them.
        """
        prefixes, rank = self.ranked(j)
        if ok.bit_count() > count:
            for prefix in prefixes:
                if (near := ok & prefix).bit_count() >= count:
                    ok = near
                    break
        found = []
        while ok:
            k = ok.bit_length() - 1
            found.append(k)
            ok ^= 1 << k
        found.sort(key=rank.__getitem__)
        return found[:count]

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
            entry.flags.writeable = False  # shared by every search that asks the store
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
        """Squared distances from point ``j`` to every point.

        The bits of ``((coords - coords[j]) ** 2).sum(axis=1)``: numpy squares
        by multiplying and sums two terms with one addition, so the column form
        gives the same floats at about a fifth of the cost.
        """
        x, y = self._xy
        dx, dy = x - x[j], y - y[j]
        return dx * dx + dy * dy


def _prefix_sizes(n: int) -> list[int]:
    """Sizes under ``n`` of ``ranked``'s nested prefixes: ``ceil(2 ** (k / 2))`` from 8 on."""
    sizes, k = [], 6
    while (m := math.ceil(2 ** (k / 2))) < n:
        sizes.append(m)
        k += 1
    return sizes


# The table ``OcclusionTable.shared`` last built.
_store: OcclusionTable | None = None
