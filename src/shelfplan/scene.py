"""Workspace instances: candidate grids, arrangements, and the random scene generator."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Disc, Point, Workspace, disc_in_workspace, discs_overlap

ObjectId = int
Arrangement = tuple[Point, ...]

# Rejection-sampling limits for scene generation.
_MAX_DRAWS = 10_000
_STALL_LIMIT = 500
# Most placement candidates a scene may have: a 256 x 256 grid. The occlusion
# table's per-point entries grow with it, and it stores candidate indices as uint16.
MAX_CANDIDATES = 65_536


class SceneGenerationError(RuntimeError):
    """Rejection sampling could not place all objects."""


def _require_finite(*fields: tuple[str, float]) -> None:
    """Raise ``ValueError`` naming the first ``(name, value)`` that is NaN or infinite."""
    for name, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def grid_shape(workspace: Workspace, object_radius: float, resolution: float) -> tuple[int, int]:
    """Columns and rows of the candidate grid, checked before anything is built.

    Raises ``ValueError`` when a dimension is NaN or infinite, when no
    placement fits, when the grid would exceed ``MAX_CANDIDATES`` points, or
    when a pitch of at most two float spacings at the workspace's size would
    round neighbouring points onto one another.
    """
    _require_finite(
        ("workspace width", workspace.width),
        ("workspace depth", workspace.depth),
        ("object_radius", object_radius),
        ("grid_resolution", resolution),
    )
    if resolution <= 0:
        raise ValueError("grid resolution must be positive")
    span_x = workspace.width - 2.0 * object_radius
    span_y = workspace.depth - 2.0 * object_radius
    if span_x < 0 or span_y < 0:
        raise ValueError("no disc placement fits inside the workspace")
    steps_x, steps_y = span_x / resolution + 1e-9, span_y / resolution + 1e-9
    if max(steps_x, steps_y) == math.inf:  # the quotient overflowed
        raise ValueError(f"a grid of pitch {resolution} over this workspace has too many candidates")
    nx, ny = int(steps_x) + 1, int(steps_y) + 1
    # The slack can admit one point too many on an axis, whose disc crosses the far
    # wall by a rounding error; ``candidate_grid`` computes its coordinate this way.
    b = object_radius
    if b + (nx - 1) * resolution + b > workspace.width:
        nx -= 1
    if b + (ny - 1) * resolution + b > workspace.depth:
        ny -= 1
    if nx * ny > MAX_CANDIDATES:
        raise ValueError(
            f"a grid of {nx:,} x {ny:,} = {nx * ny:,} candidates exceeds the cap of "
            f"{MAX_CANDIDATES:,}"
        )
    # Above two float spacings b + i * resolution strictly increases with i.
    spacing = math.ulp(max(workspace.width, workspace.depth))
    if max(nx, ny) > 1 and resolution <= 2.0 * spacing:
        raise ValueError(
            f"grid pitch {resolution} is not above twice the float spacing {spacing:.3g} "
            "of the workspace's coordinates"
        )
    return nx, ny


def candidate_grid(workspace: Workspace, object_radius: float, resolution: float) -> list[Point]:
    """All grid points (pitch ``resolution``) whose disc fits inside the workspace.

    Points are returned row-major: x varies fastest, y slowest, both ascending.
    Raises ``ValueError`` as ``grid_shape`` does.
    """
    nx, ny = grid_shape(workspace, object_radius, resolution)
    b = float(object_radius)
    return [Point(b + i * resolution, b + j * resolution) for j in range(ny) for i in range(nx)]


def _shelf_grid(
    workspace: Workspace, object_radius: float, resolution: float
) -> tuple[tuple[Point, ...], np.ndarray]:
    """The candidate grid of a shelf and its coordinates as a read-only float array.

    Built once for the last shelf asked about and shared by its scenes:
    ``generate_scene`` draws from it and ``Scene.candidates`` is the tuple.
    The coordinates keep the type of the resolution, so the key holds it.
    """
    global _last_grid
    key = (workspace, object_radius, resolution, type(resolution))
    if _last_grid is None or _last_grid[0] != key:
        points = tuple(candidate_grid(workspace, object_radius, resolution))
        coords = np.asarray(points, dtype=float)
        coords.flags.writeable = False
        _last_grid = (key, points, coords)
    return _last_grid[1], _last_grid[2]


# The shelf ``_shelf_grid`` last served, its candidate grid and the grid's coordinates.
_last_grid: tuple[tuple, tuple[Point, ...], np.ndarray] | None = None


def _points_ok(points: Arrangement, workspace: Workspace, radius: float) -> bool:
    discs = [Disc(p, radius) for p in points]
    if not all(disc_in_workspace(d, workspace) for d in discs):
        return False
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            if discs_overlap(discs[i], discs[j]):
                return False
    return True


@dataclass(frozen=True)
class Scene:
    """An immutable planning instance.

    ``candidates`` is the discretized set of legal placement centers, worked
    out from the workspace, object radius and grid resolution
    (``candidate_grid``), so it always matches them; start and goal positions
    of generated scenes are drawn from it.
    """

    workspace: Workspace
    object_radius: float
    robot_home: Point
    tunnel_width: float
    grid_resolution: float
    start: Arrangement
    goal: Arrangement

    def __post_init__(self) -> None:
        grid_shape(self.workspace, self.object_radius, self.grid_resolution)
        _require_finite(
            ("tunnel_width", self.tunnel_width),
            ("robot_home x", self.robot_home.x),
            ("robot_home y", self.robot_home.y),
        )
        if self.object_radius <= 0 or self.tunnel_width <= 0:
            raise ValueError("object radius and tunnel width must be positive")
        if self.robot_home.y >= 0:
            raise ValueError("robot home must sit outside the workspace, in front of the opening")
        if len(self.start) != len(self.goal):
            raise ValueError("start and goal must place the same objects")
        for name, points in (("start", self.start), ("goal", self.goal)):
            if not _points_ok(points, self.workspace, self.object_radius):
                raise ValueError(f"{name} arrangement is not collision-free inside the workspace")

    @property
    def n_objects(self) -> int:
        return len(self.start)

    @cached_property
    def candidates(self) -> tuple[Point, ...]:
        return _shelf_grid(self.workspace, self.object_radius, self.grid_resolution)[0]


def make_scene(
    start: Arrangement,
    goal: Arrangement,
    *,
    width: float = 20.0,
    depth: float = 20.0,
    object_radius: float = 1.0,
    tunnel_width: float = 4.0,
    grid_resolution: float = 1.0,
    robot_home: Point | None = None,
) -> Scene:
    """Build a scene with the default desk-scale parameters.

    Points are stored with float coordinates, as JSON and the candidate grid
    give them, so ``Point(4, 5)`` becomes ``Point(4.0, 5.0)``.
    """
    workspace = Workspace(width, depth)
    if robot_home is None:
        robot_home = Point(width / 2.0, -3.0)
    return Scene(
        workspace=workspace,
        object_radius=object_radius,
        robot_home=Point(*map(float, robot_home)),
        tunnel_width=tunnel_width,
        grid_resolution=grid_resolution,
        start=tuple(Point(*map(float, p)) for p in start),
        goal=tuple(Point(*map(float, p)) for p in goal),
    )


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for random scene generation."""

    width: float = 20.0
    depth: float = 20.0
    n_objects: int = 4
    object_radius: float = 1.0
    min_center_separation: float = 4.0
    tunnel_width: float = 4.0
    grid_resolution: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects == 0:
            raise ValueError("need at least one object")
        require_int("n_objects", self.n_objects, 1)
        require_int("rng_seed", self.rng_seed, 0)
        _require_finite(
            ("min_center_separation", self.min_center_separation),
            ("tunnel_width", self.tunnel_width),
        )
        if self.min_center_separation < 2.0 * self.object_radius:
            raise ValueError("separation below one object diameter would allow overlaps")
        grid_shape(Workspace(self.width, self.depth), self.object_radius, self.grid_resolution)


def _sample_indices(
    rng: np.random.Generator, grid: np.ndarray, n: int, min_separation: float
) -> list[int]:
    """Draw n grid indices with pairwise center distance >= min_separation."""
    min2 = min_separation * min_separation
    chosen: list[int] = []
    placed = np.empty((n, 2), dtype=float)
    stall = 0
    for _ in range(_MAX_DRAWS):
        i = int(rng.integers(len(grid)))
        p = grid[i]
        if chosen:
            d2 = ((placed[: len(chosen)] - p) ** 2).sum(axis=1)
            if (d2 < min2).any():
                stall += 1
                if stall >= _STALL_LIMIT:
                    # Dead end: scrap the partial arrangement and start over.
                    chosen.clear()
                    stall = 0
                continue
        placed[len(chosen)] = p
        chosen.append(i)
        stall = 0
        if len(chosen) == n:
            return chosen
    raise SceneGenerationError(
        f"could not place {n} objects with separation {min_separation} "
        f"within {_MAX_DRAWS} rejection rounds"
    )


def generate_scene(config: SceneConfig) -> Scene:
    """Sample a random scene; deterministic for a given ``config.rng_seed``."""
    workspace = Workspace(config.width, config.depth)
    grid, grid_arr = _shelf_grid(workspace, config.object_radius, config.grid_resolution)
    rng = np.random.default_rng(config.rng_seed)
    start_idx = _sample_indices(rng, grid_arr, config.n_objects, config.min_center_separation)
    goal_idx = _sample_indices(rng, grid_arr, config.n_objects, config.min_center_separation)
    return make_scene(
        start=tuple(grid[i] for i in start_idx),
        goal=tuple(grid[i] for i in goal_idx),
        width=config.width,
        depth=config.depth,
        object_radius=config.object_radius,
        tunnel_width=config.tunnel_width,
        grid_resolution=config.grid_resolution,
    )


def scene_to_dict(scene: Scene) -> dict:
    return {
        "workspace": {"width": scene.workspace.width, "depth": scene.workspace.depth},
        "object_radius": scene.object_radius,
        "robot_home": [scene.robot_home.x, scene.robot_home.y],
        "tunnel_width": scene.tunnel_width,
        "grid_resolution": scene.grid_resolution,
        "start": [[p.x, p.y] for p in scene.start],
        "goal": [[p.x, p.y] for p in scene.goal],
    }


def number_from_json(value, what: str) -> float:
    """A finite JSON number as a float; anything else raises ``TypeError``/``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _require_finite((what, number))
    return number


def require_int(name: str, value, least: int) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an int (not a bool) >= ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} int, not {value!r}")


def list_from_json(value, what: str) -> list | tuple:
    """A JSON array; anything else raises ``TypeError``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be a list, not {type(value).__name__}")
    return value


def point_from_json(value, what: str) -> Point:
    """A JSON ``[x, y]`` pair of finite numbers as a ``Point``."""
    if len(list_from_json(value, what)) != 2:
        raise ValueError(f"{what} must have 2 coordinates, not {len(value)}")
    return Point(number_from_json(value[0], f"{what} x"), number_from_json(value[1], f"{what} y"))


def _points_from_json(value, what: str) -> Arrangement:
    points = list_from_json(value, what)
    return tuple(point_from_json(p, f"{what}[{i}]") for i, p in enumerate(points))


def scene_from_dict(data: dict) -> Scene:
    """Scene of a ``scene_to_dict`` mapping.

    Malformed input raises ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    workspace = data["workspace"]
    return make_scene(
        start=_points_from_json(data["start"], "start"),
        goal=_points_from_json(data["goal"], "goal"),
        width=number_from_json(workspace["width"], "workspace width"),
        depth=number_from_json(workspace["depth"], "workspace depth"),
        object_radius=number_from_json(data["object_radius"], "object_radius"),
        tunnel_width=number_from_json(data["tunnel_width"], "tunnel_width"),
        grid_resolution=number_from_json(data["grid_resolution"], "grid_resolution"),
        robot_home=point_from_json(data["robot_home"], "robot_home"),
    )


def scene_to_json(scene: Scene, indent: int | None = None) -> str:
    return json.dumps(scene_to_dict(scene), sort_keys=True, indent=indent)


def scene_from_json(text: str) -> Scene:
    return scene_from_dict(json.loads(text))
