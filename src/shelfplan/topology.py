"""Ordering the stages: goal dependency graph plus the longitude heuristic.

An object whose goal sits between the opening and another object's goal would
block that object's placing tunnel once finished, so it has to be finished
later. The stage order is a topological sort of those constraints; among
unconstrained objects the one whose goal lies deepest in the workspace goes
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Disc, tunnel_intersects_disc
from .motion import home_tunnel
from .scene import ObjectId, Scene


class CycleError(RuntimeError):
    """The goal dependency graph contains a cycle; no stage order exists."""


@dataclass(frozen=True)
class DependencyGraph:
    """Edges run (blocked -> blocker): the blocker must reach its goal later."""

    n: int
    edges: frozenset[tuple[ObjectId, ObjectId]]

    def __post_init__(self) -> None:
        if any(u == v for u, v in self.edges):
            raise ValueError("dependency graph cannot contain self-edges")


def build_dependency_graph(scene: Scene) -> DependencyGraph:
    """Pairwise goal-blocking relations, evaluated with all other objects ignored.

    Object ``i`` blocks object ``j`` when ``i``'s goal disc touches ``j``'s
    goal placing tunnel. Goal discs never overlap: ``Scene`` rejects them.
    """
    n = scene.n_objects
    b = scene.object_radius
    goal_discs = [Disc(p, b) for p in scene.goal]
    place_tunnels = [home_tunnel(scene, p) for p in scene.goal]
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if tunnel_intersects_disc(place_tunnels[j], goal_discs[i]):
                edges.add((j, i))
    return DependencyGraph(n=n, edges=frozenset(edges))


def stage_order(g: DependencyGraph, scene: Scene) -> list[ObjectId]:
    """Topological order of the dependency graph with the longitude tie-break.

    Among simultaneously available objects the one with the largest goal
    y-coordinate (farthest from the robot) goes first; remaining ties fall to
    the smallest object id. Raises ``CycleError`` when the graph has a cycle.
    """
    indegree = [0] * g.n
    outgoing: list[list[ObjectId]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        outgoing[u].append(v)
        indegree[v] += 1
    available = {o for o in range(g.n) if indegree[o] == 0}
    order: list[ObjectId] = []
    while available:
        nxt = max(available, key=lambda o: (scene.goal[o].y, -o))
        available.remove(nxt)
        order.append(nxt)
        for v in outgoing[nxt]:
            indegree[v] -= 1
            if indegree[v] == 0:
                available.add(v)
    if len(order) != g.n:
        raise CycleError("goal dependency graph contains a cycle")
    return order
