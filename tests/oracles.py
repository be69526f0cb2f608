"""Independent oracles the tests check the library against.

Everything here is deliberately brute force: dense point sampling instead of
closed-form intersection, breadth-first search instead of tree search, scalar
re-derivations instead of the vectorized production paths.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from shelfplan import Action, Point, Scene, action_valid
from shelfplan.geometry import (
    Disc,
    Tunnel,
    disc_in_workspace,
    discs_overlap,
    distance,
    tunnel_disc_mask,
)
from shelfplan.motion import home_tunnel
from shelfplan.planner import _Step


def arrangement_valid(a, scene: Scene) -> bool:
    """True iff it places every object, each disc fits the workspace and no pair overlaps."""
    if len(a) != scene.n_objects:
        return False
    discs = [Disc(Point(*p), scene.object_radius) for p in a]
    if not all(disc_in_workspace(d, scene.workspace) for d in discs):
        return False
    return not any(discs_overlap(d, e) for i, d in enumerate(discs) for e in discs[i + 1 :])


def sampled_tunnel_disc_hit(t: Tunnel, d: Disc, pitch: float) -> bool:
    """Dense-grid membership test: sample the disc, check rectangle membership.

    Reliable whenever the true clearance (positive or negative) exceeds the
    sampling pitch.
    """
    cx, cy = d.center
    r = d.radius
    xs = np.arange(cx - r, cx + r + pitch / 2, pitch)
    ys = np.arange(cy - r, cy + r + pitch / 2, pitch)
    gx, gy = np.meshgrid(xs, ys)
    inside = (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
    px = gx[inside]
    py = gy[inside]
    c, s = t.direction
    dx = px - t.anchor.x
    dy = py - t.anchor.y
    u = dx * c + dy * s
    v = -dx * s + dy * c
    half = 0.5 * t.width
    in_rect = (u >= 0) & (u <= t.length) & (v >= -half) & (v <= half)
    return bool(in_rect.any())


def rect_disc_clearance(t: Tunnel, d: Disc) -> float:
    """Signed clearance: distance from disc boundary to the rectangle.

    Positive means separated, negative means overlapping; used only to filter
    out grazing pairs before comparing against the sampling oracle.
    """
    c, s = t.direction
    dx = d.center.x - t.anchor.x
    dy = d.center.y - t.anchor.y
    u = dx * c + dy * s
    v = -dx * s + dy * c
    uc = min(max(u, 0.0), t.length)
    half = 0.5 * t.width
    vc = min(max(v, -half), half)
    return math.hypot(u - uc, v - vc) - d.radius


def tunnel_hits_disc_by_min_max(dx: float, dy: float, legs, half_width: float, r: float) -> bool:
    """``geometry.tunnel_hits_disc`` with its clamps as ``min``/``max`` builtin calls.

    The reference for the kernel's comparison clamps, which must give the
    same answer on every input: whether any ``(c, s, length)`` leg touches
    the disc.
    """
    for c, s, length in legs:
        u = dx * c + dy * s
        v = -dx * s + dy * c
        du = u - min(max(u, 0.0), length)
        dv = v - min(max(v, -half_width), half_width)
        if du * du + dv * dv <= r * r:
            return True
    return False


def action_valid_by_legs(scene: Scene, arrangement, action: Action) -> bool:
    """``action_valid`` leg by leg: one ``home_tunnel`` and one ``tunnel_disc_mask`` per leg.

    The destination disc must lie in the workspace and overlap no other
    object, and neither leg's tunnel may touch another object's disc. A leg
    aimed at the robot home raises ``ValueError``, even with no other object.
    """
    b = scene.object_radius
    if not disc_in_workspace(Disc(Point(*action.dst), b), scene.workspace):
        return False
    pos = np.asarray(arrangement, dtype=float)
    d2 = ((pos - np.asarray(action.dst, dtype=float)) ** 2).sum(axis=1)
    d2[action.obj] = np.inf
    if (d2 < (2.0 * b) ** 2).any():
        return False
    others = [o for o in range(len(pos)) if o != action.obj]
    legs = [home_tunnel(scene, action.src), home_tunnel(scene, action.dst)]
    return not any(tunnel_disc_mask(t, pos[others], b).any() for t in legs)


def closest_by_argsort(table, j: int, ok: int, count: int) -> list[int]:
    """``OcclusionTable.closest`` as buffer choice once made it, with arrays.

    The candidates in stable argsort order of their squared distances from
    point ``j`` (ties to the lower index), masked by the bit set ``ok``, and
    the first ``count`` of those kept.
    """
    n = table.n_candidates
    d2 = ((table.coords[:n] - table.coords[j]) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    raw = np.frombuffer(ok.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    accepted = np.unpackbits(raw, count=n, bitorder="little").view(bool)[order]
    return order[np.flatnonzero(accepted)[:count]].tolist()


def bfs_min_steps(scene: Scene, goal_test, max_depth: int = 12) -> int | None:
    """Optimal action count over candidate-grid arrangements, by BFS.

    Moves are every (object, candidate) relocation accepted by the collision
    checker. ``goal_test`` takes a tuple of Points. Returns None when no goal
    state is reachable within ``max_depth`` moves.
    """
    start = tuple(scene.start)
    if goal_test(start):
        return 0
    frontier = deque([(start, 0)])
    seen = {start}
    while frontier:
        state, depth = frontier.popleft()
        if depth >= max_depth:
            continue
        for obj in range(scene.n_objects):
            src = state[obj]
            for cand in scene.candidates:
                if cand == src:
                    continue
                if not action_valid(scene, state, Action(obj, src, cand)):
                    continue
                nxt = state[:obj] + (cand,) + state[obj + 1 :]
                if nxt in seen:
                    continue
                if goal_test(nxt):
                    return depth + 1
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return None


def arrangement_goal_test(scene: Scene):
    goal = tuple(scene.goal)

    def test(state) -> bool:
        return tuple(state) == goal

    return test


def replay_plan(scene: Scene, actions) -> tuple[bool, list[Point] | None]:
    """Step-by-step replay used to double-check validate_plan."""
    positions = list(scene.start)
    for act in actions:
        if positions[act.obj] != act.src:
            return False, None
        if not action_valid(scene, tuple(positions), act):
            return False, None
        positions[act.obj] = act.dst
    return True, positions


def random_walk_instance(
    seed: int,
    n_objects: int = 3,
    steps: int = 6,
    off_grid: float = 0.0,
    back: float = 0.0,
    tunnel_width: float = 4.0,
):
    """A scene whose goal is the endpoint of a random valid action walk.

    Returns (scene, actions); the walk re-moves objects often, so plan
    optimization has genuine merge opportunities. A share ``back`` of the
    tried destinations of an object that has moved is the point it left on
    its last move, so its last two moves make a round trip. A share
    ``off_grid`` of the others is drawn uniformly over the floor, off the
    candidate grid; the rest are candidates. At the default 0 no draw is
    made for either, so those walks stay as they were. Below a tunnel width
    of ``2 * object_radius`` a disc can overlap a destination disc without
    touching its tunnel.
    """
    from shelfplan import SceneConfig, generate_scene, make_scene

    rng = np.random.default_rng(seed)
    base = generate_scene(
        SceneConfig(n_objects=n_objects, rng_seed=seed, tunnel_width=tunnel_width)
    )
    b, ws = base.object_radius, base.workspace
    positions = list(base.start)
    left: dict[int, Point] = {}  # the point each object left on its last move
    actions: list[Action] = []
    guard = 0
    while len(actions) < steps and guard < 400:
        guard += 1
        # From three objects on, the last one never moves: the others repeat more.
        obj = int(rng.integers(min(n_objects, max(2, n_objects - 1))))
        if back and obj in left and rng.random() < back:
            dst = left[obj]
        elif off_grid and rng.random() < off_grid:
            dst = Point(float(rng.uniform(b, ws.width - b)), float(rng.uniform(b, ws.depth - b)))
        else:
            dst = base.candidates[int(rng.integers(len(base.candidates)))]
        if dst == positions[obj]:
            continue
        act = Action(obj, positions[obj], dst)
        if action_valid(base, tuple(positions), act):
            left[obj] = positions[obj]
            positions[obj] = dst
            actions.append(act)
    scene = make_scene(base.start, tuple(positions), tunnel_width=tunnel_width)
    return scene, actions


def _arrangements(scene: Scene, actions) -> list[tuple[Point, ...]] | None:
    """Every arrangement of a full float replay from the start, or None if a step fails.

    Entry ``k`` is the arrangement before step ``k`` and the last entry the
    end. Each step must pick its object up exactly where it stands.
    """
    positions = list(scene.start)
    seen = [tuple(positions)]
    for act in actions:
        if positions[act.obj] != act.src:
            return None
        if not action_valid(scene, tuple(positions), act):
            return None
        positions[act.obj] = act.dst
        seen.append(tuple(positions))
    return seen


def _replays_to(scene: Scene, actions, final=None) -> tuple[Point, ...] | None:
    """End arrangement of a full float replay from the start, or None if a step fails.

    With ``final``, the end must also equal it.
    """
    seen = _arrangements(scene, actions)
    if seen is None or final is not None and seen[-1] != tuple(final):
        return None
    return seen[-1]


def _merged(scene: Scene, actions: list[Action], t: int, s: int) -> list[Action] | None:
    """``actions`` with consecutive moves ``t`` and ``s`` of one object merged, or None.

    The merged move replaces step ``t`` and step ``s`` is dropped, or both go
    when the merged move would end where it starts. The whole candidate is
    replayed from the start, and it must reach exactly the arrangement the
    plan had after step ``s``, so it ends exactly on the plan's end.
    """
    first, last = actions[t], actions[s]
    head = [] if first.src == last.dst else [Action(first.obj, first.src, last.dst)]
    candidate = actions[:t] + head + actions[t + 1 : s] + actions[s + 1 :]
    new, old = _arrangements(scene, candidate), _arrangements(scene, actions)
    if new is None or new[len(candidate) - (len(actions) - s - 1)] != old[s + 1]:
        return None
    assert new[-1] == old[-1]
    return candidate


def merge_by_replay(replay, steps: list, trail: list, t: int, s: int) -> tuple[list, list] | None:
    """``planner._merge_pair`` as a replay of the merged move and the steps between the pair.

    ``replay`` is the optimiser's ``_TableReplay`` and ``steps`` and
    ``trail`` its table steps and their arrangements. The merged move
    replaces step ``t`` and step ``s`` is dropped, or both go when the merged
    move would end where it starts. ``head + middle`` is replayed step by step
    on the table from ``trail[t]``, and the trail between the pair is the
    replay's. Returns the merged ``(steps, trail)``, or None when a step of
    the replay fails.
    """
    first, last = steps[t], steps[s]
    middle = steps[t + 1 : s]
    head = [_Step(first.obj, first.src, last.dst)] if first.src != last.dst else []
    arr, part = list(trail[t]), []
    if replay.run(head + middle, arr, part)[0] is not None:
        return None
    return steps[:t] + head + middle + steps[s + 1 :], trail[:t] + part + trail[s + 1 :]


def collapse_by_replay(replay, steps: list, trail: list) -> tuple[list, list]:
    """``planner._collapse_runs`` as a scan of adjacent pairs, each merged by ``merge_by_replay``.

    Scans left to right. A pair of one object's moves in adjacent steps is
    merged when its replay succeeds, and the merged move may merge with the
    next step; after a merge that drops both moves the scan steps back one
    place, since the steps on either side are now adjacent.
    """
    k = 0
    while k + 1 < len(steps):
        merged = None
        if steps[k].obj == steps[k + 1].obj:
            merged = merge_by_replay(replay, steps, trail, k, k + 1)
        if merged is None:
            k += 1
            continue
        if len(merged[0]) == len(steps) - 2:  # both moves dropped
            k = max(k - 1, 0)
        steps, trail = merged
    return steps, trail


def optimize_by_full_replay(scene: Scene, actions) -> list[Action]:
    """The optimiser's merge rule, each candidate replayed in full (see ``_merged``).

    Each round first scans the adjacent pairs of one object's moves left to
    right, stepping back one place after a merge that drops both moves, then
    merges, for each object, its first pair of consecutive moves with other
    steps between them that merges. Rounds repeat until nothing changes.
    Brute force: every candidate is replayed from step 0 on the float
    geometry, with no occlusion table and no trail.
    """
    actions = list(actions)
    while True:
        before = actions
        k = 0
        while k + 1 < len(actions):
            candidate = None
            if actions[k].obj == actions[k + 1].obj:
                candidate = _merged(scene, actions, k, k + 1)
            if candidate is None:
                k += 1
                continue
            if len(candidate) == len(actions) - 2:
                k = max(k - 1, 0)
            actions = candidate
        for obj in sorted({a.obj for a in actions}):
            idx = [i for i, a in enumerate(actions) if a.obj == obj]
            for t, s in zip(idx, idx[1:]):
                candidate = None if s == t + 1 else _merged(scene, actions, t, s)
                if candidate is not None:
                    actions = candidate
                    break
        if actions == before:
            return actions


def retarget_by_full_replay(scene: Scene, actions, counts: dict | None = None) -> list[Action]:
    """The re-targeting rule of ``retarget_buffers``, each trial replayed in full.

    A buffer step ``k`` moves an object that moves again later, at its next
    move ``n``. Candidates ``b`` other than ``k``'s pick-up and ``n``'s
    destination are tried in order of the detour ``d(src_k, b) + d(b,
    dst_n)``, ties to the lower grid index, while the detour is shorter than
    the current one; the first whose whole plan replays on the float geometry
    to the same final arrangement is taken. Steps are scanned in order until a
    scan changes nothing. Brute force: no occlusion table, no trail, no bit
    sets. With ``counts``, stores there the number of buffer steps
    (``pairs``) and of scans (``scans``), every buffer step tested in each.
    """
    actions = list(actions)
    final = _replays_to(scene, actions)
    following = {}
    for k, act in enumerate(actions):
        later = [n for n in range(k + 1, len(actions)) if actions[n].obj == act.obj]
        if later:
            following[k] = later[0]
    cands = scene.candidates
    scans = 0
    changed = True
    while changed:
        changed = False
        scans += 1
        for k, n in following.items():
            first, then = actions[k], actions[n]
            src, dst = first.src, then.dst
            current = distance(src, first.dst) + distance(first.dst, dst)
            detours = [(distance(src, b) + distance(b, dst), i) for i, b in enumerate(cands)]
            for detour, i in sorted(detours):
                if detour >= current:
                    break
                b = cands[i]
                if b in (src, dst):
                    continue
                trial = list(actions)
                trial[k] = Action(first.obj, src, b)
                trial[n] = Action(first.obj, b, dst)
                if _replays_to(scene, trial, final) is not None:
                    actions = trial
                    changed = True
                    break
    if counts is not None:
        counts.update(pairs=len(following), scans=scans)
    return actions
