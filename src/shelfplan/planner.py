"""Multi-stage planning: one tree search per object in topology order, then
plan optimization, buffer re-targeting and an independent replay validator.

Each job has its own replay loop. ``validate_plan`` replays a plan's
``Action``s on the float geometry. The optimiser and the re-targeter replay
table steps once into a trail of arrangements (``_table_steps``, ``_trail``)
and build their output with ``_as_plan``. The two loops share only the
pick-up check (``_pick_error``) and the reasons they give.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Disc, disc_in_workspace, distance
from .mcts import SearchBudget, StageContext, StageExhausted, StageIterationLimit
from .mcts import StageTimeout, require_budget, solve_stage
from .motion import Action, action_valid
from .occlusion import OcclusionTable, occupancy, other_points, to_bits
from .scene import ObjectId, Scene, list_from_json, point_from_json, require_int
from .topology import CycleError, build_dependency_graph, stage_order


class InvalidPlanError(ValueError):
    """A plan handed to an operation does not replay validly."""


@dataclass(frozen=True)
class Plan:
    """An ordered sequence of relocations."""

    actions: tuple[Action, ...]

    @property
    def steps(self) -> int:
        return len(self.actions)

    @property
    def total_displacement(self) -> float:
        return sum(a.displacement for a in self.actions)


@dataclass(frozen=True)
class PlanCheck:
    valid: bool
    failed_step: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class PlanReport:
    success: bool
    plan: Plan | None
    wall_time: float
    # "timeout" (wall clock) | "iteration-limit" (a stage's max_iterations)
    # | "stage-exhausted" | "topology-cycle"
    failure_kind: str | None


_LEAVES = "destination leaves the workspace"
_COLLIDES = "relocation is not collision-free"

Keys = tuple[int, ...]  # an arrangement: the table index of every object
# (src, buffer point, dst) -> the shorter candidates, their detours and the buffer point's
Detours = dict[tuple[int, int, int], tuple[int, np.ndarray, float]]


class _Step(NamedTuple):
    """One relocation in table indices; None stands for a point the table lacks."""

    obj: ObjectId
    src: int | None
    dst: int | None


def _pick_error(arr: Sequence, step: _Step | Action) -> str | None:
    """Why ``step`` cannot pick its object up in arrangement ``arr``, or None when it can.

    The object must be known and stand exactly on the step's pick-up point.
    """
    if not 0 <= step.obj < len(arr):
        return f"unknown object {step.obj}"
    if arr[step.obj] != step.src:
        return "pick location does not match the object's current region"
    return None


def validate_plan(scene: Scene, plan: Plan) -> PlanCheck:
    """Independent float replay of the plan's own Points: every step valid and the goal reached.

    The only replay off the occlusion table: each ``Action`` must pick its
    object up where it stands and pass ``action_valid`` on the arrangement
    it is applied to. It shares no loop with the optimiser's ``_trail``.
    """
    arr = list(scene.start)
    for k, step in enumerate(plan.actions):
        reason = _pick_error(arr, step)
        if reason is None and not action_valid(scene, arr, step):  # a step never has src == dst
            inside = disc_in_workspace(Disc(step.dst, scene.object_radius), scene.workspace)
            reason = _COLLIDES if inside else _LEAVES
        if reason is not None:
            return PlanCheck(False, k, reason)
        arr[step.obj] = step.dst
    if arr != list(scene.goal):
        return PlanCheck(False, len(plan.actions), "terminal arrangement misses the goal")
    return PlanCheck(True)


def _table_steps(scene: Scene, plan: Plan) -> tuple[OcclusionTable, list[_Step]]:
    """A table that indexes every point of ``plan`` on the floor, and the plan's steps in it.

    Each point is looked up once in ``OcclusionTable.shared(scene)``, which
    has every point of a plan ``plan()`` returns. When it lacks one, the
    steps are looked up again in a private ``OcclusionTable(scene, points)``
    that adds the plan's points to the scene's and leaves the store as it
    was. The two number the candidates alike and agree on every entry, so
    the optimiser's output does not depend on what the store held.
    """

    def steps_in(table: OcclusionTable) -> list[_Step]:
        key = table.get
        return [_Step(a.obj, key(a.src), key(a.dst)) for a in plan.actions]

    table = OcclusionTable.shared(scene)
    steps = steps_in(table)
    if any(step.src is None or step.dst is None for step in steps):
        table = OcclusionTable(scene, [p for a in plan.actions for p in (a.src, a.dst)])
        steps = steps_in(table)
    return table, steps


def _trail(table: OcclusionTable, start: Keys, steps: Sequence[_Step]) -> list[Keys]:
    """The trail of ``steps`` from ``start``: the arrangement before each step, then the final one.

    The optimiser's one replay, in table indices. A plan point the table
    lacks has the key None (see ``_table_steps``): its disc leaves the
    workspace, so no object stands there and a pick-up there does not match,
    and a step placing an object there leaves the workspace. A table point's
    disc lies in the workspace, so any other rejected step collides, as
    ``validate_plan`` says of it. The replay keeps the bit set of the points
    the objects stand on: a step clears its pick-up bit and sets its
    destination bit. No other object stands on the destination, since
    ``far(dst)`` lacks ``dst``. Raises ``InvalidPlanError``, with the step
    and reason ``validate_plan`` reports, when the steps do not replay.
    """
    arr, trail = list(start), []
    occupied = occupancy(arr)
    for k, step in enumerate(steps):
        reason = _pick_error(arr, step)
        if reason is None:
            others = occupied & ~(1 << step.src)
            if step.dst is None:
                reason = _LEAVES
            elif not table.move_valid(others, step.src, step.dst):
                reason = _COLLIDES
        if reason is not None:
            raise InvalidPlanError(f"input plan invalid at step {k}: {reason}")
        trail.append(tuple(arr))
        arr[step.obj] = step.dst
        occupied = others | 1 << step.dst
    trail.append(tuple(arr))
    return trail


def _as_plan(table: OcclusionTable, steps: Sequence[_Step]) -> Plan:
    """The plan of ``steps``: the one place that builds output ``Action`` objects."""
    point = table.points
    return Plan(tuple(Action(step.obj, point[step.src], point[step.dst]) for step in steps))


def _window(table: OcclusionTable, steps: Sequence[_Step], k: int, n: int, ok: int) -> int:
    """The points of bit set ``ok`` where an object may stand through steps ``k + 1`` to ``n - 1``.

    Those steps move other objects. An object standing on point ``q`` leaves
    such a step valid, given that it was valid without the object, iff ``q``
    is clear of the step's destination disc (``far(dst)``) and of both its
    tunnels (``row(src)`` and ``row(dst)``): ``move_valid`` tests each other
    object's point on its own. Stops as soon as no point of ``ok`` is left.
    """
    for m in range(k + 1, n):
        if not ok:
            break
        step = steps[m]
        ok &= table.far(step.dst) & ~(table.row(step.src) | table.row(step.dst))
    return ok


def _merge_pair(
    table: OcclusionTable, steps: list[_Step], trail: list[Keys], t: int, s: int
) -> tuple[list[_Step], list[Keys]] | None:
    """The plan and trail with consecutive moves ``t`` and ``s`` of one object merged.

    The two moves have other steps between them: adjacent ones merge in
    ``_collapse_runs``, with no check. The merged move replaces step ``t``
    and step ``s`` is dropped; a merge that puts the object back exactly
    where it was picked up drops both. The merge is decided without a
    replay. The steps between move other objects and were valid with the
    object on ``trail[s][obj]``; with it on its new point ``q = last.dst``
    they stay valid iff ``q`` is in their ``_window``: one bit, tested
    against each step. That test comes first: it costs less than the other,
    and on the benchmark's replay walks it rejects more pairs. The merged
    move must then pass ``move_valid`` on ``trail[t]``; a round trip has
    none. The merged plan then replays to ``trail[s + 1]``: the object goes
    from ``trail[t][obj]`` to ``q``, and the others as before. So the suffix
    replays as before and is kept as it is, and between the pair the trail
    takes the old arrangements with the object on ``q``. The answer equals
    ``tests/oracles.merge_by_replay``, which replays the merged move and the
    steps between. Returns None when the merge breaks the plan.
    """
    first, last = steps[t], steps[s]
    obj, src, q = first.obj, first.src, last.dst
    if not _window(table, steps, t, s, 1 << q):
        return None
    head, part = [], []
    if src != q:
        others = occupancy(trail[t]) & ~(1 << src)
        if not table.move_valid(others, src, q):
            return None
        head, part = [_Step(obj, src, q)], [trail[t]]
    part += [arr[:obj] + (q,) + arr[obj + 1 :] for arr in trail[t + 1 : s]]
    return steps[:t] + head + steps[t + 1 : s] + steps[s + 1 :], trail[:t] + part + trail[s + 1 :]


def _collapse_runs(steps: list[_Step], trail: list[Keys]) -> tuple[list[_Step], list[Keys]]:
    """Merge one object's moves in adjacent steps, in one left-to-right stack pass.

    A step that moves the object of the last kept step merges into it: the
    kept step takes the step's destination, or, when that is where the kept
    step picked the object up, both go and the steps on either side become
    adjacent. No merge needs a check: the merged move picks up where the
    first move did and places where the second did, among the same other
    objects, with no step between them for ``_window`` to test. A kept step
    starts from the arrangement it did, so the trail keeps the input
    entries of the kept steps and the end.
    """
    kept: list[_Step] = []
    before: list[Keys] = []
    for step, arr in zip(steps, trail):
        if not kept or kept[-1].obj != step.obj:
            kept.append(step)
            before.append(arr)
        elif kept[-1].src == step.dst:
            kept.pop()
            before.pop()
        else:
            kept[-1] = kept[-1]._replace(dst=step.dst)
    return kept, before + trail[-1:]


def _sweep_merge(
    table: OcclusionTable, steps: list[_Step], trail: list[Keys]
) -> tuple[list[_Step], list[Keys]]:
    """At most one merge per object, of two consecutive moves that are not adjacent steps.

    Objects go in order, and each one's pairs of consecutive moves are tried
    left to right (see ``_merge_pair``) on its move indices in the current
    steps, so the steps between a pair move only other objects.
    """
    for obj in sorted({step.obj for step in steps}):
        moves = [i for i, step in enumerate(steps) if step.obj == obj]
        for t, s in zip(moves, moves[1:]):
            merged = None if s == t + 1 else _merge_pair(table, steps, trail, t, s)
            if merged is not None:
                steps, trail = merged
                break
    return steps, trail


def _shorten(
    table: OcclusionTable, steps: list[_Step], trail: list[Keys]
) -> tuple[list[_Step], list[Keys]]:
    """``optimize_plan``'s merges on steps that replay and their trail, to a fixpoint.

    Every merge drops a step, so a round that drops none ends it.
    """
    while True:
        n = len(steps)
        steps, trail = _sweep_merge(table, *_collapse_runs(steps, trail))
        if len(steps) == n:
            return steps, trail


def optimize_plan(plan: Plan, scene: Scene) -> Plan:
    """Shorten a plan without breaking it.

    Merges two consecutive moves of one object whenever the merged move and
    the other objects' steps between them replay to the arrangement the
    plan had after the second move: first every pair in adjacent steps
    (``_collapse_runs``), then pairs with other steps between them
    (``_sweep_merge``), iterating both passes to a fixpoint (``_shorten``).
    Never increases the step count or the total displacement. Raises
    ``InvalidPlanError``, with the step and reason ``validate_plan``
    reports, when the input plan does not replay.

    The plan is replayed once, in the indices of its table
    (``_table_steps``, ``_trail``), and its trail of arrangements is then
    kept up to date through every merge. A merge replays nothing: an
    adjacent pair always merges, and ``_merge_pair`` decides the others on
    bit sets of the table and rebuilds the trail only for a merge it keeps.
    Each point is looked up in the table once, and the output's points are
    the table's: Points of floats, each equal to the input's.
    """
    table, steps = _table_steps(scene, plan)
    trail = _trail(table, tuple(map(table.index_of, scene.start)), steps)
    return _as_plan(table, _shorten(table, steps, trail)[0])


def _retarget_step(
    table: OcclusionTable, steps: list[_Step], trail: list[Keys], k: int, n: int, detours: Detours
) -> int | None:
    """The candidate to re-target buffer step ``k`` to, or None to keep its point.

    Step ``k`` puts its object on a buffer point and step ``n`` is the
    object's next move. A candidate ``b`` other than ``src_k`` and ``dst_n``
    whose detour ``d(src_k, b) + d(b, dst_n)`` is shorter than the buffer
    point's may take its place when the plan with ``src_k→b`` and ``b→dst_n``
    still replays: ``b``'s disc and placing sweep clear every other object at
    step ``k`` (``free``); ``b`` is in the ``_window`` of the steps in
    between, the rule ``_merge_pair`` applies to its new point; and its
    pick-up tunnel from ``b`` is clear at step ``n``. The others stand still
    in between, so these bit-set tests are the whole replay, and the first
    one that leaves no candidate ends it (``_window`` stops within the
    steps). The shorter candidates and their detours depend only on the
    three points, so ``detours`` keeps them for every scan of a ``_retarget``
    pass. Of the valid candidates, an ascending scan of the bits takes the
    least detour, moving only to a strictly shorter one: ties go to the
    lower index.
    """
    first, then = steps[k], steps[n]
    obj, src, via, dst = first.obj, first.src, first.dst, then.dst
    entry = detours.get((src, via, dst))
    if entry is None:
        detour = table.reach(src) + table.reach(dst)
        at = table.points
        current = distance(at[src], at[via]) + distance(at[via], at[dst])
        shorter = to_bits(detour < current) & ~(1 << src | 1 << dst)
        entry = detours[src, via, dst] = (shorter, detour, current)
    ok, detour, best = entry
    for p in other_points(trail[k], obj):
        ok &= table.free(p)
    if not ok:
        return None
    ok = _window(table, steps, k, n, ok)
    if not ok:
        return None
    for p in other_points(trail[n], obj):
        ok &= table.clear(p)
    b = None
    while ok:
        c = (ok & -ok).bit_length() - 1
        if detour[c] < best:
            b, best = c, detour[c]
        ok &= ok - 1
    return b


def _retarget(table: OcclusionTable, steps: list[_Step], trail: list[Keys]) -> None:
    """``retarget_buffers``' scans on table steps that replay and their trail, in place.

    Every scan tests every pair in order, and the scans repeat until one
    re-targets nothing. One ``detours`` memo serves all of them.
    """
    following: dict[int, int] = {}  # buffer step -> the same object's next step
    last: dict[ObjectId, int] = {}
    for n, step in enumerate(steps):
        if step.obj in last:
            following[last[step.obj]] = n
        last[step.obj] = n
    detours: Detours = {}
    changed = True
    while changed:
        changed = False
        for k, n in sorted(following.items()):
            b = _retarget_step(table, steps, trail, k, n, detours)
            if b is None:
                continue
            obj = steps[k].obj
            steps[k], steps[n] = steps[k]._replace(dst=b), steps[n]._replace(src=b)
            for m in range(k + 1, n + 1):
                trail[m] = trail[m][:obj] + (b,) + trail[m][obj + 1 :]
            changed = True


def retarget_buffers(plan: Plan, scene: Scene) -> Plan:
    """Move each buffer step's object to the valid candidate with the least detour.

    A buffer step puts an object down where it does not stay: the object
    moves again later. ``new_region`` picks buffer points near where the
    object stands, not on the way to where it goes next, so the detour
    through a buffer point can often be shortened. Each scan tests every
    buffer step in order and re-targets it as ``_retarget_step`` decides,
    and the scans repeat until one re-targets nothing (``_retarget``). The
    plan keeps its steps and its final arrangement, and its displacement
    only shrinks. A step's shorter candidates and their detours are worked
    out once per ``(src, buffer point, dst)`` for all the scans.

    The plan is replayed once, in the indices of its table
    (``_table_steps``, ``_trail``), into a trail of arrangements as in
    ``optimize_plan``. A re-target from step ``k`` to ``n`` leaves the trail
    alone up to ``k`` and from ``n + 1`` on; in between, replaying the steps
    would give the old arrangements with the object at its new point, so
    that is what the trail gets. The output equals
    ``tests/oracles.retarget_by_full_replay``, which replays the whole plan
    for every trial. Raises ``InvalidPlanError``, with the step and reason
    ``validate_plan`` reports, when the input plan does not replay.
    """
    table, steps = _table_steps(scene, plan)
    _retarget(table, steps, _trail(table, tuple(map(table.index_of, scene.start)), steps))
    return _as_plan(table, steps)


def plan(scene: Scene, budget: SearchBudget | None = None, seed: int = 0) -> PlanReport:
    """Plan the full rearrangement.

    Solves one stage per object in topology order, feeding each stage's end
    arrangement into the next, then optimizes the concatenated sub-plans,
    re-targets their buffer moves and optimizes again: the result is
    ``optimize_plan(retarget_buffers(optimize_plan(raw)))`` for the search's
    raw plan ``raw``. The stages run in the indices of
    ``OcclusionTable.shared(scene)``, which indexes the start once, and
    their moves are collected as table steps. Those steps are replayed once
    into their trail by ``_trail`` (``InvalidPlanError`` if the search made
    an invalid move), and the first two passes run on that one trail, as
    ``optimize_plan`` and ``retarget_buffers`` run on the trail of the plan
    they are given (``_shorten``, ``_retarget``). ``_as_plan`` then
    builds the plan's ``Action``s once, for the final ``optimize_plan``.
    The wall-clock budget is split evenly across the remaining stages, so
    time unused by early stages rolls forward. A seed that is not a
    non-negative int (bools included), or a budget that is neither a
    ``SearchBudget`` nor None, is a ValueError.
    """
    require_int("seed", seed, 0)
    budget = require_budget(budget)
    t0 = time.perf_counter()
    limit = budget.wall_clock_limit
    deadline = None if limit is None else time.monotonic() + limit

    def report(success: bool, result: Plan | None, kind: str | None) -> PlanReport:
        return PlanReport(success, result, time.perf_counter() - t0, kind)

    if scene.start == scene.goal:
        return report(True, Plan(()), None)
    try:
        order = tuple(stage_order(build_dependency_graph(scene), scene))
    except CycleError:
        return report(False, None, "topology-cycle")
    rng = np.random.default_rng(seed)
    # Entries fill as the search asks, and later plans on the same shelf reuse them.
    table = OcclusionTable.shared(scene)
    start: Keys = tuple(map(table.index_of, scene.start))
    positions = list(start)
    steps: list[_Step] = []
    ctx = StageContext(scene, order, 0, table)
    for index in range(len(order)):
        if index:
            ctx = ctx.at(index)  # shares the plan's goal indices and checks
        stage_budget = budget
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return report(False, None, "timeout")
            stage_budget = SearchBudget(budget.max_iterations, remaining / (len(order) - index))
        try:
            chunk = solve_stage(ctx, positions, stage_budget, rng)
        except StageIterationLimit:
            return report(False, None, "iteration-limit")
        except StageTimeout:
            return report(False, None, "timeout")
        except StageExhausted:
            return report(False, None, "stage-exhausted")
        for obj, dst in chunk:
            steps.append(_Step(obj, positions[obj], dst))
            positions[obj] = dst
    steps, trail = _shorten(table, steps, _trail(table, start, steps))
    _retarget(table, steps, trail)
    return report(True, optimize_plan(_as_plan(table, steps), scene), None)


def plan_to_dict(plan: Plan, wall_time: float | None = None) -> dict:
    return {
        "actions": [
            {"object": a.obj, "from": [a.src.x, a.src.y], "to": [a.dst.x, a.dst.y]}
            for a in plan.actions
        ],
        "steps": plan.steps,
        "total_displacement": plan.total_displacement,
        "wall_time": wall_time,
    }


def _action_from_dict(entry: dict, step: int) -> Action:
    obj = entry["object"]
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise TypeError(f"actions[{step}] object must be an integer, not {type(obj).__name__}")
    src = point_from_json(entry["from"], f"actions[{step}] from")
    return Action(obj, src, point_from_json(entry["to"], f"actions[{step}] to"))


def plan_from_dict(data: dict) -> Plan:
    """Plan of a ``plan_to_dict`` mapping.

    Malformed input raises ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    actions = list_from_json(data["actions"], "actions")
    return Plan(tuple(_action_from_dict(entry, i) for i, entry in enumerate(actions)))


def plan_to_json(plan: Plan, wall_time: float | None = None, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan, wall_time), sort_keys=True, indent=indent)


def plan_from_json(text: str) -> Plan:
    return plan_from_dict(json.loads(text))
