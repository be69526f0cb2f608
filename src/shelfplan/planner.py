"""Multi-stage planning: one tree search per object in topology order, then
plan optimization and an independent replay validator."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import TOL, Disc, Point, disc_in_workspace
from .mcts import SearchBudget, StageContext, StageExhausted, StageTimeout, solve_stage
from .motion import Action, action_valid
from .occlusion import OcclusionTable
from .scene import Scene, list_from_json, point_from_json
from .topology import CycleError, build_dependency_graph, stage_order

_GOAL_TOL = 1e-6  # per-coordinate tolerance for the terminal arrangement


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
    failure_kind: str | None  # "timeout" | "stage-exhausted" | "topology-cycle"


# Why a step cannot be applied to the current points of all objects, or None.
StepCheck = Callable[[list[Point], Action], "str | None"]

_LEAVES = "destination leaves the workspace"
_COLLIDES = "relocation is not collision-free"


def _replay(
    actions: Sequence[Action],
    positions: list[Point],
    check: StepCheck,
    trail: list[tuple[Point, ...]] | None = None,
) -> tuple[int | None, str | None]:
    """Replay actions on ``positions``, the current point of every object, in place.

    Each step must name a known object and pick it up within ``TOL`` of its
    current point, and then pass ``check``. Returns ``(failed_step, reason)``,
    both None when every action applied. With ``trail``, appends the
    arrangement before each applied step.
    """
    n = len(positions)
    for step, act in enumerate(actions):
        if not 0 <= act.obj < n:
            return step, f"unknown object {act.obj}"
        current = positions[act.obj]
        if not (abs(current.x - act.src.x) <= TOL and abs(current.y - act.src.y) <= TOL):
            return step, "pick location does not match the object's current region"
        reason = check(positions, act)
        if reason is not None:
            return step, reason
        if trail is not None:
            trail.append(tuple(positions))
        positions[act.obj] = act.dst
    return None, None


def _float_check(scene: Scene) -> StepCheck:
    """Step check on the float geometry: the validator's, independent of the table."""
    b, workspace = scene.object_radius, scene.workspace

    def check(positions: list[Point], act: Action) -> str | None:
        if action_valid(scene, positions, act):
            return None
        return _COLLIDES if disc_in_workspace(Disc(Point(*act.dst), b), workspace) else _LEAVES

    return check


def _table_check(table: OcclusionTable) -> StepCheck:
    """Step check looked up in an occlusion table that indexes every point of the plan.

    A table point's disc lies in the workspace, so a rejected step collides.
    """
    index_of = table.index_of

    def check(positions: list[Point], act: Action) -> str | None:
        others = 0
        for obj, p in enumerate(positions):
            if obj != act.obj:
                others |= 1 << index_of(p)
        if table.move_valid(index_of(act.src), index_of(act.dst), others):
            return None
        return _COLLIDES

    return check


def validate_plan(scene: Scene, plan: Plan) -> PlanCheck:
    """Independent replay check on the float geometry: every step valid and the goal reached."""
    positions = list(scene.start)
    step, reason = _replay(plan.actions, positions, _float_check(scene))
    if step is not None:
        return PlanCheck(False, step, reason)
    if not _within_tol(positions, scene.goal, _GOAL_TOL):
        return PlanCheck(False, len(plan.actions), "terminal arrangement misses the goal")
    return PlanCheck(True)


def _collapse_runs(actions: list[Action], start: Sequence[Point]) -> list[Action]:
    """Merge consecutive moves of the same object into one relocation.

    A run that returns the object exactly to the point it stood on disappears.
    A return only within ``TOL`` of that point keeps its last two moves, since
    later pick-ups may rely on the point it was returned to.
    """
    out: list[Action] = []
    for act in actions:
        if out and out[-1].obj == act.obj:
            prev = out.pop()
            if prev.src != act.dst:
                out.append(Action(act.obj, prev.src, act.dst))
            elif act.dst != next(
                (a.dst for a in reversed(out) if a.obj == act.obj), start[act.obj]
            ):
                out += [prev, act]
        else:
            out.append(act)
    return out


def _within_tol(a: Sequence[Point], b: Sequence[Point], tol: float = TOL) -> bool:
    return all(abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol for p, q in zip(a, b))


def _sweep_merge(
    actions: list[Action], start: Sequence[Point], check: StepCheck
) -> tuple[list[Action], bool]:
    """One merge attempt per object over non-adjacent same-object pairs.

    Pairs are scanned left-to-right, outermost partner first; a merge is kept
    only when the shortened plan still replays collision-free to the same
    final arrangement (within ``TOL``) as the plan at the start of the sweep.

    The sweep keeps the plan's trail: ``trail[k]`` is the arrangement before
    step ``k``, and ``trail[-1]`` the final one. Merging the pair ``(t, s)``
    leaves the steps before ``t`` alone, so only the merged move and
    ``actions[t+1:s]`` are replayed, from ``trail[t]``. When that replay ends
    exactly on ``trail[s+1]``, the unchanged suffix replays exactly as before
    and the merge is kept without replaying it. Otherwise the suffix is
    replayed as well, so every decision is that of a full replay.
    """
    positions = list(start)
    trail: list[tuple[Point, ...]] = []
    step, reason = _replay(actions, positions, check, trail)
    assert step is None, f"collapsing broke the plan at step {step}: {reason}"
    reference_final = tuple(positions)
    trail.append(reference_final)
    changed = False
    for obj in sorted({a.obj for a in actions}):
        indices = [i for i, a in enumerate(actions) if a.obj == obj]
        for ti in range(len(indices) - 1):
            merged = False
            for si in range(len(indices) - 1, ti, -1):
                t, s = indices[ti], indices[si]
                if s == t + 1:
                    continue  # adjacent runs belong to the collapse pass
                first, last = actions[t], actions[s]
                middle = actions[t + 1 : s]
                if first.src != last.dst:
                    middle = [Action(obj, first.src, last.dst)] + middle
                positions = list(trail[t])
                steps: list[tuple[Point, ...]] = []
                if _replay(middle, positions, check, steps)[0] is not None:
                    continue
                if tuple(positions) == trail[s + 1]:
                    tail = trail[s + 1 :]
                else:
                    if _replay(actions[s + 1 :], positions, check, steps)[0] is not None:
                        continue
                    if not _within_tol(positions, reference_final):
                        continue
                    tail = [tuple(positions)]
                actions = actions[:t] + middle + actions[s + 1 :]
                trail = trail[:t] + steps + tail
                changed = merged = True
                break
            if merged:
                break
    return actions, changed


def optimize_plan(plan: Plan, scene: Scene) -> Plan:
    """Shorten a plan without breaking it.

    First collapses consecutive same-object moves, then repeatedly merges
    non-adjacent same-object pairs whenever the plan in between still replays
    without collision, iterating both passes to a fixpoint. Never increases
    the step count or the total displacement. Raises ``InvalidPlanError``,
    with the step and reason ``validate_plan`` reports, when the input plan
    does not replay.

    A merge replays only the steps it changes (see ``_sweep_merge``). When
    ``OcclusionTable.shared(scene)`` indexes every pick-up and destination of
    the plan, as it does for every plan ``plan()`` returns, each step is
    looked up in that table. Otherwise, say for an off-grid destination or a
    pick-up within ``TOL`` of an object's position, every step is checked on
    the validator's float geometry, which gives the same answers.
    """
    table = OcclusionTable.shared(scene)
    if table.covers(p for a in plan.actions for p in (a.src, a.dst)):
        check = _table_check(table)
    else:
        check = _float_check(scene)
    step, reason = _replay(plan.actions, list(scene.start), check)
    if step is not None:
        raise InvalidPlanError(f"input plan invalid at step {step}: {reason}")
    actions = list(plan.actions)
    while True:
        collapsed = _collapse_runs(actions, scene.start)
        changed = collapsed != actions
        actions = collapsed
        actions, swept = _sweep_merge(actions, scene.start, check)
        if not (changed or swept):
            return Plan(tuple(actions))


def plan(scene: Scene, budget: SearchBudget | None = None, seed: int = 0) -> PlanReport:
    """Plan the full rearrangement.

    Solves one stage per object in topology order, feeding each stage's end
    arrangement into the next, then optimizes the concatenated sub-plans.
    The wall-clock budget is split evenly across the remaining stages, so
    time unused by early stages rolls forward.
    """
    if budget is None:
        budget = SearchBudget()
    t0 = time.perf_counter()
    limit = budget.wall_clock_limit
    deadline = None if limit is None else time.monotonic() + limit

    def report(success: bool, result: Plan | None, kind: str | None) -> PlanReport:
        return PlanReport(success, result, time.perf_counter() - t0, kind)

    try:
        order = stage_order(build_dependency_graph(scene), scene)
    except CycleError:
        return report(False, None, "topology-cycle")
    rng = np.random.default_rng(seed)
    # Entries fill as the search asks, and later plans on the same shelf reuse them.
    table = OcclusionTable.shared(scene)
    positions = list(scene.start)
    actions: list[Action] = []
    for index in range(len(order)):
        ctx = StageContext(scene, tuple(order), index, table)
        stage_budget = budget
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return report(False, None, "timeout")
            stage_budget = SearchBudget(budget.max_iterations, remaining / (len(order) - index))
        try:
            chunk = solve_stage(ctx, tuple(positions), stage_budget, rng)
        except StageTimeout:
            return report(False, None, "timeout")
        except StageExhausted:
            return report(False, None, "stage-exhausted")
        for act in chunk:
            positions[act.obj] = act.dst
        actions.extend(chunk)
    optimized = optimize_plan(Plan(tuple(actions)), scene)
    return report(True, optimized, None)


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
