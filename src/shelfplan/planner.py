"""Multi-stage planning: one tree search per object in topology order, then
plan optimization and an independent replay validator."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .geometry import TOL, Point
from .mcts import SearchBudget, StageContext, StageExhausted, StageTimeout, solve_stage
from .motion import Action, action_valid
from .occlusion import OcclusionTable
from .scene import Scene
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


def _replay(scene: Scene, actions: tuple[Action, ...]):
    """Replay actions from the start arrangement.

    Returns ``(failed_step, reason, final_positions)``; the step and reason are
    None when every action was applicable and collision-free.
    """
    positions = list(scene.start)
    coords = np.array(positions, dtype=float)  # the same arrangement, as action_valid reads it
    n = len(positions)
    for step, act in enumerate(actions):
        if not 0 <= act.obj < n:
            return step, f"unknown object {act.obj}", None
        current = positions[act.obj]
        if abs(current.x - act.src.x) > TOL or abs(current.y - act.src.y) > TOL:
            return step, "pick location does not match the object's current region", None
        if not action_valid(scene, coords, act):
            return step, "relocation is not collision-free", None
        positions[act.obj] = act.dst
        coords[act.obj] = act.dst
    return None, None, positions


def validate_plan(scene: Scene, plan: Plan) -> PlanCheck:
    """Independent replay check: every step valid and the goal reached."""
    step, reason, final = _replay(scene, plan.actions)
    if step is not None:
        return PlanCheck(False, step, reason)
    final_arr = np.asarray(final, dtype=float)
    if np.abs(final_arr - scene.goal_array).max() > _GOAL_TOL:
        return PlanCheck(False, len(plan.actions), "terminal arrangement misses the goal")
    return PlanCheck(True)


def _collapse_runs(actions: list[Action]) -> list[Action]:
    """Merge consecutive moves of the same object into one relocation.

    A run that returns the object to where it started disappears entirely.
    """
    out: list[Action] = []
    for act in actions:
        if out and out[-1].obj == act.obj:
            prev = out.pop()
            if prev.src != act.dst:
                out.append(Action(act.obj, prev.src, act.dst))
        else:
            out.append(act)
    return out


def _same_outcome(scene: Scene, candidate: list[Action], reference_final) -> bool:
    step, _, final = _replay(scene, tuple(candidate))
    if step is not None:
        return False
    return all(
        abs(a.x - b.x) <= TOL and abs(a.y - b.y) <= TOL for a, b in zip(final, reference_final)
    )


def _sweep_merge(scene: Scene, actions: list[Action]) -> tuple[list[Action], bool]:
    """One merge attempt per object over non-adjacent same-object pairs.

    Pairs are scanned left-to-right, outermost partner first; a merge is kept
    only when the shortened plan still replays collision-free to the same
    final arrangement.
    """
    _, _, reference_final = _replay(scene, tuple(actions))
    changed = False
    for obj in sorted({a.obj for a in actions}):
        indices = [i for i, a in enumerate(actions) if a.obj == obj]
        if len(indices) < 2:
            continue
        merged = False
        for ti in range(len(indices) - 1):
            for si in range(len(indices) - 1, ti, -1):
                t, s = indices[ti], indices[si]
                if s == t + 1:
                    continue  # adjacent runs belong to the collapse pass
                first, last = actions[t], actions[s]
                if first.src == last.dst:
                    candidate = actions[:t] + actions[t + 1 : s] + actions[s + 1 :]
                else:
                    candidate = (
                        actions[:t]
                        + [Action(obj, first.src, last.dst)]
                        + actions[t + 1 : s]
                        + actions[s + 1 :]
                    )
                if _same_outcome(scene, candidate, reference_final):
                    actions = candidate
                    changed = True
                    merged = True
                    break
            if merged:
                break
    return actions, changed


def optimize_plan(plan: Plan, scene: Scene) -> Plan:
    """Shorten a plan without breaking it.

    First collapses consecutive same-object moves, then repeatedly merges
    non-adjacent same-object pairs whenever the plan in between still replays
    without collision, iterating both passes to a fixpoint. Never increases
    the step count or the total displacement.
    """
    step, reason, _ = _replay(scene, plan.actions)
    if step is not None:
        raise InvalidPlanError(f"input plan invalid at step {step}: {reason}")
    actions = list(plan.actions)
    while True:
        collapsed = _collapse_runs(actions)
        changed = collapsed != actions
        actions = collapsed
        actions, swept = _sweep_merge(scene, actions)
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
    deadline = None
    if budget.wall_clock_limit is not None:
        deadline = time.monotonic() + budget.wall_clock_limit

    def report(success: bool, result: Plan | None, kind: str | None) -> PlanReport:
        return PlanReport(success, result, time.perf_counter() - t0, kind)

    try:
        order = stage_order(build_dependency_graph(scene), scene)
    except CycleError:
        return report(False, None, "topology-cycle")
    rng = np.random.default_rng(seed)
    table = OcclusionTable(scene)  # lives for this run only: its entries fill as the search asks
    positions = list(scene.start)
    actions: list[Action] = []
    for index in range(len(order)):
        ctx = StageContext.for_stage(scene, order, index, table)
        stage_deadline = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return report(False, None, "timeout")
            stage_deadline = time.monotonic() + remaining / (len(order) - index)
        try:
            chunk = solve_stage(ctx, tuple(positions), budget, rng, deadline=stage_deadline)
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


def plan_from_dict(data: dict) -> Plan:
    return Plan(
        tuple(
            Action(
                int(entry["object"]),
                Point(float(entry["from"][0]), float(entry["from"][1])),
                Point(float(entry["to"][0]), float(entry["to"][1])),
            )
            for entry in data["actions"]
        )
    )


def plan_to_json(plan: Plan, wall_time: float | None = None, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan, wall_time), sort_keys=True, indent=indent)


def plan_from_json(text: str) -> Plan:
    return plan_from_dict(json.loads(text))
