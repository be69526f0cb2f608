"""Single-stage Monte Carlo tree search that drives one focus object to its goal.

Tree nodes carry full object arrangements as index vectors: entry ``k`` is
the index of object ``k``'s position among the points of the plan's
``OcclusionTable``, and every collision question is a bit-set lookup in that
table. Edges are single relocations, recorded as ``Move``s: the object and
the table index of its destination. A stage starts from an index vector and
returns its chain as ``Move``s, so no Point or ``Action`` enters the search.
Expansion is subgoal-focused: it only proposes relocations that clear the
focus object's pickup and placement tunnels (or, recursively, the pickup
tunnels of the objects doing the clearing). Rewards are negated
displacement distances, so the search prefers short detours and nearby
buffer regions.

A stage is complete once the focus object rests at its goal and no remaining
movable object would have its pickup tunnel blocked by the finished focus;
that second condition keeps later stages reachable.

The search is anytime: a rollout draws from the same candidate moves as
expansion, so the tree path to a node plus the node's completed rollout is a
valid sub-plan. The stage keeps the cheapest such trajectory (or completing
child) and returns it once the root has been expanded, rather than waiting
for a tree node to complete the stage.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .geometry import distance
from .occlusion import OcclusionTable, occupancy, other_points
from .scene import ObjectId, Scene, require_int

# Search settings of the paper's MS-MCTS; every workload runs these values.
EXPANSION_WIDTH = 5  # buffer regions proposed per blocker
EXPLORATION_CONSTANT = math.sqrt(2.0)  # UCB constant on min-max normalised rewards
STUCK_DEPTH_PER_OBJECT = 3  # from depth 3·n on, expansion moves any accessible object
ROLLOUT_STEPS_PER_OBJECT = 4  # a rollout stops after 4·n relocations

# A relocation: the object and the table index of its destination.
Move = tuple[ObjectId, int]


class StageFailure(RuntimeError):
    """A single-stage search could not produce a sub-plan."""


class StageTimeout(StageFailure):
    """The stage ran out of wall-clock time (or, as a subclass, of iterations)."""


class StageIterationLimit(StageTimeout):
    """The stage ran out of iterations (``SearchBudget.max_iterations``)."""


class StageExhausted(StageFailure):
    """Every branch of the stage tree is dead; no sub-plan exists."""


class ExpansionExhausted(StageFailure):
    """A node admits no child relocation at all."""


@dataclass(frozen=True)
class StageContext:
    """Stage ``index`` of the stage ``order``: its table and a memo of moves.

    The focus is ``order[index]``, the objects before it are done and stay
    put, and it and the ones after it may move. ``table`` is any occlusion
    table of the scene's shelf. ``move_memo`` is the stage's transposition
    table: it fills as the search reaches arrangements, and it is dropped with
    the context.

    Building a context checks that ``order`` permutes the scene's objects,
    that ``table`` serves the scene and that ``index`` is a stage of
    ``order``, each a ``ValueError``, and works out the derived fields once:
    the search reads them in every round. ``at`` gives another stage of the
    same plan without repeating the plan-level work, so ``plan()`` builds its
    first stage and steps to the others with it.
    """

    scene: Scene
    order: tuple[ObjectId, ...]
    index: int
    table: OcclusionTable
    focus: ObjectId = field(init=False, repr=False, compare=False)
    movable_ids: tuple[ObjectId, ...] = field(init=False, repr=False, compare=False)
    goal_indices: list[int] = field(init=False, repr=False, compare=False)
    focus_goal: int = field(init=False, repr=False, compare=False)
    movers_except_focus: tuple[ObjectId, ...] = field(init=False, repr=False, compare=False)
    # ``_candidate_moves`` results, keyed by ``(arrangement, stuck)``.
    move_memo: dict[tuple[tuple[int, ...], bool], tuple[Move, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(self.scene.n_objects)):
            raise ValueError("stage order must permute the scene's objects and index one of them")
        if not self.table.serves(self.scene):
            raise ValueError("occlusion table belongs to another shelf")
        vars(self)["goal_indices"] = self.table.indices(self.scene.goal)
        self._enter(self.index)

    def at(self, index: int) -> StageContext:
        """Stage ``index`` of the same plan, sharing this context's plan-level facts.

        Equal to ``StageContext(scene, order, index, table)``, with a memo of
        its own; an index outside ``order`` is a ``ValueError``.
        """
        other = copy.copy(self)
        other._enter(index)
        return other

    def _enter(self, index: int) -> None:
        """Make this the context of stage ``index``: its per-stage fields and an empty memo."""
        order = self.order
        if not 0 <= index < len(order):
            raise ValueError("stage order must permute the scene's objects and index one of them")
        focus = order[index]
        movable = tuple(sorted(order[index:]))
        vars(self).update(  # past the frozen dataclass's __setattr__
            index=index,
            focus=focus,
            movable_ids=movable,
            focus_goal=self.goal_indices[focus],
            movers_except_focus=tuple(o for o in movable if o != focus),
            move_memo={},
        )


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one planning run: MCTS iterations per stage and wall-clock seconds."""

    max_iterations: int = 10_000
    wall_clock_limit: float | None = 30.0

    def __post_init__(self) -> None:
        require_int("max_iterations", self.max_iterations, 1)
        t = self.wall_clock_limit
        # A limit of 0 or less times out before any search, and nan never does.
        if t is not None and (isinstance(t, bool) or not isinstance(t, Real) or not t > 0):
            raise ValueError(f"wall_clock_limit must be positive seconds or None, not {t!r}")


def require_budget(budget) -> SearchBudget:
    """``budget``, or the default ``SearchBudget`` for None; anything else is a ``ValueError``."""
    if budget is None:
        return SearchBudget()
    if not isinstance(budget, SearchBudget):
        raise ValueError(f"budget must be a SearchBudget or None, not {budget!r}")
    return budget


class SearchNode:
    """One tree node: an arrangement as an index vector, plus search statistics."""

    __slots__ = (
        "positions",
        "incoming",
        "parent",
        "children",
        "depth",
        "path_cost",
        "visits",
        "total_reward",
        "dead",
    )

    def __init__(
        self,
        positions: list[int],
        incoming: Move | None = None,
        parent: "SearchNode | None" = None,
        edge_cost: float = 0.0,
    ) -> None:
        self.positions = positions
        self.incoming = incoming
        self.parent = parent
        self.children: list[SearchNode] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self.path_cost = 0.0 if parent is None else parent.path_cost + edge_cost
        self.visits = 0
        self.total_reward = 0.0
        self.dead = False


def blocked_pickups_at_goal(ctx: StageContext, positions: list[int]) -> set[ObjectId]:
    """Movable objects whose pickup tunnel the focus would block once at its goal."""
    rows = ctx.table.row
    goal = ctx.focus_goal
    return {obj for obj in ctx.movers_except_focus if rows(positions[obj]) >> goal & 1}


def stage_complete(ctx: StageContext, positions: list[int]) -> bool:
    """Focus rests at its goal and traps nobody's pickup tunnel there."""
    if positions[ctx.focus] != ctx.focus_goal:
        return False
    return not blocked_pickups_at_goal(ctx, positions)


def get_blocking_objects(ctx: StageContext, positions: list[int]) -> set[ObjectId]:
    """Movable objects standing between the focus and its finished goal.

    Collected are objects that touch the focus's pickup tunnel, objects that
    touch its goal placing tunnel, and objects whose own pickup tunnel would be
    blocked by the focus disc parked at the goal.
    """
    movers = ctx.movers_except_focus
    if not movers:
        return set()
    table = ctx.table
    hit = table.row(positions[ctx.focus]) | table.row(ctx.focus_goal)
    out = {obj for obj in movers if hit >> positions[obj] & 1}
    out |= blocked_pickups_at_goal(ctx, positions)
    return out


def new_region(
    ctx: StageContext,
    obj: ObjectId,
    deps: set[ObjectId],
    positions: list[int],
    keep_goal_access: bool = False,
) -> list[int]:
    """Up to ``EXPANSION_WIDTH`` buffer regions for ``obj`` as candidate indices, nearest first.

    A candidate other than the object's own point is accepted when its disc
    avoids every other object, stays off the focus's pickup and goal-placing
    tunnels and off the current pickup tunnels of all ``deps`` objects, and
    the placing motion to it sweeps past nobody. With ``keep_goal_access`` the
    candidate's own future pickup tunnel must additionally clear the focus
    disc parked at its goal, so the object does not land in a spot it could
    never leave once the stage finishes.
    Ties in distance fall to the lower grid index. The disc and sweep tests
    are one ``free`` entry per other object, and the nearest-first pick is
    ``OcclusionTable.closest``, bit-set operations on the ``ranked`` entry of
    the object's point; a bit set that ends empty returns ``[]`` before that
    entry is looked up.
    """
    table = ctx.table
    blocked = table.row(positions[ctx.focus]) | table.row(ctx.focus_goal)
    for d in deps - {obj}:
        blocked |= table.row(positions[d])
    own = 1 << positions[obj]  # staying put is not a move
    ok = ((1 << table.n_candidates) - 1) & ~(blocked | own)
    for j in other_points(positions, obj):
        ok &= table.free(j)
    if keep_goal_access and obj != ctx.focus:
        ok &= table.clear(ctx.focus_goal)
    if not ok:
        return []
    return table.closest(positions[obj], ok, EXPANSION_WIDTH)


def _direct_move(ctx: StageContext, positions: list[int]) -> tuple[Move, ...]:
    focus, goal = ctx.focus, ctx.focus_goal
    src = positions[focus]
    if src != goal and ctx.table.move_valid(occupancy(positions) & ~(1 << src), src, goal):
        return ((focus, goal),)
    return ()


def _accessible_movables(ctx: StageContext, positions: list[int]) -> set[ObjectId]:
    """Movable objects whose pickup tunnel currently touches no other disc."""
    rows = ctx.table.row
    return {
        obj
        for obj in ctx.movable_ids
        if not any(rows(positions[obj]) >> j & 1 for j in other_points(positions, obj))
    }


def _relocation_moves(
    ctx: StageContext, positions: list[int], blockers: set[ObjectId]
) -> tuple[Move, ...]:
    """Candidate relocations that clear the given blockers out of the way.

    Accessible blockers go straight to their goal when that is collision-free
    and keeps the focus's tunnels clear, otherwise to nearby buffer regions
    that spare the pickup tunnels of earlier-topology objects. A blocker whose
    own pickup tunnel is blocked is cleared indirectly by relocating whatever
    blocks it; anything still unreachable is retried in the next wave.
    """
    table = ctx.table
    focus = ctx.focus
    goal_idx = ctx.goal_indices
    movable = ctx.movable_ids
    occupied = occupancy(positions)
    moves: dict[Move, None] = {}  # insertion-ordered; a repeat keeps its first place

    def tunnel_blockers(obj: ObjectId, t: int) -> list[ObjectId]:
        # Movable objects other than obj whose disc the home tunnel to point t touches.
        hits = table.row(t)
        return [o for o in movable if o != obj and hits >> positions[o] & 1]

    def buffer_moves(obj: ObjectId, extra_dep: ObjectId | None = None) -> None:
        # Try the longest prefix of earlier-topology objects first and relax
        # the protected set until some buffer region survives. Spots the
        # finished focus would trap are a last resort only.
        for keep_access in (True, False):
            for cut in range(ctx.order.index(obj), -1, -1):
                deps = set(ctx.order[:cut])
                if extra_dep is not None:
                    deps.add(extra_dep)
                found = new_region(ctx, obj, deps, positions, keep_goal_access=keep_access)
                if found:
                    for i in found:
                        moves[obj, i] = None
                    return

    current = set(blockers)
    processed: set[ObjectId] = set()
    while True:
        next_wave: set[ObjectId] = set()
        for o_i in sorted(current):
            processed.add(o_i)
            src = positions[o_i]
            pick_blockers = tunnel_blockers(o_i, src)
            if not pick_blockers:
                goal = goal_idx[o_i]
                goal_move_ok = False
                if src != goal:
                    if o_i == focus:
                        goal_move_ok = not blocked_pickups_at_goal(ctx, positions)
                    else:
                        focus_tunnels = table.row(positions[focus]) | table.row(ctx.focus_goal)
                        goal_move_ok = not focus_tunnels >> goal & 1
                    goal_move_ok = goal_move_ok and table.move_valid(
                        occupied & ~(1 << src), src, goal
                    )
                if goal_move_ok:
                    moves[o_i, goal] = None
                else:
                    buffer_moves(o_i)
            else:
                for o_j in pick_blockers:
                    if tunnel_blockers(o_j, positions[o_j]):
                        next_wave.add(o_j)  # not reachable yet either
                    else:
                        buffer_moves(o_j, extra_dep=o_i)
        if moves:
            return tuple(moves)
        pending = next_wave - processed
        if not pending:
            return ()
        current = pending


def _candidate_moves(
    ctx: StageContext, positions: list[int], stuck: bool = False
) -> tuple[Move, ...]:
    """Relocations that clear the focus's blockers, or its direct move once none is left.

    In ``stuck`` mode the blockers are replaced by every currently accessible
    movable object, widening the tree enough to escape local dead ends.

    The moves depend only on the stage, the arrangement and ``stuck`` (the
    table is a cache of pure geometry, and no rng is drawn), so each result
    is kept in ``ctx.move_memo`` and an arrangement the stage reaches again,
    in a rollout or an expansion, reuses it.
    """
    key = (tuple(positions), stuck)
    moves = ctx.move_memo.get(key)
    if moves is None:
        moves = ctx.move_memo[key] = _fresh_candidate_moves(ctx, positions, stuck)
    return moves


def _fresh_candidate_moves(
    ctx: StageContext, positions: list[int], stuck: bool
) -> tuple[Move, ...]:
    blockers = get_blocking_objects(ctx, positions)
    if not blockers:
        return _direct_move(ctx, positions)
    if stuck:
        blockers = _accessible_movables(ctx, positions)
    return _relocation_moves(ctx, positions, blockers)


def select(root: SearchNode, c: float) -> SearchNode:
    """Descend from the root to a leaf by maximum upper confidence bound.

    Each child's mean reward is min-max normalized across its live siblings,
    making the exploration constant scale-free; when every live mean is the
    same (a spread of exactly 0) each scores 0.5, so exploration alone
    decides. Unvisited children score infinity and are taken in creation
    order. Dead subtrees are skipped.
    """
    node = root
    while node.children:
        live = [ch for ch in node.children if not ch.dead]
        chosen = None
        for ch in live:
            if ch.visits == 0:
                chosen = ch
                break
        if chosen is None:
            means = [ch.total_reward / ch.visits for ch in live]
            lo = min(means)
            spread = max(means) - lo
            log_visits = math.log(max(node.visits, 1))
            best = -math.inf
            for ch, mean in zip(live, means):
                normalized = 0.5 if spread == 0.0 else (mean - lo) / spread
                score = normalized + c * math.sqrt(log_visits / ch.visits)
                if score > best:
                    best = score
                    chosen = ch
        node = chosen
    return node


def expand(ctx: StageContext, node: SearchNode) -> SearchNode:
    """Create all children of a visited node and return the first one.

    From depth ``STUCK_DEPTH_PER_OBJECT`` times the object count on, candidate
    moves are generated in stuck mode. Raises ``ExpansionExhausted`` when no
    child exists.
    """
    pos = node.positions
    moves = _candidate_moves(ctx, pos, stuck=node.depth >= STUCK_DEPTH_PER_OBJECT * len(pos))
    if not moves:
        raise ExpansionExhausted(f"no relocation possible at depth {node.depth}")
    points = ctx.table.points
    for obj, dst in moves:
        updated = list(pos)
        updated[obj] = dst
        cost = distance(points[pos[obj]], points[dst])
        node.children.append(SearchNode(updated, (obj, dst), node, cost))
    return node.children[0]


def simulate(
    ctx: StageContext, node: SearchNode, rng: np.random.Generator
) -> tuple[float, list[Move] | None]:
    """Random single-branch rollout; returns the (negative) reward and the moves made.

    The rollout picks uniformly among the node's candidate relocations until
    the stage completes or the step cap is hit. The reward is the negated sum
    of all displacement distances from the root through the rollout; hitting
    the cap or getting stuck costs one workspace diagonal per leftover blocker.
    The moves are those of a rollout that completed the stage, in order, and
    None for one that did not.
    """
    points = ctx.table.points
    pos = list(node.positions)
    cost = node.path_cost
    steps_left = ROLLOUT_STEPS_PER_OBJECT * len(pos)
    made: list[Move] = []
    while not stage_complete(ctx, pos):
        moves = _candidate_moves(ctx, pos) if steps_left else ()
        if not moves:
            workspace = ctx.scene.workspace
            diagonal = math.hypot(workspace.width, workspace.depth)
            return -(cost + diagonal * max(1, len(get_blocking_objects(ctx, pos)))), None
        steps_left -= 1
        obj, dst = moves[int(rng.integers(len(moves)))]
        cost += distance(points[pos[obj]], points[dst])
        pos[obj] = dst
        made.append((obj, dst))
    return -cost, made


def backpropagate(node: SearchNode, reward: float) -> None:
    """Add the reward and one visit to every node up to the root."""
    current: SearchNode | None = node
    while current is not None:
        current.visits += 1
        current.total_reward += reward
        current = current.parent


def _mark_dead(node: SearchNode) -> None:
    node.dead = True
    parent = node.parent
    while parent is not None and parent.children and all(ch.dead for ch in parent.children):
        parent.dead = True
        parent = parent.parent


def _move_path(node: SearchNode) -> list[Move]:
    """The moves of the tree path from the root to ``node``."""
    path = []
    while node.parent is not None:
        path.append(node.incoming)
        node = node.parent
    return path[::-1]


def solve_stage(
    ctx: StageContext, positions: Sequence[int], budget: SearchBudget, rng: np.random.Generator
) -> list[Move]:
    """Drive the focus object to its goal from ``positions``; returns the chain of moves.

    ``positions`` is the arrangement the stage starts from as an index
    vector of ``ctx.table``, and the chain's moves are in its indices too.
    Runs select / expand / simulate / backpropagate rounds and keeps the
    cheapest trajectory that completes the stage: the tree path to a node
    followed by that node's rollout, or a child that completes the stage on
    its own. Ties go to the one found first. The chain returned is that
    trajectory, at the end of the first round in which the root has been
    expanded and some trajectory has completed; the check comes before the
    budget checks, so a round that finds one is never wasted. Every
    expansion leaves the root expanded, so a round whose expansion makes a
    child that completes the stage ends the stage and runs no rollout. Raises
    ``StageTimeout`` when the wall-clock budget runs out first, its subclass
    ``StageIterationLimit`` when the iteration budget does,
    and ``StageExhausted`` when the whole tree is dead, and ``ValueError`` when
    ``positions`` puts a static object, one of ``ctx.order[: ctx.index]``,
    anywhere but exactly on its goal.
    """
    goal_idx = ctx.goal_indices
    for obj in ctx.order[: ctx.index]:
        if positions[obj] != goal_idx[obj]:
            raise ValueError(f"static object {obj} is not at its goal at stage entry")
    limit = budget.wall_clock_limit
    deadline = None if limit is None else time.monotonic() + limit
    if stage_complete(ctx, positions):
        return []
    root = SearchNode(list(positions))
    # The cheapest completed trajectory so far: its cost, its node and the moves after it.
    best: tuple[float, SearchNode, Sequence[Move]] | None = None

    def rollout(node: SearchNode) -> None:
        nonlocal best
        reward, moves = simulate(ctx, node, rng)
        if moves is not None and (best is None or -reward < best[0]):
            best = (-reward, node, moves)
        backpropagate(node, reward)

    for _ in range(budget.max_iterations):
        if deadline is not None and time.monotonic() > deadline:
            raise StageTimeout("stage wall-clock budget exhausted")
        if root.dead:
            raise StageExhausted("every branch of the stage tree is dead")
        leaf = select(root, EXPLORATION_CONSTANT)
        if leaf.visits == 0:
            rollout(leaf)
        else:
            try:
                first_child = expand(ctx, leaf)
            except ExpansionExhausted:
                _mark_dead(leaf)
            else:
                done = [ch for ch in leaf.children if stage_complete(ctx, ch.positions)]
                for child in done:
                    if best is None or child.path_cost < best[0]:
                        best = (child.path_cost, child, ())
                if not done:
                    rollout(first_child)
        if best is not None and root.children:
            return _move_path(best[1]) + list(best[2])
    raise StageIterationLimit("stage iteration budget exhausted")
