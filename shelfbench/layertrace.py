"""Per-layer call tracing for shelfplan, installed from outside the package.

``LayerTracer`` replaces each traced function with a timing wrapper in every
``shelfplan`` module namespace that binds it. A module calls a function
through its own global name (``shelfplan.mcts.tunnel_disc_mask`` and
``shelfplan.motion.tunnel_disc_mask`` are separate bindings of one function),
so patching only the defining module would miss most calls.

Everything runs in one thread, so a layer never waits for another: each
traced function gets a call count, an inclusive time and a self time (its
inclusive time minus the inclusive time of traced functions it called).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import import_module

# Functions traced, as <module>.<function> under the shelfplan package.
TARGETS = (
    "geometry.tunnel_disc_mask",
    "geometry.tunnel_intersects_disc",
    "motion.home_tunnel",
    "motion.action_valid",
    "motion.collision_objs",
    "motion.placement_sweep_mask",
    "topology.build_dependency_graph",
    "topology.stage_order",
    "mcts.solve_stage",
    "mcts.select",
    "mcts.expand",
    "mcts.simulate",
    "mcts.backpropagate",
    "mcts.new_region",
    "mcts.get_blocking_objects",
    "mcts.stage_complete",
    "mcts.blocked_pickups_at_goal",
    "planner.plan",
    "planner.optimize_plan",
    "planner.validate_plan",
    "scene.generate_scene",
)


@dataclass
class CallStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Extra counters, observed after the call returns or raises and outside the
# timed interval. Each takes (stats, args, kwargs, result, exc).


def _count_rows(st, args, kwargs, result, exc):
    st.counts["rows"] += len(_arg(args, kwargs, 1, "centers"))


def _count_accepts(st, args, kwargs, result, exc):
    st.counts["accepted"] += bool(result)


def _count_hits(st, args, kwargs, result, exc):
    st.counts["hits"] += bool(result)


def _count_stage_failures(st, args, kwargs, result, exc):
    from shelfplan.mcts import StageExhausted, StageTimeout

    st.counts["failed"] += isinstance(exc, (StageTimeout, StageExhausted))


def _count_expansions(st, args, kwargs, result, exc):
    from shelfplan.mcts import ExpansionExhausted

    if isinstance(exc, ExpansionExhausted):
        st.counts["dead_ends"] += 1
    elif exc is None:
        st.counts["children"] += len(_arg(args, kwargs, 1, "node").children)


def _count_removed(st, args, kwargs, result, exc):
    if exc is None:
        before = _arg(args, kwargs, 0, "plan")
        st.counts["steps_removed"] += before.steps - result.steps
        st.counts["displacement_removed"] += before.total_displacement - result.total_displacement


OBSERVERS = {
    "geometry.tunnel_disc_mask": _count_rows,
    "motion.action_valid": _count_accepts,
    "mcts.new_region": _count_hits,
    "mcts.solve_stage": _count_stage_failures,
    "mcts.expand": _count_expansions,
    "planner.optimize_plan": _count_removed,
}


class LayerTracer:
    """Context manager that times ``TARGETS`` while it is active."""

    def __init__(self) -> None:
        self.stats = {name: CallStats() for name in TARGETS}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                _leave(stats, stack, clock() - start)
                if observe is not None:
                    observe(stats, args, kwargs, None, exc)
                raise
            _leave(stats, stack, clock() - start)
            if observe is not None:
                observe(stats, args, kwargs, result, None)
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "shelfplan"]
        for name in TARGETS:
            module, func = name.split(".")
            original = getattr(import_module(f"shelfplan.{module}"), func)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


def _leave(stats: CallStats, stack: list[float], elapsed: float) -> None:
    child = stack.pop()
    stats.calls += 1
    stats.incl_s += elapsed
    stats.self_s += elapsed - child
    if stack:
        stack[-1] += elapsed


def layer_metric(stats: dict[str, CallStats], metric: str) -> float:
    """Value of a per-layer metric named ``<module>.<function>.<stat>``."""
    module, func, stat = metric.split(".")
    st = stats[f"{module}.{func}"]
    if stat in ("calls", "self_s", "incl_s"):
        return getattr(st, stat)
    if stat == "accept_ratio":
        return st.counts["accepted"] / st.calls if st.calls else 0.0
    if stat == "hit_ratio":
        return st.counts["hits"] / st.calls if st.calls else 0.0
    if stat in COUNTED:
        return st.counts[stat]
    raise ValueError(f"unknown per-layer statistic {metric!r}")


COUNTED = {"rows", "failed", "dead_ends", "children", "steps_removed", "displacement_removed"}
