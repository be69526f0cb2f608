"""Rearrangement planning for confined, front-opening workspaces.

A multi-stage Monte Carlo tree search moves uniquely labeled cylindrical
objects between start and goal arrangements using linear pick-and-place
motions whose swept volumes are tilted rectangular tunnels.

The package root exports the user API. Internals stay importable from their
own modules: ``shelfplan.geometry`` (discs, tunnels, collision kernels),
``shelfplan.motion`` (home tunnels, collision sets), ``shelfplan.topology``
(dependency graph, stage order), ``shelfplan.mcts`` (the single-stage search)
and ``shelfplan.occlusion`` (the collision table, shared by plans on one shelf).
"""

from .bench import MetricsRow, SuiteConfig, run_suite
from .geometry import Point
from .mcts import SearchBudget
from .motion import Action, action_valid
from .planner import (
    InvalidPlanError,
    Plan,
    PlanCheck,
    PlanReport,
    optimize_plan,
    plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)
from .scene import (
    Scene,
    SceneConfig,
    SceneGenerationError,
    generate_scene,
    make_scene,
    scene_from_dict,
    scene_from_json,
    scene_to_dict,
    scene_to_json,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "Action",
    "InvalidPlanError",
    "MetricsRow",
    "Plan",
    "PlanCheck",
    "PlanReport",
    "Point",
    "Scene",
    "SceneConfig",
    "SceneGenerationError",
    "SearchBudget",
    "SuiteConfig",
    "action_valid",
    "generate_scene",
    "make_scene",
    "optimize_plan",
    "plan",
    "plan_from_dict",
    "plan_from_json",
    "plan_to_dict",
    "plan_to_json",
    "render_svg",
    "run_suite",
    "scene_from_dict",
    "scene_from_json",
    "scene_to_dict",
    "scene_to_json",
    "validate_plan",
]
