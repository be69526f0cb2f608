"""Command line interface: scene generation, planning, benchmarking, validation."""

from __future__ import annotations

import argparse
import sys

from .bench import SuiteConfig, run_suite
from .mcts import SearchBudget
from .planner import plan, plan_from_json, plan_to_json, validate_plan
from .scene import (
    SceneConfig,
    SceneGenerationError,
    generate_scene,
    scene_from_json,
    scene_to_json,
)
from .svg import render_svg


class InputError(Exception):
    """Command-line values, or a scene or plan file, that make no valid object."""


def _read(path: str, parse, what: str):
    """Parse a scene or plan file; malformed content raises ``InputError``.

    ``RecursionError`` is the json module's answer to arrays or objects nested
    too deeply.
    """
    with open(path) as fh:
        try:
            return parse(fh.read())
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise InputError(f"{path}: not a valid {what}: {type(exc).__name__}: {exc}") from exc


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _budget_from_args(args: argparse.Namespace) -> SearchBudget:
    try:
        return SearchBudget(wall_clock_limit=None if args.timeout_s <= 0 else args.timeout_s)
    except ValueError as exc:  # a NaN timeout
        raise InputError(f"invalid --timeout-s: {exc}") from exc


def _add_timeout_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--timeout-s",
        type=float,
        default=SearchBudget().wall_clock_limit,
        help="wall-clock budget in seconds; <=0 disables (default: %(default)s)",
    )


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        config = SceneConfig(
            n_objects=args.objects, rng_seed=args.seed, grid_resolution=args.grid_res
        )
        scene = generate_scene(config)
    except (ValueError, SceneGenerationError) as exc:
        raise InputError(f"cannot generate a scene: {exc}") from exc
    _write_out(scene_to_json(scene, indent=2), args.out)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    scene = _read(args.scene, scene_from_json, "scene")
    try:
        report = plan(scene, _budget_from_args(args), seed=args.seed)
    except ValueError as exc:
        raise InputError(f"cannot plan: {exc}") from exc
    if not report.success:
        print(f"planning failed: {report.failure_kind} ({report.wall_time:.2f}s)", file=sys.stderr)
        return 1
    _write_out(plan_to_json(report.plan, wall_time=report.wall_time, indent=2), args.out)
    if args.svg is not None:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(scene, report.plan))
    print(
        f"solved in {report.plan.steps} steps, displacement "
        f"{report.plan.total_displacement:.2f}, {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = SuiteConfig(
            difficulty=args.difficulty,
            cases_per_level=args.cases,
            base_seed=args.seed,
            grid_resolution=args.grid_res,
            budget=_budget_from_args(args),
        )
    except ValueError as exc:
        raise InputError(f"invalid benchmark settings: {exc}") from exc

    def progress(record: dict) -> None:
        status = "ok" if record["success"] else f"FAIL({record['failure_kind']})"
        steps = record["steps"] if record["success"] else "-"
        print(
            f"case {record['case']:3d} {record['level']:<6} n={record['n_objects']} "
            f"seed={record['seed']} {status} steps={steps} t={record['wall_time']:.2f}s",
            file=sys.stderr,
        )

    try:
        rows, _ = run_suite(cfg, out_dir=args.out, progress=progress)
    except SceneGenerationError as exc:
        raise InputError(f"cannot generate a scene: {exc}") from exc
    header = f"{'level':<8}{'cases':>6}{'succ%':>8}{'steps':>14}{'dist':>16}{'time_s':>8}"
    print(header)
    for r in rows:
        print(
            f"{r.level:<8}{r.cases:>6}{r.success_rate:>8.1f}"
            f"{r.mean_steps:>8.2f}±{r.std_steps:<5.2f}"
            f"{r.mean_dist:>9.1f}±{r.std_dist:<6.1f}{r.mean_time_s:>8.2f}"
        )
    if args.out:
        print(f"wrote {args.out}/metrics.csv and {args.out}/cases.jsonl", file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scene = _read(args.scene, scene_from_json, "scene")
    candidate = _read(args.plan, plan_from_json, "plan")
    check = validate_plan(scene, candidate)
    if check.valid:
        print("plan is valid")
        return 0
    print(f"invalid at step {check.failed_step}: {check.reason}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelfplan",
        description="Rearrangement planning for confined, front-opening workspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random scene as JSON")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--objects", type=int, default=4)
    p_gen.add_argument("--grid-res", type=float, default=1.0)
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_plan = sub.add_parser("plan", help="plan a scene JSON file")
    p_plan.add_argument("scene", help="scene JSON path")
    p_plan.add_argument("--seed", type=int, default=0, help="search seed")
    _add_timeout_flag(p_plan)
    p_plan.add_argument("--out", default=None, help="plan JSON path (default: stdout)")
    p_plan.add_argument("--svg", default=None, help="also render the plan trace to this SVG path")
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--difficulty", choices=("easy", "medium", "hard", "all"), default="all")
    p_bench.add_argument("--cases", type=int, default=80, help="cases per difficulty level")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed; case i uses seed + i")
    p_bench.add_argument("--grid-res", type=float, default=1.0)
    _add_timeout_flag(p_bench)
    p_bench.add_argument("--out", default=None, help="directory for metrics.csv and cases.jsonl")
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate", help="replay-check a plan against a scene")
    p_val.add_argument("scene", help="scene JSON path")
    p_val.add_argument("plan", help="plan JSON path")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
