"""Benchmark harness: random suites, metric aggregation, CSV/JSONL output."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import astuple, dataclass, field, fields
from typing import Callable

import numpy as np

from .mcts import SearchBudget, require_budget
from .planner import plan, plan_to_dict
from .scene import SceneConfig, generate_scene, require_int, scene_to_dict

LEVELS = ("easy", "medium", "hard")
LEVEL_OBJECT_COUNTS = {"easy": (4,), "medium": (5, 6), "hard": (7, 8)}


@dataclass(frozen=True)
class SuiteConfig:
    """One benchmark run: which difficulty bands, how many cases, what budget."""

    difficulty: str = "all"  # easy | medium | hard | all
    cases_per_level: int = 80
    base_seed: int = 0
    grid_resolution: float = 1.0
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self) -> None:
        if self.difficulty not in LEVELS + ("all",):
            raise ValueError(f"unknown difficulty {self.difficulty!r}")
        require_int("cases_per_level", self.cases_per_level, 1)
        require_int("base_seed", self.base_seed, 0)
        require_budget(self.budget)
        SceneConfig(grid_resolution=self.grid_resolution)  # checks the cases' candidate grid

    @property
    def levels(self) -> tuple[str, ...]:
        return LEVELS if self.difficulty == "all" else (self.difficulty,)


@dataclass(frozen=True)
class MetricsRow:
    """One aggregated table row; steps/distance/time average successful cases only."""

    level: str
    cases: int
    success_rate: float
    mean_steps: float
    std_steps: float
    mean_dist: float
    std_dist: float
    mean_time_s: float


def run_case(cfg: SuiteConfig, level: str, n_objects: int, case_index: int) -> dict:
    """Generate and plan one case; the case seed is base_seed + case_index."""
    seed = cfg.base_seed + case_index
    scene = generate_scene(
        SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=cfg.grid_resolution)
    )
    result = plan(scene, cfg.budget, seed=seed)
    record = {
        "case": case_index,
        "level": level,
        "n_objects": n_objects,
        "seed": seed,
        "success": result.success,
        "wall_time": result.wall_time,
        "failure_kind": result.failure_kind,
        "steps": result.plan.steps if result.success else None,
        "displacement": result.plan.total_displacement if result.success else None,
        "scene": scene_to_dict(scene),
        "plan": plan_to_dict(result.plan, wall_time=result.wall_time) if result.success else None,
    }
    return record


def aggregate(records: list[dict], label: str) -> MetricsRow:
    """Aggregate per-case records into one metrics row."""
    solved = [r for r in records if r["success"]]
    nan = float("nan")

    def stats(key: str) -> tuple[float, float]:
        if not solved:
            return nan, nan
        values = np.array([r[key] for r in solved], dtype=float)
        return float(values.mean()), float(values.std())

    mean_steps, std_steps = stats("steps")
    mean_dist, std_dist = stats("displacement")
    mean_time = float(np.mean([r["wall_time"] for r in solved])) if solved else nan
    rate = 100.0 * len(solved) / len(records) if records else nan
    return MetricsRow(
        level=label,
        cases=len(records),
        success_rate=rate,
        mean_steps=mean_steps,
        std_steps=std_steps,
        mean_dist=mean_dist,
        std_dist=std_dist,
        mean_time_s=mean_time,
    )


def summarize(records: list[dict], levels: tuple[str, ...]) -> list[MetricsRow]:
    """Rows for each difficulty band plus each distinct object count."""
    rows = [
        aggregate([r for r in records if r["level"] == level], level)
        for level in levels
        if any(r["level"] == level for r in records)
    ]
    for count in sorted({r["n_objects"] for r in records}):
        rows.append(aggregate([r for r in records if r["n_objects"] == count], str(count)))
    return rows


def run_suite(
    cfg: SuiteConfig,
    out_dir: str | None = None,
    progress: Callable[[dict], None] | None = None,
) -> tuple[list[MetricsRow], list[dict]]:
    """Run all cases of the configured suite.

    Writes ``metrics.csv`` and ``cases.jsonl`` into ``out_dir`` when given.
    Deterministic for a fixed base seed, up to wall-clock timeout effects.
    """
    records: list[dict] = []
    case_index = 0
    for level in cfg.levels:
        counts = LEVEL_OBJECT_COUNTS[level]
        for i in range(cfg.cases_per_level):
            record = run_case(cfg, level, counts[i % len(counts)], case_index)
            records.append(record)
            if progress is not None:
                progress(record)
            case_index += 1
    rows = summarize(records, cfg.levels)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(rows, os.path.join(out_dir, "metrics.csv"))
        write_records_jsonl(records, os.path.join(out_dir, "cases.jsonl"))
    return rows, records


def write_metrics_csv(rows: list[MetricsRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(MetricsRow))
        writer.writerows(astuple(row) for row in rows)


def write_records_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
