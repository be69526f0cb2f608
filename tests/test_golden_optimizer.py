"""Golden optimiser output: fixed random walks must keep optimising to byte-identical JSON.

Each entry stores a scene, a valid walk of relocations on it (the scene's goal
is where the walk ends) and the JSON of ``optimize_plan`` on that walk. Some
walks place objects off the candidate grid. A change that alters the
optimiser's output on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_optimizer.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shelfplan import (
    Action,
    Plan,
    Point,
    SceneConfig,
    action_valid,
    generate_scene,
    make_scene,
    optimize_plan,
    plan_from_json,
    plan_to_json,
    scene_from_json,
    scene_to_json,
    validate_plan,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_optimizer.json"

# (kind, walk seeds, objects, steps, share of off-grid destinations)
CORPUS = (
    ("grid", range(0, 8), 8, 40, 0.0),
    ("off-grid", range(8, 14), 6, 30, 0.3),
)


def corpus_cases() -> list[tuple]:
    return [(kind, seed, *rest) for kind, seeds, *rest in CORPUS for seed in seeds]


def random_walk(seed: int, n_objects: int, steps: int, off_grid: float):
    """A scene whose goal ends a random walk accepted by ``action_valid``, and the walk."""
    rng = np.random.default_rng(seed)
    base = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed))
    b, ws = base.object_radius, base.workspace
    positions = list(base.start)
    actions: list[Action] = []
    while len(actions) < steps:
        obj = int(rng.integers(n_objects))
        if rng.random() < off_grid:
            dst = Point(float(rng.uniform(b, ws.width - b)), float(rng.uniform(b, ws.depth - b)))
        else:
            dst = base.candidates[int(rng.integers(len(base.candidates)))]
        rng.random()  # unused, kept so the recorded walks stay the same
        if dst == positions[obj]:
            continue
        act = Action(obj, positions[obj], dst)
        if action_valid(base, tuple(positions), act):
            positions[obj] = dst
            actions.append(act)
    return make_scene(base.start, tuple(positions)), Plan(tuple(actions))


def record(case: tuple) -> dict:
    kind, seed, *params = case
    scene, walk = random_walk(seed, *params)
    # Optimise the parsed JSON, exactly as the test will.
    scene_json, walk_json = scene_to_json(scene), plan_to_json(walk)
    optimized = optimize_plan(plan_from_json(walk_json), scene_from_json(scene_json))
    return {
        "kind": kind,
        "seed": seed,
        "scene": scene_json,
        "walk": walk_json,
        "optimized": plan_to_json(optimized),
    }


def load_golden() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", corpus_cases(), ids=lambda case: f"{case[0]}-{case[1]}")
def test_optimizer_matches_golden(case):
    entry = next(e for e in load_golden() if (e["kind"], e["seed"]) == case[:2])
    scene = scene_from_json(entry["scene"])
    walk = plan_from_json(entry["walk"])
    assert validate_plan(scene, walk).valid
    out = optimize_plan(walk, scene)
    assert plan_to_json(out) == entry["optimized"]


def test_golden_covers_corpus():
    assert [(e["kind"], e["seed"]) for e in load_golden()] == [c[:2] for c in corpus_cases()]


def test_corpus_exercises_the_optimiser():
    golden = load_golden()
    walks = [plan_from_json(e["walk"]) for e in golden]
    outs = [plan_from_json(e["optimized"]) for e in golden]
    assert all(o.steps <= w.steps for w, o in zip(walks, outs))
    assert sum(w.steps - o.steps for w, o in zip(walks, outs)) > 0

    def kept(kind):
        return [a for e, o in zip(golden, outs) if e["kind"] == kind for a in o.actions]

    def frac(v):
        return abs(v - round(v))

    # The default grid has integer points: off-grid destinations survive into optimised plans.
    assert any(frac(a.dst.x) > 1e-6 or frac(a.dst.y) > 1e-6 for a in kept("off-grid"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_optimizer.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump([record(case) for case in corpus_cases()], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
