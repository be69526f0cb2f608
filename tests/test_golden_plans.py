"""Golden plans: a fixed corpus must keep producing byte-identical plan JSON.

The corpus is planned with the wall clock off, so the recorded output does
not depend on machine speed. Beside the plans of a small corpus, kept in
full so that a diff shows what moved, one SHA-256 digest covers the plans of
every hard and fine-grid scene that ``shelfbench/run.py`` plans, a second
one covers the optimiser's output on every random walk of its replay
workload, and a third covers the plans of a dense corpus (10 to 16 objects),
the only band where the search's UCB selection, dead-subtree marking and
stuck mode make real choices, and where some scenes fail. A fourth digest
covers the validator's verdicts on every replay walk and on mutants of each,
so that its rejections are gated as well as its acceptances. A change that
alters plans on purpose regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden_plans.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from shelfplan import (
    Action,
    InvalidPlanError,
    Plan,
    SceneConfig,
    SearchBudget,
    generate_scene,
    optimize_plan,
    plan,
    plan_to_json,
    validate_plan,
)
from shelfplan.planner import retarget_buffers

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_plans.json"
DIGEST = ROOT / "tests" / "data" / "benchmark_plans.sha256"
REPLAY_DIGEST = ROOT / "tests" / "data" / "replay_plans.sha256"
DENSE_DIGEST = ROOT / "tests" / "data" / "dense_plans.sha256"
VERDICT_DIGEST = ROOT / "tests" / "data" / "validator_verdicts.sha256"
# Mutants of each replay walk whose verdicts the validator digest covers.
MUTANTS_PER_WALK = 5

# (band, scene seeds, object counts alternating by seed, grid resolution);
# each scene is searched with its own seed, as ``shelfplan bench`` does.
CORPUS = (
    ("hard", range(80, 88), (7, 8), 1.0),
    ("medium-0.5", range(0, 4), (5, 6), 0.5),
)
# The scenes of the benchmark's hard and fine-grid workloads, in the same terms.
BENCHMARK_CORPUS = (
    ("hard", range(80, 132), (7, 8), 1.0),
    ("fine-grid", range(0, 44), (5, 6), 0.5),
)
# Dense scenes on the default shelf; 20 of these 80 fail today.
DENSE_CORPUS = tuple((f"dense-{n}", range(0, 20), (n,), 1.0) for n in (10, 12, 14, 16))


def corpus_cases(corpus=CORPUS) -> list[tuple[str, int, int, float]]:
    return [
        (band, seed, counts[k % len(counts)], grid)
        for band, seeds, counts, grid in corpus
        for k, seed in enumerate(seeds)
    ]


def plan_case(seed: int, n_objects: int, grid: float) -> dict:
    scene = generate_scene(SceneConfig(n_objects=n_objects, rng_seed=seed, grid_resolution=grid))
    report = plan(scene, SearchBudget(wall_clock_limit=None), seed=seed)
    return {
        "success": report.success,
        "failure_kind": report.failure_kind,
        "plan_json": plan_to_json(report.plan) if report.success else None,
    }


def record_all() -> list[dict]:
    return [
        {"band": band, "seed": seed, "n_objects": n, "grid": grid, **plan_case(seed, n, grid)}
        for band, seed, n, grid in corpus_cases()
    ]


def plans_digest(corpus) -> str:
    """SHA-256 over the plan JSON (or failure kind) of every scene, one line each, in corpus order."""
    h = hashlib.sha256()
    for _, seed, n, grid in corpus_cases(corpus):
        case = plan_case(seed, n, grid)
        h.update((case["plan_json"] or f"failed: {case['failure_kind']}").encode() + b"\n")
    return h.hexdigest()


def benchmark_digest() -> str:
    """The plans of every hard and fine-grid benchmark scene."""
    return plans_digest(BENCHMARK_CORPUS)


def dense_digest() -> str:
    """The plans of every dense scene."""
    return plans_digest(DENSE_CORPUS)


def benchmark_module():
    """``shelfbench/run.py`` as a module; importing it does not run the benchmark."""
    bench = ROOT / "shelfbench"
    sys.path.insert(0, str(bench))  # run.py imports layertrace from beside it
    try:
        spec = importlib.util.spec_from_file_location("shelfbench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def replay_digest() -> str:
    """SHA-256 over the optimised JSON of every benchmark replay walk, one line each, in order."""
    run = benchmark_module()
    h = hashlib.sha256()
    for seed in range(run.WALK_SEED0, run.WALK_SEED0 + run.REPLAY_WALKS):
        scene, walk = run.random_walk(seed)
        h.update(plan_to_json(optimize_plan(walk, scene)).encode() + b"\n")
    return h.hexdigest()


def mutant(walk: Plan, candidates, rng: random.Random) -> Plan:
    """``walk`` with one destination moved, one step dropped or two adjacent steps swapped.

    A moved destination goes to another candidate, neither the step's source
    nor its old destination.
    """
    actions = list(walk.actions)
    k = rng.randrange(len(actions))
    kind = rng.choice(("move", "drop", "swap"))
    if kind == "move":
        act = actions[k]
        dst = rng.choice([p for p in candidates if p not in (act.src, act.dst)])
        actions[k] = Action(act.obj, act.src, dst)
    elif kind == "drop":
        del actions[k]
    else:
        k = min(k, len(actions) - 2)
        actions[k], actions[k + 1] = actions[k + 1], actions[k]
    return Plan(tuple(actions))


def walk_plans(run, seed: int) -> tuple:
    """Replay walk ``seed``'s scene, and the walk followed by its mutants.

    The ``MUTANTS_PER_WALK`` mutants are drawn with ``random.Random(seed)``.
    """
    scene, walk = run.random_walk(seed)
    rng = random.Random(seed)
    return scene, [walk] + [mutant(walk, scene.candidates, rng) for _ in range(MUTANTS_PER_WALK)]


def walk_verdicts(run, seed: int) -> list:
    """``validate_plan``'s verdicts on replay walk ``seed`` and then on its mutants."""
    scene, plans = walk_plans(run, seed)
    return [validate_plan(scene, p) for p in plans]


def verdict_digest() -> str:
    """SHA-256 over the verdicts on every replay walk and its mutants, one line each, in order.

    A line is ``valid failed_step reason``.
    """
    run = benchmark_module()
    h = hashlib.sha256()
    for seed in range(run.WALK_SEED0, run.WALK_SEED0 + run.REPLAY_WALKS):
        for check in walk_verdicts(run, seed):
            h.update(f"{check.valid} {check.failed_step} {check.reason}\n".encode())
    return h.hexdigest()


def load_golden() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", corpus_cases(), ids=lambda case: f"{case[0]}-{case[1]}")
def test_plan_matches_golden(case):
    entry = next(e for e in load_golden() if (e["band"], e["seed"]) == case[:2])
    got = plan_case(entry["seed"], entry["n_objects"], entry["grid"])
    assert got["success"] == entry["success"]
    assert got["failure_kind"] == entry["failure_kind"]
    assert got["plan_json"] == entry["plan_json"]


def test_golden_covers_corpus():
    recorded = [(e["band"], e["seed"], e["n_objects"], e["grid"]) for e in load_golden()]
    assert recorded == corpus_cases()


def test_benchmark_plans_match_digest():
    assert benchmark_digest() == DIGEST.read_text().strip()


def test_replay_plans_match_digest():
    assert replay_digest() == REPLAY_DIGEST.read_text().strip()


def test_dense_plans_match_digest():
    assert dense_digest() == DENSE_DIGEST.read_text().strip()


def test_validator_verdicts_match_digest():
    assert verdict_digest() == VERDICT_DIGEST.read_text().strip()


def test_verdict_corpus_rejects_as_well_as_accepts():
    # The digest gates rejections only if the mutants draw them: collisions among them.
    run = benchmark_module()
    seeds = range(run.WALK_SEED0, run.WALK_SEED0 + 10)
    reasons = {check.reason for seed in seeds for check in walk_verdicts(run, seed)[1:]}
    assert {None, "relocation is not collision-free"} <= reasons
    assert "pick location does not match the object's current region" in reasons


def test_optimiser_rejects_what_the_validator_rejects():
    # The validator and the optimiser's table replay are separate loops. On
    # every replay walk and mutant, optimize_plan and retarget_buffers raise
    # validate's step and reason, and accept a valid plan or one that misses
    # only the goal, which they do not check.
    run = benchmark_module()
    seen = set()
    for seed in range(run.WALK_SEED0, run.WALK_SEED0 + run.REPLAY_WALKS):
        scene, plans = walk_plans(run, seed)
        for p in plans:
            check = validate_plan(scene, p)
            seen.add(check.reason)
            for operation in (optimize_plan, retarget_buffers):
                if check.valid or check.reason == "terminal arrangement misses the goal":
                    operation(p, scene)
                    continue
                with pytest.raises(InvalidPlanError) as err:
                    operation(p, scene)
                expected = f"input plan invalid at step {check.failed_step}: {check.reason}"
                assert str(err.value) == expected, (seed, operation.__name__)
    assert seen == {
        None,
        "relocation is not collision-free",
        "pick location does not match the object's current region",
        "terminal arrangement misses the goal",
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_plans.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(record_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    DIGEST.write_text(benchmark_digest() + "\n")
    REPLAY_DIGEST.write_text(replay_digest() + "\n")
    DENSE_DIGEST.write_text(dense_digest() + "\n")
    VERDICT_DIGEST.write_text(verdict_digest() + "\n")
    print(f"wrote {GOLDEN}, {DIGEST}, {REPLAY_DIGEST}, {DENSE_DIGEST} and {VERDICT_DIGEST}")
