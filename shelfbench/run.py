"""shelfplan benchmark: end-to-end planning metrics and per-layer timings.

Run from the repository root:

    python3 shelfbench/run.py --workload hard --seed 1 --seconds 30 --trace 0
    python3 shelfbench/run.py --workload replay --seed 1 --seconds 30 --trace 1
    python3 shelfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json and ``--trace 1`` the per-layer ones.
The line before it records the environment, seeds and budget. A human-readable
table goes to standard error. The exit code is 1 when any correctness or
repeatability check fails. Workloads and metrics are described in README.md
next to this file.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from layertrace import LayerTracer, layer_metric

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Inputs are a fixed corpus per workload, and the run seed sets the order of the
# operations. New scenes, walks or search seeds for every seed moved the timings
# and plan lengths by more than the bounds in BENCHMARK.json (see README.md). One
# pass takes about 37 s (hard), 23 s (fine-grid) or 10 s (replay) on a 2-vCPU Xeon.
HARD_SCENE_SEED0 = 80  # the roadmap's hard-band baseline corpus starts here
HARD_CASES = 52
FINE_SCENE_SEED0 = 0
FINE_CASES = 44
WALK_SEED0 = 0
REPLAY_WALKS = 100
WALK_OBJECTS = 8
WALK_STEPS = 40
# Cases planned by a traced run: one untraced and two traced passes over them.
TRACE_CASES = {"hard": 16, "fine-grid": 20, "replay": REPLAY_WALKS}
# Cold set-ups per run (the run's own plus fresh processes); setup_s is their median.
SETUP_SAMPLES = 5
SELF_TEST_SEED = 3

WORKLOADS = ("hard", "fine-grid", "replay")
# Counts that must repeat exactly between two traced passes of one seed.
REPEAT_COUNTS = ("mcts.select.calls", "mcts.simulate.calls", "planner.optimize_plan.steps_removed")


def import_shelfplan():
    """Import shelfplan from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import shelfplan
    except ImportError as exc:
        raise SystemExit(f"shelfbench: cannot import shelfplan from {SRC}: {exc}")
    if not Path(shelfplan.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"shelfbench: shelfplan was imported from {shelfplan.__file__}, not {SRC}")
    return shelfplan


_t0 = time.perf_counter()
sp = import_shelfplan()  # shelfplan imports numpy, so numpy's import is timed here too
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
BUDGET = sp.SearchBudget(wall_clock_limit=None)


@dataclass(frozen=True)
class Outcome:
    """Checked result of one operation; ``text`` is the plan JSON compared across passes."""

    success: bool
    correct: bool
    steps: int
    displacement: float
    text: str


def band_corpus(seed0: int, n: int, counts: tuple[int, ...], grid: float) -> list:
    """Scenes of one difficulty band, each searched with its scene seed.

    These are the cases ``shelfplan bench --base-seed <seed0> --timeout-s 0`` plans.
    """
    cases = []
    for seed in range(seed0, seed0 + n):
        config = sp.SceneConfig(
            n_objects=counts[(seed - seed0) % len(counts)], rng_seed=seed, grid_resolution=grid
        )
        cases.append((sp.scene.generate_scene(config), seed))
    return cases


def random_walk(walk_seed: int):
    """A scene whose goal ends a random walk of relocations, and the walk as a plan.

    Every step is a relocation that the public ``action_valid`` accepts.
    """
    base = sp.scene.generate_scene(sp.SceneConfig(n_objects=WALK_OBJECTS, rng_seed=walk_seed))
    rng = np.random.default_rng(walk_seed)
    positions = list(base.start)
    actions = []
    for _ in range(100_000):
        if len(actions) == WALK_STEPS:
            break
        obj = int(rng.integers(WALK_OBJECTS))
        dst = base.candidates[int(rng.integers(len(base.candidates)))]
        if dst == positions[obj]:
            continue
        act = sp.Action(obj, positions[obj], dst)
        if sp.motion.action_valid(base, tuple(positions), act):
            positions[obj] = dst
            actions.append(act)
    else:
        raise RuntimeError(f"random walk {walk_seed} found no valid relocation")
    return sp.make_scene(base.start, tuple(positions)), sp.Plan(tuple(actions))


def build_corpus(workload: str) -> list:
    if workload == "hard":
        return band_corpus(HARD_SCENE_SEED0, HARD_CASES, (7, 8), 1.0)
    if workload == "fine-grid":
        return band_corpus(FINE_SCENE_SEED0, FINE_CASES, (5, 6), 0.5)
    return [random_walk(seed) for seed in range(WALK_SEED0, WALK_SEED0 + REPLAY_WALKS)]


def in_run_order(cases: list, run_seed: int) -> list:
    return [cases[i] for i in np.random.default_rng(run_seed).permutation(len(cases))]


def corpus_digest(cases: list) -> str:
    h = hashlib.sha256()
    for scene, payload in cases:
        h.update(sp.scene_to_json(scene).encode())
        h.update((str(payload) if isinstance(payload, int) else sp.plan_to_json(payload)).encode())
    return h.hexdigest()


def warm_up() -> None:
    """Plan, validate and optimise one small scene so lazy set-up is done before timing."""
    p = sp.Point
    scene = sp.make_scene(
        start=[p(7, 6), p(13, 6), p(7, 14), p(13, 14)],
        goal=[p(7, 14), p(13, 14), p(7, 6), p(13, 6)],
    )
    report = sp.planner.plan(scene, BUDGET, seed=0)
    if not (report.success and sp.planner.validate_plan(scene, report.plan).valid):
        raise RuntimeError("warm-up plan failed")
    sp.planner.optimize_plan(report.plan, scene)


def set_up(workload: str) -> tuple[list, float]:
    """Corpus generation and warm-up; returns the corpus and its set-up time with import."""
    t0 = time.perf_counter()
    cases = build_corpus(workload)
    warm_up()
    return cases, IMPORT_S + time.perf_counter() - t0


def search_op(case):
    scene, seed = case
    return sp.planner.plan(scene, BUDGET, seed=seed)


def search_check(case, report) -> Outcome:
    scene, _ = case
    if not report.success:
        return Outcome(False, True, 0, 0.0, f"failed: {report.failure_kind}")
    valid = sp.planner.validate_plan(scene, report.plan).valid
    result = report.plan
    return Outcome(valid, valid, result.steps, result.total_displacement, sp.plan_to_json(result))


def replay_op(case):
    scene, walk = case
    before = sp.planner.validate_plan(scene, walk)
    if not before.valid:
        return before, None, None
    optimized = sp.planner.optimize_plan(walk, scene)
    return before, optimized, sp.planner.validate_plan(scene, optimized)


def replay_check(case, result) -> Outcome:
    _, walk = case
    before, optimized, after = result
    if not before.valid:
        return Outcome(False, False, 0, 0.0, f"walk invalid: {before.reason}")
    no_longer = (
        optimized.steps <= walk.steps
        and optimized.total_displacement <= walk.total_displacement + 1e-9
    )
    return Outcome(
        after.valid,
        after.valid and no_longer,
        optimized.steps,
        optimized.total_displacement,
        sp.plan_to_json(optimized),
    )


def run_pass(workload: str, cases: list) -> tuple[list[float], list[Outcome]]:
    """One closed-loop pass: each operation starts after the previous one is checked."""
    op, check = (replay_op, replay_check) if workload == "replay" else (search_op, search_check)
    times, outcomes = [], []
    for case in cases:
        t0 = time.perf_counter()
        result = op(case)
        times.append(time.perf_counter() - t0)
        outcomes.append(check(case, result))
    return times, outcomes


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics. With a
    few dozen heavy-tailed samples per run it varies much less from run to run
    than the sample quantile, which interpolates between two samples.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    u = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], u)), cdf)
    return float(np.diff(edges) @ x)


def quality(outcomes: list[Outcome]) -> tuple[float, float]:
    solved = [o for o in outcomes if o.success]
    if not solved:
        return 0.0, 0.0
    return (
        statistics.fmean(o.steps for o in solved),
        statistics.fmean(o.displacement for o in solved),
    )


def same_plans(a: list[Outcome], b: list[Outcome]) -> bool:
    return [o.text for o in a] == [o.text for o in b]


def cold_setup(workload: str, digest: str) -> float:
    """Set-up time in a fresh process, which repeats the import; checks it built the same corpus."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    child = json.loads(done.stdout.splitlines()[-1])
    if child["digest"] != digest:
        raise RuntimeError("set-up in a fresh process built a different corpus")
    return child["setup_s"]


def environment(workload: str, run_seed: int, n_cases: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    seed0 = {"hard": HARD_SCENE_SEED0, "fine-grid": FINE_SCENE_SEED0, "replay": WALK_SEED0}
    seeds = {
        "input_seeds": f"{seed0[workload]}..{seed0[workload] + n_cases - 1}",
        "order": f"permutation drawn from default_rng({run_seed})",
    }
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in threads},
        "workload": workload,
        "seed": run_seed,
        "cases": n_cases,
        **seeds,
        "budget": asdict(BUDGET),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(workload: str, run_seed: int, seconds: float, problems: list[str]):
    cases, own_setup = set_up(workload)
    digest = corpus_digest(cases)
    cases = in_run_order(cases, run_seed)
    setup = [own_setup]
    times: list[float] = []
    first: list[Outcome] = []
    # The cold set-ups are spread over the first pass, so that their median
    # does not rest on one moment of the machine's load.
    for chunk in np.array_split(np.arange(len(cases)), SETUP_SAMPLES - 1):
        chunk_times, chunk_outcomes = run_pass(workload, [cases[i] for i in chunk])
        times += chunk_times
        first += chunk_outcomes
        setup.append(cold_setup(workload, digest))
    outcomes = list(first)
    # Whole passes only, so every pass covers the same case mix.
    for _ in range(max(1, int(seconds // sum(times))) - 1):
        more_times, more = run_pass(workload, cases)
        if not same_plans(first, more):
            problems.append("a repeated pass produced different plans")
        times += more_times
        outcomes += more
    mean_steps, mean_disp = quality(first)
    failed = sum(not o.success for o in outcomes)
    if not all(o.correct for o in outcomes):
        problems.append("an operation returned an incorrect result")
    metrics = {
        "cases_per_s": len(times) / sum(times),
        "case_p50_s": quantile(times, 0.5),
        "case_p90_s": quantile(times, 0.9),
        "success_rate": (len(outcomes) - failed) / len(outcomes),
        "mean_steps": mean_steps,
        "mean_displacement": mean_disp,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(times) // len(cases),
        "operations": len(times),
        "setup_samples_s": setup,
        "operation_times_s": [round(t, 6) for t in times],
    }
    return environment(workload, run_seed, len(cases)), info, len(outcomes), failed, metrics


def per_layer(workload: str, run_seed: int, problems: list[str]):
    self_test()
    with LayerTracer() as setup_trace:
        cases, _ = set_up(workload)
    cases = in_run_order(cases[: TRACE_CASES[workload]], run_seed)
    plain_times, plain = run_pass(workload, cases)
    with LayerTracer() as trace:
        traced_times, traced = run_pass(workload, cases)
    with LayerTracer() as again:
        _, repeat = run_pass(workload, cases)
    # Identical plan JSON implies identical mean_steps and mean_displacement.
    if not (same_plans(plain, traced) and same_plans(traced, repeat)):
        problems.append("tracing changed the plans")
    for name in REPEAT_COUNTS:
        first, second = layer_metric(trace.stats, name), layer_metric(again.stats, name)
        if first != second:
            problems.append(f"{name} did not repeat exactly: {first} then {second}")
    outcomes = plain + traced + repeat
    if not all(o.correct for o in outcomes):
        problems.append("an operation returned an incorrect result")
    metrics = {}
    for name in declared_metrics("per_layer"):
        if name == "trace.overhead_ratio":
            metrics[name] = sum(plain_times) / sum(traced_times)
        elif name.startswith("scene."):
            metrics[name] = layer_metric(setup_trace.stats, name)
        else:
            metrics[name] = layer_metric(trace.stats, name)
    failed = sum(not o.success for o in outcomes)
    info = {"traced_cases": len(cases), "passes": 3}
    return environment(workload, run_seed, len(cases)), info, len(outcomes), failed, metrics


def self_test() -> None:
    """Every traced function is called on a tiny case, and tracing leaves no wrapper behind."""
    with LayerTracer() as tracer:
        scene = sp.scene.generate_scene(sp.SceneConfig(n_objects=4, rng_seed=SELF_TEST_SEED))
        report = sp.planner.plan(scene, BUDGET, seed=0)
        if not (report.success and sp.planner.validate_plan(scene, report.plan).valid):
            raise SystemExit("shelfbench self-test: the tiny case did not produce a valid plan")
    idle = [name for name, st in tracer.stats.items() if st.calls == 0]
    if idle:
        raise SystemExit(f"shelfbench self-test: never called while traced: {', '.join(idle)}")
    leftovers = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "shelfplan"
        for attr, value in vars(module).items()
        if hasattr(value, "__wrapped__")
    ]
    if leftovers:
        raise SystemExit(f"shelfbench self-test: wrappers left installed: {', '.join(leftovers)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true", help="check the per-layer wrappers")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        print("shelfbench self-test: every traced function was called", file=sys.stderr)
        return 0
    if args.workload is None or args.seed < 0:
        parser.error("--workload is required and --seed must be non-negative")
    if args.setup_only:
        cases, setup_s = set_up(args.workload)
        print(json.dumps({"setup_s": setup_s, "digest": corpus_digest(cases)}))
        return 0

    problems: list[str] = []
    if args.trace:
        env, info, attempted, failed, values = per_layer(args.workload, args.seed, problems)
    else:
        env, info, attempted, failed, values = end_to_end(
            args.workload, args.seed, args.seconds, problems
        )
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(units) != set(values):
        raise SystemExit(f"shelfbench: metrics {sorted(set(units) ^ set(values))} are not declared")
    for problem in problems:
        print(f"shelfbench: CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"env": env, **info, "problems": problems}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
