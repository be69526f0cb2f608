import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

import shelfplan
from shelfplan import (
    InvalidPlanError,
    Plan,
    Point,
    SceneConfig,
    SearchBudget,
    SuiteConfig,
    generate_scene,
    make_scene,
    plan,
    plan_from_dict,
    plan_to_dict,
    render_svg,
    run_suite,
    scene_from_dict,
    scene_to_json,
    validate_plan,
)
from shelfplan.bench import MetricsRow, aggregate
from shelfplan.cli import main


def tiny_suite(**overrides):
    defaults = dict(
        difficulty="easy",
        cases_per_level=3,
        base_seed=100,
        budget=SearchBudget(wall_clock_limit=30.0),
    )
    defaults.update(overrides)
    return SuiteConfig(**defaults)


class TestRunSuite:
    def test_records_and_rows(self, tmp_path):
        rows, records = run_suite(tiny_suite(), out_dir=str(tmp_path))
        assert len(records) == 3
        assert all(r["n_objects"] == 4 for r in records)
        assert [r["seed"] for r in records] == [100, 101, 102]
        labels = [row.level for row in rows]
        assert labels == ["easy", "4"]
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "cases.jsonl").exists()

    def test_rerun_is_deterministic(self):
        _, first = run_suite(tiny_suite())
        _, second = run_suite(tiny_suite())
        for a, b in zip(first, second):
            assert a["plan"]["actions"] == b["plan"]["actions"]
            assert a["scene"] == b["scene"]

    def test_successful_records_revalidate_on_reload(self, tmp_path):
        run_suite(tiny_suite(), out_dir=str(tmp_path))
        with open(tmp_path / "cases.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                if not record["success"]:
                    continue
                scene = scene_from_dict(record["scene"])
                reloaded = plan_from_dict(record["plan"])
                assert validate_plan(scene, reloaded).valid

    def test_medium_alternates_object_counts(self):
        _, records = run_suite(tiny_suite(difficulty="medium", cases_per_level=4))
        assert [r["n_objects"] for r in records] == [5, 6, 5, 6]

    def test_csv_matches_rows(self, tmp_path):
        rows, records = run_suite(tiny_suite(), out_dir=str(tmp_path))
        with open(tmp_path / "metrics.csv") as fh:
            reader = csv.DictReader(fh)
            names = [f.name for f in dataclasses.fields(MetricsRow)]
            assert reader.fieldnames == names
            parsed = list(reader)
        assert len(parsed) == len(rows)
        for row, line in zip(rows, parsed):
            assert line == {name: str(getattr(row, name)) for name in names}


class TestAggregate:
    def test_success_rate_arithmetic(self):
        records = [
            {"success": True, "steps": 4, "displacement": 30.0, "wall_time": 0.1},
            {"success": True, "steps": 6, "displacement": 50.0, "wall_time": 0.3},
            {"success": True, "steps": 8, "displacement": 40.0, "wall_time": 0.2},
            {"success": False, "steps": None, "displacement": None, "wall_time": 30.0},
        ]
        row = aggregate(records, "mixed")
        assert row.success_rate == pytest.approx(75.0)
        assert row.cases == 4
        # failures do not pollute the per-plan statistics
        assert row.mean_steps == pytest.approx(6.0)
        assert row.std_steps == pytest.approx(math.sqrt(8 / 3))
        assert row.mean_dist == pytest.approx(40.0)
        assert row.mean_time_s == pytest.approx(0.2)

    def test_recomputation_matches_to_1e9(self):
        _, records = run_suite(tiny_suite())
        row = aggregate(records, "easy")
        solved = [r for r in records if r["success"]]
        mean = sum(r["steps"] for r in solved) / len(solved)
        assert abs(row.mean_steps - mean) < 1e-9

    def test_all_failed(self):
        records = [{"success": False, "steps": None, "displacement": None, "wall_time": 1.0}]
        row = aggregate(records, "sad")
        assert row.success_rate == 0.0
        assert math.isnan(row.mean_steps)


class TestRenderSvg:
    def scene_and_plan(self):
        scene = make_scene([Point(4, 5), Point(16, 15)], [Point(4, 12), Point(16, 6)])
        report = plan(scene, SearchBudget(wall_clock_limit=None))
        return scene, report.plan

    def test_zero_step_plan_has_no_arrows(self):
        points = [Point(4, 5), Point(16, 15)]
        scene = make_scene(points, points)
        doc = render_svg(scene, Plan(()))
        assert "marker-end" not in doc
        ET.fromstring(doc)  # well-formed XML

    def test_k_step_plan_has_k_numbered_arrows(self):
        scene, result = self.scene_and_plan()
        doc = render_svg(scene, result)
        root = ET.fromstring(doc)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        arrows = [e for e in root.iter("{http://www.w3.org/2000/svg}line") if "marker-end" in e.attrib]
        assert len(arrows) == result.steps
        texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
        for step in range(1, result.steps + 1):
            assert str(step) in texts
        assert ns  # namespace parse exercised

    def test_invalid_plan_rejected(self):
        scene, _ = self.scene_and_plan()
        bogus = Plan((plan_from_dict({"actions": [{"object": 0, "from": [9, 9], "to": [10, 10]}]}).actions))
        with pytest.raises(InvalidPlanError):
            render_svg(scene, bogus)


class TestPublicApi:
    def test_root_exports_the_user_api(self):
        assert sorted(shelfplan.__all__) == [
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
        assert all(hasattr(shelfplan, name) for name in shelfplan.__all__)

    def test_search_budget_holds_only_the_budget(self):
        fields = [f.name for f in dataclasses.fields(SearchBudget)]
        assert fields == ["max_iterations", "wall_clock_limit"]

    def test_search_budget_rejects_a_nan_wall_clock(self):
        # time.monotonic() > nan is never true, so a NaN limit would be no limit.
        with pytest.raises(ValueError, match="not nan"):
            SearchBudget(wall_clock_limit=math.nan)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 0, -math.inf, True, "3"])
    def test_search_budget_rejects_a_wall_clock_that_is_not_positive_seconds(self, bad):
        # 0.0 and -1.0 used to report "timeout" before any search, True read as
        # one second and "3" failed in math.isnan.
        with pytest.raises(ValueError, match="wall_clock_limit must be positive seconds"):
            SearchBudget(wall_clock_limit=bad)

    @pytest.mark.parametrize("limit", [None, 1e-4, 2, 30.0, math.inf])
    def test_search_budget_accepts_none_or_positive_seconds(self, limit):
        assert SearchBudget(wall_clock_limit=limit).wall_clock_limit == limit

    @pytest.mark.parametrize("bad", [2.5, 0, -3, True, "10", None])
    def test_search_budget_rejects_an_iteration_count_that_is_not_a_positive_int(self, bad):
        # 2.5 used to fail in range() inside solve_stage; 0 and -3 read as a timeout.
        with pytest.raises(ValueError, match="max_iterations must be a positive int"):
            SearchBudget(max_iterations=bad)

    @pytest.mark.parametrize("bad", [2.5, 0, -3, True, "3", None])
    def test_suite_rejects_a_case_count_that_is_not_a_positive_int(self, bad):
        # 2.5 used to raise TypeError mid-run, and True ran one case.
        with pytest.raises(ValueError, match="cases_per_level must be a positive int"):
            tiny_suite(cases_per_level=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, True, "0", None])
    def test_suite_rejects_a_seed_that_is_not_a_non_negative_int(self, bad):
        with pytest.raises(ValueError, match="base_seed must be a non-negative int"):
            tiny_suite(base_seed=bad)

    @pytest.mark.parametrize("bad", [30.0, 0, "30", {"wall_clock_limit": 30.0}])
    def test_plan_rejects_a_budget_that_is_not_a_search_budget(self, bad):
        # 30.0 used to end in AttributeError: 'float' object has no attribute 'wall_clock_limit'.
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=4))
        with pytest.raises(ValueError, match="budget must be a SearchBudget or None"):
            plan(scene, budget=bad)

    @pytest.mark.parametrize("bad", [30.0, "30", (10_000, 30.0)])
    def test_suite_rejects_a_budget_that_is_not_a_search_budget(self, bad):
        # 30.0 used to be accepted and then fail inside run_suite.
        with pytest.raises(ValueError, match="budget must be a SearchBudget or None"):
            tiny_suite(budget=bad)

    def test_plan_and_suite_take_none_as_the_default_budget(self):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=4))
        assert plan(scene, budget=None).success
        assert tiny_suite(budget=None).budget is None

    def test_plan_rejects_a_negative_seed(self):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=4))
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            plan(scene, seed=-1)

    @pytest.mark.parametrize("bad", [1.5, True, "3", None])
    def test_plan_rejects_a_seed_that_is_not_an_int(self, bad):
        # 1.5 used to end in numpy's TypeError, "3" and None in a TypeError
        # from the sign check, and True planned with seed 1.
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=4))
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            plan(scene, seed=bad)


class TestCli:
    def test_default_plan_equals_api_plan(self, tmp_path):
        # Hard-band seed 82 (7 objects, as `bench --difficulty hard --seed 80` draws
        # it) is a scene whose plan changes with the last digits of the UCB constant.
        scene = generate_scene(SceneConfig(n_objects=7, rng_seed=82))
        scene_path = tmp_path / "scene.json"
        plan_path = tmp_path / "plan.json"
        scene_path.write_text(scene_to_json(scene))
        args = ["--seed", "82", "--timeout-s", "0", "--out", str(plan_path)]
        assert main(["plan", str(scene_path), *args]) == 0
        expected = plan_to_dict(plan(scene, SearchBudget(wall_clock_limit=None), seed=82).plan)
        assert json.loads(plan_path.read_text())["actions"] == expected["actions"]

    def test_gen_plan_validate_pipeline(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        plan_path = tmp_path / "plan.json"
        svg_path = tmp_path / "trace.svg"
        assert main(["gen", "--objects", "4", "--seed", "9", "--out", str(scene_path)]) == 0
        assert main(
            [
                "plan",
                str(scene_path),
                "--seed",
                "9",
                "--out",
                str(plan_path),
                "--svg",
                str(svg_path),
            ]
        ) == 0
        assert main(["validate", str(scene_path), str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "plan is valid" in out
        ET.fromstring(svg_path.read_text())

    def test_validate_rejects_broken_plan(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        plan_path = tmp_path / "plan.json"
        main(["gen", "--objects", "3", "--seed", "4", "--out", str(scene_path)])
        plan_path.write_text(
            json.dumps(
                {
                    "actions": [{"object": 0, "from": [2.5, 2.5], "to": [3.5, 3.5]}],
                    "steps": 1,
                    "total_displacement": 1.41,
                    "wall_time": None,
                }
            )
        )
        assert main(["validate", str(scene_path), str(plan_path)]) == 1

    def test_bench_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            [
                "bench",
                "--difficulty",
                "easy",
                "--cases",
                "2",
                "--seed",
                "7",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "cases.jsonl").exists()
        assert "easy" in capsys.readouterr().out

    def test_object_free_scene_plans_renders_and_validates(self, tmp_path, capsys):
        scene_path, plan_path = tmp_path / "scene.json", tmp_path / "plan.json"
        svg_path = tmp_path / "trace.svg"
        scene_path.write_text(scene_to_json(make_scene([], [])))
        argv = ["plan", str(scene_path), "--out", str(plan_path), "--svg", str(svg_path)]
        assert main(argv) == 0
        assert main(["validate", str(scene_path), str(plan_path)]) == 0
        assert "plan is valid" in capsys.readouterr().out
        ET.fromstring(svg_path.read_text())

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_nan_timeout_is_input_error(self, tmp_path, capsys, command):
        scene_path, out = tmp_path / "scene.json", tmp_path / "out"
        scene_path.write_text(scene_to_json(generate_scene(SceneConfig(n_objects=3, rng_seed=4))))
        args = [str(scene_path)] if command == "plan" else ["--difficulty", "easy", "--cases", "1"]
        assert main([command, *args, "--timeout-s", "nan", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "wall_clock_limit" in err
        assert not out.exists()

    def test_missing_scene_file_is_io_error(self, tmp_path):
        assert main(["plan", str(tmp_path / "absent.json")]) == 2

    def test_validate_zero_move_plan_is_input_error(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        plan_path = tmp_path / "plan.json"
        main(["gen", "--objects", "3", "--seed", "4", "--out", str(scene_path)])
        move = {"object": 0, "from": [2.0, 2.0], "to": [2.0, 2.0]}
        plan_path.write_text(json.dumps({"actions": [move], "steps": 1}))
        assert main(["validate", str(scene_path), str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a valid plan" in err

    def test_plan_overlapping_start_is_input_error(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        main(["gen", "--objects", "2", "--seed", "4", "--out", str(scene_path)])
        data = json.loads(scene_path.read_text())
        data["start"] = [[5.0, 5.0], [6.0, 5.0]]
        scene_path.write_text(json.dumps(data))
        assert main(["plan", str(scene_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a valid scene" in err

    def test_plan_pitch_finer_than_float_spacing_is_input_error(self, tmp_path, capsys):
        size = 2e6 + 1e-9
        scene = {
            "workspace": {"width": size, "depth": size},
            "object_radius": 1e6,
            "robot_home": [1e6, -3.0],
            "tunnel_width": 4.0,
            "grid_resolution": 5e-12,
            "start": [[1e6, 1e6]],
            "goal": [[1e6, 1e6]],
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        assert main(["plan", str(scene_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "twice the float spacing" in err

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("validate", lambda scene, moves: scene.update(tunnel_width=math.nan)),
            ("plan", lambda scene, moves: scene["workspace"].update(width=math.inf)),
            ("validate", lambda scene, moves: moves[0].update(object=1.7)),
            ("validate", lambda scene, moves: moves[0].update(object=math.inf)),
            ("validate", lambda scene, moves: moves[0].update({"from": [*moves[0]["from"], 0.0]})),
        ],
        ids=["nan-tunnel-width", "inf-width", "fractional-object", "inf-object", "3d-from"],
    )
    def test_malformed_scene_or_plan_is_input_error(self, tmp_path, capsys, command, edit):
        scene = generate_scene(SceneConfig(n_objects=2, rng_seed=4))
        result = plan(scene, SearchBudget(wall_clock_limit=None), seed=4)
        scene_data, plan_data = json.loads(scene_to_json(scene)), plan_to_dict(result.plan)
        edit(scene_data, plan_data["actions"])
        scene_path, plan_path = tmp_path / "scene.json", tmp_path / "plan.json"
        scene_path.write_text(json.dumps(scene_data))  # as NaN / Infinity tokens
        plan_path.write_text(json.dumps(plan_data))
        args = [str(scene_path), str(plan_path)] if command == "validate" else [str(scene_path)]
        assert main([command, *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("gen --grid-res 0", "grid resolution must be positive"),
            ("gen --grid-res nan", "grid_resolution must be finite"),
            ("gen --grid-res 1e-9", "exceeds the cap of 65,536"),
            ("gen --objects 0", "need at least one object"),
            ("gen --objects 40", "could not place 40 objects"),
            ("bench --grid-res 0", "grid resolution must be positive"),
            ("bench --difficulty hard --cases 1 --grid-res 18", "could not place 7 objects"),
        ],
    )
    def test_unusable_generation_setting_is_input_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, command):
        # Both used to end in numpy's "expected non-negative integer" traceback.
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(generate_scene(SceneConfig(n_objects=2, rng_seed=4))))
        args = [str(scene_path)] if command == "plan" else ["--difficulty", "easy", "--cases", "1"]
        assert main([command, *args, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["plan", str(scene_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
