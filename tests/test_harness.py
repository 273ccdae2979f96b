import json
from pathlib import Path

import numpy as np
import pytest

from lrap import BoxBounds, MethodSpec, SketchSpec, SmoluchowskiSpec
from lrap.harness import (
    ExperimentConfig,
    ImageProblem,
    SmoluchowskiProblem,
    TRACE_HEADER,
    UniformProblem,
    build_target,
    export_spectrum,
    load_config,
    parse_config,
    parse_method,
    parse_problem,
    run_experiment,
)
from conftest import synthetic_image, write_pgm_p5


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def small_config(output_dir, trials=3, s=5):
    return ExperimentConfig(
        problem=UniformProblem(rows=32, cols=24, seed=5),
        method=MethodSpec(
            method="tropp", r=3, k=4, l=6, s=s, sketch=SketchSpec(kind="rademacher")
        ),
        trials=trials,
        master_seed=9,
        output_dir=str(output_dir),
    )


class TestParsing:
    def test_problem_variants(self):
        assert parse_problem({"type": "uniform", "rows": 4, "cols": 5}) == UniformProblem(4, 5, 0)
        assert parse_problem({"type": "image", "path": "x.pgm"}) == ImageProblem("x.pgm")
        smol = parse_problem({"type": "smoluchowski", "nodes": 64, "time": 2.0})
        assert isinstance(smol, SmoluchowskiProblem)
        assert smol.spec.nodes == 64 and smol.spec.time == 2.0

    def test_problem_errors(self):
        with pytest.raises(ValueError, match="type"):
            parse_problem({"rows": 3})
        with pytest.raises(ValueError, match="unknown problem"):
            parse_problem({"type": "video"})

    @pytest.mark.parametrize(
        "problem",
        [
            UniformProblem(rows=7, cols=5, seed=3),
            ImageProblem(path="x.pgm"),
            SmoluchowskiProblem(SmoluchowskiSpec(nodes=64, time=2.5, origin=0.1)),
        ],
    )
    def test_problem_json_round_trip(self, problem):
        assert parse_problem(problem.to_json()) == problem

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"type": "smoluchowski", "nodes": 4.5}, "nodes"),
            ({"type": "smoluchowski", "nodes": "8"}, "nodes"),
            ({"type": "smoluchowski", "nodes": True}, "nodes"),
            ({"type": "smoluchowski", "time": "6"}, "time"),
            ({"type": "smoluchowski", "step": None}, "step"),
            ({"type": "uniform", "rows": 4.7, "cols": 5}, "rows"),
            ({"type": "uniform", "rows": 4, "cols": "5"}, "cols"),
            ({"type": "uniform", "rows": 4, "cols": 5, "seed": 1.5}, "seed"),
        ],
    )
    def test_malformed_problem_numbers_rejected(self, raw, field):
        with pytest.raises(ValueError, match=field):
            parse_problem(raw)

    def test_integral_numbers_accepted(self):
        assert parse_problem({"type": "uniform", "rows": 4.0, "cols": 5}) == UniformProblem(4, 5)
        smol = parse_problem({"type": "smoluchowski", "nodes": 16.0, "time": 2})
        assert smol.spec.nodes == 16 and isinstance(smol.spec.nodes, int)
        assert smol.spec.time == 2.0 and isinstance(smol.spec.time, float)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("r", 2.5), ("k", "12"), ("l", 12.5), ("p", 0.5),
            ("iterations", "30"), ("iterations", float("inf")),
        ],
    )
    def test_malformed_method_numbers_rejected(self, field, value):
        raw = {"name": "tropp", "r": 8, "k": 12, "l": 16, "sketch": {"kind": "gaussian"}}
        with pytest.raises(ValueError, match=field):
            parse_method({**raw, field: value})

    def test_method_parsing(self):
        spec = parse_method(
            {
                "name": "hmt",
                "r": 8,
                "k": 12,
                "p": 1,
                "iterations": 30,
                "sketch": {"kind": "sparse", "density": 0.2},
                "box": {"lo": 0.0, "hi": 1.0},
            }
        )
        assert spec.method == "hmt" and spec.k == 12 and spec.p == 1 and spec.s == 30
        assert spec.sketch.kind == "sparse"
        assert spec.box == BoxBounds(0.0, 1.0)

    def test_method_box_defaults_to_nonnegativity(self):
        spec = parse_method({"name": "svd", "r": 4, "box": {"lo": 0.0, "hi": None}})
        assert spec.box.hi == float("inf")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"name": "svd"}, "method is missing required key 'r'"),
            ({"name": "hmt", "r": 2, "k": 4, "sketch": {}},
             "method.sketch is missing required key 'kind'"),
            (["svd"], "method must be an object with a 'name' key"),
        ],
    )
    def test_method_missing_key(self, raw, message):
        with pytest.raises(ValueError, match=message):
            parse_method(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"type": "uniform", "rows": 4, "cols": 5, "sed": 3},
             "uniform problem has unknown key 'sed'"),
            ({"type": "image", "path": "x.pgm", "scale": 2},
             "image problem has unknown key 'scale'"),
            ({"type": "smoluchowski", "node": 8}, "smoluchowski problem has unknown key 'node'"),
        ],
    )
    def test_problem_unknown_key(self, raw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_problem(raw)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"iteration": 100}, "method has unknown key 'iteration'"),
            ({"sketch": {"kind": "sparse", "densty": 0.1}},
             "method.sketch has unknown key 'densty'"),
            ({"box": {"lo": 0.0, "high": 1.0}}, "method.box has unknown key 'high'"),
        ],
    )
    def test_method_unknown_key(self, extra, message):
        raw = {"name": "hmt", "r": 2, "k": 4, "sketch": {"kind": "gaussian"}}
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_method({**raw, **extra})

    def test_sketch_seed_is_refused(self):
        # Each trial's sketch seed derives from master_seed.
        raw = {"name": "hmt", "r": 2, "k": 4, "sketch": {"kind": "gaussian", "seed": 5}}
        with pytest.raises(ValueError, match="^method.sketch has unknown key 'seed'$"):
            parse_method(raw)

    def test_config_unknown_key(self):
        raw = {
            "problem": {"type": "uniform", "rows": 2, "cols": 2},
            "method": {"name": "svd", "r": 1},
            "output_dir": "out",
            "worker": 2,
        }
        with pytest.raises(ValueError, match="^config has unknown key 'worker'$"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent.parent / "configs").glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_bundled_config_parses(self, path):
        assert load_config(path).method.s > 0

    @pytest.mark.parametrize("value", [None, 5, ["out"]], ids=["null", "number", "list"])
    def test_non_string_output_dir_rejected(self, value):
        raw = {
            "problem": {"type": "uniform", "rows": 2, "cols": 2},
            "method": {"name": "svd", "r": 1},
            "output_dir": value,
        }
        with pytest.raises(ValueError) as info:
            parse_config(raw)
        assert str(info.value) == f"output_dir must be a string, got {value!r}"

    @pytest.mark.parametrize("value", [None, 5], ids=["null", "number"])
    def test_non_string_image_path_rejected(self, value):
        with pytest.raises(ValueError, match=f"^path must be a string, got {value!r}$"):
            parse_problem({"type": "image", "path": value})

    def test_config_missing_key(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_config({"problem": {"type": "uniform", "rows": 2, "cols": 2}})

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)


class TestBuildTarget:
    def test_uniform_redrawn_per_trial(self):
        problem = UniformProblem(rows=10, cols=10, seed=4)
        a = build_target(problem, trial=0)
        b = build_target(problem, trial=1)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, build_target(problem, trial=0))

    def test_image_target(self, tmp_path):
        write_pgm_p5(tmp_path / "img.pgm", synthetic_image(n=16))
        out = build_target(ImageProblem(path=str(tmp_path / "img.pgm")))
        assert out.shape == (16, 16)


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        config = small_config(tmp_path / "out")
        summary = run_experiment(config)
        for t in range(3):
            rows = read_rows(tmp_path / "out" / f"trial_{t}.csv")
            assert rows.shape == (5, 9)
            assert np.array_equal(rows[:, 0], np.arange(1, 6))
        assert set(summary) >= {
            "method",
            "params",
            "init_flops",
            "per_iter_flops",
            "rel_frobenius_mean",
            "rel_chebyshev_mean",
            "trials",
            "seed",
        }
        on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert on_disk == summary

    def test_byte_identical_reruns(self, tmp_path):
        run_experiment(small_config(tmp_path / "a"))
        run_experiment(small_config(tmp_path / "b"))
        for name in ("trial_0.csv", "trial_1.csv", "trial_2.csv", "mean.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = small_config(tmp_path / "serial")
        run_experiment(serial)
        threaded = ExperimentConfig(**{**serial.__dict__, "output_dir": str(tmp_path / "pool"), "workers": 3})
        run_experiment(threaded)
        for name in ("trial_0.csv", "mean.csv", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    def test_trial_count_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trial count must be >= 1, got 0"):
            ExperimentConfig(**{**small_config(tmp_path / "z").__dict__, "trials": 0})

    def test_worker_count_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="worker count"):
            ExperimentConfig(**{**small_config(tmp_path / "z").__dict__, "workers": 0})
        assert not (tmp_path / "z").exists()

    def test_failed_trial_writes_nothing(self, tmp_path):
        config = ExperimentConfig(
            problem=UniformProblem(rows=4, cols=5, seed=1),
            method=MethodSpec(method="svd", r=6, s=2),
            trials=1,
            master_seed=0,
            output_dir=str(tmp_path / "out_r6"),
        )
        with pytest.raises(ValueError, match="rank 6 out of range"):
            run_experiment(config)
        assert not (tmp_path / "out_r6").exists()

    def test_mean_trace_is_exact_arithmetic_mean(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_experiment(config)
        trials = np.stack([read_rows(tmp_path / "out" / f"trial_{t}.csv") for t in range(3)])
        mean = read_rows(tmp_path / "out" / "mean.csv")
        assert np.array_equal(np.mean(trials, axis=0)[:, 1:], mean[:, 1:])

    def test_zero_iterations_echoes_initial_metrics(self, tmp_path):
        config = ExperimentConfig(
            problem=UniformProblem(rows=20, cols=20, seed=1),
            method=MethodSpec(method="svd", r=2, s=0),
            trials=1,
            master_seed=0,
            output_dir=str(tmp_path / "out"),
        )
        summary = run_experiment(config)
        lines = (tmp_path / "out" / "trial_0.csv").read_text().splitlines()
        assert lines == [TRACE_HEADER]
        assert summary["rel_frobenius_mean"] == summary["rel_frobenius_init_mean"]

    def test_different_master_seed_changes_randomized_run(self, tmp_path):
        base = small_config(tmp_path / "x", trials=1)
        run_experiment(base)
        other = ExperimentConfig(**{**base.__dict__, "output_dir": str(tmp_path / "y"), "master_seed": 10})
        run_experiment(other)
        assert (tmp_path / "x" / "trial_0.csv").read_text() != (tmp_path / "y" / "trial_0.csv").read_text()

    def test_init_policies_differ_for_randomized_methods(self, tmp_path):
        base = small_config(tmp_path / "svd_init", trials=1)
        svd_summary = run_experiment(base)
        method_init = ExperimentConfig(
            **{**base.__dict__, "output_dir": str(tmp_path / "method_init"), "init": "method"}
        )
        method_summary = run_experiment(method_init)
        # a randomized initial sketch cannot beat the best approximation
        assert method_summary["rel_frobenius_init_mean"] >= svd_summary["rel_frobenius_init_mean"]
        assert method_summary["init_flops"] < svd_summary["init_flops"]
        assert svd_summary["params"]["init"] == "svd"

    def test_unknown_init_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="init policy"):
            ExperimentConfig(
                **{**small_config(tmp_path / "z").__dict__, "init": "random"}
            )


class TestExportSpectrum:
    def test_uniform_spectrum_file(self, tmp_path):
        path = tmp_path / "spec.csv"
        export_spectrum(UniformProblem(rows=40, cols=40, seed=2), 40, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,sigma_normalized"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 40
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        export_spectrum(UniformProblem(rows=8, cols=8, seed=3), 1, path)
        assert path.read_text().splitlines()[1] == "1,1"

    def test_count_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="count"):
            export_spectrum(UniformProblem(rows=8, cols=8, seed=3), 9, tmp_path / "x.csv")

    def test_count_checked_before_the_spectrum(self, tmp_path, monkeypatch):
        def spectrum(x):
            raise AssertionError("spectrum computed for an invalid count")

        monkeypatch.setattr("lrap.harness.normalized_spectrum", spectrum)
        for count in (0, 9):
            with pytest.raises(ValueError, match=rf"^count must be in \[1, 6\], got {count}$"):
                export_spectrum(UniformProblem(rows=8, cols=6, seed=3), count, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()
