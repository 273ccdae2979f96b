import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import lrap
from lrap.cli import main, parse_method_string, print_flop_table
from lrap.harness import TRACE_HEADER
from conftest import synthetic_image, write_pgm_p5

# The directory that holds the imported lrap package.
SRC = os.path.dirname(os.path.dirname(lrap.__file__))


class TestParseMethodString:
    def test_plain_methods(self):
        spec = parse_method_string("svd", rank=8)
        assert spec.method == "svd" and spec.r == 8 and spec.sketch is None
        assert parse_method_string("tangent", rank=8).method == "tangent"

    def test_parameterized_methods(self):
        spec = parse_method_string("hmt(1,70):gauss", rank=64)
        assert (spec.method, spec.p, spec.k) == ("hmt", 1, 70)
        assert spec.sketch.kind == "gaussian"
        spec = parse_method_string("tropp(70,100):rad(0.2)", rank=64)
        assert (spec.k, spec.l) == (70, 100)
        assert spec.sketch.kind == "sparse" and spec.sketch.density == 0.2
        spec = parse_method_string("gn(150):rad", rank=64)
        assert spec.l == 150 and spec.sketch.kind == "rademacher"

    def test_default_sketch_is_gaussian(self):
        assert parse_method_string("hmt(0,12)", rank=8).sketch.kind == "gaussian"

    def test_parse_errors(self):
        bad_specs = ("qr", "hmt(1)", "tropp(5)", "gn(2,3)", "svd(1)", "hmt(0,9):triangular",
                     "hmt(0,9):gauss(0.5)")
        for bad in bad_specs:
            with pytest.raises(ValueError):
                parse_method_string(bad, rank=4)


class TestFlopTable:
    def test_values_at_benchmark_size(self, capsys):
        specs = [
            parse_method_string("svd", 64),
            parse_method_string("tangent", 64),
            parse_method_string("hmt(0,70):rad(0.2)", 64),
        ]
        print_flop_table(256, 256, specs)
        out = capsys.readouterr().out
        assert "3.6e+08" in out and "9.2e+07" in out and "4.0e+07" in out
        assert "384" in out  # tangent dominant coefficient
        # svd has no mn-linear term, so its coeff/mn column reads n/a.
        assert out.splitlines()[2].split() == ["svd", "n/a", "3.6e+08", "n/a"]

    def test_empty_spec_list_prints_header_only(self, capsys):
        print_flop_table(64, 64, [])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # header and rule
        assert "method" in lines[0]


class TestMainFlops:
    def test_flops_command(self, capsys):
        code = main(
            ["flops", "--size", "1024x1024", "--rank", "10", "--spec", "tangent",
             "--spec", "gn(40):rad(0.2)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6.5e+07" in out and "3.3e+07" in out

    def test_dense_sketch_label(self, capsys):
        assert main(["flops", "--size", "256x256", "--rank", "64", "--spec", "hmt(0,70):gauss"]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["hmt(0,70)", "gaussian"]

    def test_module_entry_point(self):
        # `python -m lrap.cli`, as README documents it, in a fresh interpreter.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "lrap.cli", "flops", "--size", "64x64", "--rank", "4",
             "--spec", "svd"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[:4] == ["method", "sketch", "flops/iter", "coeff/mn"]

    def test_spec_is_required(self, capsys):
        # Without a spec there is no table to print: argparse's usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["flops", "--size", "64x64", "--rank", "4"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--spec" in captured.err and "required" in captured.err

    def test_bad_size(self, capsys):
        assert main(["flops", "--size", "abc", "--rank", "4", "--spec", "svd"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rank_too_large_prints_no_partial_table(self, capsys):
        code = main(["flops", "--size", "100x200", "--rank", "500", "--spec", "hmt(0,600)"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: target rank 500")


    def test_sketch_wider_than_the_rows_prints_no_table(self, capsys):
        # `lrap run` refuses this spec, so `lrap flops` does not price it.
        code = main(["flops", "--size", "10x10", "--rank", "3", "--spec", "hmt(0,20)"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "error: co-range sketch size 20 out of range for the 10x10 target: k must be at most 10\n"
        assert captured.err == message


class TestMainRun:
    def config_file(self, tmp_path, out_dir):
        raw = {
            "problem": {"type": "uniform", "rows": 24, "cols": 20, "seed": 3},
            "method": {
                "name": "hmt",
                "r": 3,
                "k": 5,
                "iterations": 4,
                "sketch": {"kind": "sparse", "density": 0.5},
            },
            "trials": 2,
            "master_seed": 11,
            "output_dir": str(out_dir),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_end_to_end(self, tmp_path, capsys):
        config = self.config_file(tmp_path, tmp_path / "out")
        assert main(["run", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == "hmt" and summary["trials"] == 2
        assert (tmp_path / "out" / "mean.csv").read_text().startswith(TRACE_HEADER)

    def test_flag_overrides(self, tmp_path, capsys):
        config = self.config_file(tmp_path, tmp_path / "out")
        code = main(
            ["run", str(config), "--output-dir", str(tmp_path / "other"),
             "--trials", "1", "--iterations", "2", "--master-seed", "5"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 1 and summary["seed"] == 5
        rows = (tmp_path / "other" / "trial_0.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 iterations
        assert not (tmp_path / "other" / "trial_1.csv").exists()

    def test_missing_config_fails_cleanly(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["run", str(bad)]) == 1
        assert f"error: config file {bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("sketch", "rad"), ("box", [0, 1])])
    def test_non_object_method_field_fails_cleanly(self, tmp_path, capsys, key, value):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["method"][key] = value
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert f"error: method.{key} must be a JSON object" in capsys.readouterr().err

    def test_repeated_sketch_collapse_fails_cleanly(self, tmp_path, capsys):
        # gn inverts the triangular factor of its core sketch.  On this seed
        # an iteration's sparse draw and its redraw both leave that factor
        # exactly singular, so the solve fails twice.
        raw = {
            "problem": {"type": "uniform", "rows": 20, "cols": 12, "seed": 1},
            "method": {
                "name": "gn",
                "r": 5,
                "l": 8,
                "iterations": 3,
                "sketch": {"kind": "sparse", "density": 0.3},
            },
            "trials": 1,
            "master_seed": 42,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "singular" in err

    @pytest.mark.parametrize(
        "master_seed, sketch",
        [
            (1, {"kind": "sparse", "density": 0.3}),
            (2, {"kind": "sparse", "density": 0.3}),
            (32, {"kind": "sparse", "density": 0.3}),
            (1, {"kind": "rademacher"}),
        ],
    )
    def test_rank_deficient_range_sketch_is_harmless(self, tmp_path, capsys, master_seed, sketch):
        # k > n: the range sketch has rank at most n < k, and on these seeds
        # an iteration's sparse draw and its redraw both have an all-zero
        # column.  hmt uses only the orthonormal basis of the sketch, so it runs.
        raw = {
            "problem": {"type": "uniform", "rows": 20, "cols": 12, "seed": 1},
            "method": {"name": "hmt", "r": 5, "k": 15, "iterations": 3, "sketch": sketch},
            "trials": 1,
            "master_seed": master_seed,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize(
        "drop, message",
        [
            ("r", "error: method is missing required key 'r'"),
            ("kind", "error: method.sketch is missing required key 'kind'"),
        ],
    )
    def test_method_missing_key_fails_cleanly(self, tmp_path, capsys, drop, message):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        owner = raw["method"]["sketch"] if drop == "kind" else raw["method"]
        del owner[drop]
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "owner, key, message",
        [
            ((), "trails", "config has unknown key 'trails'"),
            (("problem",), "sed", "uniform problem has unknown key 'sed'"),
            (("method",), "iteration", "method has unknown key 'iteration'"),
            (("method", "sketch"), "densty", "method.sketch has unknown key 'densty'"),
            (("method", "box"), "low", "method.box has unknown key 'low'"),
        ],
    )
    def test_unknown_key_fails_cleanly(self, tmp_path, capsys, owner, key, message):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["method"]["box"] = {"lo": 0.0}
        target = raw
        for name in owner:
            target = target[name]
        target[key] = 1
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_output_dir_fails_before_writing(self, tmp_path, capsys, monkeypatch):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["output_dir"] = None
        path.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: output_dir must be a string, got None\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_zero_workers_fails_before_writing(self, tmp_path, capsys):
        config = self.config_file(tmp_path, tmp_path / "out")
        assert main(["run", str(config), "--workers", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: worker count must be >= 1")
        assert not (tmp_path / "out").exists()

    def test_non_object_config_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path)]) == 1
        assert "error: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, message",
        [
            ({"name": "svd", "r": 3, "sketch": {"kind": "gaussian"}}, "svd takes no sketch"),
            (
                {"name": "hmt", "r": 3, "k": 5, "sketch": {"kind": "gaussian", "density": 0.5}},
                "gaussian sketch takes no density",
            ),
        ],
        ids=["svd-sketch", "gaussian-density"],
    )
    def test_unusable_sketch_fails_before_writing(self, tmp_path, capsys, method, message):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["method"] = {**method, "iterations": 2}
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_parameter_the_engine_lacks_fails_before_writing(self, tmp_path, capsys):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["method"] = {"name": "gn", "r": 3, "l": 6, "k": 99, "iterations": 2,
                         "sketch": {"kind": "gaussian"}}
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: gn takes no k\n"
        assert not (tmp_path / "out").exists()

    def test_sketch_wider_than_the_target_fails_before_writing(self, tmp_path, capsys):
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["problem"] = {"type": "uniform", "rows": 20, "cols": 30, "seed": 1}
        raw["method"]["k"] = 25
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        message = "error: co-range sketch size 25 out of range for the 20x30 target: k must be at most 20\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_arpack_failure_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # 5 r < min(m, n): svd projects by ARPACK, whose failure is a RuntimeError.
        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", None, None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        path = self.config_file(tmp_path, tmp_path / "out")
        raw = json.loads(path.read_text())
        raw["method"] = {"name": "svd", "r": 3, "iterations": 2}
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ARPACK error -1: no convergence")


class TestMainSpectrum:
    def test_inline_problem(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", '{"type": "uniform", "rows": 16, "cols": 16, "seed": 1}',
             "--count", "5", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,sigma_normalized"
        assert len(lines) == 6
        assert lines[1].startswith("1,1")

    def test_problem_from_config_file(self, tmp_path):
        write_pgm_p5(tmp_path / "img.pgm", synthetic_image(n=16))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"problem": {"type": "image", "path": str(tmp_path / "img.pgm")}})
        )
        out = tmp_path / "img_spec.csv"
        assert main(["spectrum", str(config), "--count", "3", "--output", str(out)]) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert values[0] == 1.0 and len(values) == 3
        assert all(np.isfinite(values))

    def test_malformed_number_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["spectrum", '{"type": "smoluchowski", "nodes": "8"}',
             "--count", "3", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "nodes must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, message",
        [
            ('{"type": "uniform", "rows": 4}', "uniform problem is missing required key 'cols'"),
            ('{"type": "image"}', "image problem is missing required key 'path'"),
        ],
    )
    def test_missing_key_fails_cleanly(self, tmp_path, capsys, problem, message):
        code = main(["spectrum", problem, "--count", "3", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_null_image_path_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["spectrum", '{"type": "image", "path": null}', "--count", "3", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: path must be a string, got None\n"
        assert not out.exists()

    def test_unknown_key_fails_cleanly(self, tmp_path, capsys):
        problem = '{"type": "smoluchowski", "node": 8}'
        code = main(["spectrum", problem, "--count", "3", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error: smoluchowski problem has unknown key 'node'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "owner, key, message",
        [
            ((), "trails", "config has unknown key 'trails'"),
            (("method",), "iteration", "method has unknown key 'iteration'"),
        ],
    )
    def test_config_file_checked_as_run_checks_it(self, tmp_path, capsys, owner, key, message):
        raw = {
            "problem": {"type": "uniform", "rows": 16, "cols": 16, "seed": 1},
            "method": {"name": "svd", "r": 2},
            "output_dir": str(tmp_path / "out"),
        }
        target = raw
        for name in owner:
            target = target[name]
        target[key] = 5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = main(["spectrum", str(path), "--count", "3", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        del target[key]
        path.write_text(json.dumps(raw))
        assert main(["spectrum", str(path), "--count", "3", "--output", str(tmp_path / "x.csv")]) == 0

    def test_invalid_inline_json_is_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["spectrum", "{oops", "--count", "3", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: inline problem is not valid JSON: ")
        assert not out.exists()

    def test_invalid_json_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        out = tmp_path / "x.csv"
        assert main(["spectrum", str(path), "--count", "3", "--output", str(out)]) == 1
        assert f"error: problem file {path} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "number.json"
        path.write_text("7")
        code = main(["spectrum", str(path), "--count", "3", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error: problem must be an object" in capsys.readouterr().err

    def test_bad_count(self, tmp_path, capsys):
        code = main(
            ["spectrum", '{"type": "uniform", "rows": 4, "cols": 4, "seed": 1}',
             "--count", "9", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
