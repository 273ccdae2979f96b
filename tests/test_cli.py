import json

import numpy as np
import pytest

from lrap.cli import main, parse_method_string, print_flop_table
from lrap.harness import TRACE_HEADER
from conftest import synthetic_image, write_pgm_p5


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
        for bad in ("qr", "hmt(1)", "tropp(5)", "gn(2,3)", "svd(1)", "hmt(0,9):triangular"):
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

    def test_bad_size(self, capsys):
        assert main(["flops", "--size", "abc", "--rank", "4", "--spec", "svd"]) == 1
        assert "error:" in capsys.readouterr().err


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
        assert "error:" in capsys.readouterr().err


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

    def test_bad_count(self, tmp_path, capsys):
        code = main(
            ["spectrum", '{"type": "uniform", "rows": 4, "cols": 4, "seed": 1}',
             "--count", "9", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
