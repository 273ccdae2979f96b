"""Each output check of the benchmark passes on a right output and fails on a wrong one.

Run with ``python -m pytest bench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import lrap  # noqa: E402
import lrap.methods  # noqa: E402
from checks import (  # noqa: E402
    UNIFORM_REL_FRO,
    check_both_violations,
    check_coag_errors,
    check_trial,
    check_uniform_errors,
    clamping_residual,
    dense,
    eckart_young,
    iters_to_tol,
)
from tracing import Tracer, installed  # noqa: E402

RANK = 6
BOX = lrap.BoxBounds(0.0, np.inf)


def run(target, iterations=25):
    spec = lrap.MethodSpec(
        method="hmt", r=RANK, k=9, s=iterations, box=BOX,
        sketch=lrap.SketchSpec(kind="sparse", density=0.5, seed=3),
    )
    y0 = lrap.svd_truncated(target, RANK)
    final, trace = lrap.run_method(y0, spec, target=target)
    return y0, final, trace


@pytest.fixture(scope="module")
def target():
    return lrap.gen_uniform(60, 50, seed=5)


@pytest.fixture(scope="module")
def outcome(target):
    return run(target)


def test_right_output_passes(target, outcome):
    y0, final, trace = outcome
    assert check_trial(target, BOX, RANK, final, trace, eckart_young(target, RANK)) == []
    assert iters_to_tol(trace, BOX, clamping_residual(dense(y0), BOX)) is not None


def test_perturbed_factor_fails_the_record_check(target, outcome):
    _, final, trace = outcome
    u = final.u.copy()
    u[0, 0] *= 1.0 + 1e-6
    wrong = lrap.LowRankFactors(u=u, v=final.v, sigma=final.sigma)
    errors = check_trial(target, BOX, RANK, wrong, trace, eckart_young(target, RANK))
    assert any(e.startswith("last record") for e in errors), errors


def test_wrong_record_fails(target, outcome):
    _, final, trace = outcome
    wrong = trace[:-1] + [replace(trace[-1], neg_density=trace[-1].neg_density + 1.0 / target.size)]
    errors = check_trial(target, BOX, RANK, final, wrong, eckart_young(target, RANK))
    assert errors == [f"last record neg_density = {float(wrong[-1].neg_density)!r}, "
                      f"recomputed {float(trace[-1].neg_density)!r}"]


def test_skipped_clamp_fails_box_and_tolerance(target, monkeypatch):
    def no_clamp(x, bounds=BOX):
        return np.asarray(x, dtype=float)

    monkeypatch.setattr(lrap, "project_box", no_clamp)
    monkeypatch.setattr(lrap.methods, "project_box", no_clamp)
    y0, final, trace = run(target)
    errors = check_trial(target, BOX, RANK, final, trace, eckart_young(target, RANK))
    assert any("outside the box" in e for e in errors), errors
    assert iters_to_tol(trace, BOX, clamping_residual(dense(y0), BOX)) is None


def test_too_high_rank_fails_rank_and_eckart_young(target):
    final = lrap.svd_truncated(target, RANK + 3)
    trace = [lrap.iteration_record(1, target, dense(final), BOX)]
    errors = check_trial(target, BOX, RANK, final, trace, eckart_young(target, RANK))
    assert any("factors have 9 columns" in e for e in errors), errors
    assert any("Eckart-Young" in e for e in errors), errors


def test_unconverged_run_misses_the_tolerance(target):
    y0, _, trace = run(target, iterations=1)
    assert iters_to_tol(trace, BOX, clamping_residual(dense(y0), BOX)) is None


def test_uniform_error_levels():
    assert check_uniform_errors({e: [v, v] for e, v in UNIFORM_REL_FRO.items()}) == []
    off = {e: [v] for e, v in UNIFORM_REL_FRO.items()}
    off["tropp"] = [UNIFORM_REL_FRO["tropp"] * 1.06]
    assert len(check_uniform_errors(off)) == 1


def test_coag_error_bound_skips_gn():
    ok = {"svd": [0.027], "tangent": [0.027], "hmt": [0.049], "tropp": [0.03, 0.03, 0.051], "gn": [0.16]}
    assert check_coag_errors(ok) == []
    assert len(check_coag_errors({**ok, "tropp": [0.03, 0.05, 0.051]})) == 1


def test_both_violation_families():
    box = lrap.BoxBounds(0.0, 1.0)
    start = np.array([[-0.1, 0.5], [0.5, 1.2]])
    assert check_both_violations(start, box) == []
    assert len(check_both_violations(np.clip(start, 0.0, 1.0), box)) == 2
    assert check_both_violations(np.minimum(start, 1.0), box) == ["start has no entry above the box"]


def test_tracer_counts_and_restores(target):
    original = lrap.methods.qr_thin
    tracer = Tracer()
    with installed(tracer):
        run(target, iterations=3)
    bucket = tracer.take()
    assert lrap.methods.qr_thin is original
    assert bucket["sketching.draws"] == 3
    assert bucket["linalg.qr_s"] > 0 and bucket["linalg.as_matrix_calls"] > 0
    assert bucket["covered_s"] >= bucket["linalg.qr_s"]
