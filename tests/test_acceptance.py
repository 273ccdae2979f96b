"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).  The uniform-matrix experiment and the rank-10
benchmark runs execute in full here, so this module dominates the suite's
wall time.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import i0e

from lrap import (
    BoxBounds,
    IterateState,
    MethodSpec,
    SketchSpec,
    SmoluchowskiSpec,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    flops_init,
    flops_per_iteration,
    flops_svd,
    gen_test_matrix,
    gen_uniform,
    initialize,
    normalized_spectrum,
    project_box,
    relative_errors,
    run_method,
    smoluchowski_solution,
    svd_truncated,
    tangent_space_apply,
    violation_stats,
)
from lrap.cli import parse_method_string
from lrap.harness import ExperimentConfig, ImageProblem, UniformProblem, run_experiment
from lrap.metrics import ViolationStats
from lrap.sketching import apply_sketch_right
from conftest import nonnegative_rank_r, synthetic_image, write_pgm_p5


def two_sig(value):
    return f"{value:.1e}"


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


# --------------------------------------------------------------------------
# Criterion 1: flop-model regression against the three benchmark tables.
# --------------------------------------------------------------------------

TABLE_256 = [
    ("svd", 3.6e8),
    ("tangent", 9.2e7),
    ("hmt(1,70):gauss", 7.7e7),
    ("hmt(0,70):gauss", 5.0e7),
    ("hmt(0,70):rad", 4.4e7),
    ("hmt(0,70):rad(0.2)", 4.0e7),
    ("tropp(70,100):rad(0.2)", 3.8e7),
    ("tropp(70,85):rad(0.2)", 3.6e7),
    ("gn(150):rad(0.2)", 2.0e7),
    ("gn(120):rad(0.2)", 1.8e7),
]

TABLE_512 = [
    ("svd", 2.8e9),
    ("tangent", 1.3e8),
    ("hmt(0,60):rad(0.2)", 8.7e7),
    ("hmt(0,55):rad(0.2)", 8.0e7),
    ("tropp(65,110):rad(0.2)", 7.6e7),
    ("tropp(60,120):rad(0.2)", 7.1e7),
    ("gn(340):rad(0.2)", 7.1e7),
    ("gn(150):rad(0.2)", 4.8e7),
]

TABLE_1024_PER_ITER = [
    ("svd", 2.3e10),
    ("tangent", 6.5e7),
    ("hmt(0,15):rad(0.2)", 5.8e7),
    ("tropp(15,25):rad(0.2)", 3.3e7),
    ("gn(40):rad(0.2)", 3.3e7),
]

TABLE_1024_INIT = [
    ("svd", 2.3e10),
    ("tangent", 2.3e10),
    ("hmt(0,15):rad(0.2)", 3.7e7),
    ("tropp(15,25):rad(0.2)", 1.2e7),
    ("gn(40):rad(0.2)", 1.2e7),
]


def test_criterion_1_flop_model_regression():
    # Initial truncated-SVD rows of the 256 and 512 tables.
    assert two_sig(flops_svd(256, 256, "square")) == two_sig(3.5e8)
    assert two_sig(flops_svd(512, 512, "square")) == two_sig(2.8e9)

    for size, rank, table in ((256, 64, TABLE_256), (512, 50, TABLE_512)):
        for text, expected in table:
            spec = parse_method_string(text, rank)
            value = flops_per_iteration(spec, size, size)
            assert two_sig(value) == two_sig(expected), (size, text, value)

    for text, expected in TABLE_1024_PER_ITER:
        spec = parse_method_string(text, 10)
        value = flops_per_iteration(spec, 1024, 1024)
        assert two_sig(value) == two_sig(expected), ("per-iter", text, value)
    for text, expected in TABLE_1024_INIT:
        spec = parse_method_string(text, 10)
        value = flops_init(spec, 1024, 1024)
        assert two_sig(value) == two_sig(expected), ("init", text, value)

    print("criterion 1 (flop-model regression): PASS")


# --------------------------------------------------------------------------
# Criteria 2 and 3: the 256x256 uniform experiment, 10 trials of 100
# iterations each, shared by both tests.
# --------------------------------------------------------------------------

UNIFORM_METHODS = {
    "svd": ("svd", 0.308, 0.717),
    "tangent": ("tangent", 0.308, 0.719),
    "hmt": ("hmt(0,70):rad(0.2)", 0.310, 0.718),
    "tropp": ("tropp(70,100):rad(0.2)", 0.317, 0.747),
    "gn": ("gn(150):rad(0.2)", 0.340, 0.825),
}


@pytest.fixture(scope="module")
def uniform_runs(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("uniform")
    results = {}
    for name, (text, _, _) in UNIFORM_METHODS.items():
        spec = parse_method_string(text, 64)
        spec = MethodSpec(
            method=spec.method, r=64, k=spec.k, l=spec.l, p=spec.p, s=100,
            sketch=spec.sketch, box=spec.box,
        )
        config = ExperimentConfig(
            problem=UniformProblem(rows=256, cols=256, seed=20_240),
            method=spec,
            trials=10,
            master_seed=77,
            output_dir=str(out_root / name),
            init="svd",  # the uniform benchmark starts from the best rank-r approximation
            workers=2,
        )
        summary = run_experiment(config)
        mean_rows = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in (out_root / name / "mean.csv").read_text().splitlines()[1:]
            ]
        )
        results[name] = (summary, mean_rows)
    return results


@pytest.mark.slow
def test_criterion_2_uniform_experiment_errors(uniform_runs):
    init_fro = uniform_runs["svd"][0]["rel_frobenius_init_mean"]
    assert abs(init_fro - 0.307) <= 0.05 * 0.307, init_fro

    for name, (_, fro_ref, cheb_ref) in UNIFORM_METHODS.items():
        summary = uniform_runs[name][0]
        fro = summary["rel_frobenius_mean"]
        cheb = summary["rel_chebyshev_mean"]
        assert abs(fro - fro_ref) <= 0.05 * fro_ref, (name, fro)
        assert abs(cheb - cheb_ref) <= 0.20 * cheb_ref, (name, cheb)

    print("criterion 2 (uniform-experiment error levels): PASS")


@pytest.mark.slow
def test_criterion_3_negative_part_decays_tenfold(uniform_runs):
    # Trace columns: iter, rel_fro, rel_cheb, neg_fro, ...
    for name in ("svd", "tangent", "hmt", "tropp"):
        mean_rows = uniform_runs[name][1]
        first = mean_rows[0, 3]
        last = mean_rows[99, 3]
        assert last <= first / 10.0, (name, first, last)

    print("criterion 3 (negative-part tenfold decay): PASS")


# --------------------------------------------------------------------------
# Criterion 4: single steps reproduce exact-rank nonnegative matrices.
# --------------------------------------------------------------------------


def test_criterion_4_exact_rank_oracle_equivalence():
    rng = np.random.default_rng(4040)
    kinds = ("gaussian", "rademacher", "sparse")
    for case in range(50):
        m = int(rng.integers(30, 129))
        n = int(rng.integers(24, 97))
        r = int(rng.integers(2, 13))
        y = nonnegative_rank_r(m, n, r, seed=9000 + case)
        state = IterateState(svd_truncated(y, r))
        kind = kinds[case % 3]
        sketch = SketchSpec(kind=kind, density=0.2 if kind == "sparse" else 1.0, seed=100 + case)

        steps = {
            "svd": ap_svd_step(state, MethodSpec(method="svd", r=r)),
            "tangent": ap_tangent_step(state, MethodSpec(method="tangent", r=r)),
            "hmt": ap_hmt_step(
                state, MethodSpec(method="hmt", r=r, k=r, p=0, sketch=sketch), case
            ),
            "tropp": ap_tropp_step(
                state, MethodSpec(method="tropp", r=r, k=r, l=2 * r, sketch=sketch), case
            ),
            "gn": ap_gn_step(
                state, MethodSpec(method="gn", r=r, l=2 * r, sketch=sketch), case
            ),
        }
        for method, out in steps.items():
            err = rel_err(y, out.factors.reconstruct())
            assert err < 1e-8, (case, method, m, n, r, sketch.kind, err)

    print("criterion 4 (exact-rank oracle equivalence): PASS")


# --------------------------------------------------------------------------
# Criterion 5: tangent-space projector properties.
# --------------------------------------------------------------------------


def test_criterion_5_tangent_space_properties():
    rng = np.random.default_rng(5050)
    for case in range(20):
        m = int(rng.integers(24, 80))
        n = int(rng.integers(20, 64))
        r = int(rng.integers(2, 9))
        y = nonnegative_rank_r(m, n, r, seed=700 + case)
        f = svd_truncated(y, r)
        x = rng.standard_normal((m, n))
        projected = tangent_space_apply(x, f.u, f.v)
        s = np.linalg.svd(projected, compute_uv=False)
        assert s[2 * r] / s[0] < 1e-10, (case, s[2 * r] / s[0])
        assert rel_err(y, tangent_space_apply(y, f.u, f.v)) < 1e-10, case

    print("criterion 5 (tangent-space rank and identity): PASS")


# --------------------------------------------------------------------------
# Criterion 6: the analytic coagulation benchmark at its full size.
# --------------------------------------------------------------------------

SMOL_SPEC = SmoluchowskiSpec(
    kernel_constant=100.0, rate_a=1.0, rate_b=1.0, time=6.0, step=0.1, nodes=1024
)


@pytest.fixture(scope="module")
def smoluchowski_matrix():
    return smoluchowski_solution(SMOL_SPEC)


def test_criterion_6_matrix_finite_positive_symmetric(smoluchowski_matrix):
    m = smoluchowski_matrix
    assert np.isfinite(m).all()
    assert m[0, 0] == 0.0  # mass weight vanishes at the origin corner
    mask = np.ones_like(m, dtype=bool)
    mask[0, 0] = False
    assert (m[mask] > 0).all()
    assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()

    # 100 independently evaluated scalar entries at 40-digit precision.
    mpmath.mp.dps = 40
    sqrt_k = mpmath.sqrt(SMOL_SPEC.kernel_constant)
    tau = sqrt_k * SMOL_SPEC.time
    rng = np.random.default_rng(6060)
    v = SMOL_SPEC.grid()
    for _ in range(100):
        i, j = (int(x) for x in rng.integers(0, SMOL_SPEC.nodes, size=2))
        v1, v2 = mpmath.mpf(v[i]), mpmath.mpf(v[j])
        argument = 2 * mpmath.sqrt(v1 * v2 * tau / (tau + 2))
        concentration = (
            sqrt_k
            * mpmath.e ** (-v1 - v2)
            / (1 + tau / 2) ** 2
            * mpmath.besseli(0, argument)
        )
        reference = float((v1 + v2) * concentration)
        if reference == 0.0:
            assert m[i, j] == 0.0
        else:
            assert abs(m[i, j] - reference) / reference < 1e-12, (i, j)

    print("criterion 6a (analytic matrix reproduction): PASS")


def smoluchowski_mass_i0e(spec):
    """Mass matrix of ``spec`` evaluated with ``scipy.special.i0e``.

    Written out from the closed form without the program's code, but it
    shares ``i0e`` with the program, so criterion 6a's mpmath check is the
    independent oracle.  ``I0(z) = i0e(z) e^z`` keeps the exponent
    ``z - a v1 - b v2`` nonpositive, so nothing overflows.
    """
    v = spec.grid()
    a, b = spec.rate_a, spec.rate_b
    sqrt_k = math.sqrt(spec.kernel_constant)
    tau = sqrt_k * spec.time
    z = 2.0 * np.sqrt(a * b * tau / (tau + 2.0) * np.outer(v, v))
    exponent = z - a * v[:, None] - b * v[None, :]
    concentration = sqrt_k * a * b / (1.0 + tau / 2.0) ** 2 * i0e(z) * np.exp(exponent)
    return (v[:, None] + v[None, :]) * concentration


def test_criterion_6_spectrum_decay_threshold(smoluchowski_matrix):
    spectrum = normalized_spectrum(smoluchowski_matrix)

    # The decay is that of the closed form, not of a faulty generator.
    reference = np.linalg.svd(smoluchowski_mass_i0e(SMOL_SPEC), compute_uv=False)
    gap = np.abs(spectrum - reference / reference[0]).max()
    assert gap <= 1e-12, f"normalized spectrum differs from the i0e evaluation by {gap:.3e}"

    # Criterion 6c asks rank-10 runs for a relative error below 5e-2; the
    # best rank-10 error (Eckart-Young) must therefore lie below it too.
    tail = np.linalg.norm(spectrum[10:]) / np.linalg.norm(spectrum)
    assert spectrum[10] < 5e-2 and tail < 5e-2, (
        f"sigma_11/sigma_1 = {spectrum[10]:.3e}, rank-10 tail = {tail:.3e}"
    )

    # Singular values come sorted, so a count of the values at or above a
    # threshold is the index where the spectrum first drops below it.
    below_1e6 = np.count_nonzero(spectrum >= 1e-6)
    below_1e12 = np.count_nonzero(spectrum >= 1e-12)
    assert below_1e6 < 50 and below_1e12 < 50, (
        f"spectrum drops below 1e-6 at index {below_1e6} "
        f"and below 1e-12 at index {below_1e12}"
    )
    print("criterion 6b (spectrum decay threshold): PASS")


@pytest.mark.slow
def test_criterion_6_rank10_runs_stay_accurate(smoluchowski_matrix):
    target = smoluchowski_matrix
    sketch = SketchSpec(kind="sparse", density=0.2, seed=61)
    specs = {
        "svd": MethodSpec(method="svd", r=10, s=1000),
        "tangent": MethodSpec(method="tangent", r=10, s=1000),
        "hmt": MethodSpec(method="hmt", r=10, k=15, p=0, s=1000, sketch=sketch),
        "tropp": MethodSpec(method="tropp", r=10, k=15, l=25, s=1000, sketch=sketch),
    }
    for name, spec in specs.items():
        y0 = initialize(target, spec)
        _, trace = run_method(y0, spec, target=target)
        final = trace[-1].rel_frobenius
        assert final < 5e-2, (name, final)

    print("criterion 6c (rank-10 benchmark runs): PASS")


# --------------------------------------------------------------------------
# Criterion 7: range clipping on a grayscale image.
# --------------------------------------------------------------------------


def test_criterion_7_box_clipping_on_image(tmp_path):
    image_path = tmp_path / "scene.pgm"
    write_pgm_p5(image_path, synthetic_image(n=96))
    box = BoxBounds(0.0, 1.0)
    spec = MethodSpec(
        method="hmt", r=8, k=12, s=15,
        sketch=SketchSpec(kind="sparse", density=0.2, seed=7),
        box=box,
    )

    # Every per-iteration projected matrix lies in the box with zero
    # violation densities on both sides.
    from lrap.problems import load_image_pgm

    target = load_image_pgm(image_path)
    state = IterateState(initialize(target, spec))
    for i in range(1, 6):
        projected = project_box(state.factors.reconstruct(), box)
        assert projected.min() >= 0.0 and projected.max() <= 1.0
        assert violation_stats(projected, box) == ViolationStats(0, 0, 0, 0, 0, 0)
        state = ap_hmt_step(state, spec, iteration_seed=i)

    # The harness traces carry both violation families.
    config = ExperimentConfig(
        problem=ImageProblem(path=str(image_path)),
        method=spec,
        trials=2,
        master_seed=70,
        output_dir=str(tmp_path / "out"),
    )
    run_experiment(config)
    rows = np.array(
        [
            [float(v) for v in line.split(",")]
            for line in (tmp_path / "out" / "trial_0.csv").read_text().splitlines()[1:]
        ]
    )
    neg_fro, over_fro = rows[:, 3], rows[:, 6]
    assert (neg_fro > 0).any() and (over_fro > 0).any()

    print("criterion 7 (box clipping on an image): PASS")


# --------------------------------------------------------------------------
# Criterion 8: condensed invariant suites at their stated tolerances
# (the exhaustive versions live in the per-module unit tests).
# --------------------------------------------------------------------------


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(8080)

    # linalg: optimality, exact-rank reproduction, deterministic QR.
    a = rng.random((30, 22))
    f = svd_truncated(a, 6)
    best = np.linalg.norm(a - f.reconstruct())
    for _ in range(20):
        rival = (f.u + 0.03 * rng.standard_normal(f.u.shape)) * f.sigma @ f.v.T
        assert np.linalg.norm(a - rival) >= best
    exact = nonnegative_rank_r(40, 30, 5, seed=88)
    assert rel_err(exact, svd_truncated(exact, 5).reconstruct()) < 1e-10
    q1, r1 = np.linalg.qr(a)
    q2, r2 = np.linalg.qr(a)
    assert np.array_equal(q1, q2) and np.array_equal(r1, r2)

    # sketching: 3-sigma moments on >= 1e6 samples, sparse/dense agreement,
    # and seed determinism.
    gauss = gen_test_matrix(SketchSpec(kind="gaussian", seed=81), 1000, 1000)
    assert abs(gauss.mean()) < 4e-3 and abs(gauss.var() - 1.0) < 1e-2
    rad = gen_test_matrix(SketchSpec(kind="rademacher", seed=82), 1000, 1000)
    assert abs(rad.mean()) < 4e-3 and abs(rad.var() - 1.0) < 1e-2
    sparse = gen_test_matrix(SketchSpec(kind="sparse", density=0.2, seed=83), 1000, 1000)
    dense = sparse.densify()
    assert abs(dense.mean()) < 4e-3 and abs(dense.var() - 0.2) < 1e-2
    x = rng.standard_normal((64, 1000))
    assert np.linalg.norm(apply_sketch_right(x, sparse) - x @ dense) < 1e-12 * np.linalg.norm(x @ dense)
    again = gen_test_matrix(SketchSpec(kind="sparse", density=0.2, seed=83), 1000, 1000)
    assert np.array_equal(dense, again.densify())

    # projections: idempotence, nonexpansiveness, optimality.
    box = BoxBounds(0.0, 1.0)
    y = 2.0 * rng.standard_normal((25, 25))
    once = project_box(y, box)
    assert np.array_equal(project_box(once, box), once)
    z = 2.0 * rng.standard_normal((25, 25))
    assert np.linalg.norm(project_box(y, box) - project_box(z, box)) <= np.linalg.norm(y - z)
    feasible = rng.random((25, 25))
    assert np.linalg.norm(y - feasible) >= np.linalg.norm(y - once)

    # metrics: projected output is violation-free, the negative-part norm
    # identity holds at zero threshold, and spectra are scale/transpose
    # invariant.
    assert violation_stats(once, box) == ViolationStats(0, 0, 0, 0, 0, 0)
    stats = violation_stats(y, threshold=0.0)
    assert stats.neg_frobenius == np.linalg.norm(y - np.maximum(y, 0.0))
    base = normalized_spectrum(y)
    np.testing.assert_allclose(normalized_spectrum(y.T), base, atol=1e-12)
    np.testing.assert_allclose(normalized_spectrum(-2.5 * y), base, atol=1e-12)

    # relative errors against the uniform benchmark's truncation level.
    u = gen_uniform(256, 256, 800)
    fro, cheb = relative_errors(u, svd_truncated(u, 64).reconstruct())
    assert abs(fro - 0.307) <= 0.05 * 0.307
    assert abs(cheb - 0.718) <= 0.20 * 0.718

    print("criterion 8 (module invariant suites): PASS")
