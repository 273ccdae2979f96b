"""Non-finite input is rejected at the public boundary.

The engines validate their input once, where it enters: ``run_method``,
``initialize`` and the ``ap_*_step`` functions.  Inner calls on arrays
that lrap produced itself skip the scan, so each public kernel must still
reject non-finite input when it is called directly.
"""

from dataclasses import replace

import numpy as np
import pytest

from lrap import (
    BoxBounds,
    IterateState,
    MethodSpec,
    SketchSpec,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    initialize,
    iteration_record,
    project_box,
    qr_thin,
    relative_errors,
    run_method,
    svd_truncated,
    violation_stats,
)
from lrap.problems import gen_uniform

SKETCH = SketchSpec(kind="sparse", density=0.4, seed=9)
SPECS = {
    "svd": MethodSpec(method="svd", r=3, s=2),
    "tangent": MethodSpec(method="tangent", r=3, s=2),
    "hmt": MethodSpec(method="hmt", r=3, k=5, s=2, sketch=SKETCH),
    "tropp": MethodSpec(method="tropp", r=3, k=5, l=8, s=2, sketch=SKETCH),
    "gn": MethodSpec(method="gn", r=3, l=8, s=2, sketch=SKETCH),
}
STEPS = {
    "svd": lambda state, spec: ap_svd_step(state, spec),
    "tangent": lambda state, spec: ap_tangent_step(state, spec),
    "hmt": lambda state, spec: ap_hmt_step(state, spec, 1),
    "tropp": lambda state, spec: ap_tropp_step(state, spec, 1),
    "gn": lambda state, spec: ap_gn_step(state, spec, 1),
}
BAD = [np.nan, np.inf, -np.inf]


def target():
    return gen_uniform(14, 11, 3)


def spoiled(value, where="u"):
    """Valid factors whose array is overwritten in place after construction."""
    factors = svd_truncated(target(), 3)
    getattr(factors, where).flat[2] = value
    return factors


@pytest.mark.parametrize("method", sorted(SPECS))
@pytest.mark.parametrize("bad", BAD)
class TestEntryPoints:
    def test_run_method_rejects_target(self, method, bad):
        t = target()
        y0 = initialize(t, SPECS[method])
        t[4, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_method(y0, SPECS[method], target=t)

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_run_method_rejects_factors(self, method, bad, iterations):
        spec = replace(SPECS[method], s=iterations)
        with pytest.raises(ValueError, match="non-finite"):
            run_method(spoiled(bad), spec, target=target())
        with pytest.raises(ValueError, match="non-finite"):
            run_method(spoiled(bad, "v"), spec)

    def test_initialize_rejects_target(self, method, bad):
        t = target()
        t[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            initialize(t, SPECS[method])

    # The clamp pass forms the iterate from the bad entry before its sums reject it.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_step_rejects_factors(self, method, bad):
        for where in ("u", "v", "sigma"):
            with pytest.raises(ValueError, match="non-finite"):
                STEPS[method](IterateState(spoiled(bad, where)), SPECS[method])


def with_bad_entry(shape, bad, seed=0):
    a = np.random.default_rng(seed).random(shape)
    a[0, -1] = bad
    return a


SPARSE_PSI = gen_test_matrix(SKETCH, 6, 3)
SPARSE_PHI = gen_test_matrix(SKETCH, 3, 6)
KERNELS = {
    "qr_thin": lambda bad: qr_thin(with_bad_entry((6, 3), bad)),
    "svd_truncated": lambda bad: svd_truncated(with_bad_entry((6, 5), bad), 2),
    "project_box": lambda bad: project_box(with_bad_entry((6, 5), bad), BoxBounds(0.0, 1.0)),
    "relative_errors target": lambda bad: relative_errors(with_bad_entry((6, 5), bad), np.ones((6, 5))),
    "relative_errors approx": lambda bad: relative_errors(np.ones((6, 5)), with_bad_entry((6, 5), bad)),
    "violation_stats": lambda bad: violation_stats(with_bad_entry((6, 5), bad)),
    "iteration_record": lambda bad: iteration_record(1, np.ones((6, 5)), with_bad_entry((6, 5), bad)),
    "apply_sketch_right x": lambda bad: apply_sketch_right(with_bad_entry((4, 6), bad), SPARSE_PSI),
    "apply_sketch_right psi": lambda bad: apply_sketch_right(np.ones((4, 6)), with_bad_entry((6, 3), bad)),
    "apply_sketch_left x": lambda bad: apply_sketch_left(SPARSE_PHI, with_bad_entry((6, 4), bad)),
    "apply_sketch_left phi": lambda bad: apply_sketch_left(with_bad_entry((3, 6), bad), np.ones((6, 4))),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("bad", BAD)
def test_public_kernel_rejects_nonfinite_input(kernel, bad):
    with pytest.raises(ValueError, match="non-finite"):
        KERNELS[kernel](bad)
