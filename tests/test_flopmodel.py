import pytest

from lrap import (
    MethodSpec,
    SketchSpec,
    dominant_coefficient,
    flops_init,
    flops_per_iteration,
    flops_svd,
)

SPARSE = SketchSpec(kind="sparse", density=0.2)
GAUSS = SketchSpec(kind="gaussian")
RAD = SketchSpec(kind="rademacher")


class TestKernelCosts:
    def test_svd_variants(self):
        assert flops_svd(256, 256, "square") == 21.0 * 256**3
        assert flops_svd(100, 10, "general") == 148_000.0
        with pytest.raises(ValueError, match="m == n"):
            flops_svd(100, 10, "square")
        with pytest.raises(ValueError, match="variant"):
            flops_svd(10, 10, "tall")
        with pytest.raises(ValueError, match="m >= n >= 1, got 10x100"):
            flops_svd(10, 100)


class TestPerIteration:
    def test_tangent_256(self):
        spec = MethodSpec(method="tangent", r=64)
        assert f"{flops_per_iteration(spec, 256, 256):.1e}" == "9.2e+07"

    def test_hmt_gaussian_256(self):
        spec = MethodSpec(method="hmt", r=64, k=70, p=1, sketch=GAUSS)
        assert flops_per_iteration(spec, 256, 256) == pytest.approx(77_025_152.0)

    def test_gn_sparse_1024(self):
        spec = MethodSpec(method="gn", r=10, l=40, sketch=SPARSE)
        assert f"{flops_per_iteration(spec, 1024, 1024):.1e}" == "3.3e+07"

    def test_svd_uses_square_variant_when_square(self):
        spec = MethodSpec(method="svd", r=64)
        value = flops_per_iteration(spec, 256, 256)
        assert value == 21.0 * 256**3 + 2 * 256 * 256 * 64 + 256 * 64

    def test_sketch_on_deterministic_method_rejected(self):
        with pytest.raises(ValueError, match="no sketch"):
            MethodSpec(method="svd", r=4, sketch=GAUSS)

    def test_rank_larger_than_matrix_rejected(self):
        # The model refuses a rank with the message a run gives.
        with pytest.raises(ValueError, match=r"^rank 64 out of range for the 32x32 target: r must be at most 32$"):
            flops_per_iteration(MethodSpec(method="svd", r=64), 32, 32)

    def test_co_range_sketch_wider_than_the_rows_rejected(self):
        # A run's range sketch X Psi is m x k, so k <= m, as run_method checks;
        # k > n is harmless, and a wide problem is checked before it is transposed.
        spec = MethodSpec(method="hmt", r=3, k=20, sketch=GAUSS)
        for cost in (flops_per_iteration, flops_init):
            for shape in ((10, 10), (10, 30)):
                with pytest.raises(ValueError, match=r"^co-range sketch size 20 .* at most 10$"):
                    cost(spec, *shape)
        assert flops_per_iteration(spec, 30, 10) > 0
        tropp = MethodSpec(method="tropp", r=3, k=20, l=25, sketch=SPARSE)
        with pytest.raises(ValueError, match="co-range sketch size 20"):
            flops_per_iteration(tropp, 10, 10)

    def test_power_iterations_wider_than_the_columns_rejected(self):
        # A power iteration QR-factors the n x k (Q^T X)^T, which a run refuses for k > n.
        message = r"^co-range sketch size 25 out of range for the 30x20 target: k must be at most 20 when p = 1$"
        spec = MethodSpec(method="hmt", r=5, k=25, p=1, sketch=GAUSS)
        for cost in (flops_per_iteration, flops_init):
            with pytest.raises(ValueError, match=message):
                cost(spec, 30, 20)
        assert flops_per_iteration(MethodSpec(method="hmt", r=5, k=25, sketch=GAUSS), 30, 20) > 0

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError, match="shape must be positive, got 0x8"):
            flops_per_iteration(MethodSpec(method="svd", r=1), 0, 8)


class TestDominantCoefficient:
    def test_tangent_is_6r(self):
        assert dominant_coefficient(MethodSpec(method="tangent", r=64)) == 384.0

    def test_gaussian_floor_matches_tangent(self):
        spec = MethodSpec(method="hmt", r=64, k=64, p=0, sketch=GAUSS)
        assert dominant_coefficient(spec) == 384.0

    def test_gn_sparse(self):
        spec = MethodSpec(method="gn", r=10, l=40, sketch=SPARSE)
        assert dominant_coefficient(spec) == pytest.approx(30.0)

    def test_svd_has_none(self):
        with pytest.raises(ValueError, match="dominant"):
            dominant_coefficient(MethodSpec(method="svd", r=4))

    def test_sign_sketches_beat_gaussian(self):
        # With p=0 and k=l=r the Gaussian coefficient is the 6r floor; both
        # sign families must come in strictly below it for every method.
        r = 32
        variants = {
            "hmt": dict(k=r, p=0),
            "tropp": dict(k=r, l=r),
            "gn": dict(l=r),
        }
        for method, extra in variants.items():
            gauss = dominant_coefficient(MethodSpec(method=method, r=r, sketch=GAUSS, **extra))
            rad = dominant_coefficient(MethodSpec(method=method, r=r, sketch=RAD, **extra))
            sparse = dominant_coefficient(MethodSpec(method=method, r=r, sketch=SPARSE, **extra))
            assert rad < gauss
            assert sparse < gauss

    def test_per_iteration_converges_to_dominant_term(self):
        size = 2**20
        specs = [
            MethodSpec(method="tangent", r=16),
            MethodSpec(method="hmt", r=16, k=20, p=1, sketch=SPARSE),
            MethodSpec(method="hmt", r=16, k=20, p=0, sketch=GAUSS),
            MethodSpec(method="tropp", r=16, k=20, l=30, sketch=RAD),
            MethodSpec(method="tropp", r=16, k=20, l=30, sketch=SPARSE),
            MethodSpec(method="gn", r=16, l=40, sketch=GAUSS),
            MethodSpec(method="gn", r=16, l=40, sketch=SPARSE),
        ]
        for spec in specs:
            ratio = flops_per_iteration(spec, size, size) / (float(size) * size)
            assert ratio == pytest.approx(dominant_coefficient(spec), rel=0.05)


class TestInitCosts:
    def test_deterministic_init(self):
        spec = MethodSpec(method="svd", r=10)
        expected = 21.0 * 1024**3 + 2 * 1024 * 1024 * 10
        assert flops_init(spec, 1024, 1024) == expected
        assert flops_init(MethodSpec(method="tangent", r=10), 1024, 1024) == expected

    def test_randomized_init_drops_reconstruction(self):
        m = n = 1024
        hmt = MethodSpec(method="hmt", r=10, k=15, p=0, sketch=SPARSE)
        assert flops_init(hmt, m, n) == flops_per_iteration(hmt, m, n) - 2 * m * n * 10 - n * 10
        gn = MethodSpec(method="gn", r=10, l=40, sketch=SPARSE)
        assert flops_init(gn, m, n) == flops_per_iteration(gn, m, n) - 2 * m * n * 10


# float.hex of flops_per_iteration, flops_init and dominant_coefficient (None
# for svd), recorded before the model was rebuilt from per-entry sketch costs:
# ((m, n), method, r, sizes, (sketch kind, density) or None, per-iteration,
# init, dominant).  Shapes that are not powers of two expose a change in the
# order of the floating-point operations.
PINNED = [
    ((256, 256), "svd", 64, {}, None,
     "0x1.5804000000000p+28", "0x1.5800000000000p+28", None),
    ((256, 256), "tangent", 64, {}, None,
     "0x1.5d65555555556p+26", "0x1.5800000000000p+28", "0x1.8000000000000p+8"),
    ((256, 256), "hmt", 64, {"p": 1, "k": 70}, ("gaussian", 1.0),
     "0x1.25d3e00000000p+26", "0x1.05c3e00000000p+26", "0x1.5800000000000p+9"),
    ((256, 256), "hmt", 64, {"p": 1, "k": 70}, ("rademacher", 1.0),
     "0x1.0f44e00000000p+26", "0x1.de69c00000000p+25", "0x1.3500000000000p+9"),
    ((256, 256), "hmt", 64, {"p": 1, "k": 70}, ("sparse", 0.2),
     "0x1.0148600000000p+26", "0x1.c270c00000000p+25", "0x1.1900000000000p+9"),
    ((256, 256), "hmt", 64, {"p": 1, "k": 70}, ("sparse", 0.01),
     "0x1.fbe3b33333334p+25", "0x1.bbc3b33333334p+25", "0x1.125999999999ap+9"),
    ((256, 256), "tropp", 64, {"k": 70, "l": 100}, ("gaussian", 1.0),
     "0x1.e8df1aaaaaaabp+25", "0x1.a8bf1aaaaaaabp+25", "0x1.d400000000000p+8"),
    ((256, 256), "tropp", 64, {"k": 70, "l": 100}, ("rademacher", 1.0),
     "0x1.6da11aaaaaaabp+25", "0x1.2d811aaaaaaabp+25", "0x1.2a00000000000p+8"),
    ((256, 256), "tropp", 64, {"k": 70, "l": 100}, ("sparse", 0.2),
     "0x1.1ec21aaaaaaabp+25", "0x1.bd44355555556p+24", "0x1.4400000000000p+7"),
    ((256, 256), "tropp", 64, {"k": 70, "l": 100}, ("sparse", 0.01),
     "0x1.0bf28dddddddep+25", "0x1.97a51bbbbbbbcp+24", "0x1.0366666666666p+7"),
    ((256, 256), "gn", 64, {"l": 150}, ("gaussian", 1.0),
     "0x1.986e555555555p+25", "0x1.586e555555555p+25", "0x1.1600000000000p+9"),
    ((256, 256), "gn", 64, {"l": 150}, ("rademacher", 1.0),
     "0x1.f780aaaaaaaabp+24", "0x1.7780aaaaaaaabp+24", "0x1.5600000000000p+8"),
    ((256, 256), "gn", 64, {"l": 150}, ("sparse", 0.2),
     "0x1.2e78444444445p+24", "0x1.5cf088888888ap+23", "0x1.559999999999ap+7"),
    ((256, 256), "gn", 64, {"l": 150}, ("sparse", 0.01),
     "0x1.fd0d4b17e4b17p+23", "0x1.fa1a962fc962ep+22", "0x1.0447ae147ae14p+7"),
    ((1024, 1024), "svd", 10, {}, None,
     "0x1.50500a0000000p+34", "0x1.5050000000000p+34", None),
    ((1024, 1024), "tangent", 10, {}, None,
     "0x1.f286eaaaaaaabp+25", "0x1.5050000000000p+34", "0x1.e000000000000p+5"),
    ((1024, 1024), "hmt", 10, {"p": 0, "k": 15}, ("gaussian", 1.0),
     "0x1.4f38860000000p+26", "0x1.fe5d0c0000000p+25", "0x1.4000000000000p+6"),
    ((1024, 1024), "hmt", 10, {"p": 0, "k": 15}, ("rademacher", 1.0),
     "0x1.0ee2860000000p+26", "0x1.7db10c0000000p+25", "0x1.0400000000000p+6"),
    ((1024, 1024), "hmt", 10, {"p": 0, "k": 15}, ("sparse", 0.2),
     "0x1.bdcb0c0000000p+25", "0x1.1db70c0000000p+25", "0x1.a800000000000p+5"),
    ((1024, 1024), "hmt", 10, {"p": 0, "k": 15}, ("sparse", 0.01),
     "0x1.a6f88c0000000p+25", "0x1.06e48c0000000p+25", "0x1.9133333333333p+5"),
    ((1024, 1024), "tropp", 10, {"k": 15, "l": 25}, ("gaussian", 1.0),
     "0x1.ac791a0000000p+26", "0x1.5c6f1a0000000p+26", "0x1.9000000000000p+6"),
    ((1024, 1024), "tropp", 10, {"k": 15, "l": 25}, ("rademacher", 1.0),
     "0x1.fee4340000000p+25", "0x1.5ed0340000000p+25", "0x1.e000000000000p+5"),
    ((1024, 1024), "tropp", 10, {"k": 15, "l": 25}, ("sparse", 0.2),
     "0x1.f938680000000p+24", "0x1.7220d00000000p+23", "0x1.c000000000000p+4"),
    ((1024, 1024), "tropp", 10, {"k": 15, "l": 25}, ("sparse", 0.01),
     "0x1.7e63680000000p+24", "0x1.f1db400000000p+21", "0x1.4666666666666p+4"),
    ((1024, 1024), "gn", 10, {"l": 40}, ("gaussian", 1.0),
     "0x1.f55852aaaaaabp+26", "0x1.a55852aaaaaabp+26", "0x1.e000000000000p+6"),
    ((1024, 1024), "gn", 10, {"l": 40}, ("rademacher", 1.0),
     "0x1.1d5452aaaaaabp+26", "0x1.9aa8a55555556p+25", "0x1.1800000000000p+6"),
    ((1024, 1024), "gn", 10, {"l": 40}, ("sparse", 0.2),
     "0x1.f0794aaaaaaabp+24", "0x1.60f2955555556p+23", "0x1.e000000000000p+4"),
    ((1024, 1024), "gn", 10, {"l": 40}, ("sparse", 0.01),
     "0x1.57234aaaaaaabp+24", "0x1.7234aaaaaaab0p+20", "0x1.4800000000000p+4"),
    ((40, 200), "svd", 8, {}, None,
     "0x1.3885000000000p+22", "0x1.3880000000000p+22", None),
    ((40, 200), "tangent", 8, {}, None,
     "0x1.327d555555555p+19", "0x1.3880000000000p+22", "0x1.8000000000000p+5"),
    ((40, 200), "hmt", 8, {"p": 2, "k": 11}, ("gaussian", 1.0),
     "0x1.90c9aaaaaaaabp+20", "0x1.7175aaaaaaaabp+20", "0x1.2800000000000p+7"),
    ((40, 200), "hmt", 8, {"p": 2, "k": 11}, ("rademacher", 1.0),
     "0x1.735aaaaaaaaabp+20", "0x1.5406aaaaaaaabp+20", "0x1.1200000000000p+7"),
    ((40, 200), "hmt", 8, {"p": 2, "k": 11}, ("sparse", 0.2),
     "0x1.62302aaaaaaabp+20", "0x1.42dc2aaaaaaabp+20", "0x1.0066666666666p+7"),
    ((40, 200), "hmt", 8, {"p": 2, "k": 11}, ("sparse", 0.01),
     "0x1.5e15f11111111p+20", "0x1.3ec1f11111111p+20", "0x1.f870a3d70a3d7p+6"),
    ((40, 200), "tropp", 8, {"k": 11, "l": 17}, ("gaussian", 1.0),
     "0x1.16622aaaaaaabp+20", "0x1.ee1c555555556p+19", "0x1.2000000000000p+6"),
    ((40, 200), "tropp", 8, {"k": 11, "l": 17}, ("rademacher", 1.0),
     "0x1.2261555555555p+19", "0x1.c772aaaaaaaaap+18", "0x1.6000000000000p+5"),
    ((40, 200), "tropp", 8, {"k": 11, "l": 17}, ("sparse", 0.2),
     "0x1.794aaaaaaaaabp+18", "0x1.f7f5555555556p+17", "0x1.599999999999ap+4"),
    ((40, 200), "tropp", 8, {"k": 11, "l": 17}, ("sparse", 0.01),
     "0x1.4813c44444445p+18", "0x1.958788888888ap+17", "0x1.047ae147ae148p+4"),
    ((40, 200), "gn", 8, {"l": 19}, ("gaussian", 1.0),
     "0x1.bc7baaaaaaaabp+19", "0x1.7dfbaaaaaaaabp+19", "0x1.1800000000000p+6"),
    ((40, 200), "gn", 8, {"l": 19}, ("rademacher", 1.0),
     "0x1.765b555555555p+18", "0x1.f2b6aaaaaaaaap+17", "0x1.5800000000000p+5"),
    ((40, 200), "gn", 8, {"l": 19}, ("sparse", 0.2),
     "0x1.9352aaaaaaaabp+17", "0x1.32a5555555556p+16", "0x1.5666666666667p+4"),
    ((40, 200), "gn", 8, {"l": 19}, ("sparse", 0.01),
     "0x1.3f61aaaaaaaabp+17", "0x1.1586aaaaaaaacp+15", "0x1.0451eb851eb85p+4"),
    ((777, 333), "svd", 8, {}, None,
     "0x1.6702d23800000p+30", "0x1.6702a89800000p+30", None),
    ((777, 333), "tangent", 8, {}, None,
     "0x1.94a9055555555p+23", "0x1.6702a89800000p+30", "0x1.8000000000000p+5"),
    ((777, 333), "hmt", 8, {"p": 0, "k": 8}, ("gaussian", 1.0),
     "0x1.8e7e4aaaaaaabp+23", "0x1.1012daaaaaaabp+23", "0x1.8000000000000p+5"),
    ((777, 333), "hmt", 8, {"p": 0, "k": 8}, ("rademacher", 1.0),
     "0x1.494edaaaaaaabp+23", "0x1.95c6d55555556p+22", "0x1.4000000000000p+5"),
    ((777, 333), "hmt", 8, {"p": 0, "k": 8}, ("sparse", 0.2),
     "0x1.16c9f77777779p+23", "0x1.30bd0eeeeeef2p+22", "0x1.0cccccccccccdp+5"),
    ((777, 333), "hmt", 8, {"p": 0, "k": 8}, ("sparse", 0.01),
     "0x1.0ac57681b4e82p+23", "0x1.18b40d0369d04p+22", "0x1.00a3d70a3d70ap+5"),
    ((777, 333), "tropp", 8, {"k": 13, "l": 27}, ("gaussian", 1.0),
     "0x1.b4cc255555555p+24", "0x1.75966d5555555p+24", "0x1.8000000000000p+6"),
    ((777, 333), "tropp", 8, {"k": 13, "l": 27}, ("rademacher", 1.0),
     "0x1.ec45dcaaaaaabp+23", "0x1.6dda6caaaaaabp+23", "0x1.c000000000000p+5"),
    ((777, 333), "tropp", 8, {"k": 13, "l": 27}, ("sparse", 0.2),
     "0x1.d22f395555555p+22", "0x1.aab0b2aaaaaaap+21", "0x1.8000000000000p+4"),
    ((777, 333), "tropp", 8, {"k": 13, "l": 27}, ("sparse", 0.01),
     "0x1.56b4f05555554p+22", "0x1.6778415555550p+20", "0x1.0666666666666p+4"),
    ((777, 333), "gn", 8, {"l": 15}, ("gaussian", 1.0),
     "0x1.0869d05555555p+24", "0x1.927d00aaaaaaap+23", "0x1.f000000000000p+5"),
    ((777, 333), "gn", 8, {"l": 15}, ("rademacher", 1.0),
     "0x1.39a8beaaaaaabp+23", "0x1.76a43d5555556p+22", "0x1.3800000000000p+5"),
    ((777, 333), "gn", 8, {"l": 15}, ("sparse", 0.2),
     "0x1.4ef6b2eeeeeefp+22", "0x1.4925cbbbbbbbcp+20", "0x1.499999999999ap+4"),
    ((777, 333), "gn", 8, {"l": 15}, ("sparse", 0.01),
     "0x1.095266369d035p+22", "0x1.94a4c6d3a06a0p+17", "0x1.03ae147ae147ap+4"),
]


@pytest.mark.parametrize("shape, method, r, sizes, sketch, per_iter, init, dominant", PINNED)
def test_pinned_bit_for_bit(shape, method, r, sizes, sketch, per_iter, init, dominant):
    sketch = None if sketch is None else SketchSpec(*sketch)
    spec = MethodSpec(method=method, r=r, sketch=sketch, **sizes)
    assert flops_per_iteration(spec, *shape).hex() == per_iter
    assert flops_init(spec, *shape).hex() == init
    if dominant is None:
        with pytest.raises(ValueError, match="no mn-linear"):
            dominant_coefficient(spec)
    else:
        assert dominant_coefficient(spec).hex() == dominant


def test_wide_problem_costed_transposed():
    spec = MethodSpec(method="tangent", r=8)
    assert flops_per_iteration(spec, 100, 300) == flops_per_iteration(spec, 300, 100)
