import math
import sys

import mpmath
import numpy as np
import pytest

from lrap import (
    SmoluchowskiSpec,
    gen_uniform,
    load_image_pgm,
    smoluchowski_concentration,
    smoluchowski_solution,
)
from conftest import synthetic_image, write_pgm_p2, write_pgm_p5


class TestGenUniform:
    def test_range_and_determinism(self):
        a = gen_uniform(50, 40, 7)
        assert a.shape == (50, 40)
        assert (a >= 0).all() and (a < 1).all()
        assert np.array_equal(a, gen_uniform(50, 40, 7))
        assert not np.array_equal(a, gen_uniform(50, 40, 8))

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (-1, 4)])
    def test_non_positive_shape_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="shape must be positive"):
            gen_uniform(rows, cols, 0)

    def test_mean_at_256(self):
        a = gen_uniform(256, 256, 31)
        assert abs(a.mean() - 0.5) < 0.004

    def test_spectrum_has_dominant_top_value_and_flat_bulk(self):
        a = gen_uniform(256, 256, 17)
        s = np.linalg.svd(a, compute_uv=False)
        assert 115 < s[0] < 141  # mean * sqrt(m n) up to fluctuations
        assert s[1] / s[0] < 0.12
        assert s[1] / s[50] < 2.0  # noise bulk decays slowly


class TestSmoluchowski:
    def test_time_zero_reduces_to_initial_condition(self):
        spec = SmoluchowskiSpec(time=0.0, nodes=64)
        v = spec.grid()
        n = smoluchowski_concentration(spec)
        expected = (
            math.sqrt(spec.kernel_constant)
            * spec.rate_a
            * spec.rate_b
            * np.exp(-(spec.rate_a * v)[:, None] - (spec.rate_b * v)[None, :])
        )
        np.testing.assert_allclose(n, expected, rtol=1e-14)

    def test_axis_rows_have_unit_bessel_factor(self):
        spec = SmoluchowskiSpec(time=6.0, nodes=48)
        v = spec.grid()
        n = smoluchowski_concentration(spec)
        tau = math.sqrt(spec.kernel_constant) * spec.time
        prefactor = math.sqrt(spec.kernel_constant) / (1 + tau / 2) ** 2
        for j in range(48):
            expected = prefactor * math.exp(-v[j])  # v1 = 0 row
            assert n[0, j] == pytest.approx(expected, rel=1e-13)
            assert n[j, 0] == pytest.approx(expected, rel=1e-13)

    def test_mass_relation_spot_checked(self, rng):
        spec = SmoluchowskiSpec(nodes=256)
        v = spec.grid()
        n = smoluchowski_concentration(spec)
        m = smoluchowski_solution(spec)
        for _ in range(100):
            i, j = rng.integers(0, 256, size=2)
            expected = (v[i] + v[j]) * n[i, j]
            if expected == 0.0:
                assert m[i, j] == 0.0
            else:
                assert m[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetry_under_rate_swap(self):
        base = SmoluchowskiSpec(rate_a=0.7, rate_b=1.3, nodes=40)
        swapped = SmoluchowskiSpec(rate_a=1.3, rate_b=0.7, nodes=40)
        np.testing.assert_allclose(
            smoluchowski_solution(base), smoluchowski_solution(swapped).T, rtol=1e-13
        )

    def test_equal_rates_give_exactly_symmetric_matrix(self):
        m = smoluchowski_solution(SmoluchowskiSpec(nodes=128))
        assert np.array_equal(m, m.T)

    def test_full_grid_finite_and_positive(self):
        spec = SmoluchowskiSpec()  # 1024 nodes, max coordinate 102.3
        n = smoluchowski_concentration(spec)
        m = smoluchowski_solution(spec)
        assert np.isfinite(m).all() and np.isfinite(n).all()
        assert (n > 0).all()
        # the mass weight vanishes at the origin corner of the default grid
        assert m[0, 0] == 0.0
        mask = np.ones_like(m, dtype=bool)
        mask[0, 0] = False
        assert (m[mask] > 0).all()

    def test_offset_grid_is_strictly_positive(self):
        m = smoluchowski_solution(SmoluchowskiSpec(nodes=64, origin=0.1))
        assert (m > 0).all()

    def test_finite_and_accurate_where_i0_overflows(self):
        # Arguments reach 1572 on this grid, and I0 overflows above about 713.
        spec = SmoluchowskiSpec(step=1.0, nodes=800)
        m = smoluchowski_solution(spec)
        assert np.isfinite(m).all()

        v = spec.grid()
        rng = np.random.default_rng(800)
        # Mostly near the diagonal, where the target stays above underflow.
        rows = rng.integers(0, spec.nodes, size=120)
        cols = np.clip(rows + rng.integers(-40, 41, size=120), 0, spec.nodes - 1)
        checked = overflowing = 0
        with mpmath.workdps(40):
            sqrt_k = mpmath.sqrt(spec.kernel_constant)
            tau = sqrt_k * spec.time
            for i, j in zip(rows.tolist(), cols.tolist()):
                v1, v2 = mpmath.mpf(v[i]), mpmath.mpf(v[j])
                argument = 2 * mpmath.sqrt(v1 * v2 * tau / (tau + 2))
                reference = float(
                    (v1 + v2) * sqrt_k * mpmath.e ** (-v1 - v2) / (1 + tau / 2) ** 2
                    * mpmath.besseli(0, argument)
                )
                if reference < sys.float_info.min:
                    continue  # underflows in double precision
                assert abs(m[i, j] - reference) / reference <= 1e-12, (i, j)
                checked += 1
                overflowing += argument > 713
        assert checked >= 100 and overflowing >= 50

    def test_spectrum_decay_on_default_grid(self):
        # Decay of the default mass matrix as measured on the
        # scipy.special.i0e evaluation of the closed form (criterion 6b):
        # the 11th normalized singular value is 3.0e-2, and the spectrum
        # drops below 1e-12 at index 36.
        m = smoluchowski_solution(SmoluchowskiSpec())
        s = np.linalg.svd(m, compute_uv=False)
        assert 0.02 < s[10] / s[0] < 0.04
        assert s[50] / s[0] < 1e-12
        ratio = s[1:12] / s[:11]
        assert (ratio < 0.82).all()  # steady geometric-like decay

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SmoluchowskiSpec(kernel_constant=0.0)
        with pytest.raises(ValueError):
            SmoluchowskiSpec(time=-1.0)
        with pytest.raises(ValueError):
            SmoluchowskiSpec(step=0.0)
        with pytest.raises(ValueError, match="node count"):
            SmoluchowskiSpec(nodes=0)
        with pytest.raises(ValueError, match="grid origin"):
            SmoluchowskiSpec(origin=-0.1)

    # NaN passes the range checks' comparisons; JSON's NaN and Infinity reach the spec.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["kernel_constant", "rate_a", "rate_b", "time", "step", "origin"])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SmoluchowskiSpec(**{field: value})


class TestLoadImagePgm:
    def test_p2_normalization(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_text("P2\n2 2\n255\n0 255 128 64\n")
        img = load_image_pgm(path)
        np.testing.assert_allclose(
            img, [[0.0, 1.0], [128 / 255, 64 / 255]], atol=1e-12
        )

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_text("P2\n# a comment\n2 1\n# another\n10\n5 10\n")
        np.testing.assert_allclose(load_image_pgm(path), [[0.5, 1.0]])

    def test_p2_and_p5_agree(self, tmp_path):
        img = synthetic_image(n=32)
        write_pgm_p2(tmp_path / "a.pgm", img)
        write_pgm_p5(tmp_path / "b.pgm", img)
        a = load_image_pgm(tmp_path / "a.pgm")
        b = load_image_pgm(tmp_path / "b.pgm")
        assert np.array_equal(a, b)

    def test_sixteen_bit_p5(self, tmp_path):
        img = synthetic_image(n=16)
        write_pgm_p5(tmp_path / "wide.pgm", img, maxval=65535)
        out = load_image_pgm(tmp_path / "wide.pgm")
        assert np.abs(out - img).max() < 1.0 / 65535

    def test_loaded_values_in_unit_interval(self, tmp_path):
        write_pgm_p5(tmp_path / "img.pgm", synthetic_image(n=24))
        out = load_image_pgm(tmp_path / "img.pgm")
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n2 x\n255\n0 0\n", "header field b'x'"),
            (b"P2\n0 2\n255\n", "dimensions 0x2"),
            (b"P5\n1 1\n65536\n\x00\x00", "at most 65535"),
            (b"P2\n2 1\n255\n0 y\n", "non-numeric pixel"),
            # The maxval sits inside a comment, so the header ends early.
            (b"P2\n2 1\n#255\n", "unexpected end of file"),
            (b"P2\n2 1\n#255", "unexpected end of file"),
        ],
    )
    def test_malformed_header_or_payload(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            load_image_pgm(path)

    def test_malformed_inputs(self, tmp_path):
        bad_magic = tmp_path / "bad.pgm"
        bad_magic.write_text("P7\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="magic"):
            load_image_pgm(bad_magic)

        zero_maxval = tmp_path / "zero.pgm"
        zero_maxval.write_text("P2\n2 2\n0\n0 0 0 0\n")
        with pytest.raises(ValueError, match="maxval"):
            load_image_pgm(zero_maxval)

        truncated = tmp_path / "short.pgm"
        truncated.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_image_pgm(truncated)

        missing_pixels = tmp_path / "few.pgm"
        missing_pixels.write_text("P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(ValueError, match="expected 4"):
            load_image_pgm(missing_pixels)

        over_range = tmp_path / "over.pgm"
        over_range.write_text("P2\n2 1\n10\n5 11\n")
        with pytest.raises(ValueError, match="outside"):
            load_image_pgm(over_range)
