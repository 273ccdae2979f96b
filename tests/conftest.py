import numpy as np
import pytest

from lrap import LowRankFactors, svd_truncated


def nonnegative_rank_r(rows, cols, r, seed):
    """Nonnegative matrix of exact rank r (product of nonnegative factors)."""
    rng = np.random.default_rng(seed)
    left = rng.random((rows, r))
    right = rng.random((cols, r))
    return left @ right.T


def lapack_truncation(matrix, r) -> LowRankFactors:
    """Rank-r truncation of NumPy's full LAPACK SVD: a reference that shares
    no code with lrap's Lanczos kernel."""
    u, sigma, vt = np.linalg.svd(np.asarray(matrix, dtype=np.float64), full_matrices=False)
    return LowRankFactors(u=u[:, :r], v=vt[:r].T, sigma=sigma[:r])


def svd_state(matrix, r) -> LowRankFactors:
    return svd_truncated(matrix, r)


@pytest.fixture
def rng():
    return np.random.default_rng(424242)


def write_pgm_p5(path, image, maxval=255):
    """Write a [0, 1] matrix as a binary PGM."""
    pixels = np.round(np.asarray(image) * maxval)
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
        if maxval > 255:
            data = pixels.astype(">u2").tobytes()
        else:
            data = pixels.astype(np.uint8).tobytes()
        handle.write(data)


def write_pgm_p2(path, image, maxval=255):
    """Write a [0, 1] matrix as an ASCII PGM."""
    pixels = np.round(np.asarray(image) * maxval).astype(int)
    height, width = pixels.shape
    lines = ["P2", f"{width} {height}", str(maxval)]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def synthetic_image(n=96, seed=11):
    """Grayscale test image spanning [0, 1] whose rank-8 truncation rings
    past the range on both sides (sharp black block and saturated disk)."""
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    img = 0.45 + 0.35 * np.sin(6 * np.pi * xx) * np.sin(4 * np.pi * yy)
    disk = (yy - 0.3) ** 2 + (xx - 0.65) ** 2 < 0.05
    img[disk] = 1.0
    img[(yy > 0.65) & (yy < 0.95) & (xx > 0.1) & (xx < 0.4)] = 0.0
    img += 0.04 * np.random.default_rng(seed).random((n, n))
    img -= img.min()
    img /= img.max()
    return img
