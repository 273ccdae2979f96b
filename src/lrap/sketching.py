"""Seeded random test matrices for range and co-range estimation.

Three entry distributions are supported: standard Gaussian (sampled via the
Box-Muller transform), fair random signs, and random signs on a sparse mask
with a given density.  Generation is a pure function of the spec and the
requested shape, so any draw can be reproduced in isolation; per-iteration
streams are derived with :func:`sub_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import as_matrix

__all__ = [
    "SketchSpec",
    "SparseSignMatrix",
    "apply_sketch_left",
    "apply_sketch_right",
    "gen_test_matrix",
    "sample_gaussian_pair",
    "sub_seed",
]

KINDS = ("gaussian", "rademacher", "sparse")

_TWO_PI = 2.0 * math.pi
_U64 = 2**64


@dataclass(frozen=True)
class SketchSpec:
    """Test-matrix distribution plus the seed of its generator stream.

    ``density`` is only meaningful for the sparse kind, where each entry is
    independently nonzero with that probability.
    """

    kind: str
    density: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "sparse" and not 0.0 < self.density <= 1.0:
            raise ValueError(f"sparse density must be in (0, 1], got {self.density}")


@dataclass(frozen=True)
class SparseSignMatrix:
    """Sparse matrix whose stored entries are exactly +1 or -1 (COO layout)."""

    rows: int
    cols: int
    row_index: np.ndarray
    col_index: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self.values.size

    def to_csr(self) -> scipy.sparse.csr_array:
        return scipy.sparse.csr_array(
            (self.values, (self.row_index, self.col_index)), shape=self.shape
        )

    def densify(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_index, self.col_index] = self.values
        return out


def sub_seed(seed: int, *path: int) -> int:
    """Derive a child seed from a base seed and an integer path.

    Distinct paths give statistically independent streams, which keeps
    per-trial and per-iteration draws reproducible in isolation.
    """
    keys = [int(seed) % _U64] + [int(p) % _U64 for p in path]
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed) % _U64))


def sample_gaussian_pair(u1: float, u2: float) -> tuple[float, float]:
    """Box-Muller transform of two uniform samples.

    Maps ``u1 in (0, 1]`` and ``u2 in [0, 1)`` to two independent standard
    normal samples ``(sqrt(-2 log u1) cos(2 pi u2), sqrt(-2 log u1) sin(2 pi u2))``.
    """
    if not 0.0 < u1 <= 1.0:
        raise ValueError(f"u1 must be in (0, 1], got {u1}")
    if not 0.0 <= u2 < 1.0:
        raise ValueError(f"u2 must be in [0, 1), got {u2}")
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = _TWO_PI * u2
    return radius * math.cos(angle), radius * math.sin(angle)


def _gaussian_block(rng: np.random.Generator, count: int) -> np.ndarray:
    # Vectorized Box-Muller; 1 - random() maps [0, 1) onto (0, 1] so the log
    # never sees zero.
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = _TWO_PI * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def gen_test_matrix(spec: SketchSpec, rows: int, cols: int):
    """Draw a ``rows x cols`` test matrix for the given spec.

    Gaussian and sign matrices come back dense; the sparse kind returns a
    :class:`SparseSignMatrix`.  The draw is deterministic in
    ``(spec, rows, cols)``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"test matrix shape must be positive, got {rows}x{cols}")
    rng = _rng(spec.seed)
    if spec.kind == "gaussian":
        return _gaussian_block(rng, rows * cols).reshape(rows, cols)
    if spec.kind == "rademacher":
        return np.where(rng.random((rows, cols)) < 0.5, 1.0, -1.0)
    # Sparse mask: one uniform draw per entry decides membership, one sign
    # draw per selected entry.
    mask = rng.random((rows, cols)) < spec.density
    row_index, col_index = np.nonzero(mask)
    values = np.where(rng.random(row_index.size) < 0.5, 1.0, -1.0)
    return SparseSignMatrix(
        rows=rows,
        cols=cols,
        row_index=row_index.astype(np.int64),
        col_index=col_index.astype(np.int64),
        values=values,
    )


def apply_sketch_right(x, psi, check_finite: bool = True) -> np.ndarray:
    """Compute ``x @ psi`` where ``psi`` may be dense or a sparse sign matrix.

    A sparse ``psi`` is densified: a dense GEMM beats SciPy's dense-sparse
    product, which copies the transpose of ``x``.  ``check_finite=False``
    skips the scan for non-finite entries.
    """
    if check_finite:
        x = as_matrix(x, "x")
        if not isinstance(psi, SparseSignMatrix):
            psi = as_matrix(psi, "psi")
    if x.shape[1] != psi.shape[0]:
        raise ValueError(f"cannot multiply {x.shape} by {psi.shape}")
    return x @ (psi.densify() if isinstance(psi, SparseSignMatrix) else psi)


def apply_sketch_left(phi, x, check_finite: bool = True) -> np.ndarray:
    """Compute ``phi @ x`` where ``phi`` may be dense or a sparse sign matrix."""
    if check_finite:
        x = as_matrix(x, "x")
        if not isinstance(phi, SparseSignMatrix):
            phi = as_matrix(phi, "phi")
    if phi.shape[1] != x.shape[0]:
        raise ValueError(f"cannot multiply {phi.shape} by {x.shape}")
    return (phi.to_csr() if isinstance(phi, SparseSignMatrix) else phi) @ x
