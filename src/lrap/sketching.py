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

from .linalg import as_matrix

__all__ = [
    "SketchSpec",
    "SparseSignMatrix",
    "apply_sketch_left",
    "apply_sketch_right",
    "gen_test_matrix",
    "sub_seed",
]

KINDS = ("gaussian", "rademacher", "sparse")

_U64 = 2**64


@dataclass(frozen=True)
class SketchSpec:
    """Test-matrix distribution plus the seed of its generator stream.

    ``density`` is set only for the sparse kind, where each entry is
    independently nonzero with that probability; the dense kinds refuse it.
    """

    kind: str
    density: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "sparse" and not 0.0 < self.density <= 1.0:
            raise ValueError(f"sparse density must be in (0, 1], got {self.density}")
        if self.kind != "sparse" and self.density != 1.0:
            raise ValueError(f"{self.kind} sketch takes no density")


@dataclass(frozen=True)
class SparseSignMatrix:
    """Sparse sign test matrix, kept as the dense array the engines multiply.

    ``array`` is read-only and holds +1 or -1 at the entries the mask
    selected and 0 elsewhere; ``densify()`` returns a writable copy.
    """

    array: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.array))

    def densify(self) -> np.ndarray:
        return self.array.copy()


def sub_seed(seed: int, *path: int) -> int:
    """Derive a child seed from a base seed and an integer path.

    Distinct paths give statistically independent streams, which keeps
    per-trial and per-iteration draws reproducible in isolation.
    """
    keys = [int(seed) % _U64] + [int(p) % _U64 for p in path]
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed) % _U64))


def _gaussian_block(rng: np.random.Generator, count: int) -> np.ndarray:
    # Vectorized Box-Muller; 1 - random() maps [0, 1) onto (0, 1] so the log
    # never sees zero.
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def gen_test_matrix(spec: SketchSpec, rows: int, cols: int):
    """Draw a ``rows x cols`` test matrix for the given spec.

    Gaussian and sign matrices come back as arrays; the sparse kind returns
    a :class:`SparseSignMatrix`.  The draw is deterministic in
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
    # draw per selected entry, written in row-major order through the mask's
    # flat indices (faster than a boolean-mask assignment).
    flat = np.flatnonzero(rng.random((rows, cols)) < spec.density)
    array = np.zeros((rows, cols))
    array.ravel()[flat] = np.where(rng.random(flat.size) < 0.5, 1.0, -1.0)
    array.flags.writeable = False
    return SparseSignMatrix(array)


def _operand(a, name: str, check_finite: bool):
    # A sparse sign matrix is multiplied as its stored array, down the dense
    # path: a dense GEMM beats SciPy's sparse products at the engines' sketch
    # sizes, and the dense-sparse one copies the transpose of the other operand.
    if isinstance(a, SparseSignMatrix):
        a = a.array
    return as_matrix(a, name) if check_finite else a


def apply_sketch_right(x, psi, check_finite: bool = True) -> np.ndarray:
    """Compute ``x @ psi`` where ``psi`` may be dense or a sparse sign matrix.

    A sparse sign matrix is scanned as a dense one is;
    ``check_finite=False`` skips the scan of both operands.
    """
    x, psi = _operand(x, "x", check_finite), _operand(psi, "psi", check_finite)
    if x.shape[1] != psi.shape[0]:
        raise ValueError(f"cannot multiply {x.shape} by {psi.shape}")
    return x @ psi


def apply_sketch_left(phi, x, check_finite: bool = True) -> np.ndarray:
    """Compute ``phi @ x`` where ``phi`` may be dense or a sparse sign matrix.

    A sparse sign matrix is scanned as a dense one is;
    ``check_finite=False`` skips the scan of both operands.
    """
    x, phi = _operand(x, "x", check_finite), _operand(phi, "phi", check_finite)
    if phi.shape[1] != x.shape[0]:
        raise ValueError(f"cannot multiply {phi.shape} by {x.shape}")
    return phi @ x
