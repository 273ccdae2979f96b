"""Quantities reported per iteration: relative errors, bound violations,
and normalized singular spectra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix
from .projections import BoxBounds, NONNEGATIVE

__all__ = [
    "NOISE_THRESHOLD",
    "IterationRecord",
    "ViolationStats",
    "iteration_record",
    "normalized_spectrum",
    "relative_errors",
    "target_norms",
    "violation_stats",
]

# Entries within this distance of a bound count as numerical noise, not as
# violations.  Applied symmetrically at both box edges.
NOISE_THRESHOLD = 1e-15


class ViolationStats(NamedTuple):
    neg_frobenius: float
    neg_chebyshev: float
    neg_density: float
    over_frobenius: float
    over_chebyshev: float
    over_density: float


@dataclass(frozen=True)
class IterationRecord:
    """Metric snapshot of one iterate; the unit written to trace files."""

    iteration: int
    rel_frobenius: float
    rel_chebyshev: float
    neg_frobenius: float
    neg_chebyshev: float
    neg_density: float
    over_frobenius: float
    over_chebyshev: float
    over_density: float


def target_norms(target: np.ndarray) -> tuple[float, float]:
    """``||T||_F`` and ``max|T|`` of a finite float64 target; raises if it is zero."""
    frobenius = np.linalg.norm(target)
    if frobenius == 0.0:
        raise ValueError("target matrix is zero; relative errors are undefined")
    return frobenius, max(target.max(), -target.min())


def relative_errors(target, approx) -> tuple[float, float]:
    """Relative Frobenius and Chebyshev errors of ``approx`` against ``target``.

    The Chebyshev error is ``max|target - approx| / max|target|``.
    """
    target = as_matrix(target, "target")
    approx = as_matrix(approx, "approx")
    if target.shape != approx.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {approx.shape}")
    frobenius, largest = target_norms(target)
    diff = target - approx
    return float(np.linalg.norm(diff) / frobenius), float(np.abs(diff).max() / largest)


def violation_stats(
    x, bounds: BoxBounds = NONNEGATIVE, threshold: float = NOISE_THRESHOLD
) -> ViolationStats:
    """Norms and density of the entries violating the box on each side.

    An entry violates below when ``x_ij < lo - |threshold|`` and above when
    ``x_ij > hi + |threshold|``; the reported magnitudes are the full
    distances to the bound.
    """
    x = as_matrix(x, "x")
    thr = abs(threshold)
    neg = np.where(x < bounds.lo - thr, bounds.lo - x, 0.0)
    over = np.where(x > bounds.hi + thr, x - bounds.hi, 0.0)
    return ViolationStats(
        float(np.linalg.norm(neg)), float(neg.max()), np.count_nonzero(neg) / x.size,
        float(np.linalg.norm(over)), float(over.max()), np.count_nonzero(over) / x.size,
    )


def normalized_spectrum(x) -> np.ndarray:
    """Singular values of ``x`` divided by the largest one."""
    x = as_matrix(x, "x")
    sigma = np.linalg.svd(x, compute_uv=False)
    if sigma[0] == 0.0:
        raise ValueError("zero matrix has no normalized spectrum")
    return sigma / sigma[0]


def iteration_record(
    iteration: int,
    target,
    approx,
    bounds: BoxBounds = NONNEGATIVE,
    threshold: float = NOISE_THRESHOLD,
) -> IterationRecord:
    """Assemble the full per-iteration record for one dense iterate.

    :func:`lrap.methods.run_method` gathers the same record in its clamp pass
    (:func:`lrap.methods.clamp_iterate`); this is its dense reference.
    """
    rel = relative_errors(target, approx)
    return IterationRecord(iteration, *rel, *violation_stats(approx, bounds, threshold))
