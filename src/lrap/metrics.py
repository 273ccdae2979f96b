"""Quantities reported per iteration: relative errors, bound violations,
and normalized singular spectra."""

from __future__ import annotations

import math
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
    # max|d| as max(max d, -min d) needs no |d| temporary; abs() gives the
    # +0.0 of |d| when d holds only zeros, some of them -0.0.
    chebyshev = abs(max(diff.max(), -diff.min()))
    return float(np.linalg.norm(diff) / frobenius), float(chebyshev / largest)


def _violations(x: np.ndarray, bounds: BoxBounds, threshold: float) -> ViolationStats:
    thr = abs(threshold)
    below = above = (0.0, 0.0, 0.0)
    # A side that is infinite or that no entry passes builds no array.  The
    # magnitudes are kept at full shape, +0.0 off the mask, so the Frobenius
    # sum is bitwise that of the clamping residual.  Rounding is monotone,
    # so the largest magnitude is that of the extreme entry.
    if bounds.lo > -math.inf and (low := x.min()) < bounds.lo - thr:
        mask = x < bounds.lo - thr
        magnitude = np.zeros_like(x)
        np.subtract(bounds.lo, x, out=magnitude, where=mask)
        below = (np.linalg.norm(magnitude), bounds.lo - low, np.count_nonzero(mask) / x.size)
    if bounds.hi < math.inf and (high := x.max()) > bounds.hi + thr:
        mask = x > bounds.hi + thr
        magnitude = np.zeros_like(x)
        np.subtract(x, bounds.hi, out=magnitude, where=mask)
        above = (np.linalg.norm(magnitude), high - bounds.hi, np.count_nonzero(mask) / x.size)
    return ViolationStats(*(float(v) for v in below + above))


def violation_stats(
    x, bounds: BoxBounds = NONNEGATIVE, threshold: float = NOISE_THRESHOLD
) -> ViolationStats:
    """Norms and density of the entries violating the box on each side.

    An entry violates below when ``x_ij < lo - |threshold|`` and above when
    ``x_ij > hi + |threshold|``; the reported magnitudes are the full
    distances to the bound.
    """
    return _violations(as_matrix(x, "x"), bounds, threshold)


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
