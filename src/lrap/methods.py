"""Alternating-projection engines for low-rank nonnegative approximation.

Five ways to realize the rank-r projection half of the iteration:

* ``svd``     -- exact truncated SVD of the clamped iterate;
* ``tangent`` -- truncated SVD restricted to the tangent space of the
  rank-r manifold at the previous iterate (rank of the intermediate is at
  most 2r, so only small factorizations are needed);
* ``hmt``     -- randomized range-finder SVD with optional power iterations,
  co-range sketch size ``k >= r``;
* ``tropp``   -- two-sided sketch with a pseudoinverse correction, sketch
  sizes ``l >= k >= r``;
* ``gn``      -- generalized Nystrom estimator, SVD-free, range sketch size
  ``l >= r``.

Each engine is exposed both as a single step acting on an
:class:`IterateState` and through the :func:`run_method` driver, which
materializes the dense iterate once per iteration, records metrics, and
retries a collapsed sketch once with a fresh stream before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import LowRankFactors, as_matrix, qr_thin, svd_truncated
from .metrics import IterationRecord, iteration_record, target_norms
from .projections import NONNEGATIVE, BoxBounds, project_box
from .sketching import (
    SketchSpec,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    sub_seed,
)

__all__ = [
    "METHOD_NAMES",
    "IterateState",
    "MethodSpec",
    "SketchCollapseError",
    "ap_gn_step",
    "ap_hmt_step",
    "ap_svd_step",
    "ap_tangent_step",
    "ap_tropp_step",
    "initialize",
    "run_method",
    "tangent_space_apply",
]

METHOD_NAMES = ("svd", "tangent", "hmt", "tropp", "gn")
RANDOMIZED = ("hmt", "tropp", "gn")

# Stream roles for deriving independent per-iteration draws, plus a path
# tag that keeps the retry stream disjoint from every iteration stream.
_PSI, _PHI = 0, 1
_RETRY = 2**31


class SketchCollapseError(RuntimeError):
    """A sketch produced an exactly singular triangular factor.

    Retryable: drawing a fresh test matrix almost surely avoids it.
    """


@dataclass(frozen=True)
class MethodSpec:
    """Method selector plus every parameter a run needs.

    Attributes
    ----------
    method : str
        One of ``svd``, ``tangent``, ``hmt``, ``tropp``, ``gn``.
    r : int
        Target rank.
    k : int, optional
        Co-range sketch size (``hmt`` and ``tropp``; ``k >= r``).
    l : int, optional
        Range sketch size (``tropp`` with ``l >= k``; ``gn`` with ``l >= r``).
    p : int
        Power-iteration count (``hmt`` only, ``p >= 0``).
    s : int
        Number of iterations the driver performs (``s >= 0``).
    sketch : SketchSpec, optional
        Required for the randomized methods.
    box : BoxBounds
        Admissible value range; defaults to nonnegativity.
    """

    method: str
    r: int
    k: int | None = None
    l: int | None = None
    p: int = 0
    s: int = 0
    sketch: SketchSpec | None = None
    box: BoxBounds = NONNEGATIVE

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHOD_NAMES}")
        if self.r < 1:
            raise ValueError(f"target rank must be >= 1, got {self.r}")
        if self.s < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.s}")
        if self.p < 0:
            raise ValueError(f"power iteration count must be >= 0, got {self.p}")
        if self.method in ("hmt", "tropp"):
            if self.k is None or self.k < self.r:
                raise ValueError(f"{self.method} requires co-range sketch size k >= r")
        if self.method == "tropp":
            if self.l is None or self.l < self.k:
                raise ValueError("tropp requires range sketch size l >= k")
        if self.method == "gn":
            if self.l is None or self.l < self.r:
                raise ValueError("gn requires range sketch size l >= r")
        if self.method in RANDOMIZED and self.sketch is None:
            raise ValueError(f"{self.method} requires a sketch spec")


@dataclass(frozen=True)
class IterateState:
    """Current low-rank iterate and its iteration index."""

    factors: LowRankFactors
    iteration: int = 0


def _check_triangular(r_factor: np.ndarray, context: str):
    # Only exact singularity counts as a collapse: targets of low numerical
    # rank legitimately produce tiny trailing diagonal entries.
    diag = np.diag(r_factor)
    if (diag == 0.0).any() or not np.isfinite(diag).all():
        raise SketchCollapseError(f"{context}: sketch produced a singular triangular factor")


def _iteration_sketch(spec: MethodSpec, iteration_seed: int, role: int) -> SketchSpec:
    seed = sub_seed(spec.sketch.seed, iteration_seed, role)
    return replace(spec.sketch, seed=seed)


def tangent_space_apply(x, u, v) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the tangent space at ``u diag(s) v.T``.

    Computes ``u u.T x + (I - u u.T) x v v.T`` densely; the result has rank
    at most twice the factor width.  Intended for diagnostics, not for the
    iteration itself.
    """
    x = as_matrix(x, "x")
    u = as_matrix(u, "u")
    v = as_matrix(v, "v")
    utx = u.T @ x
    xv = x @ v
    return u @ utx + (xv - u @ (utx @ v)) @ v.T


def _project_svd(x: np.ndarray, spec: MethodSpec) -> LowRankFactors:
    return svd_truncated(x, spec.r)


def _project_tangent(x: np.ndarray, factors: LowRankFactors, spec: MethodSpec) -> LowRankFactors:
    if factors.sigma is None:
        raise ValueError("tangent step requires SVD-form factors (u, sigma, v)")
    r = spec.r
    u, v = factors.u, factors.v
    g1 = u.T @ x                      # r x n
    core = g1 @ v                     # u.T x v, r x r
    g2 = x @ v - u @ core             # (I - u u.T) x v, m x r
    q2, r2 = qr_thin(g2)
    # Orthogonalize the row-space factor against v so that [v q1] has
    # orthonormal columns and the small SVD below is a genuine SVD of the
    # projected matrix.
    q1, r1 = qr_thin(g1.T - v @ core.T)
    z = np.block([[core, r1.T], [r2, np.zeros((r, r))]])
    small = svd_truncated(z, r)
    return LowRankFactors(
        u=np.hstack([u, q2]) @ small.u,
        v=np.hstack([v, q1]) @ small.v,
        sigma=small.sigma,
    )


def _project_hmt(x: np.ndarray, spec: MethodSpec, iteration_seed: int) -> LowRankFactors:
    n = x.shape[1]
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), n, spec.k)
    z1 = apply_sketch_right(x, psi, check_finite=False)
    q, r_factor = qr_thin(z1)
    _check_triangular(r_factor, "hmt range sketch")
    for _ in range(spec.p):
        z2 = q.T @ x
        q, r_factor = qr_thin(z2.T)
        _check_triangular(r_factor, "hmt power step")
        z1 = x @ q
        q, r_factor = qr_thin(z1)
        _check_triangular(r_factor, "hmt power step")
    z2 = q.T @ x
    small = svd_truncated(z2, spec.r)
    return LowRankFactors(u=q @ small.u, v=small.v, sigma=small.sigma)


def _project_tropp(x: np.ndarray, spec: MethodSpec, iteration_seed: int) -> LowRankFactors:
    m, n = x.shape
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), n, spec.k)
    phi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PHI), spec.l, m)
    z = apply_sketch_right(x, psi, check_finite=False)
    q, _ = qr_thin(z)
    w = apply_sketch_left(phi, q, check_finite=False)
    p_factor, t_factor = qr_thin(w)
    _check_triangular(t_factor, "tropp co-range sketch")
    g = solve_triangular(t_factor, p_factor.T @ apply_sketch_left(phi, x, check_finite=False))
    small = svd_truncated(g, spec.r)
    return LowRankFactors(u=q @ small.u, v=small.v, sigma=small.sigma)


def _project_gn(x: np.ndarray, spec: MethodSpec, iteration_seed: int) -> LowRankFactors:
    m, n = x.shape
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), n, spec.r)
    phi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PHI), spec.l, m)
    z = apply_sketch_right(x, psi, check_finite=False)
    w = apply_sketch_left(phi, z, check_finite=False)
    q, r_factor = qr_thin(w)
    _check_triangular(r_factor, "gn core sketch")
    v = apply_sketch_left(phi, x, check_finite=False).T @ q
    u = solve_triangular(r_factor.T, z.T, lower=True).T
    return LowRankFactors(u=u, v=v, sigma=None)


def _project(
    x: np.ndarray, factors: LowRankFactors, spec: MethodSpec, iteration_seed: int
) -> LowRankFactors:
    if spec.method == "svd":
        return _project_svd(x, spec)
    if spec.method == "tangent":
        return _project_tangent(x, factors, spec)
    if spec.method == "hmt":
        return _project_hmt(x, spec, iteration_seed)
    if spec.method == "tropp":
        return _project_tropp(x, spec, iteration_seed)
    return _project_gn(x, spec, iteration_seed)


def _step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    x = project_box(state.factors.reconstruct(), spec.box)
    factors = _project(x, state.factors, spec, iteration_seed)
    return IterateState(factors=factors, iteration=state.iteration + 1)


def _expect(spec: MethodSpec, method: str):
    if spec.method != method:
        raise ValueError(f"spec selects {spec.method!r}, step implements {method!r}")


def ap_svd_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One exact alternating-projection step: clamp, then truncated SVD."""
    _expect(spec, "svd")
    return _step(state, spec, 0)


def ap_tangent_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One tangent-space step.

    The state must carry SVD-form factors; the driver seeds them with a
    truncated SVD of the initial iterate.
    """
    _expect(spec, "tangent")
    return _step(state, spec, 0)


def ap_hmt_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One range-finder step with ``spec.p`` power iterations."""
    _expect(spec, "hmt")
    return _step(state, spec, iteration_seed)


def ap_tropp_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One two-sided-sketch step with pseudoinverse correction."""
    _expect(spec, "tropp")
    return _step(state, spec, iteration_seed)


def ap_gn_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One generalized-Nystrom step; the result is a sigma-less factor pair."""
    _expect(spec, "gn")
    return _step(state, spec, iteration_seed)


def initialize(target, spec: MethodSpec) -> LowRankFactors:
    """Method-specific initial rank-r approximation of a dense target.

    The deterministic methods start from the truncated SVD; each randomized
    method applies its own projection to the target once, using stream 0 of
    the sketch seed (iterations use streams 1..s).
    """
    target = as_matrix(target, "target")
    if spec.method in ("svd", "tangent"):
        return svd_truncated(target, spec.r)
    return _project(target, None, spec, iteration_seed=0)


def run_method(
    y0: LowRankFactors,
    spec: MethodSpec,
    target=None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> tuple[LowRankFactors, list[IterationRecord]]:
    """Apply the selected step ``spec.s`` times and record metrics.

    Parameters
    ----------
    y0 : LowRankFactors
        Initial iterate of rank at most ``spec.r``.  For the tangent method
        a sigma-less pair is re-factorized with a truncated SVD first;
        factors that do carry sigma are assumed to be an SVD.
    target : ndarray, optional
        Reference for the relative-error columns of the trace, of the
        iterate's shape and nonzero; its norms are computed once per run.
        Defaults to the densified initial iterate.
    on_iteration : callable, optional
        Invoked with each :class:`IterationRecord` as it is produced.

    Returns
    -------
    (LowRankFactors, list[IterationRecord])
        Final factors and the full trace (one record per iteration).

    A sketch collapse inside an iteration is retried once with a fresh
    sub-stream; a second collapse propagates.
    """
    if y0.rank > spec.r:
        raise ValueError(f"initial factors have rank {y0.rank} > target rank {spec.r}")
    # Rebuilding validates again arrays written to since y0 was built, which
    # the loop's project_box would catch only if there is an iteration.
    factors = LowRankFactors(y0.u, y0.v, y0.sigma)
    if spec.method == "tangent" and factors.sigma is None:
        factors = svd_truncated(factors.reconstruct(), spec.r)
    dense = factors.reconstruct()
    if target is None:
        target = dense.copy()
    else:
        target = as_matrix(target, "target")
        if target.shape != dense.shape:
            raise ValueError(f"shape mismatch: {target.shape} vs {dense.shape}")
    norms = target_norms(target)

    trace: list[IterationRecord] = []
    for i in range(1, spec.s + 1):
        x = project_box(dense, spec.box)
        try:
            factors = _project(x, factors, spec, iteration_seed=i)
        except SketchCollapseError:
            factors = _project(x, factors, spec, iteration_seed=sub_seed(i, _RETRY))
        dense = factors.reconstruct()
        record = iteration_record(i, target, dense, spec.box, norms=norms)
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)
    return factors, trace
