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

:data:`ENGINES` defines each one: its projection and the parameters of its
compact form.  Each engine is exposed both as a single step acting on an
:class:`IterateState` and through the :func:`run_method` driver, which
records metrics.  Both clamp through :func:`clamp_iterate` and project
through one iteration, which retries a collapsed sketch once with a fresh
stream before giving up.

The clamped iterate X = Pi_box(Y) of the low-rank Y = u diag(sigma) v.T is
never stored densely: it is Y plus a sparse correction that is nonzero only
where Y leaves the box (:class:`ClampedIterate`).  One row-blocked pass over
Y finds that correction and the iteration's metrics; the engines use X only
through the products ``X @ B`` and ``A @ X``, and ``svd`` alone forms X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular

from .linalg import LowRankFactors, as_matrix, qr_thin, svd_truncated
from .metrics import NOISE_THRESHOLD, IterationRecord, ViolationStats, target_norms
from .metrics import iteration_record  # noqa: F401  (the record's reference, looked up here by tracers)
from .projections import NONNEGATIVE, BoxBounds, project_box
from .sketching import (
    SketchSpec,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    sub_seed,
)

__all__ = [
    "ENGINES",
    "ClampedIterate",
    "Engine",
    "IterateState",
    "MethodSpec",
    "SketchCollapseError",
    "ap_gn_step",
    "ap_hmt_step",
    "ap_svd_step",
    "ap_tangent_step",
    "ap_tropp_step",
    "clamp_iterate",
    "initialize",
    "run_method",
    "tangent_space_apply",
]

# Stream roles for deriving independent per-iteration draws, plus a path
# tag that keeps the retry stream disjoint from every iteration stream.
_PSI, _PHI = 0, 1
_RETRY = 2**31

# Entries per block of the clamp pass: a block of Y, its difference from the
# target and its mask stay in cache between the operations on them.
_BLOCK_ENTRIES = 1 << 15


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
        if self.method not in ENGINES:
            raise ValueError(f"unknown method {self.method!r}, expected one of {tuple(ENGINES)}")
        engine = ENGINES[self.method]
        if self.r < 1:
            raise ValueError(f"target rank must be >= 1, got {self.r}")
        if self.s < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.s}")
        if self.p < 0:
            raise ValueError(f"power iteration count must be >= 0, got {self.p}")
        if "k" in engine.params and (self.k is None or self.k < self.r):
            raise ValueError(f"{self.method} requires co-range sketch size k >= r")
        if "l" in engine.params:
            # The range sketch must cover the co-range sketch, or the rank.
            floor, name = (self.k, "k") if "k" in engine.params else (self.r, "r")
            if self.l is None or self.l < floor:
                raise ValueError(f"{self.method} requires range sketch size l >= {name}")
        if engine.sketched and self.sketch is None:
            raise ValueError(f"{self.method} requires a sketch spec")


@dataclass(frozen=True)
class IterateState:
    """Current low-rank iterate and its iteration index."""

    factors: LowRankFactors
    iteration: int = 0


def _row_blocks(m: int, n: int):
    """Row slices of an m x n matrix, about ``_BLOCK_ENTRIES`` entries each."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return [slice(start, min(start + rows, m)) for start in range(0, m, rows)]


class ClampedIterate:
    """The clamped iterate X = Pi_box(Y) of a low-rank Y, kept as Y + C.

    Y = ``left @ right`` stays factored and the correction C = X - Y is a CSR
    matrix, nonzero only where Y leaves the box.  So ``X @ B`` is
    ``left @ (right @ B) + C @ B`` and ``A @ X`` is ``(A @ left) @ right +
    A @ C``; neither forms X.  ``__array_ufunc__ = None`` makes ``A @ X``
    with an ndarray ``A`` defer to :meth:`__rmatmul__`.

    ``errors`` holds the relative Frobenius and Chebyshev errors of Y
    against the target of :func:`clamp_iterate` (None without one), and
    ``violations`` the :class:`ViolationStats` of Y.
    """

    __array_ufunc__ = None

    def __init__(self, left, right, flat, clamped, correction, errors, violations):
        self._left = left  # u diag(sigma), m x r
        self._right = right  # v.T, r x n
        self._flat = flat  # row-major indices of the entries outside the box
        self._clamped = clamped  # X at those entries
        self._correction = correction
        self.shape = (left.shape[0], right.shape[1])
        self.errors = errors
        self.violations = violations

    def __matmul__(self, b):
        return self._left @ (self._right @ b) + self._correction @ b

    def __rmatmul__(self, a):
        return (a @ self._left) @ self._right + a @ self._correction

    def toarray(self) -> np.ndarray:
        """X as one dense array, its blocks of Y formed as the clamp pass formed them."""
        out = np.empty(self.shape)
        for rows in _row_blocks(*self.shape):
            np.matmul(self._left[rows], self._right, out=out[rows])
        out.ravel()[self._flat] = self._clamped
        return out


def _side(magnitude: np.ndarray, size: int) -> tuple[float, float, float]:
    # Frobenius norm, largest magnitude and density of one side's violations.
    if not magnitude.size:
        return 0.0, 0.0, 0.0
    return float(np.linalg.norm(magnitude)), float(magnitude.max()), magnitude.size / size


def clamp_iterate(
    factors: LowRankFactors,
    box: BoxBounds = NONNEGATIVE,
    target: np.ndarray | None = None,
    norms: tuple[float, float] | None = None,
) -> ClampedIterate:
    """Clamp the low-rank Y of ``factors`` into ``box`` in one pass over Y.

    The pass forms Y in row blocks of about ``_BLOCK_ENTRIES`` entries, one
    GEMM each, in a fixed order.  It gathers the entries outside the box,
    clamps them with :func:`project_box` and returns X = Pi_box(Y) as a
    :class:`ClampedIterate`.  On the way it sums ``||target - Y||^2`` and
    ``max|target - Y|`` when a float64 ``target`` of Y's shape is given
    (``norms`` defaults to its :func:`target_norms`), and the violations of
    ``violation_stats(Y, box)``.  A non-finite Y raises: a block
    whose sum of squares of ``target - Y``, or of Y without a target, is not
    finite is scanned.
    """
    left = factors.u if factors.sigma is None else factors.u * factors.sigma
    right = np.ascontiguousarray(factors.v.T)
    m, n = factors.shape
    blocks = _row_blocks(m, n)
    rows = blocks[0].stop
    y = np.empty((rows, n))
    diff = None if target is None else np.empty_like(y)
    outside = np.empty((rows, n), dtype=bool)
    above = np.empty_like(outside)
    sum_squares, chebyshev = 0.0, 0.0
    flat, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for block in blocks:
        count = block.stop - block.start
        yb = np.matmul(left[block], right, out=y[:count])
        db = yb
        if target is not None:
            db = np.subtract(target[block], yb, out=diff[:count])
            # max|d| as max(max d, -min d); starting from +0.0 keeps the
            # +0.0 of |d| when d holds only zeros, some of them -0.0.
            chebyshev = max(chebyshev, db.max(), -db.min())
        squares = np.dot(db.ravel(), db.ravel())
        sum_squares += squares
        # Finite entries large enough to overflow the sum of squares also
        # give a non-finite sum, so only then is the block scanned.
        if not math.isfinite(squares) and not np.isfinite(yb).all():
            raise ValueError("iterate contains non-finite entries")
        mask = np.less(yb, box.lo, out=outside[:count])
        if box.hi < math.inf:
            mask |= np.greater(yb, box.hi, out=above[:count])
        index = np.flatnonzero(mask)
        if index.size:
            flat.append(index + block.start * n)
            values.append(yb.ravel()[index])
    flat = np.concatenate(flat)
    values = np.concatenate(values)
    clamped = project_box(values[np.newaxis], box)[0]
    row, col = np.divmod(flat, n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=m))))
    correction = scipy.sparse.csr_array((clamped - values, col, indptr), shape=(m, n))

    errors = None
    if target is not None:
        fro, cheb = target_norms(target) if norms is None else norms
        errors = (float(math.sqrt(sum_squares) / fro), float(chebyshev / cheb))
    # The entries outside the box include every one past a bound by more
    # than the threshold; a side's largest magnitude is that of its extreme
    # entry, as rounding is monotone.
    violations = ViolationStats(
        *_side(box.lo - values[values < box.lo - NOISE_THRESHOLD], m * n),
        *_side(values[values > box.hi + NOISE_THRESHOLD] - box.hi, m * n),
    )
    return ClampedIterate(left, right, flat, clamped, correction, errors, violations)


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


def _project_svd(x, factors, spec: MethodSpec, iteration_seed: int):
    # The one engine that needs X itself, not its products.
    if isinstance(x, ClampedIterate):
        x = x.toarray()
    return svd_truncated(x, spec.r)


def _project_tangent(x, factors, spec: MethodSpec, iteration_seed: int):
    if factors is None:
        # No base point yet: project onto the whole rank-r manifold.
        return _project_svd(x, factors, spec, iteration_seed)
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


def _project_hmt(x, factors, spec: MethodSpec, iteration_seed: int):
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


def _project_tropp(x, factors, spec: MethodSpec, iteration_seed: int):
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


def _project_gn(x, factors, spec: MethodSpec, iteration_seed: int):
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


class Engine(NamedTuple):
    """One engine: its rank-r projection and the parameters of its compact form.

    ``project(x, factors, spec, iteration_seed)`` maps the clamped iterate
    (a :class:`ClampedIterate`, or a dense target for the first) to rank-r
    factors; ``factors`` is the previous iterate, None for the first.
    ``params`` are the fields that ``name(a,b)`` sets, in order.
    """

    project: Callable[..., LowRankFactors]
    params: tuple[str, ...] = ()
    sketched: bool = False


ENGINES = {
    "svd": Engine(_project_svd),
    "tangent": Engine(_project_tangent),
    "hmt": Engine(_project_hmt, ("p", "k"), sketched=True),
    "tropp": Engine(_project_tropp, ("k", "l"), sketched=True),
    "gn": Engine(_project_gn, ("l",), sketched=True),
}


def _advance(x: ClampedIterate, factors, spec: MethodSpec, iteration_seed: int) -> LowRankFactors:
    """Project the clamped iterate ``x`` to rank r; a collapsed sketch is
    redrawn once from a fresh sub-stream, a second collapse raises."""
    project = ENGINES[spec.method].project
    try:
        return project(x, factors, spec, iteration_seed)
    except SketchCollapseError:
        return project(x, factors, spec, sub_seed(iteration_seed, _RETRY))


def _step(method: str, state: IterateState, spec: MethodSpec, iteration_seed: int):
    if spec.method != method:
        raise ValueError(f"spec selects {spec.method!r}, step implements {method!r}")
    x = clamp_iterate(state.factors, spec.box)
    factors = _advance(x, state.factors, spec, iteration_seed)
    return IterateState(factors=factors, iteration=state.iteration + 1)


def ap_svd_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One exact alternating-projection step: clamp, then truncated SVD."""
    return _step("svd", state, spec, 0)


def ap_tangent_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One tangent-space step.

    The state must carry SVD-form factors; the driver seeds them with a
    truncated SVD of the initial iterate.
    """
    return _step("tangent", state, spec, 0)


def ap_hmt_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One range-finder step with ``spec.p`` power iterations."""
    return _step("hmt", state, spec, iteration_seed)


def ap_tropp_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One two-sided-sketch step with pseudoinverse correction."""
    return _step("tropp", state, spec, iteration_seed)


def ap_gn_step(state: IterateState, spec: MethodSpec, iteration_seed: int) -> IterateState:
    """One generalized-Nystrom step; the result is a sigma-less factor pair."""
    return _step("gn", state, spec, iteration_seed)


def initialize(target, spec: MethodSpec) -> LowRankFactors:
    """Method-specific initial rank-r approximation of a dense target.

    The deterministic methods start from the truncated SVD; each randomized
    method applies its own projection to the target once, using stream 0 of
    the sketch seed (iterations use streams 1..s).
    """
    target = as_matrix(target, "target")
    return ENGINES[spec.method].project(target, None, spec, 0)


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
    # the loop's clamp pass would catch only if there is an iteration.
    factors = LowRankFactors(y0.u, y0.v, y0.sigma)
    if spec.method == "tangent" and factors.sigma is None:
        factors = svd_truncated(factors.reconstruct(), spec.r)
    if target is None:
        target = factors.reconstruct()
    else:
        target = as_matrix(target, "target")
        if target.shape != factors.shape:
            raise ValueError(f"shape mismatch: {target.shape} vs {factors.shape}")
    norms = target_norms(target)

    trace: list[IterationRecord] = []
    x = clamp_iterate(factors, spec.box) if spec.s else None
    for i in range(1, spec.s + 1):
        factors = _advance(x, factors, spec, i)
        x = clamp_iterate(factors, spec.box, target, norms)
        record = IterationRecord(i, *x.errors, *x.violations)
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)
    return factors, trace
