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
  ``l >= r``; in exact arithmetic gn(l) is tropp(r, l) (see README), so gn
  takes no ``k``: an oversampled gn is tropp(r + p, l).

:data:`ENGINES` defines each one: its projection and the parameters of its
compact form.  Each engine is exposed both as a single step acting on an
:class:`IterateState` and through the :func:`run_method` driver, which
records metrics.  Both clamp through :func:`clamp_iterate`; they and
:func:`initialize` project through one dispatch, which redraws a collapsed
sketch once before giving up.

The clamped iterate X = Pi_box(Y) of the low-rank Y = u diag(sigma) v.T is
never stored densely: it is Y plus a sparse correction that is nonzero only
where Y leaves the box (:class:`ClampedIterate`).  One row-blocked pass over
Y finds that correction and the iteration's metrics; the engines use X only
through the products ``X @ B`` and ``A @ X``, and, on ``svd``'s Lanczos
path, ``X.T @ B`` through the transposed iterate :attr:`ClampedIterate.T`.
Each product is taken in the order that multiplies X by the narrowest
factor.  ``tropp`` and ``gn`` share one Phi step, :func:`_phi_side`, which
forms Q^T (Phi X) as (Q^T Phi) X, so X meets k or r rows, not l; ``tropp``
hands it the orthonormal basis of X Psi, ``gn`` X Psi itself.

``svd``'s exact projection, which also starts ``svd`` and ``tangent``, takes
one of two paths by one fixed rule.  Where ``5 r < min(m, n)`` it runs
ARPACK's ``eigsh`` (restarted Lanczos) on the Gram matrix of the shorter
side, X X^T for a wide X and X^T X otherwise, as X (X^T B) or X^T (X B),
and orthonormalizes the Lanczos basis Q.  A fresh fixed-seed generator each
call draws the start vector and every restart vector, so reruns and worker
threads agree to the byte; an ARPACK failure is raised as ``LinAlgError``.
Elsewhere it forms X and the same Gram densely and takes its top r
eigenvectors Q from one LAPACK ``eigh``, which is cheaper when r is a large
share of the shape.  Both paths end in one Rayleigh-Ritz step :func:`_ritz`
on (X^T Q)^T or X Q, as ``tangent``, ``hmt`` and ``tropp`` end.  The Gram
squares X's condition number, so where its r-th eigenvalue is at most
``_GRAM_FLOOR`` = 1e-6 times its largest (sigma_r / sigma_1 <= 1e-3, a
rank-deficient or zero X included) the dense path truncates a full LAPACK
SVD of X instead (:func:`svd_truncated`).  On clamped uniform iterates at one
BLAS thread, Lanczos and the Gram path broke even near r = 48 at 256 x 256
and near r = 115 at 512 x 512, where the rule switches at r = 52 and 103.
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

# The Gram squares X's condition number, so the exact projection's dense path
# trusts its top r eigenvectors only where lambda_r > _GRAM_FLOOR lambda_1,
# that is sigma_r / sigma_1 > 1e-3, and else takes the full SVD of X.
_GRAM_FLOOR = 1e-6


class SketchCollapseError(np.linalg.LinAlgError):
    """A sketch and its one redraw both gave an exactly singular triangular factor."""


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
        Co-range sketch size (``hmt`` and ``tropp`` only; ``k >= r``).
    l : int, optional
        Range sketch size (only ``tropp``, ``l >= k``, and ``gn``, ``l >= r``).
    p : int
        Power-iteration count (``hmt`` only, ``p >= 0``).
    s : int
        Number of iterations the driver performs (``s >= 0``).
    sketch : SketchSpec, optional
        Required for the randomized methods, refused for the others.
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
        for name, unset in (("k", None), ("l", None), ("p", 0)):
            if name not in engine.params and getattr(self, name) != unset:
                raise ValueError(f"{self.method} takes no {name}")
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
        if not engine.sketched and self.sketch is not None:
            raise ValueError(f"{self.method} takes no sketch")


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
    with an ndarray ``A`` defer to :meth:`__rmatmul__`, which pays SciPy's
    dense-CSR rate for ``A @ C``; a caller with many left products takes
    :attr:`T` once and multiplies ``X.T @ B`` instead, a CSR product.

    ``errors`` holds the relative Frobenius and Chebyshev errors of Y
    against the target of :func:`clamp_iterate` (None without one), and
    ``violations`` the :class:`ViolationStats` of Y.
    """

    __array_ufunc__ = None

    def __init__(self, left, right, box, correction, errors, violations, transposed=False):
        self._left = left  # u diag(sigma), m x r
        self._right = right  # v.T, r x n
        self._box = box
        self._correction = correction
        self._transposed = transposed  # made by T from the iterate of the clamp pass
        self.shape = (left.shape[0], right.shape[1])
        self.errors = errors
        self.violations = violations

    def __matmul__(self, b):
        return self._left @ (self._right @ b) + self._correction @ b

    def __rmatmul__(self, a):
        return (a @ self._left) @ self._right + a @ self._correction

    @property
    def T(self) -> ClampedIterate:
        """X^T as a clamped iterate of its own: views of the factors, and C^T built as a CSR."""
        left, right, correction = self._right.T, self._left.T, self._correction.T.tocsr()
        transposed = not self._transposed
        return ClampedIterate(left, right, self._box, correction, self.errors, self.violations, transposed)

    def toarray(self) -> np.ndarray:
        """X as one dense array: Y formed in the clamp pass's row blocks, then clamped.

        A transpose forms the clamp pass's Y and returns its transpose, so
        X.T.toarray() is X.toarray().T to the bit: BLAS may sum a product and
        its transpose in different orders.
        """
        left, right = (self._right.T, self._left.T) if self._transposed else (self._left, self._right)
        out = np.empty((left.shape[0], right.shape[1]))
        for rows in _row_blocks(*out.shape):
            np.matmul(left[rows], right, out=out[rows])
        out = project_box(out, self._box)
        return out.T if self._transposed else out


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
    return ClampedIterate(left, right, box, correction, errors, violations)


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


def _ritz(core, r: int, left=None, right=None) -> LowRankFactors:
    """Rayleigh-Ritz for X ~ left @ core @ right.T: the core's rank-r SVD, lifted."""
    small = svd_truncated(core, r)
    u = small.u if left is None else left @ small.u
    v = small.v if right is None else right @ small.v
    return LowRankFactors(u=u, v=v, sigma=small.sigma)


def _project_svd(x, factors, spec: MethodSpec, iteration_seed: int):
    r = spec.r
    m, n = x.shape
    dense = 5 * r >= min(m, n)  # the module docstring's rule and its crossovers
    if dense and isinstance(x, ClampedIterate):
        x = x.toarray()
    # Taken once, so that Lanczos's products are X B or X^T B, none the slow dense-CSR A C.
    xt = x.T
    if dense:
        values, vectors = np.linalg.eigh(x @ xt if m < n else xt @ x)
        if values[-r] <= _GRAM_FLOOR * values[-1]:
            return svd_truncated(x, r)
        q = vectors[:, -r:][:, ::-1]
    else:
        # Lanczos on the same Gram through the products of X; only this branch loads ARPACK.
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        def gram(b):
            return x @ (xt @ b) if m < n else xt @ (x @ b)

        operator = LinearOperator((min(m, n),) * 2, matvec=gram, matmat=gram, dtype=np.float64)
        try:
            _, basis = eigsh(operator, k=r, tol=0, rng=np.random.default_rng(0))
        except ArpackError as err:  # ArpackNoConvergence included
            raise np.linalg.LinAlgError(str(err)) from err
        q, _ = qr_thin(basis)
    # X ~ Q (Q^T X) for orthonormal left Ritz vectors Q, and X ~ (X Q) Q^T for right ones.
    return _ritz((xt @ q).T, r, left=q) if m < n else _ritz(x @ q, r, right=q)


def _project_tangent(x, factors, spec: MethodSpec, iteration_seed: int):
    if factors is None:
        # No base point yet: project onto the whole rank-r manifold.
        return _project_svd(x, factors, spec, iteration_seed)
    # The tangent space depends only on the column and row spaces, so a
    # sigma-less base point needs only orthonormal bases of them.
    u, v = factors.u, factors.v
    if factors.sigma is None:
        u, v = qr_thin(u)[0], qr_thin(v)[0]
    g1 = u.T @ x                      # r x n
    core = g1 @ v                     # u.T x v, r x r
    g2 = x @ v - u @ core             # (I - u u.T) x v, m x r
    q2, r2 = qr_thin(g2)
    # Orthogonalize the row-space factor against v so that [v q1] has
    # orthonormal columns and the small SVD below is a genuine SVD of the
    # projected matrix.
    q1, r1 = qr_thin(g1.T - v @ core.T)
    z = np.block([[core, r1.T], [r2, np.zeros_like(core)]])
    # A base point of rank below r/2 spans a tangent space of rank below r.
    return _ritz(z, min(spec.r, z.shape[0]), left=np.hstack([u, q2]), right=np.hstack([v, q1]))


def _phi_side(x, basis, spec: MethodSpec, iteration_seed: int):
    """The Phi step of ``tropp`` and ``gn``: T and Q^T Phi X, for the QR Q T of Phi ``basis``."""
    phi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PHI), spec.l, x.shape[0])
    q, t_factor = qr_thin(apply_sketch_left(phi, basis, check_finite=False))
    # Q^T (Phi X) as (Q^T Phi) X: X meets as many rows as the basis has columns, not l.
    qt_phi = apply_sketch_right(q.T, phi, check_finite=False)
    return t_factor, apply_sketch_left(qt_phi, x, check_finite=False)


def _project_hmt(x, factors, spec: MethodSpec, iteration_seed: int):
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), x.shape[1], spec.k)
    # Only the orthonormal bases are used, so a rank-deficient sketch is harmless.
    q, _ = qr_thin(apply_sketch_right(x, psi, check_finite=False))
    for _ in range(spec.p):
        q, _ = qr_thin((q.T @ x).T)
        q, _ = qr_thin(x @ q)
    return _ritz(q.T @ x, spec.r, left=q)


def _project_tropp(x, factors, spec: MethodSpec, iteration_seed: int):
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), x.shape[1], spec.k)
    q, _ = qr_thin(apply_sketch_right(x, psi, check_finite=False))
    t_factor, pt_phi_x = _phi_side(x, q, spec, iteration_seed)
    return _ritz(solve_triangular(t_factor, pt_phi_x), spec.r, left=q)


def _project_gn(x, factors, spec: MethodSpec, iteration_seed: int):
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), x.shape[1], spec.r)
    z = apply_sketch_right(x, psi, check_finite=False)
    # tropp(r, l) with Z = X Psi itself in place of its orthonormal basis, and
    # no truncation: X ~ Z (Phi Z)^+ Phi X = (Z R^-1) (Q^T Phi X).
    r_factor, qt_phi_x = _phi_side(x, z, spec, iteration_seed)
    u = solve_triangular(r_factor.T, z.T, lower=True).T
    return LowRankFactors(u=u, v=qt_phi_x.T, sigma=None)


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


def _advance(x, factors, spec: MethodSpec, iteration_seed: int) -> LowRankFactors:
    """Project ``x``, the clamped iterate or the dense target, to rank r.

    A sketch collapses only where it is inverted: ``solve_triangular`` in
    ``tropp`` and ``gn`` raises ``LinAlgError`` on an exactly singular
    factor.  A sketched engine that raises it is redrawn once from a fresh
    sub-stream, and a second failure raises :class:`SketchCollapseError`.
    ``svd`` and ``tangent`` draw nothing, so their errors propagate unchanged.
    """
    engine = ENGINES[spec.method]
    try:
        return engine.project(x, factors, spec, iteration_seed)
    except np.linalg.LinAlgError:
        if not engine.sketched:
            raise
    try:
        return engine.project(x, factors, spec, sub_seed(iteration_seed, _RETRY))
    except np.linalg.LinAlgError as err:
        message = f"{spec.method} sketch collapsed again on its redraw: {err}"
        raise SketchCollapseError(message) from err


def _check_fits(spec: MethodSpec, shape: tuple[int, int]) -> None:
    """Refuse a rank or co-range sketch size that an m x n target cannot hold.

    r <= min(m, n) for every engine, k <= m for those that take a k, whose X Psi
    is m x k, and k <= n too where power iterations QR-factor the n x k (Q^T X)^T.
    """
    m, n = shape
    where = f"out of range for the {m}x{n} target"
    if spec.r > min(m, n):
        raise ValueError(f"rank {spec.r} {where}: r must be at most {min(m, n)}")
    if spec.k is not None and spec.k > m:
        raise ValueError(f"co-range sketch size {spec.k} {where}: k must be at most {m}")
    if spec.p and spec.k > n:
        raise ValueError(f"co-range sketch size {spec.k} {where}: k must be at most {n} when p = {spec.p}")


def _step(method: str, state: IterateState, spec: MethodSpec, iteration_seed: int):
    if spec.method != method:
        raise ValueError(f"spec selects {spec.method!r}, step implements {method!r}")
    _check_fits(spec, state.factors.shape)
    x = clamp_iterate(state.factors, spec.box)
    factors = _advance(x, state.factors, spec, iteration_seed)
    return IterateState(factors=factors, iteration=state.iteration + 1)


def ap_svd_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One exact alternating-projection step: clamp, then truncated SVD."""
    return _step("svd", state, spec, 0)


def ap_tangent_step(state: IterateState, spec: MethodSpec) -> IterateState:
    """One tangent-space step.

    Factors that carry sigma are taken to be an SVD; a sigma-less pair is
    orthonormalized by QR, which spans the same tangent space.
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
    the sketch seed (iterations use streams 1..s), retried as an iteration is.
    A rank or co-range sketch size that the target cannot hold is refused first.
    """
    target = as_matrix(target, "target")
    _check_fits(spec, target.shape)
    return _advance(target, None, spec, 0)


def run_method(
    y0: LowRankFactors,
    spec: MethodSpec,
    target,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> tuple[LowRankFactors, list[IterationRecord]]:
    """Apply the selected step ``spec.s`` times and record metrics.

    Parameters
    ----------
    y0 : LowRankFactors
        Initial iterate of rank at most ``spec.r``.  For the tangent method
        factors that carry sigma are assumed to be an SVD, and a sigma-less
        pair is orthonormalized as in :func:`ap_tangent_step`.
    target : ndarray
        Required reference for the relative-error columns of the trace, of
        the iterate's shape and nonzero; its norms are computed once per run.
        A rank or co-range sketch size that it cannot hold is refused.
    on_iteration : callable, optional
        Invoked with each :class:`IterationRecord` as it is produced.

    Returns
    -------
    (LowRankFactors, list[IterationRecord])
        Final factors and the full trace (one record per iteration).

    A sketch collapse inside an iteration is retried once with a fresh
    sub-stream; a second one raises :class:`SketchCollapseError`.
    """
    if y0.rank > spec.r:
        raise ValueError(f"initial factors have rank {y0.rank} > target rank {spec.r}")
    # Rebuilding validates again arrays written to since y0 was built, which
    # the loop's clamp pass would catch only if there is an iteration.
    factors = LowRankFactors(y0.u, y0.v, y0.sigma)
    target = as_matrix(target, "target")
    if target.shape != factors.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {factors.shape}")
    _check_fits(spec, target.shape)
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
