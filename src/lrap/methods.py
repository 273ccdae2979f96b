"""Alternating-projection engines for low-rank nonnegative approximation.

Five ways to realize the rank-r projection half of the iteration, each an
entry of :data:`ENGINES`:

* ``svd``     -- exact truncated SVD of the clamped iterate (:func:`_project_svd`);
* ``tangent`` -- truncated SVD restricted to the tangent space of the
  rank-r manifold at the previous iterate (:func:`_project_tangent`);
* ``hmt``     -- randomized range-finder SVD with optional power iterations,
  co-range sketch size ``k >= r`` (:func:`_project_hmt`);
* ``tropp``   -- two-sided sketch with a pseudoinverse correction, sketch
  sizes ``l >= k >= r`` (:func:`_project_tropp`);
* ``gn``      -- generalized Nystrom estimator, SVD-free, range sketch size
  ``l >= r``; in exact arithmetic gn(l) is tropp(r, l) (see README), so gn
  takes no ``k``: an oversampled gn is tropp(r + p, l) (:func:`_project_gn`).

Each engine runs as a single step on an :class:`IterateState` and through
the :func:`run_method` driver, which records metrics.  Both clamp through
:func:`clamp_iterate`, which keeps X = Pi_box(Y) as a :class:`ClampedIterate`
without forming it; they and :func:`initialize` project through one
dispatch, :func:`_advance`.  ``tangent``, ``hmt`` and ``tropp`` end in one
Rayleigh-Ritz step, :func:`_ritz`, on the Gram truncation :func:`_gram_truncated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular

from .linalg import (
    LowRankFactors,
    as_matrix,
    lanczos_path,
    lanczos_truncated,
    qr_thin,
    svd_truncated,
)
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

# The Gram squares a matrix's condition number, so the Gram truncation trusts
# its top r eigenvectors only where lambda_r > _GRAM_FLOOR lambda_1, that is
# sigma_r / sigma_1 > 1e-3, and else takes the matrix's full SVD.
_GRAM_FLOOR = 1e-6

# Prices of the exact projection's routes (_cheapest), in microseconds at one
# BLAS thread: flops per microsecond of dense products and QR, of CSR products
# with r columns and with one; the fixed cost of a product, of a QR and of an
# ARPACK step besides its two products; the flops of an n x n eigh over n^3.
# Fitted to timed svd iterates from 60 x 40 to 1024 x 1024 (see README); the
# eigh's 9, below its timed 13, keeps uniform256 at the old k <= 8.
_GEMM, _CSR, _CSR_VECTOR = 40e3, 4e3, 2.5e3
_CALL, _QR_CALL, _ARPACK, _EIGH = 10.0, 40.0, 30.0, 9.0

# The largest |entry| of F^T F - I at which tangent takes its lifted
# factors F as orthonormal.
_ORTHOGONAL = math.sqrt(np.finfo(float).eps)

# tangent takes the joined QR at once where a diagonal entry of r2 or r1 is
# at most _NOISE_DIAGONAL ||u^T X v||_F.  A column of X v - u u^T X v is
# rounding of its column of X v: about eps ||core|| where the base point's
# direction is genuine and about eps^2 ||core|| where that direction's sigma
# is itself at rounding.  eps^1.5 = 3.3e-24 lies between the entries measured
# on a target of rank exactly r (8.5e-18 and up) and on
# SmoluchowskiSpec(nodes=256) at r = 30-50 (8.8e-32 and down), and far below
# those of the bench workloads (1.4e-7 and up).
_NOISE_DIAGONAL = np.finfo(float).eps ** 1.5


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
    :attr:`T` once and multiplies ``X.T @ B`` instead, whose C^T is SciPy's
    CSC view of C: no copy, and the same sums in the same order as a CSR of
    C^T, so the same bits.

    ``errors`` holds the relative Frobenius and Chebyshev errors of Y
    against the target of :func:`clamp_iterate` (None without one), and
    ``violations`` the :class:`ViolationStats` of Y.
    """

    __array_ufunc__ = None

    def __init__(self, left, right, box, correction, errors, violations):
        self._left = left  # u diag(sigma), m x r
        self._right = right  # v.T, r x n
        self._box = box
        self._correction = correction
        self.shape = (left.shape[0], right.shape[1])
        self.errors = errors
        self.violations = violations

    def __matmul__(self, b):
        return self._left @ (self._right @ b) + self._correction @ b

    def __rmatmul__(self, a):
        return (a @ self._left) @ self._right + a @ self._correction

    @property
    def T(self) -> ClampedIterate:
        """X^T as a clamped iterate of its own: views of the factors and of C, C^T a CSC."""
        left, right, correction = self._right.T, self._left.T, self._correction.T
        return ClampedIterate(left, right, self._box, correction, self.errors, self.violations)

    def toarray(self) -> np.ndarray:
        """X as one dense array: Y formed in the clamp pass's row blocks, then clamped."""
        out = np.empty(self.shape)
        for rows in _row_blocks(*out.shape):
            np.matmul(self._left[rows], self._right, out=out[rows])
        return project_box(out, self._box)


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
    # flat is sorted row-major, so row i starts at the first index >= i n.
    indptr = np.searchsorted(flat, np.arange(0, (m + 1) * n, n))
    col = flat - np.repeat(np.arange(0, m * n, n), np.diff(indptr))
    correction = scipy.sparse.csr_array((clamped - values, col, indptr), shape=(m, n), copy=False)

    errors = None
    if target is not None:
        fro, cheb = target_norms(target) if norms is None else norms
        errors = (float(math.sqrt(sum_squares) / fro), float(chebyshev / cheb))
    # The entries outside the box include every one past a bound by more
    # than the threshold; a side's largest magnitude is that of its extreme
    # entry, as rounding is monotone.
    over = values[values > box.hi + NOISE_THRESHOLD] - box.hi if box.hi < math.inf else values[:0]
    violations = ViolationStats(
        *_side(box.lo - values[values < box.lo - NOISE_THRESHOLD], m * n),
        *_side(over, m * n),
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


def _gram_truncated(x: np.ndarray, r: int) -> LowRankFactors:
    """Rank-r truncated SVD of a dense ``x`` from one ``eigh`` of its Gram.

    For a tall or square X, the top r eigenvectors E of X^T X are the right
    singular vectors; the left ones are the lift X E, whose column norms are
    sigma and are divided out, so they are orthonormal only to about
    (sigma_1 / sigma_r)^2 eps, and both are ordered so that sigma is
    nonincreasing.  A wide X enters as its transpose and leaves with u and v
    swapped.  The Gram squares X's condition number, so where lambda_r <=
    ``_GRAM_FLOOR`` lambda_1 (sigma_r / sigma_1 <= 1e-3, a rank-deficient or
    zero X included) this returns :func:`svd_truncated` of X instead, which
    runs Lanczos where ``5 r < min(m, n)`` and X's scale allows (as on a
    sketched k x n core with k > 5 r) and a full LAPACK SVD elsewhere.
    """
    wide = x.shape[0] < x.shape[1]
    a, at = (x.T, x) if wide else (x, x.T)
    values, vectors = np.linalg.eigh(at @ a)
    if values[-r] <= _GRAM_FLOOR * values[-1]:
        return svd_truncated(x, r)
    top = vectors[:, ::-1][:, :r]
    lifted = a @ top
    sigma = np.linalg.norm(lifted, axis=0)
    # Close eigenvalues may lift to norms out of order by rounding.
    order = np.argsort(-sigma, kind="stable")
    u, v = lifted[:, order] / sigma[order], top[:, order]
    u, v = (v, u) if wide else (u, v)
    return LowRankFactors(u=u, v=v, sigma=sigma[order])


def _ritz(core, r: int, left=None, right=None) -> LowRankFactors:
    """Rayleigh-Ritz for X ~ left @ core @ right.T: the core's rank-r Gram truncation, lifted.

    ``left`` and ``right`` have orthonormal columns, so the lifted factors
    are as orthonormal as the core's.
    """
    small = _gram_truncated(core, r)
    u = small.u if left is None else left @ small.u
    v = small.v if right is None else right @ small.v
    return LowRankFactors(u=u, v=v, sigma=small.sigma)


def _norm_bound(c) -> float:
    """An upper bound on ||C||_2 of a canonical CSR ``c`` in O(nnz): the smaller
    of ||C||_F and Schur's test sqrt(||C||_1 ||C||_inf), the largest column
    |.|-sum times the largest row |.|-sum."""
    magnitude = np.abs(c.data)
    if not magnitude.size:
        return 0.0
    # Empty rows add nothing, so each nonempty row's sum runs to the next one's start.
    starts = c.indptr[:-1][np.diff(c.indptr) > 0]
    rows = np.add.reduceat(magnitude, starts).max()
    columns = np.bincount(c.indices, weights=magnitude).max()
    return float(min(np.linalg.norm(magnitude), math.sqrt(rows * columns)))


def _certificate(x, factors, r: int) -> tuple[int | None, int | None]:
    """The Lanczos width and the warm route's step count that the previous iterate certifies.

    X = Y + C lies within ||C||_2 <= c = :func:`_norm_bound` of the rank-r Y.
    That needs a clamped iterate of factors that carry sigma and have rank r,
    with sigma_r(Y) above NumPy's ``matrix_rank`` tolerance max(m, n) eps
    sigma_1; elsewhere (a start's dense target included) both are None.  By
    Weyl sigma_{r+1}(X) <= c and sigma_r(X) >= sigma_r(Y) - c, so where c <=
    sigma_r(Y) / 4 their ratio is at most 1/3 and Lanczos takes r + max(5,
    r // 8) vectors (else None, SciPy's max(2 r + 1, 20)).  Where c <
    sigma_r(Y) / 2, rho = c / (sigma_r(Y) - c) also bounds the sine of the
    angle between Y's and X's top-r subspaces (Wedin), and each subspace step
    shrinks it by rho^2, so k = ceil(log(eps / rho) / (2 log rho)) steps, at
    least one, reach rounding; that also needs sigma_r / sigma_1 above the
    Gram floor's 1e-3 and factors that pass :func:`_orthonormal` (else None).
    """
    if not isinstance(x, ClampedIterate) or factors is None or factors.sigma is None or factors.rank != r:
        return None, None
    sigma, eps = factors.sigma, np.finfo(float).eps
    if sigma[-1] <= max(x.shape) * eps * sigma[0]:
        return None, None
    warm = sigma[-1] > math.sqrt(_GRAM_FLOOR) * sigma[0] and _orthonormal(factors)
    c = _norm_bound(x._correction)
    width = r + max(5, r // 8) if 4 * c <= sigma[-1] else None
    if not warm or 2 * c >= sigma[-1]:
        return width, None
    rho = c / (sigma[-1] - c)
    return width, 1 if rho <= eps else math.ceil(math.log(eps / rho) / (2 * math.log(rho)))


def _cheapest(shape: tuple[int, int], r: int, nnz: int, steps: int | None, width: int | None) -> str:
    """The exact projection's cheapest route, "warm", "lanczos" or "dense", for X of ``shape`` and nnz(C).

    The cold route is Lanczos where :func:`~lrap.linalg.lanczos_path` holds
    and the dense Gram truncation elsewhere; the warm route competes with it
    where ``steps`` is certified.  A warm step is two products of X with r
    columns and a QR of the shorter side's n x r basis; Lanczos is ``width``
    + 2 steps (SciPy's max(2 r + 1, 20) vectors for None) of two
    single-vector products and ARPACK's own work, then a QR and an SVD of its
    r columns, priced as four QRs; the dense route forms X, its n x n Gram
    and the Gram's eigh.  Each route's closing product is left out of all three.
    """
    cold = "lanczos" if lanczos_path(shape, r) else "dense"
    if steps is None:
        return cold
    m, n = shape
    short = min(m, n)
    qr = 8 * short * r * r / _GEMM + _QR_CALL
    warm = steps * (2 * (2 * (m + n) * r * r / _GEMM + 2 * nnz * r / _CSR + _CALL) + qr)
    if cold == "lanczos":
        vector = 2 * (m + n) * r / _GEMM + 2 * nnz / _CSR_VECTOR + _CALL
        price = ((width or max(2 * r + 1, 20)) + 2) * (2 * vector + _ARPACK) + 4 * qr
    else:
        price = (2 * m * n * r + m * n * short + _EIGH * short**3) / _GEMM
    return "warm" if warm < price else cold


def _warm_truncated(x, factors, r: int, steps: int) -> LowRankFactors:
    """X's rank-r truncation by ``steps`` subspace steps from the previous
    iterate's basis on X's shorter side, then one Rayleigh-Ritz step.

    For a tall or square X, v <- qr_thin(X^T (X v)) from the factors' v and
    then :func:`_ritz` of X v lifted by v; a wide X enters as its transpose,
    from the factors' u, and leaves with u and v swapped.  X meets only the
    r columns of the basis, so it is never formed.
    """
    wide = x.shape[0] < x.shape[1]
    a, at, basis = (x.T, x, factors.u) if wide else (x, x.T, factors.v)
    for _ in range(steps):
        basis, _ = qr_thin(at @ (a @ basis))
    small = _ritz(a @ basis, r, right=basis)
    return LowRankFactors(u=small.v, v=small.u, sigma=small.sigma) if wide else small


def _project_svd(x, factors, spec: MethodSpec, iteration_seed: int):
    """``svd``'s projection, also the start of ``svd`` and ``tangent``.

    It reads one :func:`_certificate` from the previous iterate and takes
    the route that :func:`_cheapest` prices lowest: :func:`_warm_truncated`,
    which never forms X; Lanczos (:func:`~lrap.linalg.lanczos_truncated`,
    also :func:`svd_truncated`'s kernel, so the documented start is bit for
    bit :func:`initialize`'s), whose ARPACK failure is raised as
    ``LinAlgError`` and propagates unretried; or the Gram truncation of the
    dense X.
    """
    r = spec.r
    width, steps = _certificate(x, factors, r)
    route = _cheapest(x.shape, r, 0 if steps is None else x._correction.nnz, steps, width)
    if route == "warm":
        return _warm_truncated(x, factors, r, steps)
    if route == "lanczos":
        return lanczos_truncated(x, r, width)
    if isinstance(x, ClampedIterate):
        x = x.toarray()
    return _gram_truncated(x, r)


def _complement(basis, g):
    """An orthonormal Q with Q^T basis = 0 and the coordinates R of ``g`` in it, g ~ Q R.

    Q and R are the trailing blocks of the QR of [basis g], which has at
    most m columns, so Q is orthogonal to ``basis`` even where ``g`` is
    rank-deficient and the QR of g alone completes its range with
    directions of rounding noise.  It takes ``np.linalg.qr``, not
    :func:`qr_thin`, because [basis g] is wide where m < 2 r.
    """
    q, r = np.linalg.qr(np.hstack([basis, g]))
    width = basis.shape[1]
    return q[:, width:], r[width:, width:]


def _tangent_ritz(core, u, v, left, right, r: int) -> LowRankFactors:
    """Rayleigh-Ritz on the tangent space at (u, v), from the QRs (q2, r2) and
    (q1, r1) of X v and X^T u outside u and v."""
    (q2, r2), (q1, r1) = left, right
    z = np.block([[core, r1.T], [r2, np.zeros((r2.shape[0], r1.shape[0]))]])
    # A base point of rank below r/2 spans a tangent space of rank below r.
    return _ritz(z, min(r, *z.shape), left=np.hstack([u, q2]), right=np.hstack([v, q1]))


def _orthonormal(factors: LowRankFactors) -> bool:
    """Whether every entry of U^T U - I and V^T V - I is at most sqrt(eps)."""
    eye = np.eye(factors.rank)
    return all(np.abs(f.T @ f - eye).max() <= _ORTHOGONAL for f in (factors.u, factors.v))


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
    g1 = g1.T - v @ core.T            # (I - v v.T) x.T u, n x r
    # [u q2] and [v q1] must have orthonormal columns for the small SVD to
    # be a genuine SVD of the projected matrix.  The QR of g2 alone is
    # orthogonal to u up to rounding unless g2 is rank-deficient, as on an
    # iterate of numerical rank below r; its noise directions then enter the
    # top r and leave the lifted factors far from orthonormal (the Gram
    # lift alone stays within (sigma_1 / sigma_r)^2 eps <= 1e6 eps).  Only
    # then are q2 and q1 taken from the QR of [u g2] and [v g1]: at once
    # where r2 or r1 has a diagonal entry at rounding of rounding
    # (_NOISE_DIAGONAL), else where the lifted factors fail the output check.
    left, right = qr_thin(g2), qr_thin(g1)
    noise = _NOISE_DIAGONAL * np.linalg.norm(core)
    if min(np.diag(left[1]).min(), np.diag(right[1]).min()) > noise:
        step = _tangent_ritz(core, u, v, left, right, spec.r)
        if _orthonormal(step):
            return step
    return _tangent_ritz(core, u, v, _complement(u, g2), _complement(v, g1), spec.r)


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
    return _ritz(solve_triangular(t_factor, pt_phi_x, check_finite=False), spec.r, left=q)


def _project_gn(x, factors, spec: MethodSpec, iteration_seed: int):
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), x.shape[1], spec.r)
    z = apply_sketch_right(x, psi, check_finite=False)
    # tropp(r, l) with Z = X Psi itself in place of its orthonormal basis, and
    # no truncation: X ~ Z (Phi Z)^+ Phi X = (Z R^-1) (Q^T Phi X).
    r_factor, qt_phi_x = _phi_side(x, z, spec, iteration_seed)
    u = solve_triangular(r_factor.T, z.T, lower=True, check_finite=False).T
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
