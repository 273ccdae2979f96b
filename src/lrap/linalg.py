"""Dense matrix kernels shared by every approximation method.

All public functions operate on 2-D float64 arrays and never mutate them
(:func:`qr_thin`'s Q comes back in column-major order).  Each validates its
inputs, except :func:`lanczos_truncated`, whose operand need only support
``x @ B`` and ``x.T @ B`` and which its callers have validated.  The
factorizations are backed by LAPACK and ARPACK: a thin QR by blocked
Householder reflections (``dgeqrt``, whose compact-WY panels run as
matrix-matrix products at the engines' 10-150 columns, where
``np.linalg.qr``'s ``dgeqrf`` is unblocked), with the orthogonal factor
formed explicitly by ``dgemqrt``; restarted Lanczos (ARPACK's ``eigsh``)
on the Gram matrix of the shorter side, ended by a Rayleigh-Ritz step, for
a rank r that is a small share of the shape (``5 r < min(m, n)``,
:func:`lanczos_path`); and a full bidiagonalization SVD that is truncated
afterwards (of the transpose, for a wide input) for every other rank, for a
badly scaled input, and wherever ARPACK fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrt

__all__ = [
    "LowRankFactors",
    "as_matrix",
    "lanczos_path",
    "lanczos_truncated",
    "qr_thin",
    "svd_truncated",
]

# svd_truncated runs Lanczos only on inputs whose largest |entry| lies in this
# range.  ARPACK judges a Ritz value below eps**(2/3) converged against the
# absolute eps * eps**(2/3), about 8e-27, so a Gram that small stops early: a
# uniform 60 x 40 matrix scaled by 2**-48 lost three digits of sigma, and at
# 2**-40 five.  Above the range the Gram could overflow.
_LANCZOS_SCALE = (2.0**-20, 2.0**200)

# Columns per panel of qr_thin's blocked QR, a constant.  Of 8, 12, 16, 24
# and 32, timed at one BLAS thread on the engines' panels (256 x 64-70,
# 512 x 50-65, 110 x 65, 150 x 50-64, 1024 x 15), 16 was fastest on average,
# at 0.53 of np.linalg.qr's time; 8 took up to 45 % longer at 512 x 60-65.
_QR_BLOCK = 16


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a finite 2-D float64 array, validating both."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class LowRankFactors:
    """A rank-r matrix stored as ``u @ diag(sigma) @ v.T``.

    ``sigma`` is optional: the SVD-free two-sided sketch estimator produces
    a plain factor pair, in which case the product is ``u @ v.T`` and the
    factor columns carry no orthonormality guarantee.

    Attributes
    ----------
    u : (m, r) ndarray
    v : (n, r) ndarray
    sigma : (r,) ndarray or None
        Nonincreasing, nonnegative singular values when present.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        v = as_matrix(self.v, "v")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factor widths differ: u has {u.shape[1]} columns, v has {v.shape[1]}"
            )
        if u.shape[0] < u.shape[1] or v.shape[0] < v.shape[1]:
            raise ValueError("factors must be tall (rows >= columns)")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=np.float64)
            if sigma.ndim != 1 or sigma.size != u.shape[1]:
                raise ValueError(
                    f"sigma must be a vector of length {u.shape[1]}, got shape {sigma.shape}"
                )
            if not np.isfinite(sigma).all():
                raise ValueError("sigma contains non-finite entries")
            if (sigma < 0).any() or (np.diff(sigma) > 0).any():
                raise ValueError("sigma must be nonincreasing and nonnegative")
            object.__setattr__(self, "sigma", sigma)

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Materialize the dense matrix represented by the factors."""
        if self.sigma is None:
            return self.u @ self.v.T
        return (self.u * self.sigma) @ self.v.T


def qr_thin(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization of a tall matrix, by blocked Householder reflections.

    Returns ``(q, r)`` with ``q`` of shape (m, n) carrying orthonormal
    columns and ``r`` upper triangular with a nonnegative diagonal (column
    signs are flipped to make the output deterministic).  Rank-deficient
    input is tolerated: zero diagonal entries of ``r`` are left untouched.

    LAPACK's ``dgeqrt`` factors ``a`` in panels of ``_QR_BLOCK`` columns,
    each kept as a compact-WY block reflector I - V T V^T, and ``dgemqrt``
    applies the reflectors to the first n columns of the identity, already
    signed, so that both stages run as matrix-matrix products.  (The blocked
    ``dgeqrf``/``dorgqr`` pair behind ``np.linalg.qr`` falls back to its
    unblocked, matrix-vector code below 128 columns, where every panel of
    the engines lies.)  ``q`` comes in LAPACK's column-major order, uncopied:
    the engines' products with it took as long as with a row-major copy.

    Parameters
    ----------
    a : (m, n) ndarray with m >= n

    Returns
    -------
    q : (m, n) ndarray
    r : (n, n) ndarray
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"qr_thin requires rows >= cols, got {m}x{n}")
    if n == 0:
        return np.zeros((m, 0)), np.zeros((0, 0))
    reflectors, t_factor, _ = dgeqrt(min(_QR_BLOCK, n), a)
    r = np.triu(reflectors[:n])
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    # Q diag(signs) is the product of the reflectors applied to I diag(signs):
    # a sign is exact, and each column of the product depends on its own column only.
    signed_eye = np.zeros((m, n), order="F")
    np.fill_diagonal(signed_eye, signs)
    q, _ = dgemqrt(reflectors, t_factor, signed_eye, overwrite_c=True)
    return q, r * signs[:, None]


def lanczos_path(shape: tuple[int, int], r: int) -> bool:
    """The exact truncation's path rule: Lanczos where ``5 r < min(m, n)``.

    Where r is a larger share of the shape a dense factorization is cheaper.
    """
    return 5 * r < min(shape)


def lanczos_truncated(x, r: int, ncv: int | None = None) -> LowRankFactors:
    """Rank-``r`` truncated SVD of ``x`` by restarted Lanczos on its Gram matrix.

    ARPACK's ``eigsh`` finds the top r eigenvectors Q of the Gram of the
    shorter side, X X^T for a wide X and X^T X otherwise, through the
    products X (X^T B) or X^T (X B), with a basis of ``ncv`` vectors (SciPy's
    max(2 r + 1, 20) when None) and ``tol=0``.  A fresh fixed-seed generator
    each call draws the start vector and every restart vector, so reruns and
    threads agree to the byte.  Q is orthonormalized by :func:`qr_thin`, and
    one Rayleigh-Ritz step, :func:`svd_truncated` of the r-column core
    (X^T Q)^T or X Q, lifted by Q, gives the factors.

    ``x`` is an (m, n) float64 array or any operator with ``shape``, ``@``
    and ``.T``, taken as it is.  An ARPACK failure (a Gram that is zero to
    rounding, say) is raised as ``np.linalg.LinAlgError``.
    """
    # Imported here: only a Lanczos truncation loads ARPACK.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    m, n = x.shape
    # Taken once, so that the products are X B or X^T B, none the slow dense-CSR A C.
    xt = x.T

    def gram(b):
        return x @ (xt @ b) if m < n else xt @ (x @ b)

    operator = LinearOperator((min(m, n),) * 2, matvec=gram, matmat=gram, dtype=np.float64)
    try:
        _, basis = eigsh(operator, k=r, ncv=ncv, tol=0, rng=np.random.default_rng(0))
    except ArpackError as err:  # ArpackNoConvergence included
        raise np.linalg.LinAlgError(str(err)) from err
    q, _ = qr_thin(basis)
    # X ~ Q (Q^T X) for orthonormal left Ritz vectors Q, and X ~ (X Q) Q^T for right ones.
    if m < n:
        small = svd_truncated((xt @ q).T, r)
        return LowRankFactors(u=q @ small.u, v=small.v, sigma=small.sigma)
    small = svd_truncated(x @ q, r)
    return LowRankFactors(u=small.u, v=q @ small.v, sigma=small.sigma)


def svd_truncated(a, r: int) -> LowRankFactors:
    """Best rank-``r`` approximation of ``a``.

    Where :func:`lanczos_path` holds (``5 r < min(m, n)``) and the largest
    |entry| lies in [2**-20, 2**200], this is :func:`lanczos_truncated` with
    SciPy's default basis, bit for bit the start that
    ``initialize(a, MethodSpec("svd", r))`` computes.  Everywhere else (a
    zero input included) and wherever ARPACK fails, it truncates a full
    LAPACK SVD, so it never raises on a finite input of a valid rank.  The
    r-column Ritz core that ends a Lanczos truncation always takes the
    LAPACK branch.

    Parameters
    ----------
    a : (m, n) ndarray
    r : int
        Target rank, ``1 <= r <= min(m, n)``.

    Returns
    -------
    LowRankFactors
        Orthonormal ``u`` and ``v`` and the top ``r`` singular values.
    """
    a = as_matrix(a, "a")
    if not 1 <= r <= min(a.shape):
        raise ValueError(f"rank {r} out of range for shape {a.shape}")
    if lanczos_path(a.shape, r):
        low, high = _LANCZOS_SCALE
        if low <= max(a.max(), -a.min()) <= high:
            try:
                return lanczos_truncated(a, r)
            except np.linalg.LinAlgError:
                pass  # a failed Lanczos run falls through to LAPACK
    if a.shape[0] < a.shape[1]:
        # A wide input is factored through its transpose: LAPACK takes the
        # F-ordered view ``a.T`` as a tall matrix and reduces it by a QR
        # first, which beats its path for the wide matrix itself.
        v, sigma, ut = np.linalg.svd(a.T, full_matrices=False)
        u, vt = ut.T, v.T
    else:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    # Copies, so that the factors do not keep the whole of u and vt alive.
    return LowRankFactors(u=u[:, :r].copy(), v=vt[:r].T.copy(), sigma=sigma[:r].copy())
