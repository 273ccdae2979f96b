"""Dense matrix kernels shared by every approximation method.

All public functions operate on 2-D float64 arrays in row-major order,
validate their inputs, and never mutate them.  The factorizations are
backed by LAPACK: a Householder thin QR with the orthogonal factor formed
explicitly, and a full bidiagonalization SVD that is truncated afterwards
(of the transpose, for a wide input).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LowRankFactors", "as_matrix", "qr_thin", "svd_truncated"]


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
    """Thin QR factorization of a tall matrix.

    Returns ``(q, r)`` with ``q`` of shape (m, n) carrying orthonormal
    columns and ``r`` upper triangular with a nonnegative diagonal (column
    signs are flipped to make the output deterministic).  Rank-deficient
    input is tolerated: zero diagonal entries of ``r`` are left untouched.

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
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def svd_truncated(a, r: int) -> LowRankFactors:
    """Best rank-``r`` approximation via a full SVD followed by truncation.

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
