"""Analytic flop-cost model for every method and sketch family.

The model evaluates closed-form operation counts; nothing is instrumented
at runtime.  Costing conventions:

* SVD of a tall matrix: ``14 m n^2 + 8 n^3`` in general, ``21 m^3`` for
  square input;
* each sketch kind has a cost per entry to draw and to apply, given its
  density (``_ENTRY_COSTS``).

Per-iteration totals assume the iterate is clamped, re-projected to rank r,
and reconstructed densely.  Initial-approximation costs drop the dense
reconstruction: randomized methods keep their first approximation in
factored form, while the deterministic ones pay one square SVD plus the
reconstruction.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .methods import ENGINES, MethodSpec, _check_fits

__all__ = [
    "dominant_coefficient",
    "flops_init",
    "flops_per_iteration",
    "flops_svd",
]

SVD_VARIANTS = ("general", "square")


def flops_svd(m: int, n: int, variant: str = "general") -> float:
    """Cost of an economic SVD of an m x n matrix, m >= n."""
    if variant not in SVD_VARIANTS:
        raise ValueError(f"unknown SVD variant {variant!r}, expected one of {SVD_VARIANTS}")
    if m < n or n < 1:
        raise ValueError(f"svd cost requires m >= n >= 1, got {m}x{n}")
    if variant == "square":
        if m != n:
            raise ValueError(f"square SVD variant requires m == n, got {m}x{n}")
        return 21.0 * m**3
    return 14.0 * m * n * n + 8.0 * n**3


# Flops per entry of a test matrix of each kind, given the density: to draw
# the entry (a Gaussian pair takes one Box-Muller application, uniform draws
# included), and to apply it to one vector (a sign needs no multiplication).
_ENTRY_COSTS = {
    "gaussian": lambda density: (75.0, 2.0),
    "rademacher": lambda density: (1.0, 1.0),
    "sparse": lambda density: (1.0 + density, density),
}


# One iteration of each engine on a tall m x n target, from the per-entry
# costs of its sketch: the terms linear in m n, then the rest, in the order
# they are summed.  Both include the reconstruction (2 m n r, plus n r to
# scale by sigma).
def _svd_terms(spec, m, n, gen, apply):
    r = spec.r
    return (), (flops_svd(m, n, "square" if m == n else "general"), 2.0 * m * n * r, n * r)


def _tangent_terms(spec, m, n, gen, apply):
    r = spec.r
    rest = (10.0 * m * r * r, 12.0 * n * r * r, n * r, (165.0 + 1.0 / 3.0) * r**3)
    return (6.0 * m * n * r,), rest


def _hmt_terms(spec, m, n, gen, apply):
    r, k, p = spec.r, spec.k, spec.p
    mn = ((4 * p + 2 + apply) * m * n * k, 2.0 * m * n * r)
    return mn, ((4 * p + 6) * (m + n) * k * k, n * r, gen * n * k, (8.0 / 3.0) * (7 - p) * k**3)


def _tropp_terms(spec, m, n, gen, apply):
    r, k, l = spec.r, spec.k, spec.l
    rest = (apply * m * k * l, 5.0 * m * k * k, 7.0 * n * k * k, 2.0 * n * k * l)
    rest += (gen * (n * k + m * l), n * r, (17.0 + 1.0 / 3.0) * k**3, 4.0 * l * k * k)
    return ((2.0 * r + apply * k + apply * l) * m * n,), rest


def _gn_terms(spec, m, n, gen, apply):
    r, l = spec.r, spec.l
    rest = ((2.0 + apply) * n * l * r, m * r * r, gen * (n * r + m * l), 4.0 * l * r * r)
    return ((2.0 * r + apply * r + apply * l) * m * n,), rest + (-(4.0 / 3.0) * r**3,)


_ITERATION_TERMS = {
    "svd": _svd_terms,
    "tangent": _tangent_terms,
    "hmt": _hmt_terms,
    "tropp": _tropp_terms,
    "gn": _gn_terms,
}


def _iteration_terms(spec: MethodSpec, m: int, n: int):
    gen, apply = _ENTRY_COSTS[spec.sketch.kind](spec.sketch.density) if spec.sketch else (0, 0)
    return _ITERATION_TERMS[spec.method](spec, m, n, gen, apply)


def _dims(spec: MethodSpec, m: int, n: int) -> tuple[int, int]:
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape must be positive, got {m}x{n}")
    # A run's own size checks, so that no spec that cannot run is priced.
    _check_fits(spec, (m, n))
    # The model assumes a tall matrix; a wide problem is costed transposed.
    return (m, n) if m >= n else (n, m)


def flops_per_iteration(spec: MethodSpec, m: int, n: int) -> float:
    """Flops for one full iteration of the selected method on an m x n target."""
    m, n = _dims(spec, m, n)
    mn, rest = _iteration_terms(spec, m, n)
    return reduce(add, mn + rest)


def flops_init(spec: MethodSpec, m: int, n: int) -> float:
    """Flops to build the initial rank-r approximation of a dense target.

    Deterministic methods: one square (or general) SVD plus the dense
    reconstruction.  Randomized methods: one application of their projection
    with the result kept in factored form, i.e. the per-iteration cost minus
    the reconstruction terms (``2 m n r`` plus the ``n r`` scaling for the
    methods that carry singular values).
    """
    m_t, n_t = _dims(spec, m, n)
    r = spec.r
    if not ENGINES[spec.method].sketched:
        return flops_svd(m_t, n_t, "square" if m_t == n_t else "general") + 2.0 * m_t * n_t * r
    init = flops_per_iteration(spec, m, n) - 2.0 * m_t * n_t * r
    # gn's factor pair carries no singular values to scale by.
    return init if spec.method == "gn" else init - n_t * r


def dominant_coefficient(spec: MethodSpec) -> float:
    """Leading per-iteration cost divided by the matrix size ``m n``.

    The part of the iteration linear in ``m n``, taken at ``m = n = 1``.
    Defined for the tangent and randomized methods, whose iteration cost is
    linear in ``m n``; the exact-SVD method has no such form.
    """
    mn, _ = _iteration_terms(spec, 1, 1)
    if not mn:
        raise ValueError("the exact SVD method has no mn-linear dominant term")
    return reduce(add, mn)

