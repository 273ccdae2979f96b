"""Elementwise projection onto a box of admissible values."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = ["BoxBounds", "NONNEGATIVE", "project_box"]


@dataclass(frozen=True)
class BoxBounds:
    """Closed interval ``[lo, hi]``; either side may be infinite."""

    lo: float = 0.0
    hi: float = math.inf

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("box bounds must not be NaN")
        if not self.lo < self.hi:
            raise ValueError(f"box bounds require lo < hi, got [{self.lo}, {self.hi}]")


NONNEGATIVE = BoxBounds(0.0, math.inf)


def project_box(x, bounds: BoxBounds = NONNEGATIVE) -> np.ndarray:
    """Clamp every entry of ``x`` into ``[bounds.lo, bounds.hi]``.

    This is the Frobenius-closest matrix with entries in the box; the
    operation is idempotent and leaves admissible entries untouched.
    """
    x = as_matrix(x, "x")
    # np.clip's values without its branch per entry, slow on scattered signs;
    # on a tie these return their second argument, as clip keeps a -0.0.
    out = np.maximum(bounds.lo, x)
    if bounds.hi < math.inf:
        np.minimum(bounds.hi, out, out=out)
    return out
