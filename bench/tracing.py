"""Spans and counts around the public functions of each lrap module.

The tracer wraps functions where the calling module looks them up (for
instance ``lrap.methods.qr_thin``), so ``src/lrap`` stays untouched and
runs unchanged when tracing is off.  Each wrapped call adds its duration to
a bucket under its span name; calls made while no other span is open also
add to ``covered_s``, so the part of an iteration that no span covers is
the engine's own code (``methods.self``).  ``as_matrix`` is counted, not
timed: its cost is part of whichever span or code calls it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import lrap
import lrap.harness
import lrap.linalg
import lrap.methods


def _count_draw(bucket, matrix):
    bucket["sketching.draws"] += 1
    bucket["sketching.nnz"] += matrix.nnz if isinstance(matrix, lrap.SparseSignMatrix) else matrix.size


# (owner, attribute, span name[, counter of the result]): the owner is the
# namespace the caller resolves the name in at call time.
SPANS = (
    (lrap.harness, "build_target", "harness.build_target"),
    (lrap.harness, "gen_uniform", "problems.build"),
    (lrap.harness, "load_image_pgm", "problems.build"),
    (lrap.harness, "smoluchowski_solution", "problems.build"),
    (lrap.methods, "gen_test_matrix", "sketching.gen", _count_draw),
    (lrap.methods, "apply_sketch_right", "sketching.apply"),
    (lrap.methods, "apply_sketch_left", "sketching.apply"),
    (lrap.methods, "qr_thin", "linalg.qr"),
    (lrap.methods, "svd_truncated", "linalg.svd"),
    (lrap.methods, "solve_triangular", "methods.solve"),
    (lrap.methods, "project_box", "projections.clamp"),
    (lrap.methods, "iteration_record", "metrics.record"),
    (lrap.linalg.LowRankFactors, "reconstruct", "linalg.reconstruct"),
)

# Every lrap module that validates its inputs through ``as_matrix``.
VALIDATING = ("linalg", "sketching", "projections", "metrics", "methods", "harness")


class Tracer:
    """Accumulates span seconds and counts into a bucket until :meth:`take`."""

    def __init__(self):
        self.depth = 0
        self.bucket = defaultdict(float)

    def take(self) -> dict:
        """Return everything recorded since the previous call and start afresh."""
        out, self.bucket = self.bucket, defaultdict(float)
        return out

    def span(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = tracer.depth == 0
            tracer.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.depth -= 1
                tracer.bucket[name + "_s"] += elapsed
                if outermost:
                    tracer.bucket["covered_s"] += elapsed
            if count is not None:
                count(tracer.bucket, result)
            return result

        return traced

    def counter(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.bucket[name] += 1
            return fn(*args, **kwargs)

        return counted


@contextmanager
def installed(tracer: Tracer):
    """Route the traced lrap functions through ``tracer`` while the block runs."""
    saved = []
    try:
        for owner, attr, *how in SPANS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(original, *how))
        for module_name in VALIDATING:
            module = getattr(lrap, module_name)
            original = module.as_matrix
            saved.append((module, "as_matrix", original))
            module.as_matrix = tracer.counter(original, "linalg.as_matrix_calls")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
