"""The three benchmark workloads: problem, rank, box, engines and run lengths.

Each workload runs all five engines.  Engine parameters are the ones the
acceptance suite pins for the same problem (criteria 1, 2, 6 and 7), with
sparse sign sketches of density 0.2.  Iteration counts leave at least a
quarter more iterations than the slowest trial seen needs to reach the
time-to-solution tolerance, except for ``svd`` on ``coag1024``, whose
count is deterministic (13) and whose iterations cost half a second each,
and for ``gn``, which is not held to the tolerance.  README.md says why
each workload is there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import lrap
from lrap.cli import parse_method_string

ENGINES = ("svd", "tangent", "hmt", "tropp", "gn")


@dataclass(frozen=True)
class Workload:
    name: str
    rank: int
    box: lrap.BoxBounds
    init: str  # "svd": shared truncated-SVD start; "method": each engine's own
    engines: dict  # engine -> compact spec accepted by parse_method_string
    iterations: dict  # engine -> iterations per trial
    fresh_target: bool  # a new target (and shared start) every round
    repeats: dict = field(default_factory=dict)  # engine -> trials per round (default 1)

    def round_order(self, trial: int) -> list:
        """(engine, repetition) pairs of one round, engines rotated by ``trial``."""
        k = trial % len(ENGINES)
        rotated = ENGINES[k:] + ENGINES[:k]
        most = max(self.repeats.values(), default=1)
        return [(e, rep) for rep in range(most) for e in rotated if rep < self.repeats.get(e, 1)]

    def spec(self, engine: str, sketch_seed: int) -> lrap.MethodSpec:
        spec = parse_method_string(self.engines[engine], self.rank)
        sketch = None if spec.sketch is None else replace(spec.sketch, seed=sketch_seed)
        return replace(spec, s=self.iterations[engine], sketch=sketch, box=self.box)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform256",
            rank=64,
            box=lrap.BoxBounds(0.0, math.inf),
            init="svd",
            engines={
                "svd": "svd",
                "tangent": "tangent",
                "hmt": "hmt(0,70):rad(0.2)",
                "tropp": "tropp(70,100):rad(0.2)",
                "gn": "gn(150):rad(0.2)",
            },
            iterations={"svd": 15, "tangent": 15, "hmt": 15, "tropp": 18, "gn": 40},
            fresh_target=True,
        ),
        Workload(
            name="coag1024",
            rank=10,
            box=lrap.BoxBounds(0.0, math.inf),
            init="method",
            engines={
                "svd": "svd",
                "tangent": "tangent",
                "hmt": "hmt(0,15):rad(0.2)",
                "tropp": "tropp(15,25):rad(0.2)",
                "gn": "gn(40):rad(0.2)",
            },
            iterations={"svd": 15, "tangent": 18, "hmt": 20, "tropp": 23, "gn": 20},
            fresh_target=False,
            # One svd trial takes 6-10 s; five trials of each other engine spread
            # their samples over the rest of the run.
            repeats={"tangent": 5, "hmt": 5, "tropp": 5, "gn": 5},
        ),
        Workload(
            name="image512",
            rank=50,
            box=lrap.BoxBounds(0.0, 1.0),
            init="svd",
            engines={
                "svd": "svd",
                "tangent": "tangent",
                "hmt": "hmt(0,60):rad(0.2)",
                "tropp": "tropp(65,110):rad(0.2)",
                "gn": "gn(150):rad(0.2)",
            },
            iterations={"svd": 20, "tangent": 20, "hmt": 22, "tropp": 24, "gn": 40},
            fresh_target=True,
        ),
    )
}


def child_seed(seed: int, *path: int) -> int:
    """Seed of an independent stream below ``seed`` (plain NumPy derivation)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def synthetic_image(n: int, seed: int) -> np.ndarray:
    """Grayscale scene in [0, 1] whose rank-50 truncation leaves the box on both sides.

    A smooth product of sinusoids carries saturated white disks and black
    rectangles; their sharp edges make every low-rank truncation ring past
    0 and 1.  Many small shapes, rather than a few large ones, keep the
    spectrum (and so convergence) alike from one seed to the next.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    fy, fx = rng.uniform(2.0, 4.0, 2)
    py, px = rng.random(2)
    img = 0.5 + 0.3 * np.sin(2 * np.pi * (fx * xx + px)) * np.sin(2 * np.pi * (fy * yy + py))
    for _ in range(40):
        cy, cx = rng.random(2)
        radius = rng.uniform(0.02, 0.06)
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < radius**2] = 1.0
        y0, x0 = rng.uniform(0.0, 0.9, 2)
        h, w = rng.uniform(0.03, 0.1, 2)
        img[(yy > y0) & (yy < y0 + h) & (xx > x0) & (xx < x0 + w)] = 0.0
    img += 0.03 * rng.random((n, n))
    img -= img.min()
    return img / img.max()


def write_pgm_p2(path: Path, image: np.ndarray, maxval: int = 255) -> None:
    """Write a [0, 1] matrix as an ASCII (P2) PGM file."""
    pixels = np.round(image * maxval).astype(np.int64)
    height, width = pixels.shape
    lines = ["P2", f"{width} {height}", str(maxval)]
    lines += [" ".join(map(str, row)) for row in pixels.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def make_problem(workload: Workload, seed: int, trial: int, out_dir: Path):
    """The lrap problem object of round ``trial``; only ``--seed`` decides its inputs.

    The uniform problem draws round t's target itself (``build_target(problem, t)``);
    the image is a new one every round, written over the run's PGM file.
    """
    if workload.name == "uniform256":
        return lrap.UniformProblem(rows=256, cols=256, seed=child_seed(seed, 0))
    if workload.name == "coag1024":
        return lrap.SmoluchowskiProblem(spec=lrap.SmoluchowskiSpec())
    path = out_dir / f"image512_seed{seed}.pgm"
    write_pgm_p2(path, synthetic_image(512, child_seed(seed, 0, trial)))
    return lrap.ImageProblem(path=str(path))
