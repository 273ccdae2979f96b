"""Experiment orchestration: trial scheduling, trace persistence, summaries.

Every run is a pure function of its configuration.  Per-trial streams are
derived from the master seed, trace files carry one row per iteration, and
the averaged trace is the exact arithmetic mean of the per-trial traces.
Floats are written with 17 significant digits so files round-trip.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .flopmodel import flops_init, flops_per_iteration
from .linalg import as_matrix, svd_truncated
from .methods import MethodSpec, initialize, run_method
from .metrics import normalized_spectrum, relative_errors
from .problems import SmoluchowskiSpec, gen_uniform, load_image_pgm, smoluchowski_solution
from .projections import BoxBounds
from .sketching import SketchSpec, sub_seed

__all__ = [
    "ExperimentConfig",
    "ImageProblem",
    "SmoluchowskiProblem",
    "TRACE_HEADER",
    "UniformProblem",
    "build_target",
    "export_spectrum",
    "load_config",
    "parse_config",
    "parse_method",
    "parse_problem",
    "run_experiment",
]

TRACE_HEADER = "iter,rel_fro,rel_cheb,neg_fro,neg_cheb,neg_density,over_fro,over_cheb,over_density"

WORKERS_ENV = "LRAP_WORKERS"


@dataclass(frozen=True)
class UniformProblem:
    """Random uniform target; each trial draws a fresh matrix from ``seed``."""

    rows: int
    cols: int
    seed: int = 0

    def build(self, trial: int = 0) -> np.ndarray:
        return gen_uniform(self.rows, self.cols, sub_seed(self.seed, trial))

    def to_json(self) -> dict:
        return {"type": "uniform", "rows": self.rows, "cols": self.cols, "seed": self.seed}


@dataclass(frozen=True)
class ImageProblem:
    """Grayscale PGM image scaled to [0, 1]; the same target in every trial."""

    path: str

    def build(self, trial: int = 0) -> np.ndarray:
        return load_image_pgm(self.path)

    def to_json(self) -> dict:
        return {"type": "image", "path": self.path}


@dataclass(frozen=True)
class SmoluchowskiProblem:
    """Analytic coagulation target; the same in every trial."""

    spec: SmoluchowskiSpec

    def build(self, trial: int = 0) -> np.ndarray:
        return smoluchowski_solution(self.spec)

    def to_json(self) -> dict:
        return {"type": "smoluchowski", **asdict(self.spec)}


INIT_POLICIES = ("svd", "method")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a problem, a method, and the trial protocol.

    ``init`` selects the starting approximation: ``svd`` starts every
    method from the best rank-r approximation of the target (the protocol
    of the uniform and image benchmarks), while ``method`` lets each
    randomized method build its own initial sketch of the target (the
    protocol of the rank-10 analytic benchmark, with its distinct
    initialization cost).
    """

    problem: UniformProblem | ImageProblem | SmoluchowskiProblem
    method: MethodSpec
    trials: int
    master_seed: int
    output_dir: str
    init: str = "svd"
    workers: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.init not in INIT_POLICIES:
            raise ValueError(f"unknown init policy {self.init!r}, expected one of {INIT_POLICIES}")


def _number(value, name: str, kind: type = float):
    """A JSON number as ``kind``; booleans, strings and non-integral ints are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float or isinstance(value, int) or value.is_integer():
            return kind(value)
    raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def parse_problem(raw: dict):
    """Build a problem description from its JSON form."""
    if not isinstance(raw, dict) or "type" not in raw:
        raise ValueError("problem must be an object with a 'type' key")
    kind = raw["type"]
    try:
        if kind == "uniform":
            return UniformProblem(
                rows=_number(raw["rows"], "rows", int),
                cols=_number(raw["cols"], "cols", int),
                seed=_number(raw.get("seed", 0), "seed", int),
            )
        if kind == "image":
            return ImageProblem(path=str(raw["path"]))
    except KeyError as missing:
        raise ValueError(f"{kind} problem is missing required key {missing}") from None
    if kind == "smoluchowski":
        spec = {
            f.name: _number(raw[f.name], f.name, type(f.default))
            for f in fields(SmoluchowskiSpec)
            if f.name in raw
        }
        return SmoluchowskiProblem(spec=SmoluchowskiSpec(**spec))
    raise ValueError(f"unknown problem type {kind!r}")


def parse_method(raw: dict) -> MethodSpec:
    """Build a :class:`MethodSpec` from its JSON form."""
    if not isinstance(raw, dict) or "name" not in raw:
        raise ValueError("method must be an object with a 'name' key")
    sketch = None
    if raw.get("sketch") is not None:
        s = raw["sketch"]
        sketch = SketchSpec(
            kind=s["kind"],
            density=_number(s.get("density", 1.0), "density"),
            seed=_number(s.get("seed", 0), "seed", int),
        )
    box = BoxBounds()
    if raw.get("box") is not None:
        b = raw["box"]
        lo = -math.inf if b.get("lo") is None else _number(b["lo"], "lo")
        hi = math.inf if b.get("hi") is None else _number(b["hi"], "hi")
        box = BoxBounds(lo=lo, hi=hi)
    return MethodSpec(
        method=str(raw["name"]),
        r=_number(raw["r"], "r", int),
        k=None if raw.get("k") is None else _number(raw["k"], "k", int),
        l=None if raw.get("l") is None else _number(raw["l"], "l", int),
        p=_number(raw.get("p", 0), "p", int),
        s=_number(raw.get("iterations", 0), "iterations", int),
        sketch=sketch,
        box=box,
    )


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            problem=parse_problem(raw["problem"]),
            method=parse_method(raw["method"]),
            trials=_number(raw.get("trials", 1), "trials", int),
            master_seed=_number(raw.get("master_seed", 0), "master_seed", int),
            output_dir=str(raw["output_dir"]),
            init=str(raw.get("init", "svd")),
            workers=None if raw.get("workers") is None else _number(raw["workers"], "workers", int),
        )
    except KeyError as missing:
        raise ValueError(f"config is missing required key {missing}") from None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path} is not valid JSON: {err}") from None
    return parse_config(raw)


def build_target(problem, trial: int = 0) -> np.ndarray:
    """Dense target matrix of ``problem`` for one trial."""
    return problem.build(trial)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_trace(path: Path, rows: np.ndarray):
    lines = [TRACE_HEADER]
    for i, row in enumerate(rows, start=1):
        lines.append(f"{i}," + ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_trial(config: ExperimentConfig, trial: int):
    target = build_target(config.problem, trial)
    spec = config.method
    if spec.sketch is not None:
        spec = replace(spec, sketch=replace(spec.sketch, seed=sub_seed(config.master_seed, trial)))
    if config.init == "svd":
        y0 = svd_truncated(target, spec.r)
    else:
        y0 = initialize(target, spec)
    init_fro, init_cheb = relative_errors(target, y0.reconstruct())
    _, trace = run_method(y0, spec, target=target)
    # Every field but the iteration number, in TRACE_HEADER's order.
    rows = np.array([astuple(rec)[1:] for rec in trace]).reshape(len(trace), 8)
    return init_fro, init_cheb, rows, target.shape


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all trials, write traces and the summary, return the summary.

    Output files: ``trial_<i>.csv`` per trial, ``mean.csv`` with the
    rowwise mean across trials, and ``summary.json``.  Byte-identical for
    identical configurations.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = config.workers
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")

    if workers == 1:
        results = [_run_trial(config, t) for t in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_trial, config, t) for t in range(config.trials)]
            results = [f.result() for f in futures]

    all_rows = np.stack([rows for _, _, rows, _ in results])
    for t, (_, _, rows, _) in enumerate(results):
        _write_trace(out_dir / f"trial_{t}.csv", rows)
    _write_trace(out_dir / "mean.csv", np.mean(all_rows, axis=0))

    init_fro = np.array([r[0] for r in results])
    init_cheb = np.array([r[1] for r in results])
    if config.method.s > 0:
        final_fro = all_rows[:, -1, 0]
        final_cheb = all_rows[:, -1, 1]
    else:
        final_fro, final_cheb = init_fro, init_cheb

    spec = config.method
    shape = results[0][3]
    if config.init == "svd":
        init_flops = flops_init(MethodSpec(method="svd", r=spec.r), *shape)
    else:
        init_flops = flops_init(spec, *shape)
    summary = {
        "method": spec.method,
        "params": {
            "problem": config.problem.to_json(),
            "r": spec.r,
            "k": spec.k,
            "l": spec.l,
            "p": spec.p,
            "iterations": spec.s,
            "init": config.init,
            "sketch": None
            if spec.sketch is None
            else {"kind": spec.sketch.kind, "density": spec.sketch.density},
            "box": {
                "lo": None if math.isinf(spec.box.lo) else spec.box.lo,
                "hi": None if math.isinf(spec.box.hi) else spec.box.hi,
            },
        },
        "init_flops": init_flops,
        "per_iter_flops": flops_per_iteration(spec, *shape),
        "rel_frobenius_init_mean": float(np.mean(init_fro)),
        "rel_chebyshev_init_mean": float(np.mean(init_cheb)),
        "rel_frobenius_mean": float(np.mean(final_fro)),
        "rel_chebyshev_mean": float(np.mean(final_cheb)),
        "rel_frobenius_std": float(np.std(final_fro)),
        "rel_chebyshev_std": float(np.std(final_cheb)),
        "trials": config.trials,
        "seed": config.master_seed,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def export_spectrum(problem, count: int, path) -> None:
    """Write the leading normalized singular values of a problem's target.

    The CSV has columns ``index,sigma_normalized`` with 1-based indices and
    exactly ``count`` rows.
    """
    target = as_matrix(build_target(problem), "target")
    spectrum = normalized_spectrum(target)
    if not 1 <= count <= spectrum.size:
        raise ValueError(f"count must be in [1, {spectrum.size}], got {count}")
    lines = ["index,sigma_normalized"]
    for i in range(count):
        lines.append(f"{i + 1},{_fmt(spectrum[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
