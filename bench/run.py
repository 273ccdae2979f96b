"""Benchmark of the five lrap engines on three problems, end to end or traced.

One run:

    python3 bench/run.py --workload uniform256 --seed 1 --seconds 36 --trace 0

measures one workload in this process for about ``--seconds`` seconds and
prints, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  Repeat mode:

    python3 bench/run.py --repeat 10 --workload coag1024 --trace 0

runs each named workload (all three by default) once for each of N seeds
from ``--first-seed`` on, each in its own process, and prints the median, quartiles and spread of every
metric.  See README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread, set before NumPy loads.  At two threads on a shared
# 2-core host, iterations of small kernels land on 4 ms steps of thread
# wake-up and the per-run median jumps between steps (see README).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def _import_program():
    """Import lrap from the checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "lrap" / "__init__.py").is_file():
        sys.exit(f"bench: no lrap sources under {src}")
    sys.path.insert(0, str(src))
    import lrap

    if Path(lrap.__file__).resolve().parent != (src / "lrap").resolve():
        sys.exit(f"bench: imported lrap from {lrap.__file__}, not from {src}")


_import_program()

import numpy as np  # noqa: E402

import lrap  # noqa: E402
import lrap.flopmodel  # noqa: E402
import lrap.harness  # noqa: E402
import lrap.methods  # noqa: E402
from checks import (  # noqa: E402
    TOL_FACTOR,
    check_both_violations,
    check_coag_errors,
    check_trial,
    check_uniform_errors,
    clamping_residual,
    dense,
    eckart_young,
    iters_to_tol,
)
from tracing import Tracer, installed  # noqa: E402
from workloads import ENGINES, WORKLOADS, child_seed, make_problem  # noqa: E402

SETUP_REPS = 11

# Host speed.  The shared host of the reference figures runs this process
# at one of two speeds about 2x apart and switches between them within
# minutes, so every time is scaled by CAL_REF_S over the time of a fixed
# kernel measured just before it (see README).  The kernel uses neither
# BLAS nor lrap, so no change to either moves it.
CAL_REPS = 7
RECALIBRATE_S = 0.25  # within a trial, measure the speed again after this long
CAL_REF_S = 1.0e-3  # about the kernel's time at the slower speed of that host
_cal_rng = np.random.default_rng(0)
_CAL_INT = _cal_rng.integers(0, 1000, (48, 48))
_CAL_VEC = _cal_rng.random(1 << 16)
_CAL_BIG = _cal_rng.random(1 << 19)
_CAL_OUT = np.empty_like(_CAL_BIG)


def speed_scale() -> float:
    """CAL_REF_S over the median time of the calibration kernel now."""
    times = []
    for _ in range(CAL_REPS):
        start = perf_counter()
        _CAL_INT @ _CAL_INT  # integer matmul: NumPy's own loops, not BLAS
        np.sort(_CAL_VEC[: 1 << 15])
        np.sqrt(_CAL_VEC * 2.0 + 1.0)
        np.add(_CAL_BIG, 1.0, out=_CAL_OUT)  # a pass over memory, beyond the caches
        times.append(perf_counter() - start)
    return CAL_REF_S / float(np.median(times))


# gn is left out: its count to the tolerance is erratic (see README).
TTS_ENGINES = ("svd", "tangent", "hmt", "tropp")


class Run:
    """Measures one workload for a given seed and time budget."""

    def __init__(self, workload, seed: int, seconds: float, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.problem = make_problem(workload, seed, 0, OUT_DIR)
        self.setup_s = []
        self.setup_spans = []  # (span bucket, speed scale) per setup
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.iterations = {e: [] for e in ENGINES}  # (seconds, span bucket, speed scale) per iteration
        self.init_s = {e: [] for e in ENGINES}
        self.itt = {e: [] for e in ENGINES}
        self.final_fro = {e: [] for e in ENGINES}
        self.shape = None

    def setup(self, trial: int):
        """Work all engines share before their first iteration: target and start."""
        scale = self.speed()
        start = perf_counter()
        target = lrap.harness.build_target(self.problem, trial)
        y0 = lrap.svd_truncated(target, self.workload.rank) if self.workload.init == "svd" else None
        self.setup_s.append((perf_counter() - start) * scale)
        if self.tracer is not None:
            self.setup_spans.append((self.tracer.take(), scale))
        return target, y0

    def speed(self) -> float:
        scale = speed_scale()
        self.scales.append(scale)
        return scale

    def reference(self, target, y0):
        """Quantities the checks compare against, computed outside all timing."""
        start = None if y0 is None else dense(y0)
        return {
            "lower_bound": eckart_young(target, self.workload.rank),
            "start_residual": None if start is None else clamping_residual(start, self.workload.box),
        }

    def trial(self, engine: str, trial: tuple, target, y0, ref):
        """One engine's run on one target, with its checks; ``trial`` is (round, repetition)."""
        spec = self.workload.spec(engine, child_seed(self.seed, 1, *trial))
        scale = self.speed()
        start = perf_counter()
        if y0 is None:
            y0 = lrap.methods.initialize(target, spec)
            init_s = (perf_counter() - start) * scale
            start_residual = clamping_residual(dense(y0), spec.box)
        else:
            init_s = 0.0
            start_residual = ref["start_residual"]
        tracer = self.tracer
        rows = self.iterations[engine]
        began = None
        calibrated = perf_counter()

        def on_iteration(record):
            nonlocal began, calibrated, scale
            end = perf_counter()
            bucket = tracer.take() if tracer is not None else None
            if began is not None:  # the first iteration also holds run_method's preamble
                rows.append((end - began, bucket, scale))
            # Long iterations get a fresh speed each; the kernel's time is not counted.
            if end - calibrated >= RECALIBRATE_S:
                scale = self.speed()
                calibrated = perf_counter()
            began = perf_counter()

        final, trace = lrap.methods.run_method(y0, spec, target=target, on_iteration=on_iteration)
        self.init_s[engine].append(init_s)
        itt = iters_to_tol(trace, spec.box, start_residual)
        self.itt[engine].append(itt)
        self.final_fro[engine].append(trace[-1].rel_frobenius)
        errors = check_trial(target, spec.box, spec.r, final, trace, ref["lower_bound"])
        if itt is None and engine in TTS_ENGINES:
            errors.append(f"no iteration reached {TOL_FACTOR} of the start residual in {spec.s}")
        self.errors += [f"{self.workload.name} {engine} trial {trial}: {e}" for e in errors]

    def prepare(self, trial: int):
        """Target, start and check references of round ``trial``."""
        if trial > 0:
            self.problem = make_problem(self.workload, self.seed, trial, OUT_DIR)
        target, y0 = self.setup(trial)
        if self.workload.name == "image512":
            self.errors += check_both_violations(dense(y0), self.workload.box)
        return target, y0, self.reference(target, y0)

    def measure(self):
        for _ in range(SETUP_REPS - 1):
            self.setup(0)
        target, y0, ref = self.prepare(0)
        self.shape = target.shape
        begin = perf_counter()
        trial = 0
        while True:
            round_start = perf_counter()
            if trial > 0 and self.workload.fresh_target:
                target, y0, ref = self.prepare(trial)
            # Rotate the engine order so that machine drift falls on all alike.
            for engine, rep in self.workload.round_order(trial):
                self.attempted += 1
                try:
                    self.trial(engine, (trial, rep), target, y0, ref)
                except Exception:  # one failed operation; the run goes on
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
            trial += 1
            now = perf_counter()
            if now - begin + (now - round_start) > self.seconds:
                break
        self.rounds = trial
        if self.workload.name == "uniform256":
            self.errors += check_uniform_errors(self.final_fro)
        elif self.workload.name == "coag1024":
            self.errors += check_coag_errors(self.final_fro)

    def itt_counts(self, engine: str) -> list:
        """Iterations to the tolerance per trial; a trial that missed it counts s + 1."""
        missed = self.workload.iterations[engine] + 1
        return [missed if i is None else i for i in self.itt[engine]]

    def iter_s(self, engine: str) -> float:
        """Median seconds per iteration over the whole run (see README for why)."""
        return float(np.median([dt * scale for dt, _, scale in self.iterations[engine]]))

    def end_to_end(self) -> dict:
        metrics = {"setup_s": (float(np.median(self.setup_s)), "s", len(self.setup_s))}
        for engine in ENGINES:
            samples = len(self.iterations[engine])
            metrics[f"iter_ms.{engine}"] = (1e3 * self.iter_s(engine), "ms", samples)
        for engine in TTS_ENGINES:
            tts = np.median(self.init_s[engine]) + np.mean(self.itt_counts(engine)) * self.iter_s(engine)
            metrics[f"tts_s.{engine}"] = (float(tts), "s", len(self.itt[engine]))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak_mb, "MB", 1)
        return metrics

    def per_layer(self) -> dict:
        metrics = {}
        setup = self.setup_spans
        for name in ("problems.build", "harness.build_target"):
            values = [1e3 * b.get(name + "_s", 0.0) * scale for b, scale in setup]
            metrics[f"{name}_ms"] = (float(np.median(values)), "ms", len(values))
        m, n = self.shape
        for engine in ENGINES:
            rows = self.iterations[engine]
            count = len(rows)
            spec = self.workload.spec(engine, 0)

            def ms(name):
                return float(np.median([1e3 * b.get(name + "_s", 0.0) * scale for _, b, scale in rows]))

            def per_iter(name):
                return float(np.mean([b.get(name, 0.0) for _, b, _ in rows]))

            layers = {
                "linalg.reconstruct_ms": ms("linalg.reconstruct"),
                "projections.clamp_ms": ms("projections.clamp"),
                "metrics.record_ms": ms("metrics.record"),
                "methods.self_ms": float(
                    np.median([1e3 * (dt - b.get("covered_s", 0.0)) * scale for dt, b, scale in rows])
                ),
                "linalg.as_matrix_calls": per_iter("linalg.as_matrix_calls"),
            }
            if engine != "svd":
                layers["linalg.qr_ms"] = ms("linalg.qr")
            if engine != "gn":
                layers["linalg.svd_ms"] = ms("linalg.svd")
            if engine in ("tropp", "gn"):
                layers["methods.solve_ms"] = ms("methods.solve")
            if spec.sketch is not None:
                layers["sketching.gen_ms"] = ms("sketching.gen")
                layers["sketching.apply_ms"] = ms("sketching.apply")
                layers["sketching.draws"] = per_iter("sketching.draws")
                layers["sketching.nnz"] = per_iter("sketching.nnz")
            for name, value in layers.items():
                unit = "ms" if name.endswith("_ms") else "count"
                metrics[f"{name}.{engine}"] = (value, unit, count)
            iter_s = self.iter_s(engine)
            metrics[f"methods.iter_ms.{engine}"] = (1e3 * iter_s, "ms", count)
            itt = self.itt_counts(engine)
            metrics[f"methods.iters_to_tol.{engine}"] = (float(np.mean(itt)), "count", len(itt))
            flops = lrap.flopmodel.flops_per_iteration(spec, m, n)
            metrics[f"flopmodel.gflops.{engine}"] = (flops / iter_s / 1e9, "GF/s", count)
        return metrics


def run_once(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = Run(workload, args.seed, args.seconds, tracer)
    if tracer is None:
        run.measure()
        metrics = run.end_to_end()
    else:
        with installed(tracer):
            run.measure()
        metrics = run.per_layer()
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"# {workload.name} seed {args.seed}: {run.rounds} rounds, "
        f"{run.attempted} (engine, trial) runs attempted, {run.failed} failed, "
        f"checks {'passed' if not run.errors else 'FAILED'}"
    )
    kernel_ms = 1e3 * CAL_REF_S / np.median(run.scales)
    print(f"# host speed: calibration kernel {kernel_ms:.4g} ms (median of {len(run.scales)}); "
          f"times below are scaled to {1e3 * CAL_REF_S:.4g} ms")
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:34s} {value:14.6g} {unit:6s} n={samples}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def repeat(args) -> int:
    """Run each workload ``--repeat`` times in fresh processes; print quartiles."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.repeat):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            speed = next((line[2:] for line in lines if line.startswith("# host speed")), "")
            print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}; {speed}", flush=True)
        table = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[metric] = {
                "unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else float("nan"), "values": values,
            }
            print(f"  {metric:34s} median {median:12.6g} {entry['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {table[metric]['spread']:7.2%}")
        report[name] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": table,
        }
    out = OUT_DIR / f"repeat_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload (repeat mode)")
    parser.add_argument("--first-seed", type=int, default=1, help="first seed of repeat mode")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        parser.error("--workload is required outside repeat mode")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
