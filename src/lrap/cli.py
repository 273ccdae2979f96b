"""Command-line front end.

Subcommands:

* ``run <config.json>``: execute an experiment and write traces plus a
  summary; selected config values can be overridden with flags.
* ``flops --size MxN --rank R --spec ...``: print the analytic cost table
  for a list of method specs.
* ``spectrum <problem>``: export the leading normalized singular values of
  a problem's target matrix.

Method specs use the compact form ``svd``, ``tangent``, ``hmt(p,k)``,
``tropp(k,l)``, ``gn(l)``, optionally followed by ``:gauss``, ``:rad`` or
``:rad(density)``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

from .flopmodel import dominant_coefficient, flops_per_iteration
from .harness import (
    export_spectrum,
    load_config,
    parse_config,
    parse_problem,
    read_json,
    run_experiment,
)
from .methods import ENGINES, MethodSpec
from .sketching import SketchSpec

__all__ = ["main", "parse_method_string", "print_flop_table"]

_METHOD_RE = re.compile(rf"^({'|'.join(ENGINES)})(?:\((\s*\d+\s*(?:,\s*\d+\s*)*)?\))?$")
_SKETCH_RE = re.compile(r"^(gauss|gaussian|rad|rademacher)(?:\(([^)]*)\))?$")


def parse_method_string(text: str, rank: int) -> MethodSpec:
    """Parse ``hmt(0,70):rad(0.2)``-style specs into a :class:`MethodSpec`."""
    head, _, sketch_part = text.strip().partition(":")
    match = _METHOD_RE.match(head.strip())
    if match is None:
        raise ValueError(f"cannot parse method spec {text!r}")
    name, args_text = match.group(1), match.group(2)
    args = [int(a) for a in args_text.split(",")] if args_text else []

    params = ENGINES[name].params
    if len(args) != len(params):
        takes = f"({', '.join(params)})" if params else "no parameters"
        raise ValueError(f"{name} takes {takes}, got {text!r}")

    sketch = None
    if sketch_part:
        smatch = _SKETCH_RE.match(sketch_part.strip())
        if smatch is None:
            raise ValueError(f"cannot parse sketch spec {sketch_part!r}")
        base, density_text = smatch.group(1), smatch.group(2)
        if base in ("gauss", "gaussian"):
            kind = "gaussian"
        else:
            kind = "rademacher" if density_text is None else "sparse"
        try:
            density = 1.0 if density_text is None else float(density_text)
        except ValueError:
            raise ValueError(f"cannot parse sketch spec {sketch_part!r}") from None
        sketch = SketchSpec(kind=kind, density=density)
    elif ENGINES[name].sketched:
        sketch = SketchSpec(kind="gaussian")

    return MethodSpec(method=name, r=rank, sketch=sketch, **dict(zip(params, args)))


def _sketch_label(spec: MethodSpec) -> str:
    if spec.sketch is None:
        return "n/a"
    if spec.sketch.kind == "sparse":
        return f"sparse({spec.sketch.density:g})"
    return spec.sketch.kind


def _method_label(spec: MethodSpec) -> str:
    params = ENGINES[spec.method].params
    if not params:
        return spec.method
    return f"{spec.method}({','.join(str(getattr(spec, p)) for p in params)})"


def _coefficient(spec: MethodSpec) -> str:
    try:
        return f"{dominant_coefficient(spec):g}"
    except ValueError:  # svd has no mn-linear term
        return "n/a"


def print_flop_table(m: int, n: int, specs) -> None:
    """Print per-iteration costs and dominant coefficients for each spec."""
    # Every row is built before the first line is printed, so a spec that
    # does not fit the shape leaves no partial table behind.
    rows = [(spec, flops_per_iteration(spec, m, n), _coefficient(spec)) for spec in specs]
    header = f"{'method':<16} {'sketch':<14} {'flops/iter':>12} {'coeff/mn':>10}"
    print(header)
    print("-" * len(header))
    for spec, per_iter, coeff in rows:
        print(f"{_method_label(spec):<16} {_sketch_label(spec):<14} {per_iter:>12.1e} {coeff:>10}")


def _parse_size(text: str) -> tuple[int, int]:
    match = re.match(r"^(\d+)x(\d+)$", text.strip())
    if match is None:
        raise ValueError(f"size must look like 256x256, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _load_problem_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"inline problem is not valid JSON: {err}") from None
    else:
        raw = read_json(text, "problem file")
    if isinstance(raw, dict) and "problem" in raw and "type" not in raw:
        # A config file: checked as `lrap run` checks it, unless it holds
        # nothing but its problem.
        return parse_config(raw).problem if len(raw) > 1 else parse_problem(raw["problem"])
    return parse_problem(raw)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    for name in ("output_dir", "trials", "master_seed", "workers"):
        if getattr(args, name) is not None:
            config = replace(config, **{name: getattr(args, name)})
    if args.iterations is not None:
        config = replace(config, method=replace(config.method, s=args.iterations))
    summary = run_experiment(config)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_flops(args) -> int:
    m, n = _parse_size(args.size)
    specs = [parse_method_string(text, args.rank) for text in args.spec]
    print_flop_table(m, n, specs)
    return 0


def _cmd_spectrum(args) -> int:
    problem = _load_problem_arg(args.problem)
    export_spectrum(problem, args.count, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrap",
        description="Low-rank nonnegative matrix approximation via alternating projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--output-dir", help="override the configured output directory")
    run_p.add_argument("--trials", type=int, help="override the trial count")
    run_p.add_argument("--master-seed", type=int, help="override the master seed")
    run_p.add_argument("--iterations", type=int, help="override the iteration count")
    run_p.add_argument("--workers", type=int, help="concurrent trial workers")
    run_p.set_defaults(func=_cmd_run)

    flops_p = sub.add_parser("flops", help="print the analytic flop table")
    flops_p.add_argument("--size", required=True, help="target size, e.g. 256x256")
    flops_p.add_argument("--rank", required=True, type=int, help="target rank")
    flops_p.add_argument(
        "--spec",
        action="append",
        required=True,
        help="method spec, e.g. 'hmt(0,70):rad(0.2)'; repeatable",
    )
    flops_p.set_defaults(func=_cmd_flops)

    spec_p = sub.add_parser("spectrum", help="export normalized singular values")
    spec_p.add_argument("problem", help="problem JSON (inline or a file path)")
    spec_p.add_argument("--count", required=True, type=int, help="number of values to export")
    spec_p.add_argument("--output", required=True, help="destination CSV path")
    spec_p.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Malformed JSON and a collapsed sketch (a LinAlgError) are ValueErrors.
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
