"""Command-line interface: generate, estimate, validate, spread.

Exit codes: 0 success, 2 configuration/input error, 3 numeric error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .aggregate import BACKEND, STREAM_VERSION, generate_fbm
from .estimators import (
    DegeneratePathError,
    InsufficientLengthError,
    estimate_report,
)
from .fgn import HurstModel
from .gaussian import MAX_DENSE_N, cholesky_fbm
from .sampling import InfeasibleTargetError
from .validate import replicate_spread, run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4

_WALK_MODES = ("paper", "enriquez")


def _fail(category: str, message: str, code: int) -> int:
    print(f"fbmwalk: error: {category}: {message}", file=sys.stderr)
    return code


_CSV_CHUNK = 1 << 16  # rows formatted and written at a time


def _write_path_csv(out: str, times: np.ndarray, values: np.ndarray) -> None:
    # t at 12 significant digits, values as shortest round-trip decimals;
    # formatted a chunk at a time, so memory stays bounded as N grows
    with open(out, "w", newline="\n") as fh:
        fh.write("t,value\n")
        for i in range(0, len(values), _CSV_CHUNK):
            t = map("{:.12g}".format, times[i : i + _CSV_CHUNK].tolist())
            v = map(repr, values[i : i + _CSV_CHUNK].tolist())
            fh.write("\n".join(map(",".join, zip(t, v))))
            fh.write("\n")


def _write_path_json(out: str, times: np.ndarray, values: np.ndarray) -> None:
    doc = {"t": [f"{t:.12g}" for t in times], "value": [float(v) for v in values]}
    with open(out, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _read_path_csv(path: str) -> np.ndarray:
    values = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise ValueError(f"{path}:1: expected header 't,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two comma-separated fields")
            try:
                value = float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparsable value {parts[1]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {parts[1]!r}")
            values.append(value)
    return np.asarray(values, dtype=np.float64)


def cmd_generate(args: argparse.Namespace) -> int:
    model = HurstModel(args.hurst)
    if args.paths < 1 or args.workers < 1:
        return _fail("config", "--paths and --workers must be >= 1", EXIT_CONFIG)
    t0 = time.perf_counter()
    if args.mode == "gaussian-oracle":
        if args.steps > MAX_DENSE_N:
            return _fail(
                "config", f"gaussian-oracle supports steps <= {MAX_DENSE_N}", EXIT_CONFIG
            )
        values = cholesky_fbm(model, args.steps, args.seed)
        times = np.arange(args.steps + 1, dtype=np.float64) / args.steps
        meta = {
            "mode": args.mode,
            "seed": args.seed,
            "backend": BACKEND,
            "stream_version": STREAM_VERSION,
        }
    else:
        path = generate_fbm(
            model,
            args.steps,
            args.paths,
            mode=args.mode,
            seed=args.seed,
            workers=args.workers,
        )
        values = path.values
        times = path.times
        meta = dict(path.meta, paths=args.paths)
    if args.raw_levels:
        times = np.arange(len(values), dtype=np.float64)
    meta.update(
        {
            "command": "generate",
            "hurst": args.hurst,
            "steps": args.steps,
            "format": args.format,
            "raw_levels": bool(args.raw_levels),
            "out": args.out,
            "wall_time_s": time.perf_counter() - t0,
        }
    )
    if args.format == "csv":
        _write_path_csv(args.out, times, values)
    else:
        _write_path_json(args.out, times, values)
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(values)} points)")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    values = _read_path_csv(args.input)
    report = estimate_report(values, max_lag=args.lags)
    doc = report.as_dict()
    doc["input"] = args.input
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"input        {args.input}")
        print(f"n_used       {report.n_used}")
        print(f"h_dsod       {report.h_dsod:.6f}")
        print(f"h_aggvar     {report.h_aggvar:.6f}")
        for k, a in enumerate(report.acf, start=1):
            print(f"acf[{k:>2}]      {a:+.6f}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    model = HurstModel(args.hurst)
    if args.runs < 2:
        return _fail("config", "--runs must be >= 2", EXIT_CONFIG)
    checks = run_validation(
        model,
        seed=args.seed,
        mode=args.mode,
        n_steps=args.steps,
        n_paths=args.paths,
        runs=args.runs,
    )
    if args.format == "json":
        print(json.dumps([c.__dict__ for c in checks], indent=2, sort_keys=True, default=float))
    else:
        for c in checks:
            flag = "PASS" if c.passed else ("FAIL" if c.hard else "INFO")
            print(f"[{flag}] {c.name}: {json.dumps(c.details, default=float)}")
    hard_failures = [c for c in checks if c.hard and not c.passed]
    if hard_failures:
        return _fail(
            "validation",
            "failed: " + ", ".join(c.name for c in hard_failures),
            EXIT_VALIDATION,
        )
    return EXIT_OK


def cmd_spread(args: argparse.Namespace) -> int:
    model = HurstModel(args.hurst)
    if args.replicates < 1:
        return _fail("config", "--replicates must be >= 1", EXIT_CONFIG)
    doc = replicate_spread(
        model,
        n_steps=args.steps,
        n_paths=args.paths,
        replicates=args.replicates,
        mode=args.mode,
        seed=args.seed,
        workers=args.workers,
    )
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmwalk",
        description="Synthesize fractional Brownian motion from aggregated correlated random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, paths_default: int, modes: tuple[str, ...] = _WALK_MODES) -> None:
        p.add_argument("--hurst", type=float, required=True, help="Hurst exponent in (1/2, 1)")
        p.add_argument("--steps", type=int, default=4096, help="time steps N per trajectory")
        p.add_argument("--paths", type=int, default=paths_default, help="trajectories M to aggregate")
        p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
        p.add_argument("--mode", choices=modes, default="paper")

    def workers_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1, help="recorded in the sidecar only; the walks run in one thread")

    g = sub.add_parser("generate", help="generate a path and write CSV/JSON plus metadata sidecar")
    common(g, paths_default=1024, modes=(*_WALK_MODES, "gaussian-oracle"))
    workers_option(g)
    g.add_argument("--out", required=True, help="output file")
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--raw-levels", action="store_true", help="emit integer step index instead of t=k/N")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("estimate", help="estimate Hurst exponent and ACF from a generated file")
    e.add_argument("--input", required=True, help="CSV file in the generate schema")
    e.add_argument("--lags", type=int, default=10)
    e.add_argument("--format", choices=("text", "json"), default="text")
    e.set_defaults(fn=cmd_estimate)

    v = sub.add_parser("validate", help="run the statistical property battery")
    common(v, paths_default=128)
    v.add_argument("--runs", type=int, default=200, help="replicate runs for the normality check")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("spread", help="Hurst-estimate spread over replicate runs")
    common(s, paths_default=1024)
    workers_option(s)
    s.add_argument("--replicates", type=int, default=30)
    s.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    s.set_defaults(fn=cmd_spread)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        InfeasibleTargetError,
        DegeneratePathError,
        InsufficientLengthError,
        np.linalg.LinAlgError,
    ) as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    except FileNotFoundError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except ValueError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
