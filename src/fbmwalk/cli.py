"""Command-line interface: generate, estimate, validate, spread.

Exit codes: 0 success, 2 configuration/input error, 3 numeric error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import time
import warnings
from typing import NoReturn

import numpy as np

from .aggregate import BACKEND, STREAM_VERSION, generate_fbm
from .estimators import (
    DegeneratePathError,
    InsufficientLengthError,
    estimate_report,
)
from .fgn import HurstModel
from .gaussian import cholesky_fbm
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


@contextlib.contextmanager
def _replacing(out: str, mode: str):
    """Yield a new file beside ``out``, opened in ``mode``; it replaces ``out`` when the block succeeds.

    On any error the file is removed instead, so an existing ``out`` keeps
    its bytes and a missing one stays missing.  As with ``open(out, "w")``, a
    symbolic link is written through, and the moved file has the mode an
    existing file had, else 0o666 less the umask.
    """
    out = os.path.realpath(out)
    here, name = os.path.split(out)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=here)
    try:
        with open(fd, mode) as fh:
            yield fh
        try:
            perms = stat.S_IMODE(os.stat(out).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            perms = 0o666 & ~umask
        os.chmod(tmp, perms)
        os.replace(tmp, out)
    except BaseException:
        os.remove(tmp)
        raise


def _write_rows(fh, values: np.ndarray, steps: int, first: int) -> None:
    # rows first, first + 1, ... of the path: row k's t is k / steps at 12
    # significant digits, its value the shortest round-trip decimal (%r is
    # repr); one %-format per chunk of rows, so memory stays bounded as N grows
    for i in range(0, len(values), _CSV_CHUNK):
        chunk = values[i : i + _CSV_CHUNK]
        times = np.arange(first + i, first + i + len(chunk), dtype=np.float64) / steps
        rows = np.column_stack((times, chunk)).ravel().tolist()
        fh.write(("%.12g,%r\n" * len(chunk) % tuple(rows)).encode())


def _write_part(part, values: np.ndarray, steps: int, first: int) -> NoReturn:
    """Format rows into ``part`` in a forked child, which leaves only by ``os._exit``.

    So the child runs no atexit handler and flushes no buffer it inherited.
    """
    code = 1
    try:
        _write_rows(part, values, steps, first)
        part.flush()
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # the traceback, as the interpreter would print it
    finally:
        os._exit(code)


def _write_path_csv(out: str, values: np.ndarray, steps: int) -> int:
    """Write the path as CSV, row k at t = k / steps; return the processes that formatted it.

    Formatting, not writing, is the cost, and rows are independent: the rows
    are cut into k contiguous parts, k the usable CPUs but at most one part
    per full chunk.  Parts 2..k are formatted by forked children into
    anonymous temporary files beside the file ``out`` names (through a
    symbolic link, beside its target) and appended in order, so the
    bytes are the same at every k.  ``out`` appears only once it is whole.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(cpus, len(values) // _CSV_CHUNK))
    cuts = [len(values) * j // k for j in range(k + 1)]
    here = os.path.dirname(os.path.realpath(out))  # where _replacing writes
    with _replacing(out, "wb") as fh, contextlib.ExitStack() as parts:
        fh.write(b"t,value\n")
        children = []  # (pid, part file)
        try:
            for a, b in zip(cuts[1:-1], cuts[2:]):
                part = parts.enter_context(tempfile.TemporaryFile(dir=here))
                pid = os.fork()
                if pid == 0:
                    _write_part(part, values[a:b], steps, a)
                children.append((pid, part))
            _write_rows(fh, values[: cuts[1]], steps, 0)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for j, code in enumerate(codes, start=2):
            if code != 0:
                raise OSError(f"formatting CSV part {j} of {k} failed (exit status {code})")
        for _, part in children:
            part.seek(0)
            shutil.copyfileobj(part, fh)
    return k


def _write_path_json(out: str, values: np.ndarray, steps: int) -> None:
    doc = {"t": [f"{k / steps:.12g}" for k in range(len(values))], "value": [float(v) for v in values]}
    with _replacing(out, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _read_path_csv(path: str) -> np.ndarray:
    # np.loadtxt when every row is two fields with a finite value it reads;
    # the line parser accepts a superset of those files with the same values,
    # so every other file goes to it for its values or its line-numbered error.
    # Like the line parser, loadtxt reads the value column only; the comma
    # count then holds every row to two fields.
    with open(path) as fh:
        if fh.readline().strip() == "t,value":
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    values = np.loadtxt(fh, delimiter=",", comments=None, usecols=1, ndmin=1)
            except ValueError:
                values = None
            if values is not None and np.isfinite(values).all() and _plain_commas(path) == len(values) + 1:
                return values
    return _parse_path_lines(path)


# loadtxt strips these ASCII information separators ahead of a number, and
# float() does not, so a file holding one goes to the line parser
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _plain_commas(path: str) -> int:
    """The commas in a file, or -1 if it holds an information separator."""
    commas = 0
    with open(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if any(c in chunk for c in _SEPARATORS):
                return -1
            commas += chunk.count(",")
    return commas


def _parse_path_lines(path: str) -> np.ndarray:
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


def _check_writable(path: str) -> None:
    """Raise OSError now, before any work, if ``path`` cannot be written.

    Opening to append truncates no existing file, and a file the check
    created is removed again.  The output is written beside the file
    ``path`` names under a temporary name and moved onto it, so an anonymous
    temporary file checks that that directory takes new files.
    """
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)
    tempfile.TemporaryFile(dir=os.path.dirname(os.path.realpath(path))).close()


def cmd_generate(args: argparse.Namespace) -> int:
    model = HurstModel(args.hurst)
    if args.paths < 1 or args.workers < 1:
        return _fail("config", "--paths and --workers must be >= 1", EXIT_CONFIG)
    _check_writable(args.out)
    _check_writable(args.out + ".meta.json")
    t0 = time.perf_counter()
    if args.mode == "gaussian-oracle":
        values = cholesky_fbm(model, args.steps, args.seed)
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
        meta = dict(path.meta, paths=args.paths)
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
    # row k is at t = k / N, or at its index k under --raw-levels
    steps = 1 if args.raw_levels else args.steps
    t_write = time.perf_counter()
    if args.format == "csv":
        meta["write_processes"] = _write_path_csv(args.out, values, steps)
    else:
        _write_path_json(args.out, values, steps)
        meta["write_processes"] = 1
    meta["write_s"] = time.perf_counter() - t_write
    with _replacing(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(values)} points)")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    values = _read_path_csv(args.input)
    # a sidecar that records the steps must agree with the rows; without one the file reads alone
    with contextlib.suppress(FileNotFoundError), open(args.input + ".meta.json") as fh:
        meta = json.load(fh)
        steps = meta.get("steps") if isinstance(meta, dict) else None
        if type(steps) is int and len(values) != steps + 1:
            raise ValueError(f"{args.input}: {len(values)} rows, but its sidecar records {steps} steps")
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
    if args.out:
        _check_writable(args.out)
    doc = replicate_spread(
        model,
        n_steps=args.steps,
        n_paths=args.paths,
        replicates=args.replicates,
        mode=args.mode,
        seed=args.seed,
    )
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with _replacing(args.out, "w") as fh:
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

    g = sub.add_parser("generate", help="generate a path and write CSV/JSON plus metadata sidecar")
    common(g, paths_default=1024, modes=(*_WALK_MODES, "gaussian-oracle"))
    g.add_argument("--workers", type=int, default=1, help="recorded in the sidecar only; the walks run in one thread")
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
    except OSError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except ValueError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
