"""Command-line interface.

Subcommands
-----------
solve    steady-state branches at the configured operating point
sweep    run the configured 1-D sweep (direction "both" ramps hysteresis)
preset   run a canned figure campaign over the built-in device
folds    locate branch-count changes inside the configured sweep interval

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .config import parse_config
from .continuation import _FOLD_SCAN_SAMPLES, locate_folds, sweep_1d
from .errors import (ClassificationError, ConfigError, ParameterError,
                     PolynomialError, SweepError)
from .figures import FIGURE_PRESETS, run_preset
from .io import (FORMATS, branch_row, labeled_rows, preset_rows, write_rows,
                 write_summary)
from .params import KAPPA2_INTERPRETATIONS, SIGN_CONVENTIONS
from .stability import solve_and_classify
from .steady import SolverOptions

_NUMERIC_ERRORS = (PolynomialError, ClassificationError, SweepError)


def _add_common(sub, *, config_required=True):
    sub.add_argument("--config", required=config_required,
                     help="path to a run configuration document")
    sub.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    sub.add_argument("--format", default=None, choices=FORMATS,
                     help="record format (default: config output.format)")
    sub.add_argument("--sign", default=None, choices=tuple(SIGN_CONVENTIONS),
                     help="override flags.sign_convention")
    sub.add_argument("--kappa2", default=None, choices=KAPPA2_INTERPRETATIONS,
                     help="override flags.kappa2_interpretation")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility and ignored: sweeps "
                          "are solved as one batch in this process")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="twomode",
        description="steady-state branches, stability, and hysteresis of a "
                    "two-mode optomechanical cavity")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="branches at one operating point")
    _add_common(solve)

    sweep = subs.add_parser("sweep", help="run the configured sweep")
    _add_common(sweep)

    preset = subs.add_parser("preset", help="run a canned figure campaign")
    preset.add_argument("name", choices=FIGURE_PRESETS)
    _add_common(preset, config_required=False)
    preset.add_argument("--points", type=int, default=400,
                        help="samples per trace (default 400)")

    folds = subs.add_parser("folds",
                            help="locate branch-count changes on the sweep "
                                 "interval")
    _add_common(folds)
    folds.add_argument("--samples", type=int, default=_FOLD_SCAN_SAMPLES,
                       help="grid points cutting the interval into cells, "
                            "each bisected to 1e-9 (default %(default)s)")
    return parser


def _load_config(args):
    with open(args.config, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines split as parse_config splits them, so numbers agree
        head = data[:exc.start].decode("utf-8") + "x"
        raise ConfigError(f"byte {data[exc.start]:#04x} is not valid UTF-8",
                          line=len(head.splitlines())) from exc
    return parse_config(text, sign_convention=args.sign,
                        kappa2_interpretation=args.kappa2)


# Lowest accepted value of each count flag; a sweep or scan needs two
# samples to bracket anything.
_FLAG_MINIMUM = (("threads", 1), ("points", 2), ("samples", 2))


def _check_flags(args) -> None:
    for name, low in _FLAG_MINIMUM:
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ParameterError(f"--{name} must be >= {low}, got {value!r}")


def _out_and_format(args, config):
    out = args.out if args.out is not None else (
        config.out_path if config is not None else None)
    fmt = args.format if args.format is not None else (
        config.out_format if config is not None else None)
    return out, fmt or "csv"


def _cmd_solve(args) -> int:
    config = _load_config(args)
    branches, diagnostics = solve_and_classify(config.params, config.drive,
                                               config.options)
    out, fmt = _out_and_format(args, config)
    if out is None and args.format is None and config.out_format is None:
        d = config.drive
        print(f"operating point: delta1={d.delta1!r} delta2={d.delta2!r} "
              f"power_l={d.power_l!r} power_r={d.power_r!r}")
        for i, b in enumerate(branches):
            print(f"branch {i}: q_s={b.q_s!r} n_p1={b.n_p1!r} "
                  f"n_p2={b.n_p2!r} {b.verdict.name} "
                  f"max_re_eig={b.max_re_eig!r}")
        for note in diagnostics:
            print(f"note: {note}")
        return 0
    rows = [branch_row(0.0, i, b) for i, b in enumerate(branches)]
    write_rows({"grid": rows}, fmt, out)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    if config.sweep is None:
        raise ConfigError("this run needs a sweep.* section")
    result = sweep_1d(config.params, config.sweep, config.options)
    out, fmt = _out_and_format(args, config)
    rows = labeled_rows(result)
    write_rows(rows, fmt, out)
    if out is not None:
        summary_path = write_summary({"sweep": result}, out)
        print(f"wrote {len(rows)} trace(s) to {out}; summary: {summary_path}")
    return 0


def _cmd_preset(args) -> int:
    config = _load_config(args) if args.config else None
    kappa2 = args.kappa2 or (config.kappa2_interpretation if config
                             else "angular")
    amp = config.amp_convention if config else "literal"
    options = config.options if config else None
    if args.sign is not None:
        base = options if options is not None else SolverOptions()
        options = dataclasses.replace(base, sign=SIGN_CONVENTIONS[args.sign])
    results = run_preset(args.name, kappa2_interpretation=kappa2,
                         amp_convention=amp, options=options,
                         points=args.points)
    out, fmt = _out_and_format(args, config)
    rows = preset_rows(results)
    write_rows(rows, fmt, out)
    if out is not None:
        summary_path = write_summary(results, out)
        print(f"wrote {len(rows)} trace(s); summary: {summary_path}")
    return 0


def _cmd_folds(args) -> int:
    config = _load_config(args)
    if config.sweep is None:
        raise ConfigError("fold location needs a sweep.* section as the "
                          "search interval")
    spec = config.sweep
    folds = locate_folds(config.params, spec.drive, spec.axis,
                         spec.start, spec.stop, config.options,
                         samples=args.samples)
    if folds:
        lines = [f"fold {spec.axis} = {v!r}" for v in folds]
    else:
        lines = [f"no folds on {spec.axis} in [{spec.start!r}, {spec.stop!r}]"]
    text = "\n".join(lines) + "\n"
    out, _ = _out_and_format(args, config)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote fold list to {out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "preset": _cmd_preset,
    "folds": _cmd_folds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
