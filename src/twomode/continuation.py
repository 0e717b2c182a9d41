"""Parameter sweeps, fold location, and quasi-static hysteresis traces.

Every sample of a sweep is solved and classified in one batch
(:func:`solve_and_classify_grid`), with records equal to the pointwise
:func:`solve_and_classify`.  Fold (branch-count change) locations are
found on a coarse scan whose samples are solved as one batch
(:func:`steady_q_grid`); each bracket where the count changes is then
bisected on the axis with single solves.  Hysteresis traces follow the
stable branch nearest in q_s to the previous selection and jump when that
branch disappears at a fold, which is the quasi-static reading of a slow
experimental ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ClassificationError, NoStableBranchError, ParameterError,
                     PolynomialError, SolverError, SweepError)
from .params import AXES, DrivePoint, SystemParams
from .steady import (SolverOptions, SteadyBranch, Verdict, steady_branches,
                     steady_q_grid)
from .stability import solve_and_classify, solve_and_classify_grid

_POWER_AXES = ("power_l", "power_r")
# Grids over more than a decade of power are sampled uniformly in log.
_LOG_SPAN_RATIO = 10.0
_FOLD_REL_TOL = 1e-6
_FOLD_SCAN_SAMPLES = 1024
_FOLD_SCAN_REL_TOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional sweep of a single drive axis."""

    axis: str
    start: float
    stop: float
    drive: DrivePoint
    points: int = 400
    direction: str = "up"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ParameterError(f"unknown sweep axis {self.axis!r}, expected {AXES}")
        if self.direction not in ("up", "down", "both"):
            raise ParameterError(
                f"direction must be 'up', 'down', or 'both', got {self.direction!r}")
        if self.points < 2:
            raise ParameterError(f"a sweep needs at least 2 points, got {self.points!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ParameterError("sweep endpoints must be finite")
        if not self.start < self.stop:
            raise ParameterError(
                f"sweep start must be below stop, got [{self.start!r}, {self.stop!r}]")
        if self.axis in _POWER_AXES and self.start < 0.0:
            raise ParameterError(f"power sweep start must be >= 0, got {self.start!r}")


@dataclass(frozen=True)
class Trace:
    """One direction of a hysteresis ramp: followed points plus jumps."""

    points: tuple          # ((axis_value, SteadyBranch), ...) in ramp order
    jumps: tuple           # refined axis values where the followed branch died


@dataclass(frozen=True)
class HysteresisResult:
    up: Trace
    down: Trace


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: tuple         # ((axis_value, (SteadyBranch, ...)), ...) grid order
    folds: tuple           # refined axis values of branch-count changes
    diagnostics: tuple     # ordering-rule disagreements and similar notes
    hysteresis: HysteresisResult | None = None


def axis_grid(spec: SweepSpec) -> np.ndarray:
    """Sample values: log-uniform for wide power spans, uniform otherwise."""
    if (spec.axis in _POWER_AXES and spec.start > 0.0
            and spec.stop / spec.start > _LOG_SPAN_RATIO):
        return np.geomspace(spec.start, spec.stop, spec.points)
    return np.linspace(spec.start, spec.stop, spec.points)


def _solve_classified(params, drive, axis, value, options):
    try:
        point = drive.with_value(params, axis, value)
        branches, diags = solve_and_classify(params, point, options)
    except (ParameterError, SweepError):
        raise
    except Exception as exc:
        raise SweepError(f"solve failed at {axis}={value!r}: {exc}",
                         axis_value=value) from exc
    return value, branches, diags


def _branch_count(params, drive, axis, value, options) -> int:
    try:
        point = drive.with_value(params, axis, value)
        return len(steady_branches(params, point, options))
    except ParameterError:
        raise
    except Exception as exc:
        raise SweepError(f"solve failed at {axis}={value!r}: {exc}",
                         axis_value=value) from exc


def _refine_count_change(params, drive, axis, lo, hi, options,
                         rel_tol) -> float:
    """Bisect the axis interval (lo, hi) down to the branch-count change."""
    count_lo = _branch_count(params, drive, axis, lo, options)
    floor = 1e-12 * abs(hi - lo)
    while (hi - lo) > max(rel_tol * max(abs(lo), abs(hi)), floor):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _branch_count(params, drive, axis, mid, options) == count_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_grid(params, spec, options):
    values = axis_grid(spec).tolist()
    try:
        records = solve_and_classify_grid(params, spec.drive, spec.axis,
                                          values, options)
    except (ParameterError, PolynomialError, SolverError,
            ClassificationError):
        # Some sample fails.  The pointwise path raises at the first one,
        # as a SweepError that names it.
        return [_solve_classified(params, spec.drive, spec.axis, v, options)
                for v in values]
    return [(v, branches, diags)
            for v, (branches, diags) in zip(values, records)]


def _folds_from_counts(params, spec, options, solved, rel_tol):
    folds = []
    for (v0, b0, _), (v1, b1, _) in zip(solved, solved[1:]):
        if len(b0) != len(b1):
            folds.append(_refine_count_change(params, spec.drive, spec.axis,
                                              v0, v1, options, rel_tol))
    return tuple(folds)


def sweep_1d(params: SystemParams, spec: SweepSpec,
             options: SolverOptions = SolverOptions()) -> SweepResult:
    """Solve and classify every grid point; refine any fold in between."""
    solved = _solve_grid(params, spec, options)
    records = tuple((v, branches) for v, branches, _ in solved)
    diagnostics = tuple(d for _, _, diags in solved for d in diags)
    folds = _folds_from_counts(params, spec, options, solved, _FOLD_REL_TOL)
    return SweepResult(spec=spec, records=records, folds=folds,
                       diagnostics=diagnostics, hysteresis=None)


def locate_folds(params: SystemParams, drive: DrivePoint, axis: str,
                 lo: float, hi: float,
                 options: SolverOptions = SolverOptions(),
                 samples: int = _FOLD_SCAN_SAMPLES) -> tuple:
    """Branch-count change locations inside [lo, hi], refined to 1e-9.

    Returns an empty tuple when the count never changes; that is a valid,
    converged answer, not a failure.
    """
    scan = SweepSpec(axis=axis, start=lo, stop=hi, drive=drive, points=samples)
    values = axis_grid(scan)
    try:
        q_s = steady_q_grid(params, drive, axis, values, options)
    except (PolynomialError, SolverError) as exc:
        raise SweepError(f"fold scan failed on {axis} in [{lo!r}, {hi!r}]: "
                         f"{exc}") from exc
    counts = np.count_nonzero(~np.isnan(q_s), axis=1)
    return tuple(_refine_count_change(params, drive, axis, float(values[i]),
                                      float(values[i + 1]), options,
                                      _FOLD_SCAN_REL_TOL)
                 for i in np.flatnonzero(counts[1:] != counts[:-1]))


def _stable(branches):
    return [b for b in branches if b.verdict == Verdict.STABLE]


def _follow(values, solved_by_value, pick_start, params, spec, options):
    """Quasi-static ramp along `values`, switching branches only at folds."""
    v0 = values[0]
    stable0 = _stable(solved_by_value[v0])
    if not stable0:
        raise NoStableBranchError(
            f"no stable branch at {spec.axis}={v0!r}; self-oscillating regime",
            axis_value=v0)
    current = pick_start(stable0, key=lambda b: b.q_s)
    points = [(v0, current)]
    jumps = []
    prev_q = current.q_s
    prev_v = v0
    prev_count = len(solved_by_value[v0])
    prev_dq = None
    for v in values[1:]:
        branches = solved_by_value[v]
        stable = _stable(branches)
        if not stable:
            raise NoStableBranchError(
                f"no stable branch at {spec.axis}={v!r}; self-oscillating regime",
                axis_value=v)
        cand = min(stable, key=lambda b: abs(b.q_s - prev_q))
        if prev_dq is None:
            predicted = prev_q
            guard = 0.05 * (1.0 + abs(prev_q))
        else:
            predicted = prev_q + prev_dq
            guard = 10.0 * abs(prev_dq) + 1e-3 * (1.0 + abs(prev_q))
        if len(branches) != prev_count and abs(cand.q_s - predicted) > guard:
            # The followed branch died at a fold inside (prev_v, v).
            jumps.append(_refine_count_change(params, spec.drive, spec.axis,
                                              min(prev_v, v), max(prev_v, v),
                                              options, _FOLD_REL_TOL))
            prev_dq = None
        else:
            prev_dq = cand.q_s - prev_q
        points.append((v, cand))
        prev_q = cand.q_s
        prev_v = v
        prev_count = len(branches)
    return Trace(points=tuple(points), jumps=tuple(jumps))


def hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                     options: SolverOptions = SolverOptions()) -> SweepResult:
    """Up and down quasi-static ramps over the same grid.

    The up-trace starts on the stable branch continuously connected to the
    low-axis solution (smallest q_s), the down-trace on the one connected
    to the high-axis limit (largest q_s).  Jump locations are fold
    locations refined by bisection.  Raises NoStableBranchError when a
    grid sample has no stable branch at all; see
    :func:`clamped_hysteresis_sweep` for the forgiving variant.
    """
    solved = _solve_grid(params, spec, options)
    records = tuple((v, branches) for v, branches, _ in solved)
    diagnostics = tuple(d for _, _, diags in solved for d in diags)
    folds = _folds_from_counts(params, spec, options, solved, _FOLD_REL_TOL)
    by_value = {v: branches for v, branches, _ in solved}
    values = [v for v, _, _ in solved]
    up = _follow(values, by_value, min, params, spec, options)
    down = _follow(values[::-1], by_value, max, params, spec, options)
    return SweepResult(spec=spec, records=records, folds=folds,
                       diagnostics=diagnostics,
                       hysteresis=HysteresisResult(up=up, down=down))


def clamped_hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                             options: SolverOptions = SolverOptions()
                             ) -> SweepResult:
    """Hysteresis ramp that backs away from the self-oscillation boundary.

    A quasi-static ramp cannot pass a sample where every branch is
    unstable (the system leaves the steady-state manifold there), so when
    one is hit the window top is pulled just below the offending value and
    the ramp retried.  Each truncation is recorded as a diagnostic.  When
    no ramp fits at all, the plain multi-branch sweep over the original
    window is returned instead, again with a diagnostic.
    """
    lo, hi = spec.start, spec.stop
    notes = []
    for _ in range(8):
        if hi <= lo or (hi - lo) < 1e-12 * max(abs(hi), abs(lo)):
            break
        trial = replace(spec, start=lo, stop=hi)
        try:
            result = hysteresis_sweep(params, trial, options)
        except NoStableBranchError as exc:
            notes.append(f"ramp truncated: {exc}")
            if exc.axis_value is None or exc.axis_value <= lo:
                break
            hi = 0.95 * exc.axis_value
            continue
        if notes:
            result = replace(result,
                             diagnostics=result.diagnostics + tuple(notes))
        return result
    result = sweep_1d(params, replace(spec, direction="up"), options)
    notes.append("no quasi-static ramp fits inside the window: every "
                 "attempted top hit a sample with no stable branch")
    return replace(result, diagnostics=result.diagnostics + tuple(notes))
