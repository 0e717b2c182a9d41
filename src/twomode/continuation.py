"""Parameter sweeps, fold location, and quasi-static hysteresis traces.

Every sample of a sweep is solved and classified in one batch
(:func:`solve_and_classify_grid`), with records equal to the pointwise
:func:`solve_and_classify`.  Folds (branch-count changes) are located
exactly, with no steady solve between the ends of a bracket.  On a power
axis the fixed-point polynomial is affine in the power, so the folds are
roots of one polynomial in q and nothing is solved at all.  On a detuning
axis each fold is found by Newton's method on the limit-point system
f = df/dq = 0, seeded by single solves at the two ends of its bracket.  A
fold is reported on the lattice of a bisection that takes its counts from
those exact folds: 1e-9 relative in :func:`locate_folds` and 1e-6 in
sweeps, the values a bisection that solved at every midpoint reports.  A
bracket (a scan cell, or two neighbouring sweep samples) whose ends have
the same count reports nothing, even when a pair of opposite folds lies
inside it.  Hysteresis traces follow the stable branch nearest in q_s to
the previous selection and jump when that branch disappears at a fold,
which is the quasi-static reading of a slow experimental ramp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ClassificationError, NoStableBranchError, ParameterError,
                     PolynomialError, SolverError, SweepError)
from .params import AXES, DrivePoint, SystemParams
from .polyroots import RealPolynomial, real_roots
from .steady import (SolverOptions, SteadyBranch, Verdict, _assemble,
                     photon_numbers_from_q, residual_derivative,
                     steady_branches, steady_q_grid, steady_residual)
from .stability import solve_and_classify, solve_and_classify_grid

_POWER_AXES = ("power_l", "power_r")
# Grids over more than a decade of power are sampled uniformly in log.
_LOG_SPAN_RATIO = 10.0
_FOLD_REL_TOL = 1e-6
_FOLD_SCAN_SAMPLES = 1024
_FOLD_SCAN_REL_TOL = 1e-9
# Limit-point Newton: iteration cap and relative step that ends it.
_LP_MAX_ITER = 50
_LP_STEP_REL = 1e-12


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


def _branch_qs(params, drive, axis, value, options) -> list:
    try:
        point = drive.with_value(params, axis, value)
        return [b.q_s for b in steady_branches(params, point, options)]
    except ParameterError:
        raise
    except Exception as exc:
        raise SweepError(f"solve failed at {axis}={value!r}: {exc}",
                         axis_value=value) from exc


def _lorentz_scale(params, drive) -> float:
    """Displacement scale of the coupled Lorentzians, where folds sit."""
    return max((abs(delta) + kappa) / g for delta, kappa, g in (
        (drive.delta1, params.kappa1, params.g1),
        (drive.delta2, params.kappa2, params.g2)) if g > 0.0)


def _power_folds(params, drive, axis, options) -> tuple:
    """((power, change), ...) of every fold on a power axis, ascending.

    The fixed-point polynomial is affine in the axis power, p(x; P) =
    a(x) - P b(x), so the branch curve is P(x) = a(x) / b(x) and its folds
    are the real roots of a'b - ab' with P > 0.  A root counts where that
    numerator changes sign (odd multiplicity); the branch count changes by
    +2 across a minimum of P(x) and by -2 across a maximum.  No steady
    state is solved.
    """
    left = axis == "power_l"
    g = params.g1 if left else params.g2
    if g == 0.0:
        return ()
    zero = drive.with_value(params, axis, 0.0)
    unit = drive.with_value(params, axis, 1.0)
    q_scale = _lorentz_scale(params, drive)
    a = np.array(_assemble(params, zero, options.sign, q_scale).poly.coeffs)
    p1 = np.array(_assemble(params, unit, options.sign, q_scale).poly.coeffs)
    if len(p1) != len(a):
        raise SweepError(f"the fixed-point polynomial at {axis} = 1 W lost "
                         f"its leading coefficient to trimming")
    b = a - p1
    # derivatives padded to their polynomial's length, so a constant b works
    da, db = (np.append(c[1:] * np.arange(1, len(c)), 0.0) for c in (a, b))
    w = RealPolynomial.from_coeffs(np.convolve(da, b) - np.convolve(a, db))
    xs = real_roots(w, options.imag_tol)
    if not len(xs):
        return ()
    # the sign of dP/dx between the roots and beyond them
    probes = np.concatenate(([xs[0] - 1.0 - abs(xs[0])],
                             0.5 * (xs[1:] + xs[:-1]),
                             [xs[-1] + 1.0 + abs(xs[-1])]))
    slope = np.sign(w(probes))
    s = 1 if left else options.sign
    folds = []
    for x, before, after in zip(xs.tolist(), slope[:-1], slope[1:]):
        # f(q; P) = f(q; 0) - P (2 / omega_m) s g n(q; 1 W) is zero at the fold
        q = x * q_scale
        n_unit = photon_numbers_from_q(q, params, unit)[0 if left else 1]
        power = (steady_residual(q, params, zero, options.sign)
                 / ((2.0 / params.omega_m) * s * g * n_unit))
        if before != after and power > 0.0:
            folds.append((float(power), 2 if after > before else -2))
    return tuple(sorted(folds))


def _limit_point_system(q, params, point, axis, sign):
    """f, df/dq and the Jacobian of (f, df/dq) in (q, axis detuning).

    The detuning also moves the pump amplitude, through the laser
    frequency omega_k - delta_k: d|E|^2/d delta = |E|^2 / (omega_k - delta_k).
    """
    f_qq = f_v = f_qv = 0.0
    for name, kappa, delta, g, kappa_e, amp, omega, s in (
            ("delta1", params.kappa1, point.delta1, params.g1,
             params.kappa_e1, point.amp_l, params.omega1, 1),
            ("delta2", params.kappa2, point.delta2, params.g2,
             params.kappa_e2, point.amp_r, params.omega2, sign)):
        a = kappa_e * (amp * amp)
        d = delta - g * q
        den = kappa * kappa + d * d
        bend = (3.0 * d * d - kappa * kappa) / den**3
        f_qq -= 2.0 * s * g**3 * a * bend
        if name == axis:
            da = a / (omega - delta)
            f_v -= s * g * (da - 2.0 * a * d / den) / den
            f_qv -= 2.0 * s * g * g * (da * d / den**2 - a * bend)
    c = 2.0 / params.omega_m
    return (steady_residual(q, params, point, sign),
            residual_derivative(q, params, point, sign), c * f_v, c * f_qq,
            c * f_qv)


def _limit_point(params, drive, axis, lo, hi, q, v, options) -> float:
    """Newton on f = df/dq = 0 in (q, axis value), kept inside [lo, hi]."""
    for _ in range(_LP_MAX_ITER):
        point = drive.with_value(params, axis, v)
        f, f_q, f_v, f_qq, f_qv = _limit_point_system(q, params, point, axis,
                                                      options.sign)
        det = f_q * f_qv - f_v * f_qq
        if det == 0.0 or not math.isfinite(det):
            break
        dq = (f_v * f_q - f * f_qv) / det
        dv = (f * f_qq - f_q * f_q) / det
        q += dq
        v = min(max(v + dv, lo), hi)
        if (abs(dv) <= _LP_STEP_REL * (abs(v) + (hi - lo))
                and abs(dq) <= _LP_STEP_REL * abs(q)):
            if lo < v < hi:
                return v
            break
    raise SweepError(f"limit-point Newton found no fold on {axis} inside "
                     f"[{lo!r}, {hi!r}]")


def _vanishing_pairs(many, few) -> tuple:
    """Left indices of the adjacent pairs of ``many`` that ``few`` lacks.

    The pairs chosen leave the roots closest to ``few`` behind.
    """
    def mismatch(pairs):
        kept = [q for i, q in enumerate(many)
                if not any(i - p in (0, 1) for p in pairs)]
        return sum(abs(x - y) for x, y in zip(kept, few))

    choices = [c for c in itertools.combinations(range(len(many) - 1),
                                                 (len(many) - len(few)) // 2)
               if all(j - i > 1 for i, j in zip(c, c[1:]))]
    return min(choices, key=mismatch)


def _detuning_folds(params, drive, axis, lo, hi, options) -> tuple:
    """((detuning, change), ...) of the folds between lo and hi.

    Each pair of roots present at one end and gone at the other seeds a
    limit-point Newton at its midpoint, from the end where it exists.
    """
    ends = sorted(((_branch_qs(params, drive, axis, v, options), v)
                   for v in (lo, hi)), key=lambda end: len(end[0]))
    (few, _), (many, v) = ends
    change = 2 if v == hi else -2
    return tuple(
        (_limit_point(params, drive, axis, lo, hi,
                      0.5 * (many[i] + many[i + 1]), v, options), change)
        for i in _vanishing_pairs(many, few))


def _refine_count_change(params, drive, axis, lo, hi, options,
                         rel_tol) -> float:
    """Bisect the axis interval (lo, hi) down to the branch-count change.

    The count at a midpoint is the count at lo plus the changes of the
    exact folds up to it, so no steady state is solved in the loop.
    """
    if axis in _POWER_AXES:
        folds = [(v, change)
                 for v, change in _power_folds(params, drive, axis, options)
                 if lo < v <= hi]
    else:
        folds = _detuning_folds(params, drive, axis, lo, hi, options)
    floor = 1e-12 * abs(hi - lo)
    while (hi - lo) > max(rel_tol * max(abs(lo), abs(hi)), floor):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sum(change for v, change in folds if v <= mid) == 0:
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


def _result(params, spec, options, solved, hysteresis=None, notes=()):
    """The SweepResult of one solved grid: records, diagnostics, folds."""
    return SweepResult(
        spec=spec, records=tuple((v, branches) for v, branches, _ in solved),
        folds=_folds_from_counts(params, spec, options, solved, _FOLD_REL_TOL),
        diagnostics=tuple(d for _, _, diags in solved for d in diags) + notes,
        hysteresis=hysteresis)


def sweep_1d(params: SystemParams, spec: SweepSpec,
             options: SolverOptions = SolverOptions()) -> SweepResult:
    """Solve and classify every grid point; refine any fold in between."""
    return _result(params, spec, options, _solve_grid(params, spec, options))


def locate_folds(params: SystemParams, drive: DrivePoint, axis: str,
                 lo: float, hi: float,
                 options: SolverOptions = SolverOptions(),
                 samples: int = _FOLD_SCAN_SAMPLES) -> tuple:
    """Branch-count change locations inside [lo, hi], on a 1e-9 lattice.

    The ``samples`` points of :func:`axis_grid` cut [lo, hi] into cells,
    and each cell whose end counts differ reports one value: the point of
    its 1e-9 relative bisection lattice next to the count change.  On a
    power axis the counts come from the exact folds and nothing is
    solved; on a detuning axis the grid is solved in one batch
    (:func:`steady_q_grid`) and each fold is found by limit-point Newton.
    A cell holding two opposite folds has equal end counts and reports
    nothing.

    Returns an empty tuple when the count never changes; that is a valid,
    converged answer, not a failure.
    """
    scan = SweepSpec(axis=axis, start=lo, stop=hi, drive=drive, points=samples)
    values = axis_grid(scan)
    if axis in _POWER_AXES:
        folds = _power_folds(params, drive, axis, options)
        at = np.array([v for v, _ in folds], dtype=float)
        steps = np.cumsum([0] + [change for _, change in folds])
        counts = steps[np.searchsorted(at, values, side="right")]
    else:
        try:
            q_s = steady_q_grid(params, drive, axis, values, options)
        except (PolynomialError, SolverError) as exc:
            raise SweepError(f"fold scan failed on {axis} in [{lo!r}, "
                             f"{hi!r}]: {exc}") from exc
        counts = np.count_nonzero(~np.isnan(q_s), axis=1)
    return tuple(_refine_count_change(params, drive, axis, float(values[i]),
                                      float(values[i + 1]), options,
                                      _FOLD_SCAN_REL_TOL)
                 for i in np.flatnonzero(counts[1:] != counts[:-1]))


def _stable(branches):
    return [b for b in branches if b.verdict == Verdict.STABLE]


def _no_stable_branch(axis, value) -> str:
    return f"no stable branch at {axis}={value!r}; self-oscillating regime"


def _truncation(axis, value) -> str:
    return f"ramp truncated: {_no_stable_branch(axis, value)}"


def _first_without_stable(solved):
    """Index of the first solved sample with no stable branch, or None."""
    return next((i for i, (_, branches, _) in enumerate(solved)
                 if not _stable(branches)), None)


def _follow(values, solved_by_value, pick_start, params, spec, options):
    """Quasi-static ramp along `values`, switching branches only at folds."""
    v0 = values[0]
    stable0 = _stable(solved_by_value[v0])
    if not stable0:
        raise NoStableBranchError(_no_stable_branch(spec.axis, v0),
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
            raise NoStableBranchError(_no_stable_branch(spec.axis, v),
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


def _ramps(params, spec, options, solved) -> HysteresisResult:
    by_value = {v: branches for v, branches, _ in solved}
    values = [v for v, _, _ in solved]
    return HysteresisResult(
        up=_follow(values, by_value, min, params, spec, options),
        down=_follow(values[::-1], by_value, max, params, spec, options))


def hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                     options: SolverOptions = SolverOptions()) -> SweepResult:
    """Up and down quasi-static ramps over the same grid.

    The up-trace starts on the stable branch continuously connected to the
    low-axis solution (smallest q_s), the down-trace on the one connected
    to the high-axis limit (largest q_s).  Jump locations are the fold
    locations, on the 1e-6 bisection lattice.  Raises NoStableBranchError when a
    grid sample has no stable branch at all; see
    :func:`clamped_hysteresis_sweep` for the forgiving variant.
    """
    solved = _solve_grid(params, spec, options)
    return _result(params, spec, options, solved,
                   _ramps(params, spec, options, solved))


def clamped_hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                             options: SolverOptions = SolverOptions()
                             ) -> SweepResult:
    """Hysteresis ramp that stops short of the self-oscillation boundary.

    A quasi-static ramp cannot pass a sample where every branch is
    unstable (the system leaves the steady-state manifold there).  When
    every sample of the grid has a stable branch this is
    :func:`hysteresis_sweep`.  Otherwise the window top moves to the last
    sample before the first one with none, that window is solved once
    more at the same ``points`` and ramped, and a ``ramp truncated``
    diagnostic names the sample.  When fewer than two leading samples
    have a stable branch, or the truncated grid still has a sample with
    none, the first grid is returned as the plain ``direction="up"``
    sweep, with a ``ramp truncated`` note per attempt and a final ``no
    quasi-static ramp fits`` note.  At most two grids are solved.
    """
    solved = _solve_grid(params, spec, options)
    first = _first_without_stable(solved)
    if first is None:
        return _result(params, spec, options, solved,
                       _ramps(params, spec, options, solved))
    notes = (_truncation(spec.axis, solved[first][0]),)
    if first >= 2:
        trial = replace(spec, stop=solved[first - 1][0])
        retry = _solve_grid(params, trial, options)
        unstable = _first_without_stable(retry)
        if unstable is None:
            return _result(params, trial, options, retry,
                           _ramps(params, trial, options, retry), notes=notes)
        notes += (_truncation(spec.axis, retry[unstable][0]),)
    notes += ("no quasi-static ramp fits inside the window: every "
              "attempted top hit a sample with no stable branch",)
    return _result(params, replace(spec, direction="up"), options, solved,
                   notes=notes)
