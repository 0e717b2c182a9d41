"""Parameter sweeps, fold location, and quasi-static hysteresis traces.

Every sample of a sweep is solved and classified in one batch
(:func:`solve_and_classify_grid`), with records equal to the pointwise
:func:`solve_and_classify`; the first sample whose solve fails raises in
that batch, as a SweepError that names it.  Folds (branch-count changes)
are located exactly, and no steady state is solved to find them.  Each
call builds one fold list, ((axis value, +-2, q_f), ...), at most once:
:func:`locate_folds` places each fold in its grid cell from the grid rule,
evaluating only the samples next to it, and sweeps build it only when two
neighbouring samples' counts differ.  The fold lists take
each mode's Lorentzian L_k and force factor s_k c_k from
:func:`steady._mode_terms`.  On a power axis the fixed-point polynomial is
a(x) - P b(x), a assembled once at P = 0 and b = s_k c_k(1 W) L_j, so the
folds are roots of one polynomial.  On a detuning axis the branch curve
gives the axis mode's photon number explicitly in q through L_j, and roots
of one polynomial seed Newton's method on the limit-point system
f = df/dq = 0 with the exact pump.  A fold is reported on the lattice of
a bisection that takes its counts from the fold list: 1e-9 relative in
:func:`locate_folds` and 1e-6 in sweeps, the values a bisection that
solved at every midpoint reports.  A bracket (a grid cell, or two
neighbouring sweep samples) whose ends have the same count reports
nothing, even when a pair of opposite folds lies inside it; a sweep
bracket whose folds do not add up to its count difference raises
SweepError.  A hysteresis trace, the quasi-static reading of a slow
experimental ramp, follows a branch by its index in the ascending branch
list.  Only a fold moves that index, so the trace jumps exactly where a
fold removes its branch; it then lands on the stable branch nearest in
q_s, as it does where the followed branch is not stable.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NoStableBranchError, ParameterError, PolynomialError,
                     SweepError)
from .params import AXES, POWER_AXES, DrivePoint, SystemParams, drive_amplitude
from .polyroots import RealPolynomial, _horner, companion_roots
from .steady import (SolverOptions, Verdict, _assemble, _mode_terms,
                     photon_numbers_from_q, steady_residual)
from .stability import Diagnostic, _no_stable_branch, solve_and_classify_grid

#: Sweep directions: "up" solves the grid, "both" also ramps hysteresis
#: (in :func:`sweep_1d` as in the hysteresis sweeps).
DIRECTIONS = ("up", "both")
# Grids over more than a decade of power are sampled uniformly in log.
_LOG_SPAN_RATIO = 10.0
_FOLD_REL_TOL = 1e-6
_FOLD_SCAN_SAMPLES = 1024
_FOLD_SCAN_REL_TOL = 1e-9
# Limit-point Newton: iteration cap and relative step that ends it.
_LP_MAX_ITER = 50
_LP_STEP_REL = 1e-12
# Two limit points closer than this (relative) are one fold.
_LP_SAME_REL = 1e-9
# A root of the power fold polynomial w counts as real when |Im| is at
# most this times 1 + |Re|; real roots closer than _W_SAME_REL (relative)
# are one root.
_W_IMAG_REL = 1e-7
_W_SAME_REL = 1e-8


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
        if self.direction not in DIRECTIONS:
            raise ParameterError(f"sweep direction must be one of "
                                 f"{DIRECTIONS}, got {self.direction!r}")
        _check_grid(self.axis, self.start, self.stop, self.points,
                    "sweep points", "sweep start", "stop")


def _check_grid(axis, start, stop, points, n_points, n_start, n_stop):
    """Reject ``points`` samples over [start, stop] on ``axis`` that no grid
    can take; the messages name them ``n_points``, ``n_start``, ``n_stop``."""
    if not (isinstance(points, numbers.Integral) and points >= 2):
        raise ParameterError(f"{n_points} must be an integer >= 2, got {points!r}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise ParameterError(
            f"need finite {n_start} < {n_stop}, got [{start!r}, {stop!r}]")
    if axis in POWER_AXES and start < 0.0:
        raise ParameterError(f"{n_start} must be >= 0 on a power axis, got {start!r}")


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
    diagnostics: tuple     # stability.Diagnostic records: saddle-rule
                           # defects, one self-oscillation count, ramp notes
    hysteresis: HysteresisResult | None = None


def axis_grid(spec: SweepSpec) -> np.ndarray:
    """Sample values: log-uniform for wide power spans, uniform otherwise."""
    at, _ = _grid(spec.axis, spec.start, spec.stop, spec.points)
    return at(np.arange(spec.points))


def _grid(axis, start, stop, points):
    """(at, cell) of the ``points``-sample grid over [start, stop]:
    log-uniform on a power span wider than _LOG_SPAN_RATIO, else uniform.

    at(index) gives the samples at an integer array of indices: sample k is
    origin + k step, as a power of 10 on a log grid, and the two ends are
    start and stop exactly.  That is np.geomspace's and np.linspace's
    arithmetic term for term, so each sample is bit-identical to theirs.
    cell(v) gives, in closed form, the index i of the cell with sample i <
    v <= sample i + 1; rounding can leave it one off.
    """
    log = (axis in POWER_AXES and start > 0.0
           and stop / start > _LOG_SPAN_RATIO)
    lo, hi = (np.log10(start), np.log10(stop)) if log else (start, stop)
    origin, delta = float(lo), float(np.subtract(hi, lo, dtype=float))
    step = delta / (points - 1)

    def at(index):
        # np.linspace divides first where the step underflows to zero
        values = (index * step if step else index / (points - 1) * delta)
        values += origin
        if log:
            values = np.power(10.0, values)
        values[index == 0] = start
        values[index == points - 1] = stop
        return values

    def cell(v):
        t = ((math.log10(v) if log else v) - origin) / delta * (points - 1)
        return min(max(int(t), 0), points - 2)

    return at, cell


def _lorentz_scale(params, drive) -> float:
    """Displacement scale of the coupled Lorentzians, where folds sit."""
    return max((abs(delta) + kappa) / g for delta, kappa, g in (
        (drive.delta1, params.kappa1, params.g1),
        (drive.delta2, params.kappa2, params.g2)) if g > 0.0)


def _power_split(params, zero, unit, axis, sign, q_scale):
    """(a, b), ascending in x = q / q_scale, with p(x; P) = a(x) - P b(x).

    a is the polynomial at ``zero`` (axis power 0) and b = s_k c_k L_j from
    :func:`steady._mode_terms` at ``unit`` (1 W), with L_j = 1 when g_j = 0.
    """
    a = _assemble(params, zero, sign, q_scale).coeffs
    modes = _mode_terms(params, unit, sign, q_scale)
    (_, force), other = modes if axis == "power_l" else modes[::-1]
    return a, [force * c for c in other[0]] if other else [force]


def _power_folds(params, drive, axis, options) -> tuple:
    """((power, change, q_f), ...) of every fold on a power axis, ascending.

    The fixed-point polynomial is affine in the axis power, p(x; P) =
    a(x) - P b(x) (:func:`_power_split`), so the branch curve is P(x) =
    a(x) / b(x) and its folds are the real roots of w = a'b - ab' with
    P > 0.  A root counts where w changes sign (odd multiplicity); the
    branch count changes by +2 across a minimum of P(x) and by -2 across a
    maximum.  The roots are w's companion eigenvalues, from one LAPACK
    call in :func:`polyroots.companion_roots`, and are not polished: P is
    stationary at a fold, so a root error dx moves the fold power by
    O(dx^2) only.  q_f = x q_scale is the fold's double root in q.  No
    steady state is solved.
    """
    left = axis == "power_l"
    g = params.g1 if left else params.g2
    if g == 0.0:
        return ()
    zero = drive.with_value(params, axis, 0.0)
    unit = drive.with_value(params, axis, 1.0)
    q_scale = _lorentz_scale(params, drive)
    a, b = _power_split(params, zero, unit, axis, options.sign, q_scale)
    # a'b - ab' = sum over i != j of (i - j) a_i b_j x^(i + j - 1)
    w = [0.0] * (len(a) + len(b) - 2)
    for j, bj in enumerate(b):
        for i, ai in enumerate(a):
            if i != j:
                w[i + j - 1] += (i - j) * ai * bj
    w = RealPolynomial.from_coeffs(w)
    if w.degree < 1:
        raise PolynomialError(
            f"degree must be >= 1 to extract roots, got {w.degree}")
    # a multiple root keeps its member of smaller residual
    xs = []
    for x in sorted(r.real for r in companion_roots(w.coeffs).tolist()
                    if abs(r.imag) <= _W_IMAG_REL * (1.0 + abs(r.real))):
        if not (xs and abs(x - xs[-1]) <= _W_SAME_REL * (1.0 + abs(x))):
            xs.append(x)
        elif abs(_horner(w.coeffs, x)) < abs(_horner(w.coeffs, xs[-1])):
            xs[-1] = x
    if not xs:
        return ()
    # the sign of dP/dx between the roots and beyond them
    probes = ([xs[0] - 1.0 - abs(xs[0])]
              + [0.5 * (x1 + x0) for x0, x1 in zip(xs, xs[1:])]
              + [xs[-1] + 1.0 + abs(xs[-1])])
    slope = [(y > 0.0) - (y < 0.0) for y in map(w, probes)]
    s = 1 if left else options.sign
    folds = []
    for x, before, after in zip(xs, slope, slope[1:]):
        if before == after:
            continue
        # f(q; P) = f(q; 0) - P (2 / omega_m) s g n(q; 1 W) is zero at the fold
        q = x * q_scale
        n_unit = photon_numbers_from_q(q, params, unit)[0 if left else 1]
        power = (steady_residual(q, params, zero, options.sign)
                 / ((2.0 / params.omega_m) * s * g * n_unit))
        if power > 0.0:
            folds.append((power, 2 if after > before else -2, q))
    return tuple(sorted(folds))


def _limit_point_system(q, v, params, drive, axis, sign):
    """f, df/dq and the Jacobian of (f, df/dq) in (q, axis detuning).

    At ``drive.with_value(params, axis, v)``, without building it: f and
    df/dq are :func:`steady_residual` and :func:`residual_derivative`
    term for term.  The detuning also moves the pump amplitude, through
    the laser frequency omega_k - delta_k: d|E|^2/d delta = |E|^2 /
    (omega_k - delta_k).
    """
    force = force_q = f_qq = f_v = f_qv = 0.0
    for name, kappa, delta, g, kappa_e, amp, power, omega, s in (
            ("delta1", params.kappa1, drive.delta1, params.g1,
             params.kappa_e1, drive.amp_l, drive.power_l, params.omega1, 1),
            ("delta2", params.kappa2, drive.delta2, params.g2,
             params.kappa_e2, drive.amp_r, drive.power_r, params.omega2,
             sign)):
        if name == axis:
            delta = v
            amp = drive_amplitude(power, kappa, omega - v,
                                  drive.amp_convention)
        a = kappa_e * (amp * amp)
        d = delta - g * q
        lorentz = kappa**2 + d * d          # as steady_residual writes it
        force += s * g * (a / lorentz)
        force_q += s * g * (2.0 * a * g * d / (lorentz * lorentz))
        den = kappa * kappa + d * d
        bend = (3.0 * d * d - kappa * kappa) / den**3
        f_qq -= 2.0 * s * g**3 * a * bend
        if name == axis:
            da = a / (omega - delta)
            f_v -= s * g * (da - 2.0 * a * d / den) / den
            f_qv -= 2.0 * s * g * g * (da * d / den**2 - a * bend)
    c = 2.0 / params.omega_m
    return (q - c * force, 1.0 - c * force_q, c * f_v, c * f_qq, c * f_qv)


def _limit_point(params, drive, axis, lo, hi, q, v, sign):
    """Newton on f = df/dq = 0 in (q, axis value), kept inside [lo, hi].

    Returns (q, axis value, change) of the fold it converges to, where
    change is the branch count's change going up the axis: +2 when
    -f_v / f_qq > 0, else -2.  Returns None when Newton does not converge
    to a point strictly inside (lo, hi).
    """
    for _ in range(_LP_MAX_ITER):
        f, f_q, f_v, f_qq, f_qv = _limit_point_system(q, v, params, drive,
                                                      axis, sign)
        det = f_q * f_qv - f_v * f_qq
        if det == 0.0 or not math.isfinite(det):
            return None
        dq = (f_v * f_q - f * f_qv) / det
        dv = (f * f_qq - f_q * f_q) / det
        q += dq
        v = min(max(v + dv, lo), hi)
        if (abs(dv) <= _LP_STEP_REL * (abs(v) + (hi - lo))
                and abs(dq) <= _LP_STEP_REL * abs(q)):
            if lo < v < hi and f_v * f_qq != 0.0:
                return q, v, 2 if f_v * f_qq < 0.0 else -2
            return None
    return None


def _detuning_folds(params, drive, axis, lo, hi, options) -> tuple:
    """((detuning, change, q_f), ...) of every fold inside (lo, hi),
    ascending, with q_f the limit point's double root in q.

    Sweeping mode k's detuning, the branch curve has an explicit photon
    number n_k = R(q) = (omega_m q / 2 - s_j g_j n_j(q)) / (s_k g_k), and
    the effective detuning u = delta_k - g_k q obeys u^2 = A / R - kappa_k^2
    with A = kappa_e_k |E_k|^2.  With A frozen at the middle of the window
    (it moves by about (hi - lo) / omega_k across it), d delta_k / dq = 0
    gives u = A R' / (2 g_k R^2), so folds sit at the real roots of
    4 g_k^2 kappa_k^2 R^4 - 4 g_k^2 A R^3 + A^2 R'^2: a polynomial of
    degree <= 12 in q once multiplied by L_j^4, mode j's Lorentzian
    denominator (1 when g_j = 0), with L_j and s_j c_j from
    :func:`steady._mode_terms`.  Every real or nearly real root (|Im| <=
    0.1 (1 + |Re|) in x = q / q_scale) with R > 0 seeds the limit-point
    Newton at three detunings, g_k q + u for u = A R' / (2 g_k R^2) and
    u = +-sqrt(A / R - kappa_k^2): near a double root the expanded
    polynomial is at rounding level, and one of them still lands on the
    fold.  R, R' and L_j are evaluated on floats at each root.  Seeds more
    than one window width outside it are dropped.  The Newton keeps the
    exact pump, so the frozen A only places the seeds.  No steady state is
    solved.
    """
    om = params.omega_m
    left = axis == "delta1"
    modes = ((params.g1, params.kappa1, params.kappa_e1, 1),
             (params.g2, params.kappa2, params.kappa_e2, options.sign))
    (g, kappa, kappa_e, s), (gj, kappa_j, _, _) = modes if left else modes[::-1]
    mid = drive.with_value(params, axis, 0.5 * (lo + hi))
    amp, dj = (mid.amp_l, mid.delta2) if left else (mid.amp_r, mid.delta1)
    a = kappa_e * (amp * amp)
    if g == 0.0 or a == 0.0:
        return ()                   # the count does not depend on delta_k
    q_scale = max((max(abs(lo), abs(hi)) + kappa) / g,
                  (abs(dj) + kappa_j) / gj if gj > 0.0 else 0.0)
    # rates in units of omega_m, q = q_scale x; polynomials descending in x
    gt, kt, at = g / om, kappa / om, a / om**2
    terms = _mode_terms(params, mid, options.sign, q_scale)
    lorentz, force_j = terms[1 if left else 0] or ((1.0, 0.0, 0.0), 0.0)
    lorentz = np.array(lorentz[::-1])
    # N = R L_j = (x L_j - s_j c_j) q_scale / (2 s_k g_k / omega_m), and
    # R' L_j^2 q_scale = N' L_j - N L_j'
    n = np.append(lorentz, -force_j) * (0.5 * q_scale / (s * gt))
    slope = (np.convolve(np.polyder(n), lorentz)
             - np.convolve(n, np.polyder(lorentz)))
    n3 = np.convolve(np.convolve(n, n), n)
    # degrees 12, 11 and 8, summed with the shorter ones' leads zero-padded
    fold = 4.0 * gt * gt * kt * kt * np.convolve(n3, n)
    fold[1:] -= 4.0 * gt * gt * at * np.convolve(n3, lorentz)
    fold[4:] += at * at * np.convolve(slope, slope) / q_scale**2
    roots = companion_roots(fold[::-1].tolist())
    near = roots.real[np.abs(roots.imag) <= 0.1 * (1.0 + np.abs(roots.real))]
    lorentz, n, slope = (RealPolynomial(tuple(p[::-1].tolist()))
                         for p in (lorentz, n, slope))
    found = []
    for x in near.tolist():
        lx = lorentz(x)
        r = n(x) / lx
        if not r > 0.0:
            continue
        q = x * q_scale
        r_q = slope(x) / (lx * lx * q_scale)
        us = [a * r_q / (2.0 * g * r * r)]
        w = a / r - kappa * kappa
        if w >= 0.0:
            us += [math.sqrt(w), -math.sqrt(w)]
        for u in us:
            v = g * q + u
            if lo - (hi - lo) <= v <= hi + (hi - lo):
                fold_at = _limit_point(params, drive, axis, lo, hi, q,
                                       min(max(v, lo), hi), options.sign)
                if fold_at is not None:
                    found.append(fold_at)
    folds = []
    for q, v, change in sorted(found, key=lambda lp: lp[1]):
        # several seeds reach the same fold
        if not (folds and folds[-1][2] == change
                and abs(folds[-1][1] - v) <= _LP_SAME_REL * (abs(v) + hi - lo)
                and abs(folds[-1][0] - q) <= _LP_SAME_REL * (abs(q) + q_scale)):
            folds.append((q, v, change))
    return tuple((v, change, q) for q, v, change in folds)


def _folds(params, drive, axis, lo, hi, options) -> tuple:
    """((axis value, change, q_f), ...) of the exact folds, ascending.

    change is the branch count's change going up the axis, and q_f the
    displacement where the two branches meet.  On a power axis every fold
    at P > 0; on a detuning axis those inside (lo, hi).
    """
    if axis in POWER_AXES:
        return _power_folds(params, drive, axis, options)
    return _detuning_folds(params, drive, axis, lo, hi, options)


def _refine_count_change(axis, folds, lo, hi, change, rel_tol) -> float:
    """Bisect the axis interval (lo, hi) down to its branch-count change.

    ``folds`` is the exact fold list and ``change`` the count at hi minus
    the count at lo.  The count at a midpoint is the count at lo plus the
    changes of the folds up to it, so nothing is solved; with one fold
    inside, that count is the count at lo exactly below the fold.  Folds
    whose changes do not add up to ``change`` raise SweepError.
    """
    inside = [(v, step) for v, step, _ in folds if lo < v <= hi]
    found = sum(step for _, step in inside)
    if found != change:
        raise SweepError(
            f"the folds found on {axis} in ({lo!r}, {hi!r}] change the branch "
            f"count by {found:+d}, but its ends differ by {change:+d}")
    floor = 1e-12 * abs(hi - lo)
    only = inside[0][0] if len(inside) == 1 else None
    # hi - lo > max(rel_tol * max(|lo|, |hi|), floor), without max calls
    while ((width := hi - lo) > floor and width > rel_tol * abs(lo)
           and width > rel_tol * abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (mid < only if only is not None
                else sum(step for v, step in inside if v <= mid) == 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_grid(params, spec, options):
    values = axis_grid(spec).tolist()
    # a failing sample raises in the grid, as a SweepError that names it
    records = solve_and_classify_grid(params, spec.drive, spec.axis, values,
                                      options)
    return [(v, *record) for v, record in zip(values, records)]


def _result(params, spec, options, solved, notes=()):
    """The SweepResult of one solved grid: records, diagnostics, folds and,
    when ``spec.direction`` is ``"both"``, both hysteresis traces.  The
    exact fold list is built at most once, and only when some
    neighbouring samples' counts differ; self-oscillation counts sum.
    """
    folds = functools.cache(lambda: _folds(params, spec.drive, spec.axis,
                                           spec.start, spec.stop, options))
    # each step's refined count change, None where the count is unchanged
    changes = [
        _refine_count_change(spec.axis, folds(), v0, v1, len(b1) - len(b0),
                             _FOLD_REL_TOL) if len(b0) != len(b1) else None
        for (v0, b0, _), (v1, b1, _) in zip(solved, solved[1:])]
    diags = [d for _, _, notes_at in solved for d in notes_at]
    counts = [d.values for d in diags if d.kind == "self_oscillation"]
    diags = tuple(d for d in diags if d.kind == "saddle_rule") + (
        (Diagnostic("self_oscillation", tuple(map(sum, zip(*counts)))),)
        if counts else ())
    hysteresis = None
    if spec.direction == "both":
        slots = functools.partial(_fold_slots, params, spec, options.sign,
                                  folds)
        hysteresis = HysteresisResult(
            up=_follow(solved, changes, min, spec.axis, slots),
            down=_follow(solved[::-1], changes[::-1], max, spec.axis, slots))
    return SweepResult(
        spec=spec, records=tuple((v, branches) for v, branches, _ in solved),
        folds=tuple(v for v in changes if v is not None),
        diagnostics=diags + notes,
        hysteresis=hysteresis)


def sweep_1d(params: SystemParams, spec: SweepSpec,
             options: SolverOptions = SolverOptions()) -> SweepResult:
    """Solve and classify every grid point; refine any fold in between.
    A ``direction="both"`` spec also ramps hysteresis both ways, as
    :func:`hysteresis_sweep` does."""
    return _result(params, spec, options, _solve_grid(params, spec, options))


def locate_folds(params: SystemParams, drive: DrivePoint, axis: str,
                 lo: float, hi: float,
                 options: SolverOptions = SolverOptions(),
                 samples: int = _FOLD_SCAN_SAMPLES) -> tuple:
    """Branch-count change locations inside [lo, hi], on a 1e-9 lattice.

    The ``samples`` points of :func:`axis_grid` cut [lo, hi] into cells,
    and each cell whose end counts differ reports one value: the point of
    its 1e-9 relative bisection lattice next to the count change.  The
    counts come from one exact fold list, each fold's +-2 change, on
    either axis kind: the roots of one polynomial on a power axis,
    limit-point Newton from the roots of another on a detuning axis.  Each
    fold in (lo, hi] is placed in its cell in closed form from the grid
    rule and checked against the cell's two samples, so only the samples
    next to a fold are evaluated.  No steady state is solved.  A cell
    holding two opposite folds has equal end counts and reports nothing.

    Returns an empty tuple when the count never changes; that is a valid,
    converged answer, not a failure.
    """
    _check_grid(axis, lo, hi, samples, "samples", "lo", "hi")
    folds = _folds(params, drive, axis, lo, hi, options)
    inside = [(v, change) for v, change, _ in folds if lo < v <= hi]
    if not inside:
        return ()
    at, cell = _grid(axis, lo, hi, samples)
    guess = [cell(v) for v, _ in inside]
    index = guess + [i + 1 for i in guess]
    known = dict(zip(index, at(np.array(index)).tolist()))

    def sample(k):
        if k not in known:
            known[k] = at(np.array([k])).item()
        return known[k]

    # each cell's net count change; sample 0 is lo < v and the last is hi
    net = {}
    for (v, change), i in zip(inside, guess):
        while v <= sample(i):
            i -= 1
        while v > sample(i + 1):
            i += 1
        net[i] = net.get(i, 0) + change
    return tuple(_refine_count_change(axis, folds, sample(i), sample(i + 1),
                                      change, _FOLD_SCAN_REL_TOL)
                 for i, change in sorted(net.items()) if change)


def _stable(branches):
    return [b for b in branches if b.verdict == Verdict.STABLE]


def _first_without_stable(solved):
    """Index of the first solved sample with no stable branch, or None."""
    return next((i for i, (_, branches, _) in enumerate(solved)
                 if not _stable(branches)), None)


def _fold_slots(params, spec, sign, folds, u, before, w):
    """(change, k) of each fold in the ramp step u -> w, in ramp order.

    change is the fold's count change in the ramp direction and k the
    number of branches below its q_f just before it: those of ``before``
    (ascending, at u), plus the changes of the step's earlier folds below
    q_f, plus the one other crossing of q_f.  On a power axis there is
    none, p(x; P) being affine in P.  On a detuning axis, with the pump
    frozen, f(q_f; delta) = 0 also at 2 g q_f - v_f; inside (u, v_f) it
    counts -1 where the branch rises through q_f (sign of f_q f_delta).
    """
    up = 1 if w > u else -1
    inside = [f for f in folds() if min(u, w) < f[0] <= max(u, w)]
    done = []
    for v, change, q in sorted(inside, reverse=up < 0):
        k = (sum(b.q_s < q for b in before)
             + sum(c for c, q_e in done if q_e < q))
        if spec.axis not in POWER_AXES:
            g = params.g1 if spec.axis == "delta1" else params.g2
            other = 2.0 * g * q - v
            if min(u, v) < other < max(u, v):
                _, f_q, f_v, _, _ = _limit_point_system(
                    q, other, params, spec.drive, spec.axis, sign)
                k += up if f_q * f_v > 0.0 else -up
        done.append((up * change, q))
        yield up * change, k


def _follow(solved, changes, pick_start, axis, slots):
    """Quasi-static ramp over ``solved``, in its order.

    The followed branch is tracked by its index i in the ascending branch
    list, and only a fold moves i: at a step whose count changes, a -2
    fold in the ramp direction removes indices (k - 1, k) and a +2 fold
    inserts two at k (:func:`_fold_slots`).  Where the branch dies, or
    ``branches[i]`` is not stable, the ramp lands on the stable branch
    nearest in q_s; a death is a jump, at the step's value in ``changes``.
    """
    points, jumps, prev = [], [], None
    for (v, branches, _), jump in zip(solved, [None, *changes]):
        stable = _stable(branches)
        if not stable:
            raise NoStableBranchError(_no_stable_branch(axis, v),
                                      axis_value=v)
        if prev is None:
            i = branches.index(pick_start(stable, key=lambda b: b.q_s))
        elif jump is not None:
            for change, k in slots(*prev, v):
                if change < 0 and k - 1 <= i <= k:
                    jumps.append(jump)
                    i = None
                    break
                if i >= k:
                    i += change
        if i is None or branches[i].verdict != Verdict.STABLE:
            q = points[-1][1].q_s
            i = branches.index(min(stable, key=lambda b: abs(b.q_s - q)))
        points.append((v, branches[i]))
        prev = v, branches
    return Trace(points=tuple(points), jumps=tuple(jumps))


def hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                     options: SolverOptions = SolverOptions()) -> SweepResult:
    """Up and down quasi-static ramps over the same grid.

    The up-trace starts on the stable branch continuously connected to the
    low-axis solution (smallest q_s), the down-trace on the one connected
    to the high-axis limit (largest q_s).  Jump locations are the fold
    locations, on the 1e-6 bisection lattice.  Raises NoStableBranchError when a
    grid sample has no stable branch at all; see
    :func:`clamped_hysteresis_sweep` for the forgiving variant.  The
    result's spec has ``direction="both"``, whatever ``spec`` says.
    """
    spec = replace(spec, direction="both")
    return _result(params, spec, options, _solve_grid(params, spec, options))


def clamped_hysteresis_sweep(params: SystemParams, spec: SweepSpec,
                             options: SolverOptions = SolverOptions()
                             ) -> SweepResult:
    """Hysteresis ramp that stops short of the self-oscillation boundary.

    A quasi-static ramp cannot pass a sample where every branch is
    unstable (the system leaves the steady-state manifold there).  When
    every sample of the grid has a stable branch this is
    :func:`hysteresis_sweep`.  Otherwise the window top moves to the last
    sample before the first one with none, that window is solved once
    more at the same ``points`` and ramped, and a ``"ramp_truncated"``
    Diagnostic names the sample.  When fewer than two leading samples
    have a stable branch, or the truncated grid still has a sample with
    none, the first grid is returned as the plain ``direction="up"``
    sweep, with a ``"ramp_truncated"`` note per attempt and a final
    ``"no_ramp_fits"`` note.  At most two grids are solved.  A ramped
    result's spec has ``direction="both"``, whatever ``spec`` says.
    """
    spec = replace(spec, direction="both")
    solved = _solve_grid(params, spec, options)
    first = _first_without_stable(solved)
    if first is None:
        return _result(params, spec, options, solved)
    notes = (Diagnostic("ramp_truncated", (spec.axis, solved[first][0])),)
    if first >= 2:
        trial = replace(spec, stop=solved[first - 1][0])
        retry = _solve_grid(params, trial, options)
        unstable = _first_without_stable(retry)
        if unstable is None:
            return _result(params, trial, options, retry, notes=notes)
        notes += (Diagnostic("ramp_truncated",
                             (spec.axis, retry[unstable][0])),)
    notes += (Diagnostic("no_ramp_fits"),)
    return _result(params, replace(spec, direction="up"), options, solved,
                   notes=notes)
