"""Steady-state branches of the two-mode optomechanical cavity.

Model: two optical modes with amplitude decay rates ``kappa_k`` are pumped
at detunings ``delta_k`` and couple, with strengths ``g_k``, to one
mechanical mode through radiation pressure.  In the rotating frames the
mean-field equations are

    da_k/dt = -(kappa_k + i (delta_k - g_k Q)) a_k + sqrt(kappa_e_k) E_k
    d2Q/dt2 + gamma_m dQ/dt + omega_m^2 Q
        = 2 omega_m (g_1 |a_1|^2 + s g_2 |a_2|^2)

where Q is the dimensionless mechanical displacement and ``s`` selects the
sign convention for the second mode's radiation-pressure push (``+1``, the
default, is the physical one; ``-1`` mirrors an alternative printed form
of the photon-number relations and is kept only for comparison).

A steady state satisfies the scalar fixed-point condition

    q = (2 / omega_m) * (g_1 n_1(q) + s g_2 n_2(q)),
    n_k(q) = kappa_e_k E_k^2 / (kappa_k^2 + (delta_k - g_k q)^2),

which clears to a polynomial in q of degree 1, 3, or 5.  The polynomial is
assembled in a nondimensionalized variable ``x = q / q_scale`` with every
rate divided by ``omega_m``; Lorentzian factors belonging to an uncoupled
mode (``g_k == 0``) are constants in q and are divided out exactly, which
keeps decoupled results bit-independent of the other mode's settings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PolynomialError
from .params import DrivePoint, SystemParams
from .polyroots import (RealPolynomial, mul_coeffs, mul_rows, real_roots,
                        real_roots_rows, trim_rows)

_POLISH_MAX_ITER = 12
# Rows per block of steady_q_grid and solve_and_classify_grid: a default
# 400-point sweep is one block, and its temporaries stay near 0.6 MB.
_GRID_BLOCK = 512
_MAX_BRANCHES = 5


class Verdict(enum.IntEnum):
    """Dynamical stability of a branch; integer values match the CSV column."""

    STABLE = 0
    UNSTABLE = 1
    MARGINAL = 2


@dataclass(frozen=True)
class SolverOptions:
    """Options shared by the solve, classify, and sweep layers: the sign
    convention of the second mode's force and the stability verdicts'
    marginal band.  The steady solve itself has no tolerance to set."""

    sign: int = 1
    marginal_band: float = 1e-9   # fraction of omega_m

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ParameterError(f"sign convention must be +1 or -1, got {self.sign!r}")
        if not 0.0 < self.marginal_band <= 1e-3:
            raise ParameterError(
                f"marginal_band out of range (0, 1e-3]: {self.marginal_band!r}")


@dataclass(frozen=True)
class SteadyBranch:
    """One self-consistent operating point at a fixed drive."""

    q_s: float
    amp1: complex
    amp2: complex
    n_p1: float
    n_p2: float
    delta1_eff: float
    delta2_eff: float
    verdict: Verdict | None = None
    max_re_eig: float = math.nan


@dataclass(frozen=True)
class ScaledPolynomial:
    """Fixed-point polynomial in x = q / q_scale."""

    poly: RealPolynomial
    q_scale: float


def effective_detunings(q, params: SystemParams, drive: DrivePoint):
    """Mechanically shifted detunings (delta_k - g_k q); q may be an array."""
    return drive.delta1 - params.g1 * q, drive.delta2 - params.g2 * q


def photon_numbers_from_q(q, params: SystemParams, drive: DrivePoint):
    """Intracavity photon numbers and effective detunings at displacement q."""
    d1, d2 = effective_detunings(q, params, drive)
    n1 = (params.kappa_e1 * (drive.amp_l * drive.amp_l)
          / (params.kappa1**2 + d1 * d1))
    n2 = (params.kappa_e2 * (drive.amp_r * drive.amp_r)
          / (params.kappa2**2 + d2 * d2))
    return n1, n2, d1, d2


def steady_amplitudes(q, params: SystemParams, drive: DrivePoint):
    """Complex mode amplitudes at displacement q."""
    return _amplitudes(*effective_detunings(q, params, drive), params, drive)


def _amplitudes(d1, d2, params: SystemParams, drive: DrivePoint):
    """Complex mode amplitudes at effective detunings d1, d2."""
    a1 = math.sqrt(params.kappa_e1) * drive.amp_l / (params.kappa1 + 1j * d1)
    a2 = math.sqrt(params.kappa_e2) * drive.amp_r / (params.kappa2 + 1j * d2)
    return a1, a2


def steady_residual(q, params: SystemParams, drive: DrivePoint, sign: int = 1):
    """Fixed-point defect f(q); zero exactly at steady states.

    Vectorized over q.  The sign of f flips across every transversal
    steady state.
    """
    n1, n2, _, _ = photon_numbers_from_q(q, params, drive)
    return q - (2.0 / params.omega_m) * (params.g1 * n1 + sign * params.g2 * n2)


def residual_derivative(q, params: SystemParams, drive: DrivePoint, sign: int = 1):
    """d f / d q, used by the Newton polish."""
    return _residual_pair(params, drive, sign)(q)[1]


def _residual_pair(params: SystemParams, drive: DrivePoint, sign: int):
    """x -> (f(x), df/dq(x)), :func:`steady_residual` in its operations
    and order, with the drive's constants computed once; x and the drive
    fields may be arrays."""
    c, g1, g2, s2 = 2.0 / params.omega_m, params.g1, params.g2, sign * params.g2
    k1, k2 = params.kappa1**2, params.kappa2**2
    a1 = params.kappa_e1 * (drive.amp_l * drive.amp_l)
    a2 = params.kappa_e2 * (drive.amp_r * drive.amp_r)
    da1, da2 = 2.0 * a1 * g1, 2.0 * a2 * g2

    def pair(x):
        d1, d2 = drive.delta1 - g1 * x, drive.delta2 - g2 * x
        den1, den2 = k1 + d1 * d1, k2 + d2 * d2
        return (x - c * (g1 * (a1 / den1) + s2 * (a2 / den2)),
                1.0 - c * (g1 * (da1 * d1 / (den1 * den1))
                           + s2 * (da2 * d2 / (den2 * den2))))

    return pair


def q_upper_bound(params: SystemParams, drive: DrivePoint) -> float:
    """Bound on |q| over all steady states: each Lorentzian at its peak."""
    a_1 = params.kappa_e1 * (drive.amp_l * drive.amp_l)
    a_2 = params.kappa_e2 * (drive.amp_r * drive.amp_r)
    return (2.0 / params.omega_m) * (params.g1 * a_1 / params.kappa1**2
                                     + params.g2 * a_2 / params.kappa2**2)


def _tail_root_bound(params: SystemParams, drive: DrivePoint) -> float:
    """Alternative bound on |q|, tight at strong drive.

    Past |q| > 2|delta_k|/g_k every coupled Lorentzian is on its far tail,
    |delta_k - g_k q| >= g_k |q| / 2, so the total force magnitude is at
    most (8/(omega_m q^2)) * sum(A_k / g_k) and the residual cannot vanish
    once |q|^3 exceeds that sum scaled by 8/omega_m.
    """
    bound = 0.0
    tail_sum = 0.0
    for kappa_e, amp, g, delta in (
            (params.kappa_e1, drive.amp_l, params.g1, drive.delta1),
            (params.kappa_e2, drive.amp_r, params.g2, drive.delta2)):
        if g == 0.0:
            continue
        bound = max(bound, 2.0 * abs(delta) / g)
        tail_sum += kappa_e * amp * amp / g
    return max(bound, (8.0 * tail_sum / params.omega_m) ** (1.0 / 3.0))


def _mode_terms(params: SystemParams, drive: DrivePoint, sign: int,
                q_scale) -> list:
    """Each mode's (L_k, s_k c_k) in x = q / q_scale, or None when g_k == 0.

    L_k = (kappa_k^2 + (delta_k - g_k q)^2) / omega_m^2, as ascending
    coefficients, and c_k = 2 g_k kappa_e_k |E_k|^2 / (omega_m^3 q_scale),
    linear in mode k's power: the polynomial is x L_1 L_2 - s_1 c_1 L_2 -
    s_2 c_2 L_1.  Drive fields and ``q_scale`` may be floats or (n, 1) columns.
    """
    om = params.omega_m
    terms = []
    for kappa, delta, g, kappa_e, amp, s in (
            (params.kappa1, drive.delta1, params.g1, params.kappa_e1, drive.amp_l, 1),
            (params.kappa2, drive.delta2, params.g2, params.kappa_e2, drive.amp_r, sign)):
        if g == 0.0:
            terms.append(None)
            continue
        kt = kappa / om
        dt = delta / om
        gt = g * q_scale / om
        c = 2.0 * g * (kappa_e * amp * amp) / (om**3 * q_scale)
        terms.append(((kt * kt + dt * dt, -2.0 * dt * gt, gt * gt), s * c))
    return terms


def _assemble(params: SystemParams, drive: DrivePoint, sign: int,
              q_scale: float) -> ScaledPolynomial:
    modes = list(filter(None, _mode_terms(params, drive, sign, q_scale)))
    coeffs = [0.0, 1.0]
    for lorentz, _ in modes:
        coeffs = mul_coeffs(coeffs, lorentz)
    for k, (_, signed_c) in enumerate(modes):
        term = (1.0,)
        for j, (lorentz, _) in enumerate(modes):
            if j != k:
                term = mul_coeffs(term, lorentz)
        for i, c in enumerate(term):
            coeffs[i] -= signed_c * c
    return ScaledPolynomial(poly=RealPolynomial.from_coeffs(coeffs), q_scale=q_scale)


def assemble_fixed_point_polynomial(params: SystemParams, drive: DrivePoint,
                                    sign: int = 1) -> ScaledPolynomial:
    """Clear the fixed-point condition to a polynomial in x = q / q_scale.

    The real zeros of the result, rescaled by ``q_scale``, are exactly the
    zeros of :func:`steady_residual`.  Degree is ``1 + 2 * (number of
    modes with g_k != 0)``; with both couplings active the leading
    coefficient is ``(g1 g2 q_scale^2 / omega_m^2)^2 > 0``.

    ``q_scale = max(q_upper_bound, 1)``.  At strong drive this is loose
    (the roots sit many decades below it); the branch solver then works on
    a tighter internal rescale, but this public form is the reference.
    """
    q_scale = max(q_upper_bound(params, drive), 1.0)
    return _assemble(params, drive, sign, q_scale)


def _polish_root(q: float, lo: float, hi: float, params, drive, sign) -> float:
    """Safeguarded Newton on the residual around a polynomial root.

    The step depends on x alone, so once an iterate equals the one before
    last the iterates repeat and ``best`` cannot change: the loop stops
    there with what running to ``_POLISH_MAX_ITER`` returns.  At an exact
    zero the step is 0, so the negligible-step exit returns that iterate.
    """
    residual = _residual_pair(params, drive, sign)
    fx, dfx = residual(q)
    best, best_res = q, abs(fx)
    x, last = q, math.nan
    for _ in range(_POLISH_MAX_ITER):
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        before, last = last, x
        x = min(max(x - step, lo), hi)
        fx, dfx = residual(x)
        res = abs(fx)
        if res < best_res:
            best, best_res = x, res
        if abs(step) <= 1e-16 * (1.0 + abs(x)) or x == before:
            break
    return best


def _branch_at(q: float, params: SystemParams, drive: DrivePoint) -> SteadyBranch:
    n1, n2, d1, d2 = photon_numbers_from_q(q, params, drive)
    a1, a2 = _amplitudes(d1, d2, params, drive)
    return SteadyBranch(q_s=q, amp1=a1, amp2=a2, n_p1=float(n1), n_p2=float(n2),
                        delta1_eff=float(d1), delta2_eff=float(d2))


def steady_branches(params: SystemParams, drive: DrivePoint,
                    options: SolverOptions = SolverOptions()) -> tuple:
    """All steady-state branches at one drive point, ascending in q_s.

    The fixed-point polynomial's real roots in (lo, hi) = (0 or -1.05 qb,
    1.05 qb), qb the tightest bound on |q|, come from
    :func:`polyroots.real_roots`; each is polished on the residual inside
    its bracket.  The residual is negative at lo and positive at hi, so
    there is at least one.  Stability verdicts are not filled in here;
    see the stability module.  A point where no coupled mode is driven
    feels no force: its one branch is the rest point q = 0, exactly.
    """
    # Solve on the tightest valid root bound: at strong drive the peak
    # bound is decades above the actual roots and would wreck the
    # conditioning of the scaled polynomial.
    qb = min(q_upper_bound(params, drive), _tail_root_bound(params, drive))
    if qb == 0.0:
        return (_branch_at(0.0, params, drive),)
    q_scale = max(qb, 1.0)
    scaled = _assemble(params, drive, options.sign, q_scale)
    lo = -1.05 * qb if options.sign < 0 else 0.0
    hi = 1.05 * qb
    return tuple(
        _branch_at(_polish_root(x * q_scale, a * q_scale, b * q_scale,
                                params, drive, options.sign), params, drive)
        for x, a, b in real_roots(scaled.poly, lo / q_scale, hi / q_scale))


# Grid solver: steady_branches over many drives at once.  Every helper
# below does its scalar namesake's arithmetic elementwise and in the same
# order, so each row is bit-identical to the scalar solve.  Squares of
# drive fields are products in both forms: on a Python float ``x**2`` is
# libm pow, on an array an exact square.

def _tail_root_bound_rows(params: SystemParams, drive: DrivePoint):
    """:func:`_tail_root_bound` with array drive fields."""
    bound = 0.0
    tail_sum = 0.0
    for kappa_e, amp, g, delta in (
            (params.kappa_e1, drive.amp_l, params.g1, drive.delta1),
            (params.kappa_e2, drive.amp_r, params.g2, drive.delta2)):
        if g == 0.0:
            continue
        bound = np.maximum(bound, 2.0 * np.abs(delta) / g)
        tail_sum = tail_sum + kappa_e * amp * amp / g
    tail = 8.0 * tail_sum / params.omega_m
    # Python's pow per entry: numpy's power kernel rounds cube roots
    # differently.
    cube = np.reshape([t ** (1.0 / 3.0) for t in np.ravel(tail).tolist()],
                      np.shape(tail))
    return np.maximum(bound, cube)


def _assemble_rows(params: SystemParams, drive: DrivePoint, sign: int,
                   q_scale: np.ndarray) -> np.ndarray:
    """:func:`_assemble` for a (n, 1) column of drives and scales.

    Returns (n, 6) ascending coefficients, zero above each row's trimmed
    degree, with every intermediate product trimmed as the scalar form
    trims it.
    """
    n = q_scale.shape[0]
    modes = [(np.hstack(np.broadcast_arrays(*lorentz)), force) for lorentz, force
             in filter(None, _mode_terms(params, drive, sign, q_scale))]
    poly = np.broadcast_to([0.0, 1.0], (n, 2))
    for lorentz, _ in modes:
        poly = trim_rows(mul_rows(poly, lorentz))
    coeffs = np.zeros((n, _MAX_BRANCHES + 1))
    coeffs[:, :poly.shape[1]] = poly
    for k, (_, signed_c) in enumerate(modes):
        term = np.ones((n, 1))
        for j, (lorentz, _) in enumerate(modes):
            if j != k:
                term = trim_rows(mul_rows(term, lorentz))
        coeffs[:, :term.shape[1]] -= signed_c * term
    return trim_rows(coeffs)


def _polish_rows(q, lo, hi, params, drive, sign):
    """:func:`_polish_root` at every non-NaN entry of q (n, m)."""
    residual = _residual_pair(params, drive, sign)
    out = np.full(q.shape, np.nan)
    x, last = q, np.full(q.shape, np.nan)
    fx, dfx = residual(x)
    best, best_res = x, np.abs(fx)
    active = ~np.isnan(q)
    for _ in range(_POLISH_MAX_ITER):
        stuck = active & ((dfx == 0.0) | ~np.isfinite(dfx))
        out[stuck] = best[stuck]
        active &= ~stuck
        if not active.any():
            return out
        step = fx / dfx
        before, last = last, x
        x = np.where(active, np.minimum(np.maximum(x - step, lo), hi), x)
        fx, dfx = residual(x)
        res = np.abs(fx)
        better = active & (res < best_res)
        best = np.where(better, x, best)
        best_res = np.where(better, res, best_res)
        done = active & ((np.abs(step) <= 1e-16 * (1.0 + np.abs(x)))
                         | (x == before))
        out[done] = best[done]
        active &= ~done
    out[active] = best[active]
    return out


def _solve_rows(params, drive, axis, values, options, out):
    """Write the steady_q_grid rows of ``values`` into ``out``; a row
    :func:`real_roots_rows` or the masks before it leave out is solved by
    :func:`steady_branches`.

    Returns None, or ``(i, exc)`` for the first row whose scalar solve
    raises; rows after it are not solved, since every caller raises it.
    """
    columns, ok = drive.with_values(params, axis, values[:, None])
    sign = options.sign
    with np.errstate(all="ignore"):
        qb = np.minimum(q_upper_bound(params, columns),
                        _tail_root_bound_rows(params, columns))
        ok = ok.ravel() & (qb.ravel() > 0.0)
        q_scale = np.maximum(qb, 1.0)
        coeffs = _assemble_rows(params, columns, sign, q_scale)
        # companion_roots would strip a zero constant term: a root at 0
        ok &= np.isfinite(coeffs).all(axis=1) & (coeffs[:, 0] != 0.0)
        degree = coeffs.shape[1] - 1 - np.argmax(coeffs[:, ::-1] != 0.0, axis=1)
        lo = (-1.05 * qb if sign < 0 else np.zeros_like(qb)) / q_scale
        hi = 1.05 * qb / q_scale
        start, left, right = (np.full(out.shape, np.nan) for _ in range(3))
        for d in range(1, _MAX_BRANCHES + 1):
            rows = np.flatnonzero(ok & (degree == d))
            if len(rows):
                (start[rows, :d], left[rows, :d], right[rows, :d],
                 solved) = real_roots_rows(coeffs[rows, :d + 1], lo[rows],
                                           hi[rows])
                ok[rows[~solved]] = False
        q = np.sort(_polish_rows(start * q_scale, left * q_scale,
                                 right * q_scale, params, columns, sign),
                    axis=1)
    out[ok] = q[ok]
    for i in np.flatnonzero(~ok).tolist():
        try:
            point = drive.with_value(params, axis, float(values[i]))
            qs = [b.q_s for b in steady_branches(params, point, options)]
        except (ParameterError, PolynomialError) as exc:
            return i, exc
        out[i, :len(qs)] = qs
    return None


def steady_q_grid(params: SystemParams, drive: DrivePoint, axis: str,
                  values, options: SolverOptions = SolverOptions()) -> np.ndarray:
    """q_s of every branch at ``drive.with_value(params, axis, v)`` for each v.

    Row i holds what ``steady_branches`` gives at ``values[i]``: the q_s of
    each branch, ascending, NaN-padded to 5 columns.  Rows are solved
    together, block by block: one stacked companion eigenvalue call per
    polynomial degree, then the sign-change rule of :func:`real_roots` and
    the Newton polish on the residual as masked array steps.  A row that
    needs a path only the scalar solver has (no coupled mode driven,
    non-finite coefficient, zero root, failed eigenvalue iteration, no
    eigenvalue position inside the root bounds, or a sign change beside a
    complex position) is solved by :func:`steady_branches` in
    :func:`_solve_rows`; the first that raises
    stops the grid with that error.
    """
    values = np.asarray(values, dtype=float)
    out = np.full((len(values), _MAX_BRANCHES), np.nan)
    for start in range(0, len(values), _GRID_BLOCK):
        block = slice(start, start + _GRID_BLOCK)
        failed = _solve_rows(params, drive, axis, values[block], options,
                             out[block])
        if failed is not None:
            raise failed[1]
    return out
