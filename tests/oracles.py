"""Independent reference computations used to audit the package.

Everything here is implemented directly from the model definition with
plain numpy/math, deliberately avoiding the package's evaluation paths,
so a library bug cannot hide by canceling against itself.  The only
package objects consumed are the parameter containers, read as plain
numbers.  The exceptions are :func:`scan_counts` and
:func:`bisect_count_change`, the references for the batched fold scan and
the exact fold bisection: each is the scalar-solve route it replaced; and
:func:`polish_root_full`, the reference for the Newton polish's stop on a
2-cycle, which runs the same loop to its iteration cap; and
:func:`classify_branch`, the reference for the stacked classify kernel,
which is the per-branch route it replaced: one branch's Jacobian through
the Faddeev-LeVerrier recurrence, then ``np.roots``.  :func:`jacobian` and
:func:`q_grid` are adapters, not references: the package's own Jacobian
in rad/s and its batched steady-state rows, in the form tests compare.

Branch counts are exact: :func:`sturm_count` counts the distinct real
roots of :func:`fixed_point_quintic`, whose inputs are read exactly, in
integer arithmetic, with no tolerance, grid or resolvability filter, so
root pairs at any separation, near folds too, are resolved.

Time-domain checks integrate :func:`rhs_reference` with SciPy's DOP853
(:func:`integrate_final`); the package itself does no time integration.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp

from twomode.errors import PolynomialError
from twomode.polyroots import RealPolynomial
from twomode.stability import (_characteristic_rows, _scaled_jacobians,
                               branch_state)
from twomode.steady import (_POLISH_MAX_ITER, Verdict, _solve_rows,
                            residual_derivative, steady_branches,
                            steady_residual)


def from_roots(roots, leading=1.0):
    """``leading * prod(x - r)`` as a RealPolynomial; complex roots must
    pair up."""
    coeffs = np.array([leading], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=complex))
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(np.max(np.abs(coeffs.real)), 1.0):
        raise PolynomialError("roots do not produce a real polynomial")
    return RealPolynomial.from_coeffs(coeffs.real.tolist())


def residual_scale(coeffs, r):
    """max_i |c_i| * |r|**i, the natural size of a polynomial near r."""
    return max(abs(c) * abs(r) ** i for i, c in enumerate(coeffs))


def kappa_max(params):
    """The larger of the two cavity decay rates."""
    return max(params.kappa1, params.kappa2)


def lorentzian_force_terms(params, drive, sign=1, num=float):
    """(g_k, A_k, delta_k, kappa_k) of each mode, A_k = s_k kappa_e_k E_k^2,
    in ``num`` arithmetic (``Fraction`` reads every input exactly)."""
    return tuple((num(g), s * num(ke) * num(amp) ** 2, num(delta), num(kappa))
                 for g, ke, amp, delta, kappa, s in (
                     (params.g1, params.kappa_e1, drive.amp_l, drive.delta1,
                      params.kappa1, 1),
                     (params.g2, params.kappa_e2, drive.amp_r, drive.delta2,
                      params.kappa2, sign)))


def residual_scalar(q, params, drive, sign=1):
    """f(q) = q - (2/omega_m) sum_k g_k A_k / (kappa_k^2 + (delta_k-g_k q)^2)."""
    total = 0.0
    for g, a, delta, kappa in lorentzian_force_terms(params, drive, sign):
        total += g * a / (kappa**2 + (delta - g * q) ** 2)
    return q - 2.0 / params.omega_m * total


def force_bound(params, drive, sign=1):
    """Upper bound on the radiation-pressure sum: every root lies below it."""
    total = 0.0
    for g, a, delta, kappa in lorentzian_force_terms(params, drive, sign):
        total += g * abs(a) / kappa**2
    return 2.0 / params.omega_m * total


def _trim(p):
    """Ascending coefficients without zero leads; [] is the zero polynomial."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """Integer coefficients over their greatest common divisor."""
    g = math.gcd(*p) or 1
    return [c // g for c in p]


def _rem(a, b):
    """A positive integer multiple of the remainder of a divided by b."""
    lead, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        f = s * a[-1]
        a = [c * lead for c in a]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= f * c
        a = _trim(a[:-1])
    return a


def fixed_point_quintic(params, drive, sign=1):
    """Ascending exact coefficients of the cleared fixed-point condition

        q L1 L2 - (2/omega_m)(g1 A1 L2 + s g2 A2 L1),

    Lk = kappa_k^2 + (delta_k - g_k q)^2, from the float inputs read
    exactly.  Lk > 0, so its real roots are exactly the zeros of f(q); an
    uncoupled mode's Lk is a positive constant that only scales it.
    """
    two_om = 2 / Fraction(params.omega_m)
    (l1, c1), (l2, c2) = [
        ([kappa * kappa + delta * delta, -2 * delta * g, g * g], two_om * g * a)
        for g, a, delta, kappa in lorentzian_force_terms(params, drive, sign,
                                                         Fraction)]
    p = [0, *(sum(l1[i] * l2[k - i] for i in range(3) if 0 <= k - i <= 2)
              for k in range(5))]
    for i in range(3):
        p[i] -= c1 * l2[i] + c2 * l1[i]
    return p


def sturm_sequence(coeffs):
    """Sturm sequence of the polynomial with ascending rational ``coeffs``:
    p, p', then each negated remainder, every member scaled by a positive
    factor to coprime integer coefficients, so every sign is kept."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    p = _primitive(_trim(int(c * den) for c in coeffs))
    seq = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while seq[-1]:
        seq.append(_primitive([-c for c in _rem(seq[-2], seq[-1])]))
    return seq[:-1]


def _sign_at(p, x):
    """Sign of p at x or at +-inf; a finite x = num/den is read exactly and
    p(x) den^deg summed in integers."""
    if math.isinf(x):
        value = p[-1] * (1 if x > 0 else -1) ** (len(p) - 1)
    else:
        num, den = Fraction(x).as_integer_ratio()
        value = sum(c * num**i * den ** (len(p) - 1 - i)
                    for i, c in enumerate(p))
    return (value > 0) - (value < 0)


def sturm_count(seq, lo=-math.inf, hi=math.inf):
    """Distinct real roots in (lo, hi] of the polynomial whose Sturm sequence
    is ``seq``: the drop in its sign changes from lo to hi.  A finite end
    must not be a multiple root, where every member vanishes."""
    def changes(x):
        signs = [s for s in (_sign_at(p, x) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def exact_count(params, drive, sign=1):
    """Exact number of steady states: the distinct real roots of
    :func:`fixed_point_quintic`."""
    return sturm_count(sturm_sequence(fixed_point_quintic(params, drive, sign)))


def scan_counts(params, drive, axis, values, options):
    """Branch count at each scan sample, one scalar ``steady_branches`` each."""
    return [len(steady_branches(params, drive.with_value(params, axis, float(v)),
                                options))
            for v in values]


def bisect_count_change(params, drive, axis, lo, hi, options, rel_tol):
    """Bisect the axis interval (lo, hi) down to the branch-count change,
    counting branches with one scalar ``steady_branches`` solve per
    midpoint."""
    def count(value):
        point = drive.with_value(params, axis, value)
        return len(steady_branches(params, point, options))

    count_lo = count(lo)
    floor = 1e-12 * abs(hi - lo)
    while (hi - lo) > max(rel_tol * max(abs(lo), abs(hi)), floor):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count(mid) == count_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def polish_root_full(q, lo, hi, params, drive, sign, trail=None):
    """``steady._polish_root`` without its stop on a 2-cycle: Newton runs
    for ``_POLISH_MAX_ITER`` steps unless the residual vanishes, the
    derivative is zero or not finite, or the step is negligible.  Every
    iterate after q is appended to ``trail`` when one is given."""
    best = q
    best_res = abs(steady_residual(q, params, drive, sign))
    x = q
    for _ in range(_POLISH_MAX_ITER):
        fx = steady_residual(x, params, drive, sign)
        if fx == 0.0:
            return x
        dfx = residual_derivative(x, params, drive, sign)
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        x = min(max(x - step, lo), hi)
        if trail is not None:
            trail.append(x)
        res = abs(steady_residual(x, params, drive, sign))
        if res < best_res:
            best, best_res = x, res
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return best


def jacobian(state, params, drive, sign=1):
    """The package's analytic Jacobian at ``state`` (layout of
    ``branch_state``, P = dQ/dt) in rad/s: ``_scaled_jacobians`` times
    omega_m, with P's row and column taken out of omega_m units."""
    d = np.array([1.0, 1.0, 1.0, 1.0, 1.0, params.omega_m])
    jac = _scaled_jacobians(np.asarray(state, dtype=float)[None], params,
                            drive.delta1, drive.delta2, sign)[0]
    return params.omega_m * d[:, None] * jac / d


def q_grid(params, drive, axis, values, options):
    """``steady._solve_rows`` over all ``values`` at once: row i holds the
    q_s of each branch at ``values[i]``, NaN-padded to 5 columns.  The
    first failing row's error is raised."""
    values = np.asarray(values, dtype=float)
    out = np.full((len(values), 5), np.nan)
    failed = _solve_rows(params, drive, axis, values, options, out)
    if failed is not None:
        raise failed[1]
    return out


def characteristic_coefficients(branch, params, drive, sign=1):
    """Ascending coefficients of the characteristic polynomial of one
    branch's omega_m-scaled Jacobian, from a one-matrix stack."""
    jac = _scaled_jacobians(branch_state(branch)[None], params,
                            drive.delta1, drive.delta2, sign)
    return tuple(_characteristic_rows(jac)[0].tolist())


def classify_branch(branch, params, drive, options):
    """The branch with the verdict and max Re(eig) of the per-branch route:
    ``np.roots`` of :func:`characteristic_coefficients`."""
    coeffs = characteristic_coefficients(branch, params, drive, options.sign)
    lam = np.roots(coeffs[::-1]) * params.omega_m
    max_re = float(np.max(lam.real))
    eps = options.marginal_band * params.omega_m
    if max_re < -eps:
        verdict = Verdict.STABLE
    elif max_re > eps:
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return replace(branch, verdict=verdict, max_re_eig=max_re)


def cubic_discriminant(a, b, c, d):
    """Discriminant of a x^3 + b x^2 + c x + d; positive iff 3 real roots."""
    return (18.0 * a * b * c * d - 4.0 * b**3 * d + b**2 * c**2
            - 4.0 * a * c**3 - 27.0 * a**2 * d**2)


def single_cavity_cubic(params, drive):
    """Nondimensional coefficients of the one-mode fixed-point cubic.

    Written in x = g1*q/kappa1 so every coefficient is O(1)-conditioned:
    x^3 - 2(delta/kappa) x^2 + (1 + delta^2/kappa^2) x - u = 0 with
    u = 2 g1^2 A_1 / (omega_m kappa1^3).  Derived by clearing the single
    Lorentzian denominator; valid when the second mode is undriven and
    uncoupled.
    """
    g, kappa, delta = params.g1, params.kappa1, drive.delta1
    a1 = params.kappa_e1 * drive.amp_l**2
    u = 2.0 * g * g * a1 / (params.omega_m * kappa**3)
    return (1.0, -2.0 * delta / kappa, 1.0 + (delta / kappa) ** 2, -u)


def single_cavity_bistable(params, drive):
    """True iff the reduced cubic has three distinct real roots."""
    return cubic_discriminant(*single_cavity_cubic(params, drive)) > 0.0


def rhs_reference(state, params, drive, sign=1):
    """Mean-field time derivative, written in complex arithmetic.

    Independent route: the package expands into six real equations; this
    one keeps the optical modes complex and converts at the boundary.
    """
    a1 = complex(state[0], state[1])
    a2 = complex(state[2], state[3])
    q, p = state[4], state[5]
    d1 = (drive.delta1 - params.g1 * q)
    d2 = (drive.delta2 - params.g2 * q)
    da1 = -(params.kappa1 + 1j * d1) * a1 + math.sqrt(params.kappa_e1) * drive.amp_l
    da2 = -(params.kappa2 + 1j * d2) * a2 + math.sqrt(params.kappa_e2) * drive.amp_r
    dq = p
    dp = (-params.gamma_m * p - params.omega_m**2 * q
          + 2.0 * params.omega_m * (params.g1 * abs(a1) ** 2
                                    + sign * params.g2 * abs(a2) ** 2))
    return np.array([da1.real, da1.imag, da2.real, da2.imag, dq, dp])


def integrate_final(y0, params, drive, t_end, rel_tol, sign=1):
    """State at ``t_end`` [s] of :func:`rhs_reference` started from ``y0``.

    DOP853 runs in tau = omega_m t with P divided by omega_m, so every
    component moves on the same clock.  The absolute tolerance of each
    component is ``rel_tol`` times its initial size, floored at 1e-3 of
    the largest of the drive's own linear amplitudes and the initial
    state: segments that decay to zero are not held to a purely relative
    target, and a P that starts at 0 still gets a floor on that scale.
    """
    om = params.omega_m
    unit = np.array([1.0, 1.0, 1.0, 1.0, 1.0, om])
    y = np.asarray(y0, dtype=float) / unit
    floor = max(math.sqrt(linear_photon_number(params, drive, 1)),
                math.sqrt(linear_photon_number(params, drive, 2)),
                float(np.max(np.abs(y))), 1e-12)
    sol = solve_ivp(
        lambda _, x: rhs_reference(x * unit, params, drive, sign) / (om * unit),
        (0.0, t_end * om), y, method="DOP853", rtol=rel_tol,
        atol=rel_tol * np.maximum(np.abs(y), 1e-3 * floor))
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    return sol.y[:, -1] * unit


def characteristic_closed_form(branch, params, drive, sign=1):
    """Ascending coefficients of the characteristic polynomial of one
    branch's linearization, in omega_m units, in closed form:

        D(lam) = L1 L2 M - 4 g1^2 n1 D1 L2 - s 4 g2^2 n2 D2 L1

    with Lk = (lam + kappa_k)^2 + Dk^2, M = lam^2 + gamma_m lam + 1, Dk the
    effective detuning and nk = |a_k|^2 the photon number of mode k.
    """
    om = params.omega_m
    modes = []
    for kappa, delta, g, amp in ((params.kappa1, drive.delta1, params.g1,
                                  branch.amp1),
                                 (params.kappa2, drive.delta2, params.g2,
                                  branch.amp2)):
        k, d = kappa / om, (delta - g * branch.q_s) / om
        lorentz = np.array((k * k + d * d, 2.0 * k, 1.0))
        modes.append((lorentz, 4.0 * (g / om) ** 2 * abs(amp) ** 2 * d))
    (l1, c1), (l2, c2) = modes
    mech = (1.0, params.gamma_m / om, 1.0)
    return P.polysub(P.polymul(P.polymul(l1, l2), mech),
                     c1 * l2 + sign * c2 * l1)


def fd_jacobian(state, params, drive, sign=1, step_rel=1e-6):
    """Central finite differences of the reference vector field."""
    state = np.asarray(state, dtype=float)
    jac = np.empty((6, 6))
    for j in range(6):
        h = step_rel * (1.0 + abs(state[j]))
        up = state.copy(); up[j] += h
        dn = state.copy(); dn[j] -= h
        jac[:, j] = (rhs_reference(up, params, drive, sign)
                     - rhs_reference(dn, params, drive, sign)) / (2.0 * h)
    return jac


def decoupled_eigenvalues(params, drive):
    """Closed-form linearization spectrum at the undriven rest point."""
    gm, wm = params.gamma_m, params.omega_m
    mech = math.sqrt(wm**2 - gm**2 / 4.0)
    return sorted([
        complex(-params.kappa1, -drive.delta1),
        complex(-params.kappa1, drive.delta1),
        complex(-params.kappa2, -drive.delta2),
        complex(-params.kappa2, drive.delta2),
        complex(-gm / 2.0, -mech),
        complex(-gm / 2.0, mech),
    ], key=lambda z: (z.real, z.imag))


def linear_photon_number(params, drive, which, q=0.0, sign=1):
    """Closed-form Lorentzian photon number of one mode at displacement q."""
    if which == 1:
        a = params.kappa_e1 * drive.amp_l**2
        kappa, delta, g = params.kappa1, drive.delta1, params.g1
    else:
        a = params.kappa_e2 * drive.amp_r**2
        kappa, delta, g = params.kappa2, drive.delta2, params.g2
    return a / (kappa**2 + (delta - g * q) ** 2)
