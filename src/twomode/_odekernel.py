"""Adaptive explicit integrator kernel for the six-dimensional real system.

Classical RK4 with step-doubling control: every accepted step compares one
full step against two half steps and uses their difference (divided by 15,
the order-4 Richardson factor) as the local error estimate.  The
right-hand side takes its rates in any one unit, ``w`` being the
mechanical frequency in that unit; the integrator works in dimensionless
time ``tau = omega_m * t``, where ``w = 1``.  The wrapper in the stability
module does the unit plumbing.

Compiled with numba when available; the same source runs as plain Python
otherwise (slowly, but identically).
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:  # numba is optional: the `fast` extra
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_STEP_BUDGET = 2


@njit(cache=True)
def _rhs(x1, y1, x2, y2, q, p,
         k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w):
    d1e = d1 - g1 * q
    d2e = d2 - g2 * q
    dx1 = -k1 * x1 + d1e * y1 + f1
    dy1 = -d1e * x1 - k1 * y1
    dx2 = -k2 * x2 + d2e * y2 + f2
    dy2 = -d2e * x2 - k2 * y2
    dq = p
    dp = -gm * p - w * w * q + 2.0 * w * (g1 * (x1 * x1 + y1 * y1)
                                          + s * g2 * (x2 * x2 + y2 * y2))
    return dx1, dy1, dx2, dy2, dq, dp


@njit(cache=True)
def _rk4(x1, y1, x2, y2, q, p, h,
         k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w):
    a1, b1, c1, e1, u1, v1 = _rhs(x1, y1, x2, y2, q, p,
                                  k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
    hh = 0.5 * h
    a2, b2, c2, e2, u2, v2 = _rhs(x1 + hh * a1, y1 + hh * b1, x2 + hh * c1,
                                  y2 + hh * e1, q + hh * u1, p + hh * v1,
                                  k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
    a3, b3, c3, e3, u3, v3 = _rhs(x1 + hh * a2, y1 + hh * b2, x2 + hh * c2,
                                  y2 + hh * e2, q + hh * u2, p + hh * v2,
                                  k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
    a4, b4, c4, e4, u4, v4 = _rhs(x1 + h * a3, y1 + h * b3, x2 + h * c3,
                                  y2 + h * e3, q + h * u3, p + h * v3,
                                  k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
    sixth = h / 6.0
    return (x1 + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            y1 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            x2 + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
            y2 + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4),
            q + sixth * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
            p + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4))


@njit(cache=True)
def integrate(y0, taus, rtol, pv, sc, max_steps):
    """March y0 across the sample times, step-doubling controlled.

    Returns (status, states at taus, accepted+rejected step count).
    """
    k1, d1, g1, f1 = pv[0], pv[1], pv[2], pv[3]
    k2, d2, g2, f2 = pv[4], pv[5], pv[6], pv[7]
    gm, s, w = pv[8], pv[9], pv[10]
    x1, y1, x2, y2, q, p = y0[0], y0[1], y0[2], y0[3], y0[4], y0[5]
    n = taus.shape[0]
    out = np.empty((n, 6))
    out[0, 0], out[0, 1], out[0, 2] = x1, y1, x2
    out[0, 3], out[0, 4], out[0, 5] = y2, q, p
    tau_end = taus[n - 1]
    rate = 1.0 + k1 + abs(d1) + k2 + abs(d2) + gm
    h = 0.25 / rate
    h_min = 1e-15 * tau_end
    steps = 0
    t = taus[0]
    for i in range(1, n):
        target = taus[i]
        while t < target:
            if steps >= max_steps:
                return STATUS_STEP_BUDGET, out, steps
            h_try = h if t + h <= target else target - t
            fx1, fy1, fx2, fy2, fq, fp = _rk4(
                x1, y1, x2, y2, q, p, h_try,
                k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
            hh = 0.5 * h_try
            m = _rk4(x1, y1, x2, y2, q, p, hh,
                     k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
            hx1, hy1, hx2, hy2, hq, hp = _rk4(
                m[0], m[1], m[2], m[3], m[4], m[5], hh,
                k1, d1, g1, f1, k2, d2, g2, f2, gm, s, w)
            err = 0.0
            full = (fx1, fy1, fx2, fy2, fq, fp)
            half = (hx1, hy1, hx2, hy2, hq, hp)
            for j in range(6):
                fj = full[j]
                hj = half[j]
                if not (np.isfinite(fj) and np.isfinite(hj)):
                    err = 1e300
                    break
                tol = rtol * (sc[j] + abs(hj))
                e = abs(fj - hj) / (15.0 * tol)
                if e > err:
                    err = e
            steps += 1
            if err <= 1.0:
                x1, y1, x2, y2, q, p = half
                t += h_try
                if err < 1e-30:
                    h = h_try * 4.0
                else:
                    grow = 0.9 * err ** -0.2
                    h = h_try * (4.0 if grow > 4.0 else grow)
            else:
                shrink = 0.9 * err ** -0.2
                h = h_try * (shrink if shrink > 0.1 else 0.1)
                if h < h_min:
                    return STATUS_STEP_UNDERFLOW, out, steps
        out[i, 0], out[i, 1], out[i, 2] = x1, y1, x2
        out[i, 3], out[i, 4], out[i, 5] = y2, q, p
    return STATUS_OK, out, steps
