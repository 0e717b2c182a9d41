"""Seeded random samplers for the randomized audits.

Two domains are used:

- the full drive domain (powers 1 pW to 100 mW, detunings within twice
  the mechanical frequency either side) for algebraic checks that do not
  involve dynamics;
- a quasi-static domain (moderate mechanical Q, red detunings, pump
  placed inside a located fold window) for checks that assert the
  slow-mechanics verdicts: outer branches stable, the middle one a
  saddle.  Outside that domain optical anti-damping can make a branch
  with df/dq > 0 unstable too, which the library counts as
  self-oscillation rather than hiding.

No sample is filtered for its oracle: the branch counts are checked
against exact Sturm counts (``oracles.exact_count``), which resolve a
root pair at any separation, so near-fold draws are kept.
"""

from __future__ import annotations

import math

from twomode.continuation import locate_folds
from twomode.params import HBAR, DrivePoint, preset_hill_params, replace_params
from twomode.stability import solve_and_classify
from twomode.steady import SolverOptions, steady_branches

POWER_RANGE = (1e-12, 1e-1)
DETUNING_SPAN = 2.0

# Quasi-static domain: the pump detuning stays a few linewidths red
# (folds exist above sqrt(3)*kappa1 ~ 0.225 omega_m) so the upper branch
# never reaches the blue-sideband resonance where anti-damping overturns
# the static verdicts; the readout stays weak enough to be a spectator.
QUASISTATIC_Q_RANGE = (2.0, 10.0)
QUASISTATIC_DELTA1 = (0.30, 0.55)
QUASISTATIC_DELTA2 = (0.3, 1.0)
QUASISTATIC_POWER_R = (1e-15, 1e-13)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_drive(rng, params, power_range=POWER_RANGE,
               detuning_span=DETUNING_SPAN):
    """One random drive point over the full audit domain."""
    return DrivePoint.build(
        params,
        delta1=rng.uniform(-detuning_span, detuning_span) * params.omega_m,
        delta2=rng.uniform(-detuning_span, detuning_span) * params.omega_m,
        power_l=log_uniform(rng, *power_range),
        power_r=log_uniform(rng, *power_range),
    )


def draw_mild_system(rng, q_range=QUASISTATIC_Q_RANGE):
    """Preset device with the mechanical Q lowered into the ramp-friendly range."""
    return replace_params(preset_hill_params(), q_m=log_uniform(rng, *q_range))


def draw_three_root_point(rng, options, max_attempts=60):
    """A classified three-branch operating point in the quasi-static domain.

    The pump power is placed at a random log-fraction inside the fold
    window located for the drawn device and detunings, so every returned
    point genuinely sits on the S-curve's folded section.
    """
    for _ in range(max_attempts):
        params = draw_mild_system(rng)
        wm = params.omega_m
        drive = DrivePoint.build(
            params,
            delta1=rng.uniform(*QUASISTATIC_DELTA1) * wm,
            delta2=rng.uniform(*QUASISTATIC_DELTA2) * wm,
            power_l=1e-12,
            power_r=log_uniform(rng, *QUASISTATIC_POWER_R),
        )
        folds = locate_folds(params, drive, "power_l", 1e-14, 1e-9, options)
        if len(folds) < 2:
            continue
        fraction = rng.uniform(0.1, 0.9)
        probe = folds[0] * (folds[-1] / folds[0]) ** fraction
        point = drive.with_value(params, "power_l", probe)
        branches, diagnostics = solve_and_classify(params, point, options)
        if len(branches) != 3:
            continue            # landed within rounding of a fold; redraw
        return params, point, branches, diagnostics
    raise AssertionError("no three-root point found; sampler domain broken")


def _peak_power(params, mode, delta, height):
    """Literal-convention pump power putting mode's force peak at ``height``
    times its own position q_k = delta / g_k.

    The peak of (2/omega_m) g A / (kappa^2 + (delta - g q)^2) is
    (2/omega_m) g A / kappa^2 at q_k, with A = kappa_e E^2 and
    E^2 = 2 P kappa / (hbar omega_laser).
    """
    if mode == 1:
        omega, kappa, kappa_e, g = (params.omega1, params.kappa1,
                                    params.kappa_e1, params.g1)
    else:
        omega, kappa, kappa_e, g = (params.omega2, params.kappa2,
                                    params.kappa_e2, params.g2)
    amp2 = height * (delta / g) * kappa**2 * params.omega_m / (2.0 * g * kappa_e)
    return amp2 * HBAR * (omega - delta) / (2.0 * kappa)


def draw_five_root_point(rng, options, max_attempts=200):
    """A five-branch drive on the preset device, where both modes are bistable.

    Each mode is detuned red by more than sqrt(3) linewidths (so it can
    fold) and pumped so its force Lorentzian peaks at 1.5 to 4 times its
    own position q_k = delta_k / g_k; mode 2's peak sits 3 to 8 times
    further out than mode 1's, so the two S-curves do not overlap.  Draws
    whose solve does not give five branches are redrawn.
    """
    params = preset_hill_params()
    wm = params.omega_m
    for _ in range(max_attempts):
        delta1 = rng.uniform(2.0 * params.kappa1, 2.0 * wm)
        delta2 = params.g2 * rng.uniform(3.0, 8.0) * delta1 / params.g1
        if not 2.0 * params.kappa2 <= delta2 <= 4.0 * wm:
            continue
        drive = DrivePoint.build(
            params, delta1=delta1, delta2=delta2,
            power_l=_peak_power(params, 1, delta1, rng.uniform(1.5, 4.0)),
            power_r=_peak_power(params, 2, delta2, rng.uniform(1.5, 4.0)))
        if len(steady_branches(params, drive, options)) == 5:
            return params, drive
    raise AssertionError("no five-root point found; sampler domain broken")


def draw_detuning_window(rng):
    """A random detuning sweep likely to fold: (params, drive, axis, lo, hi,
    options).

    The axis mode is pumped so its force Lorentzian would peak at 0.5 to 20
    times its own position at a detuning d0 of 0.2 to 2 omega_m, and the
    window runs from within d0 / 2 of zero to 1.2 to 3 times d0 (capped at
    half the mode's frequency).  The other mode gets a random detuning and
    a power from 1e-15 to 1e-3 W; convention, sign and kappa2 reading are
    drawn too.  Many draws fold, some do not; none is redrawn.
    """
    params = preset_hill_params(
        kappa2_interpretation=rng.choice(("angular", "literal")))
    wm = params.omega_m
    mode = rng.choice((1, 2))
    amp = rng.choice(("literal", "flux"))
    d0 = rng.uniform(0.2, 2.0) * wm
    power = _peak_power(params, mode, d0, log_uniform(rng, 0.5, 20.0))
    if amp == "flux":
        # the flux form lacks the literal form's factor 2 kappa
        power *= 2.0 * (params.kappa1 if mode == 1 else params.kappa2)
    other = (rng.uniform(-2.0, 2.0) * wm, log_uniform(rng, 1e-15, 1e-3))
    mine = (d0, power)
    (delta1, power_l), (delta2, power_r) = ((mine, other) if mode == 1
                                            else (other, mine))
    drive = DrivePoint.build(params, delta1=delta1, delta2=delta2,
                             power_l=power_l, power_r=power_r,
                             amp_convention=amp)
    omega = params.omega1 if mode == 1 else params.omega2
    lo = rng.uniform(-0.5, 0.5) * d0
    hi = min(rng.uniform(1.2, 3.0) * d0, 0.5 * omega)
    return (params, drive, f"delta{mode}", lo, hi,
            SolverOptions(sign=rng.choice((1, -1))))


def draw_five_root_window(rng):
    """A detuning sweep centred on a five-branch drive: (params, drive,
    axis, lo, hi, options), with a half-width of 5% to 100% of the axis
    detuning."""
    options = SolverOptions()
    params, drive = draw_five_root_point(rng, options)
    axis = rng.choice(("delta1", "delta2"))
    centre = getattr(drive, axis)
    half = rng.uniform(0.05, 1.0) * abs(centre)
    return params, drive, axis, centre - half, centre + half, options
