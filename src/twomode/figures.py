"""Canned sweep campaigns over the built-in two-cavity device.

Each preset reproduces one qualitative regime of interest:

fig2a   first-mode resonance vs its detuning at three pump powers,
        from near-Lorentzian through tilted to folded (bistable)
fig2b   pump-power hysteresis of the first mode at red detuning
fig3    second-mode response vs the FIRST mode's detuning: the readout
        mode inherits the pump mode's pulled resonance; includes a
        decoupled control trace (g1 = 0) that must stay flat
fig4a   second-mode photon number around the power hysteresis, both
        drives red-detuned (readout tracks the mechanical shift)
fig4b   same with the second drive blue-detuned, which mirrors the
        response: the readout moves opposite to fig4a
fig5a   pulled readout resonance with a very weak second drive
fig5b   power hysteresis read out by the very weak second drive

Power windows for hysteresis presets are found adaptively: the exact pump
power folds in [1e-14, 1] W (:func:`locate_folds` over 512 samples, each
fold on its 1e-9 bisection lattice) bound the bistable window, which is
padded outward by a factor of 5 on each side.  When the chosen
conventions give no fold at any reachable power (which happens for the
default sign and amplitude conventions) a fixed micro-watt window is used
and the ramps simply show no jump.
"""

from __future__ import annotations

from .continuation import (SweepSpec, clamped_hysteresis_sweep, locate_folds,
                           sweep_1d)
from .errors import ParameterError
from .params import DrivePoint, preset_hill_params, replace_params
from .steady import SolverOptions

FIGURE_PRESETS = ("fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5a", "fig5b")

# Bracket for the adaptive fold scan, in watts.
_FOLD_BRACKET = (1e-14, 1.0)
_FOLD_SCAN_SAMPLES = 512
# Window to ramp over when no fold exists anywhere in the bracket.
_FALLBACK_WINDOW = (1e-8, 1e-4)
_WINDOW_PAD = 5.0

_PUMP_POWERS = (("pump_0p1uw", 1e-7), ("pump_2uw", 2e-6), ("pump_3uw", 3e-6))
_READOUT_POWER = 1e-7
_WEAK_READOUT_POWER = 1e-12


def power_window(params, drive, axis="power_l", options=SolverOptions(),
                 bracket=_FOLD_BRACKET):
    """(lo, hi) power window enclosing the bistable region, padded.

    Falls back to a fixed window when the branch count never changes.
    """
    folds = locate_folds(params, drive, axis, bracket[0], bracket[1],
                         options, samples=_FOLD_SCAN_SAMPLES)
    if not folds:
        return _FALLBACK_WINDOW
    return min(folds) / _WINDOW_PAD, max(folds) * _WINDOW_PAD


def _detuning_sweep(params, drive, options, points):
    spec = SweepSpec(axis="delta1", start=0.0, stop=2.0 * params.omega_m,
                     drive=drive, points=points, direction="up")
    return sweep_1d(params, spec, options)


def _power_hysteresis(params, drive, options, points):
    lo, hi = power_window(params, drive, options=options)
    spec = SweepSpec(axis="power_l", start=lo, stop=hi, drive=drive,
                     points=points, direction="both")
    return clamped_hysteresis_sweep(params, spec, options)


def _drive(params, amp_convention, *, delta2_sign=1.0, power_l=2e-6,
           power_r=_READOUT_POWER):
    return DrivePoint.build(params, delta1=params.omega_m,
                            delta2=delta2_sign * params.omega_m,
                            power_l=power_l, power_r=power_r,
                            amp_convention=amp_convention)


def _fig2a(params, amp, options, points):
    out = {}
    for label, power in _PUMP_POWERS:
        drive = _drive(params, amp, power_l=power)
        out[label] = _detuning_sweep(params, drive, options, points)
    return out


def _fig2b(params, amp, options, points):
    drive = _drive(params, amp)
    return {"ramp": _power_hysteresis(params, drive, options, points)}


def _fig3(params, amp, options, points):
    red = _drive(params, amp)
    blue = _drive(params, amp, delta2_sign=-1.0)
    control_params = replace_params(params, g1=0.0)
    control = _drive(control_params, amp)
    return {
        "red": _detuning_sweep(params, red, options, points),
        "blue": _detuning_sweep(params, blue, options, points),
        "control": _detuning_sweep(control_params, control, options, points),
    }


def _fig4(params, amp, options, points, delta2_sign):
    drive = _drive(params, amp, delta2_sign=delta2_sign)
    return {"ramp": _power_hysteresis(params, drive, options, points)}


def _fig5a(params, amp, options, points):
    drive = _drive(params, amp, power_r=_WEAK_READOUT_POWER)
    return {"weak_readout": _detuning_sweep(params, drive, options, points)}


def _fig5b(params, amp, options, points):
    drive = _drive(params, amp, power_r=_WEAK_READOUT_POWER)
    return {"ramp": _power_hysteresis(params, drive, options, points)}


def run_preset(name: str, *, kappa2_interpretation: str = "angular",
               amp_convention: str = "literal",
               options: SolverOptions = None, points: int = 400) -> dict:
    """Run one figure preset; returns {trace label: SweepResult}."""
    if name not in FIGURE_PRESETS:
        raise ParameterError(
            f"unknown figure preset {name!r}, expected one of {FIGURE_PRESETS}")
    if options is None:
        options = SolverOptions()
    params = preset_hill_params(kappa2_interpretation=kappa2_interpretation)
    runners = {
        "fig2a": _fig2a,
        "fig2b": _fig2b,
        "fig3": _fig3,
        "fig4a": lambda *a: _fig4(*a, delta2_sign=1.0),
        "fig4b": lambda *a: _fig4(*a, delta2_sign=-1.0),
        "fig5a": _fig5a,
        "fig5b": _fig5b,
    }
    return runners[name](params, amp_convention, options, points)
