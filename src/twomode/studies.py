"""Numerical studies over the built-in device.

fold_power_study
    Maps where pump-power bistability lives under every combination of
    the three model conventions (force-term sign, second-linewidth
    interpretation, drive-amplitude normalization).  The interesting
    output is the onset power of the fold window per combination, and
    whether a quasi-static ramp through that window shows the expected
    jump structure.

subunity_search
    Looks for a drive configuration where the pump mode is bistable while
    the readout mode holds less than one photon on every stable branch,
    i.e. the regime where a single-photon-level probe can read which
    branch the system sits on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import SweepSpec, clamped_hysteresis_sweep, locate_folds
from .errors import SweepError
from .params import (AMP_CONVENTIONS, KAPPA2_INTERPRETATIONS,
                     SIGN_CONVENTIONS, DrivePoint, preset_hill_params)
from .steady import SolverOptions, Verdict, residual_derivative
from .stability import solve_and_classify

@dataclass(frozen=True)
class FoldStudyRow:
    amp_convention: str
    kappa2_interpretation: str
    sign_convention: str
    folds: tuple                 # all branch-count changes found, in watts
    up_jumps: tuple
    down_jumps: tuple
    structure_ok: bool | None    # None when there is no window to check
    note: str


@dataclass(frozen=True)
class FoldStudyReport:
    rows: tuple
    power_r: float
    bracket: tuple
    reference_w: float

    def render(self) -> str:
        lines = [
            "fold-power study: pump-power bistability per convention choice",
            f"  second drive power: {self.power_r!r} W, scan bracket "
            f"[{self.bracket[0]!r}, {self.bracket[1]!r}] W",
            f"  reference onset for comparison: {self.reference_w!r} W",
            "",
            f"{'amp':8s} {'kappa2':8s} {'sign':6s} {'onset_w':>12s} "
            f"{'onset/ref':>10s} {'folds':>5s} {'ramp':>12s} {'struct':>6s}",
        ]
        for row in self.rows:
            if row.folds:
                onset = min(row.folds)
                onset_s = f"{onset:.4e}"
                ratio_s = f"{onset / self.reference_w:.3g}"
            else:
                onset_s, ratio_s = "none", "-"
            jumps = len(row.up_jumps) + len(row.down_jumps)
            ramp_s = f"{jumps} jumps" if row.folds else "-"
            struct_s = {True: "ok", False: "BAD", None: "-"}[row.structure_ok]
            lines.append(
                f"{row.amp_convention:8s} {row.kappa2_interpretation:8s} "
                f"{row.sign_convention:6s} {onset_s:>12s} {ratio_s:>10s} "
                f"{len(row.folds):>5d} {ramp_s:>12s} {struct_s:>6s}")
            if row.note:
                lines.append(f"    note: {row.note}")
        return "\n".join(lines) + "\n"


def _window_structure_ok(params, drive, folds, options):
    """S-curve inside the first fold window: >= 3 branches whose static
    character alternates, outermost ones statically stable.

    Static stability is the sign of the fixed-point residual slope; the
    full dynamic verdict can differ (anti-damping can destabilize a
    statically stable branch), so it is reported separately.
    """
    mid = math.sqrt(folds[0] * folds[1])
    point = drive.with_value(params, "power_l", mid)
    branches, _ = solve_and_classify(params, point, options)
    if len(branches) < 3 or len(branches) % 2 == 0:
        return False
    slopes = [residual_derivative(b.q_s, params, point, sign=options.sign)
              for b in branches]
    expected_positive = True
    for slope in slopes:
        if (slope > 0.0) != expected_positive:
            return False
        expected_positive = not expected_positive
    return True


def fold_power_study(power_r: float = 1e-7, bracket=(1e-14, 1.0),
                     points: int = 400, reference_w: float = 2.7e-5
                     ) -> FoldStudyReport:
    """Locate the pump-power fold window under all 8 convention choices."""
    rows = []
    for amp in AMP_CONVENTIONS:
        for kappa2 in KAPPA2_INTERPRETATIONS:
            params = preset_hill_params(kappa2_interpretation=kappa2)
            for sign_name, sign in SIGN_CONVENTIONS.items():
                options = SolverOptions(sign=sign)
                drive = DrivePoint.build(
                    params, delta1=params.omega_m, delta2=params.omega_m,
                    power_l=0.0, power_r=power_r, amp_convention=amp)
                folds = locate_folds(params, drive, "power_l",
                                     bracket[0], bracket[1], options)
                up_jumps = ()
                down_jumps = ()
                structure = None
                note = ""
                if len(folds) >= 2:
                    structure = _window_structure_ok(params, drive, folds,
                                                     options)
                    lo = min(folds) / 3.0
                    hi = max(folds) * 3.0
                    spec = SweepSpec(axis="power_l", start=lo, stop=hi,
                                     drive=drive, points=points,
                                     direction="both")
                    try:
                        result = clamped_hysteresis_sweep(params, spec,
                                                          options)
                    except SweepError as exc:
                        note = f"ramp failed: {exc}"
                    else:
                        if result.hysteresis is not None:
                            up_jumps = result.hysteresis.up.jumps
                            down_jumps = result.hysteresis.down.jumps
                        truncations = [d for d in result.diagnostics
                                       if d.kind in ("ramp_truncated",
                                                     "no_ramp_fits")]
                        if truncations:
                            note = str(truncations[-1])
                elif len(folds) == 1:
                    note = "single fold inside the bracket"
                else:
                    note = "branch count never changes in the bracket"
                rows.append(FoldStudyRow(
                    amp_convention=amp, kappa2_interpretation=kappa2,
                    sign_convention=sign_name, folds=folds,
                    up_jumps=up_jumps, down_jumps=down_jumps,
                    structure_ok=structure, note=note))
    return FoldStudyReport(rows=tuple(rows), power_r=power_r,
                           bracket=bracket, reference_w=reference_w)


@dataclass(frozen=True)
class SubUnityTrial:
    power_r: float
    folds: tuple
    power_l: float | None        # probe point inside the window
    stable_count: int
    max_n_p2: float              # largest readout occupation, stable branches
    ok: bool                     # bistable with every stable n_p2 < 1


@dataclass(frozen=True)
class SubUnityReport:
    trials: tuple
    hit: SubUnityTrial | None

    def render(self) -> str:
        lines = ["sub-unity readout search: bistable pump, readout below "
                 "one photon",
                 "",
                 f"{'power_r_w':>12s} {'folds':>5s} {'power_l_w':>12s} "
                 f"{'stable':>6s} {'max_n_p2':>12s} {'ok':>3s}"]
        for t in self.trials:
            pl = f"{t.power_l:.4e}" if t.power_l is not None else "-"
            np2 = f"{t.max_n_p2:.4e}" if t.power_l is not None else "-"
            lines.append(f"{t.power_r:>12.4e} {len(t.folds):>5d} {pl:>12s} "
                         f"{t.stable_count:>6d} {np2:>12s} "
                         f"{'yes' if t.ok else 'no':>3s}")
        if self.hit is None:
            lines.append("no qualifying configuration found")
        else:
            lines.append(
                f"hit: power_r={self.hit.power_r!r} W, "
                f"power_l={self.hit.power_l!r} W, "
                f"max stable readout occupation {self.hit.max_n_p2!r}")
        return "\n".join(lines) + "\n"


# Probe positions inside the fold window, as log-fractions between the
# folds.  The high branch is dynamically stable only while its pump-side
# effective detuning stays red; on a high-Q device that sliver hugs the
# lower fold (fractions below ~1e-3), so near-fold positions are tried
# first and deeper ones follow for heavily damped devices.
_PROBE_FRACTIONS = (1e-4, 3e-4, 1e-3, 0.005, 0.02, 0.1, 0.2, 0.35, 0.5)


def subunity_search(params=None, *, sign: int = 1,
                    amp_convention: str = "literal",
                    kappa2_interpretation: str = "angular",
                    power_l_bracket=(1e-13, 1e-9),
                    power_r_values=None) -> SubUnityReport:
    """Scan readout powers downward until the sub-unity regime appears.

    For each second-drive power the pump-power fold window is located and
    a few positions inside it are probed.  A trial qualifies when at
    least two stable branches coexist at a probe point and the readout
    occupation stays below one photon on all of them.  The first
    qualifying probe position per trial is the one recorded.
    """
    if params is None:
        params = preset_hill_params(
            kappa2_interpretation=kappa2_interpretation)
    if power_r_values is None:
        power_r_values = np.geomspace(1e-13, 1e-22, 19)
    options = SolverOptions(sign=sign)
    trials = []
    hit = None
    for power_r in power_r_values:
        power_r = float(power_r)
        drive = DrivePoint.build(params, delta1=params.omega_m,
                                 delta2=params.omega_m, power_l=0.0,
                                 power_r=power_r,
                                 amp_convention=amp_convention)
        folds = locate_folds(params, drive, "power_l",
                             power_l_bracket[0], power_l_bracket[1], options)
        if len(folds) < 2:
            trials.append(SubUnityTrial(power_r=power_r, folds=folds,
                                        power_l=None, stable_count=0,
                                        max_n_p2=math.nan, ok=False))
            continue
        ratio = folds[1] / folds[0]
        best = None
        for fraction in _PROBE_FRACTIONS:
            probe = folds[0] * ratio**fraction
            point = drive.with_value(params, "power_l", probe)
            branches, _ = solve_and_classify(params, point, options)
            stable = [b for b in branches if b.verdict == Verdict.STABLE]
            max_np2 = max((b.n_p2 for b in stable), default=math.nan)
            trial = SubUnityTrial(power_r=power_r, folds=folds,
                                  power_l=probe, stable_count=len(stable),
                                  max_n_p2=max_np2,
                                  ok=len(stable) >= 2 and max_np2 < 1.0)
            if best is None or trial.stable_count > best.stable_count:
                best = trial
            if trial.ok:
                break
        trials.append(best)
        if best.ok and hit is None:
            hit = best
            break
    return SubUnityReport(trials=tuple(trials), hit=hit)
