"""Physical parameters, unit conversions, and drive bookkeeping.

Everything inside the package works in angular units: frequencies,
detunings, decay rates, and couplings are rad/s, drive powers are watts.
Cyclic (Hz) values are converted once, at the boundary, by
:func:`to_angular`.  Both parameter containers are frozen dataclasses, so
one instance can be shared by every caller.

Drive amplitudes are derived quantities.  They depend on the pump power,
the total cavity decay rate, and the pump (laser) frequency, so they are
recomputed whenever a power or a detuning changes; never mutate them by
hand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError

# Reduced Planck constant [J s], CODATA 2018.  Fixed here; not configurable.
HBAR = 1.054571817e-34

TWO_PI = 2.0 * math.pi

#: Sweepable drive axes, in the order used throughout the package.
AXES = ("delta1", "delta2", "power_l", "power_r")

#: The drive-power axes among :data:`AXES`.
POWER_AXES = ("power_l", "power_r")

#: Supported pump-amplitude conventions, see :func:`drive_amplitude`.
AMP_CONVENTIONS = ("literal", "flux")

#: Force-term sign conventions of the second mode: name -> sign.
SIGN_CONVENTIONS = {"plus": 1, "minus": -1}

#: Readings of the preset's second linewidth, see :func:`preset_hill_params`.
KAPPA2_INTERPRETATIONS = ("angular", "literal")


class SidebandResolutionWarning(UserWarning):
    """The mechanical frequency does not exceed every cavity linewidth."""


def to_angular(cyclic: float) -> float:
    """Convert a cyclic frequency [Hz] to an angular one [rad/s].

    Parameters
    ----------
    cyclic:
        Frequency in Hz.  Must be finite and non-negative; sweep endpoints
        legitimately start at zero.

    Returns
    -------
    float
        ``2 * pi * cyclic`` in rad/s.
    """
    if not math.isfinite(cyclic):
        raise ParameterError(f"cyclic frequency must be finite, got {cyclic!r}")
    if cyclic < 0.0:
        raise ParameterError(f"cyclic frequency must be non-negative, got {cyclic!r}")
    return TWO_PI * cyclic


def drive_amplitude(power: float, kappa: float, omega_laser: float,
                    convention: str = "literal") -> float:
    """Pump amplitude entering the intracavity field equation.

    Parameters
    ----------
    power:
        Optical pump power [W], >= 0.  Zero power maps to zero amplitude.
    kappa:
        Total (amplitude) decay rate of the pumped cavity mode [rad/s].
    omega_laser:
        Pump laser frequency [rad/s]; for a mode at ``omega_c`` driven at
        detuning ``delta`` this is ``omega_c - delta``.
    convention:
        ``"literal"`` uses ``|E|^2 = 2 * P * kappa / (hbar * omega_laser)``.
        ``"flux"`` uses the bare photon-flux form ``|E|^2 = P / (hbar *
        omega_laser)``.  The two differ by the factor ``2 * kappa`` and are
        both kept so their quantitative consequences can be compared; the
        literal form is the package default everywhere.

    Returns
    -------
    float
        Non-negative real amplitude.
    """
    if convention not in AMP_CONVENTIONS:
        raise ParameterError(f"unknown amplitude convention {convention!r}")
    if not math.isfinite(power) or power < 0.0:
        raise ParameterError(f"pump power must be finite and >= 0, got {power!r}")
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ParameterError(f"cavity decay rate must be positive, got {kappa!r}")
    if not math.isfinite(omega_laser) or omega_laser <= 0.0:
        raise ParameterError(
            f"laser frequency must be positive, got {omega_laser!r} "
            "(is the detuning larger than the mode frequency?)")
    if power == 0.0:
        return 0.0
    flux = power / (HBAR * omega_laser)
    if convention == "literal":
        return math.sqrt(2.0 * kappa * flux)
    return math.sqrt(flux)


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be a positive finite number, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Device parameters of the two optical modes and the mechanical mode.

    All rates are angular [rad/s].  ``gamma_m`` is derived from the
    mechanical quality factor and is not an independent input.

    Attributes
    ----------
    omega1, omega2:
        Optical resonance frequencies of the left and right mode.
    kappa1, kappa2:
        Total amplitude decay rates.
    kappa_e1, kappa_e2:
        External (input-coupling) decay rates; each must not exceed the
        corresponding total rate.
    g1, g2:
        Single-photon optomechanical couplings.  Zero is allowed: it
        decouples that optical mode from the mechanics, which is the
        control configuration used in the decoupling checks.
    omega_m:
        Mechanical resonance frequency.
    q_m:
        Mechanical quality factor.
    """

    omega1: float
    omega2: float
    kappa1: float
    kappa2: float
    kappa_e1: float
    kappa_e2: float
    g1: float
    g2: float
    omega_m: float
    q_m: float
    gamma_m: float = field(init=False)

    def __post_init__(self):
        _require_positive("omega1", self.omega1)
        _require_positive("omega2", self.omega2)
        _require_positive("kappa1", self.kappa1)
        _require_positive("kappa2", self.kappa2)
        _require_positive("kappa_e1", self.kappa_e1)
        _require_positive("kappa_e2", self.kappa_e2)
        _require_nonnegative("g1", self.g1)
        _require_nonnegative("g2", self.g2)
        _require_positive("omega_m", self.omega_m)
        _require_positive("q_m", self.q_m)
        if self.kappa_e1 > self.kappa1:
            raise ParameterError(
                f"kappa_e1 ({self.kappa_e1!r}) exceeds kappa1 ({self.kappa1!r})")
        if self.kappa_e2 > self.kappa2:
            raise ParameterError(
                f"kappa_e2 ({self.kappa_e2!r}) exceeds kappa2 ({self.kappa2!r})")
        object.__setattr__(self, "gamma_m", self.omega_m / self.q_m)
        if not (self.omega_m > self.kappa1 and self.omega_m > self.kappa2):
            # Sanity check only: much of the steady-state analysis assumes the
            # mechanics oscillates faster than either cavity decays.
            warnings.warn(
                "omega_m does not exceed both cavity linewidths; "
                "sideband-resolved assumptions are violated",
                SidebandResolutionWarning, stacklevel=2)


def preset_hill_params(kappa2_interpretation: str = "angular") -> SystemParams:
    """Device preset for the silicon two-mode optomechanical crystal.

    The second cavity's linewidth is quoted in the source characterization
    without an explicit 2*pi, so both readings are supported:

    - ``"angular"`` (default): kappa2 = 2*pi * 1.73e9 rad/s.
    - ``"literal"``: kappa2 = 1.73e9 rad/s, the printed number taken as
      already angular.
    """
    if kappa2_interpretation not in KAPPA2_INTERPRETATIONS:
        raise ParameterError(
            f"kappa2 interpretation must be one of {KAPPA2_INTERPRETATIONS}, "
            f"got {kappa2_interpretation!r}")
    kappa2 = (to_angular(1.73e9) if kappa2_interpretation == "angular"
              else 1.73e9)
    kappa1 = to_angular(520e6)
    return SystemParams(
        omega1=to_angular(205.3e12),
        omega2=to_angular(194.1e12),
        kappa1=kappa1,
        kappa2=kappa2,
        kappa_e1=0.2 * kappa1,
        kappa_e2=0.42 * kappa2,
        g1=to_angular(960e3),
        g2=to_angular(430e3),
        omega_m=to_angular(4e9),
        q_m=87e3,
    )


@dataclass(frozen=True)
class DrivePoint:
    """One operating point of the two pumps.

    ``amp_l`` and ``amp_r`` are cached values of :func:`drive_amplitude`
    and always consistent with the powers and detunings; construct
    instances through :meth:`build` or :meth:`with_value` to keep them so.
    """

    delta1: float
    delta2: float
    power_l: float
    power_r: float
    amp_l: float
    amp_r: float
    amp_convention: str = "literal"

    @classmethod
    def build(cls, params: SystemParams, delta1: float, delta2: float,
              power_l: float = 0.0, power_r: float = 0.0,
              amp_convention: str = "literal") -> "DrivePoint":
        """Construct a drive point, deriving the pump amplitudes."""
        for name, value in (("delta1", delta1), ("delta2", delta2)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        _require_nonnegative("power_l", power_l)
        _require_nonnegative("power_r", power_r)
        amp_l = drive_amplitude(power_l, params.kappa1, params.omega1 - delta1,
                                amp_convention)
        amp_r = drive_amplitude(power_r, params.kappa2, params.omega2 - delta2,
                                amp_convention)
        return cls(delta1=delta1, delta2=delta2, power_l=power_l, power_r=power_r,
                   amp_l=amp_l, amp_r=amp_r, amp_convention=amp_convention)

    def with_value(self, params: SystemParams, axis: str, value: float) -> "DrivePoint":
        """Return a copy with one axis changed and amplitudes recomputed."""
        if axis not in AXES:
            raise ParameterError(f"unknown drive axis {axis!r}, expected one of {AXES}")
        kwargs = {"delta1": self.delta1, "delta2": self.delta2,
                  "power_l": self.power_l, "power_r": self.power_r}
        kwargs[axis] = value
        return self.build(params, amp_convention=self.amp_convention, **kwargs)

    def with_values(self, params: SystemParams, axis: str, values: np.ndarray):
        """:meth:`with_value` at every entry of ``values``, as arrays.

        Returns ``(columns, ok)``.  ``columns`` is a DrivePoint whose fields
        broadcast against ``values``, for the vectorized solvers only; its
        fields are computed exactly as :meth:`build` computes them.  ``ok``
        marks the values :meth:`with_value` accepts; fields elsewhere are
        meaningless.
        """
        if axis not in AXES:
            raise ParameterError(f"unknown drive axis {axis!r}, expected one of {AXES}")
        fields = {"delta1": self.delta1, "delta2": self.delta2,
                  "power_l": self.power_l, "power_r": self.power_r,
                  "amp_l": self.amp_l, "amp_r": self.amp_r}
        fields[axis] = values
        left = axis in ("delta1", "power_l")
        power = fields["power_l" if left else "power_r"]
        kappa = params.kappa1 if left else params.kappa2
        omega_laser = (params.omega1 - fields["delta1"] if left
                       else params.omega2 - fields["delta2"])
        ok = np.isfinite(values) & (power >= 0.0) & (omega_laser > 0.0)
        with np.errstate(all="ignore"):
            flux = power / (HBAR * omega_laser)
            amp = np.sqrt(2.0 * kappa * flux if self.amp_convention == "literal"
                          else flux)
        fields["amp_l" if left else "amp_r"] = np.where(power == 0.0, 0.0, amp)
        return replace(self, **fields), ok

    @property
    def driven(self) -> bool:
        return self.power_l > 0.0 or self.power_r > 0.0


def replace_params(params: SystemParams, **changes) -> SystemParams:
    """``dataclasses.replace`` wrapper that revalidates the result."""
    return replace(params, **changes)
