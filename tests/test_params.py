"""Units, device presets, and drive-point construction."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twomode.errors import ParameterError
from twomode.params import (DrivePoint, SidebandResolutionWarning,
                            drive_amplitude, preset_hill_params,
                            replace_params, to_angular)

TWO_PI = 2.0 * math.pi


def test_to_angular_is_two_pi():
    assert to_angular(1.0) == TWO_PI
    assert to_angular(0.0) == 0.0
    assert to_angular(4e9) == TWO_PI * 4e9


def test_to_angular_rejects_bad_input():
    with pytest.raises(ParameterError):
        to_angular(-1.0)
    with pytest.raises(ParameterError):
        to_angular(math.inf)


def test_preset_rates_frozen(preset):
    # 40-digit mpmath references, asserted to within float rounding; the
    # exact pins below then freeze the library's own arithmetic bitwise
    assert preset.kappa1 == pytest.approx(3267256359.733385, rel=5e-15)
    assert preset.kappa2 == pytest.approx(10869910581.420685, rel=5e-15)
    assert preset.omega_m == pytest.approx(25132741228.718346, rel=5e-15)
    assert preset.gamma_m == pytest.approx(288882.0830887166, rel=5e-15)
    assert preset.g1 == pytest.approx(6031857.894892403, rel=5e-15)
    assert preset.g2 == pytest.approx(2701769.682087222, rel=5e-15)
    assert preset.kappa1 == 3267256359.7333846
    assert preset.kappa2 == 10869910581.420685
    assert preset.omega_m == 25132741228.718346
    assert preset.gamma_m == 288882.0830887166
    assert preset.g1 == 6031857.894892403
    assert preset.g2 == 2701769.682087222
    assert preset.omega1 == TWO_PI * 205.3e12
    assert preset.omega2 == TWO_PI * 194.1e12
    assert preset.kappa_e1 == 0.2 * preset.kappa1
    assert preset.kappa_e2 == 0.42 * preset.kappa2
    assert preset.q_m == 87e3
    assert preset.gamma_m == preset.omega_m / preset.q_m


def test_preset_kappa2_interpretations():
    angular = preset_hill_params("angular")
    literal = preset_hill_params("literal")
    assert angular.kappa2 == TWO_PI * 1.73e9
    assert literal.kappa2 == 1.73e9
    assert angular.kappa1 == literal.kappa1
    with pytest.raises(ParameterError):
        preset_hill_params("radians")


def test_drive_amplitude_frozen_values(preset):
    # mpmath oracle: sqrt(2 P kappa / (hbar omega)) and sqrt(P / (hbar omega))
    amp_a = drive_amplitude(1e-7, preset.kappa1, preset.omega1)
    amp_b = drive_amplitude(1e-12, preset.kappa2, preset.omega2)
    amp_f = drive_amplitude(1e-7, preset.kappa1, preset.omega1, "flux")
    assert amp_a == pytest.approx(69308119345.5219, rel=5e-15)
    assert amp_b == pytest.approx(411137604.6595249, rel=5e-15)
    assert amp_f == pytest.approx(857388.2169629337, rel=5e-15)
    # bitwise regression pins
    assert amp_a == 69308119345.5219
    assert amp_b == 411137604.65952486
    assert amp_f == 857388.2169629337


def test_drive_amplitude_zero_and_errors(preset):
    assert drive_amplitude(0.0, preset.kappa1, preset.omega1) == 0.0
    with pytest.raises(ParameterError):
        drive_amplitude(-1e-9, preset.kappa1, preset.omega1)
    with pytest.raises(ParameterError):
        drive_amplitude(1e-9, preset.kappa1, preset.omega1, "photon")
    with pytest.raises(ParameterError):
        drive_amplitude(1e-9, -preset.kappa1, preset.omega1)
    with pytest.raises(ParameterError):
        drive_amplitude(1e-9, preset.kappa1, 0.0)


@given(st.floats(min_value=1e-13, max_value=1e-7),
       st.floats(min_value=1.5, max_value=64.0))
def test_drive_amplitude_power_scaling(power, factor):
    # |E|^2 is linear in P in both conventions, over six decades
    p = preset_hill_params()
    for convention in ("literal", "flux"):
        base = drive_amplitude(power, p.kappa1, p.omega1, convention)
        scaled = drive_amplitude(factor * power, p.kappa1, p.omega1, convention)
        assert scaled == pytest.approx(math.sqrt(factor) * base, rel=1e-12)
        assert scaled > base


def test_system_params_validation(preset):
    with pytest.raises(ParameterError):
        replace_params(preset, kappa1=-1.0)
    with pytest.raises(ParameterError):
        replace_params(preset, kappa_e1=2.0 * preset.kappa1)
    with pytest.raises(ParameterError):
        replace_params(preset, q_m=0.0)
    with pytest.raises(ParameterError):
        replace_params(preset, g1=-1.0)
    # zero coupling is legitimate: the decoupled control configuration
    control = replace_params(preset, g1=0.0)
    assert control.g1 == 0.0
    assert control.gamma_m == preset.gamma_m


def test_sideband_resolution_warning(preset):
    with pytest.warns(SidebandResolutionWarning):
        replace_params(preset, omega_m=0.5 * preset.kappa1)


def test_drive_point_build_caches_amplitudes(preset):
    wm = preset.omega_m
    d = DrivePoint.build(preset, delta1=wm, delta2=-wm,
                         power_l=1e-9, power_r=1e-12)
    assert d.amp_l == drive_amplitude(1e-9, preset.kappa1, preset.omega1 - wm)
    assert d.amp_r == drive_amplitude(1e-12, preset.kappa2, preset.omega2 + wm)
    assert d.driven
    undriven = DrivePoint.build(preset, delta1=wm, delta2=wm)
    assert undriven.amp_l == 0.0 and undriven.amp_r == 0.0
    assert not undriven.driven


def test_drive_point_with_value_recomputes(preset):
    wm = preset.omega_m
    d = DrivePoint.build(preset, delta1=wm, delta2=wm,
                         power_l=1e-9, power_r=1e-12)
    moved = d.with_value(preset, "delta1", 0.5 * wm)
    assert moved.delta1 == 0.5 * wm
    assert moved.power_l == d.power_l
    assert moved.amp_l == drive_amplitude(1e-9, preset.kappa1,
                                          preset.omega1 - 0.5 * wm)
    boosted = d.with_value(preset, "power_r", 1e-9)
    assert boosted.amp_r > d.amp_r
    with pytest.raises(ParameterError):
        d.with_value(preset, "power_q", 1.0)


def test_drive_point_validation(preset):
    with pytest.raises(ParameterError):
        DrivePoint.build(preset, delta1=math.nan, delta2=0.0)
    with pytest.raises(ParameterError):
        DrivePoint.build(preset, delta1=0.0, delta2=0.0, power_l=-1e-9)
    with pytest.raises(ParameterError):
        DrivePoint.build(preset, delta1=0.0, delta2=0.0, power_l=1e-9,
                         amp_convention="rms")
