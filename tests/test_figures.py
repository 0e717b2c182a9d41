"""Canned figure campaigns over the built-in device."""

import pytest

from twomode.continuation import SweepResult
from twomode.errors import ParameterError
from twomode.figures import FIGURE_PRESETS, power_window, run_preset

from test_steady import _drive


def test_registry():
    assert FIGURE_PRESETS == ("fig2a", "fig2b", "fig3", "fig4a", "fig4b",
                              "fig5a", "fig5b")
    with pytest.raises(ParameterError):
        run_preset("fig9")


def test_fig3_control_trace_is_flat():
    results = run_preset("fig3", points=15)
    assert set(results) == {"red", "blue", "control"}
    control = results["control"]
    ref = control.records[0][1]
    assert len(ref) == 1
    for _, branches in control.records:
        assert len(branches) == 1
        assert branches[0].n_p2 == ref[0].n_p2
        assert branches[0].q_s == ref[0].q_s
    # the coupled traces are not flat: the readout inherits the pulled
    # resonance of the pump mode (percent-level modulation at this power,
    # which is many orders above float noise)
    for label in ("red", "blue"):
        n2 = [branches[0].n_p2 for _, branches in results[label].records]
        assert max(n2) - min(n2) > 1e-3 * max(n2)


def test_power_window_fallback(preset, options):
    # default conventions never fold anywhere in the bracket, so the
    # canned window falls back to the fixed micro-watt span
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=2e-6, power_r=1e-7)
    lo, hi = power_window(preset, d, options=options,
                          bracket=(1e-12, 1e-10))
    assert (lo, hi) == (1e-8, 1e-4)


def test_power_window_brackets_folds(preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-12, power_r=1e-12)
    lo, hi = power_window(preset, d, options=options, bracket=(1e-14, 1e-9))
    assert lo == pytest.approx(2.562714949510007e-12 / 5.0, rel=1e-5)
    assert hi == pytest.approx(2.1591727047876362e-11 * 5.0, rel=1e-5)


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_every_preset_completes(name):
    results = run_preset(name, points=9)
    assert results
    for label, result in results.items():
        assert isinstance(result, SweepResult)
        assert len(result.records) >= 9
        for _, branches in result.records:
            assert len(branches) >= 1
