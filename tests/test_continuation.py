"""Sweeps, fold location, and quasi-static hysteresis ramps."""

import bisect
import functools
import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
import sampling
from twomode import continuation, figures, stability, steady
from twomode.continuation import (_FOLD_REL_TOL, _FOLD_SCAN_REL_TOL,
                                  HysteresisResult, SweepSpec, Trace, _folds,
                                  axis_grid, clamped_hysteresis_sweep,
                                  hysteresis_sweep, locate_folds, sweep_1d)
from twomode.errors import NoStableBranchError, ParameterError, SweepError
from twomode.figures import run_preset
from twomode.io import summarize
from twomode.params import (POWER_AXES, DrivePoint, preset_hill_params,
                            replace_params)
from twomode.stability import Diagnostic, solve_and_classify
from twomode.steady import (SolverOptions, Verdict, steady_branches,
                            steady_q_grid)

from test_steady import _drive

# Frozen loop device: the preset cavity with the mechanical quality factor
# lowered to 5 so the whole upper branch is dynamically stable, pump
# detuned to twice the bistability threshold, readout off or weak.
LOOP_FOLDS = (1.3004470633603326e-12, 2.835530696694626e-12)
LOOP_JUMP_UP = 2.835531542520485e-12
LOOP_JUMP_DOWN = 1.3004472092537456e-12
BLUE_FOLDS = (1.2886040169400154e-12, 2.758441553818781e-12)
BLUE_JUMP_UP = 2.7584425585956857e-12
BLUE_JUMP_DOWN = 1.288603744079165e-12


@pytest.fixture(scope="module")
def heavy():
    return replace_params(preset_module(), q_m=5.0)


def preset_module():
    from twomode.params import preset_hill_params
    return preset_hill_params()


def _loop_drive(heavy, delta2_sign=1, power_r=0.0):
    return _drive(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
                  delta2=delta2_sign * heavy.omega_m,
                  power_l=1e-12, power_r=power_r)


def test_spec_validation(preset):
    d = _drive(preset, delta1=0.0, delta2=0.0, power_l=1e-12, power_r=0.0)
    with pytest.raises(ParameterError):
        SweepSpec(axis="power", start=0.0, stop=1.0, drive=d)
    with pytest.raises(ParameterError):
        SweepSpec(axis="power_l", start=0.0, stop=1.0, drive=d, direction="sideways")
    with pytest.raises(ParameterError):
        SweepSpec(axis="power_l", start=0.0, stop=1.0, drive=d, direction="down")
    with pytest.raises(ParameterError):
        SweepSpec(axis="power_l", start=0.0, stop=1.0, drive=d, points=1)
    with pytest.raises(ParameterError, match="points must be an integer"):
        SweepSpec(axis="delta1", start=0.0, stop=1e9, drive=d, points=2.5)
    with pytest.raises(ParameterError):
        SweepSpec(axis="power_l", start=1.0, stop=1.0, drive=d)
    with pytest.raises(ParameterError):
        SweepSpec(axis="power_l", start=-1.0, stop=1.0, drive=d)
    with pytest.raises(ParameterError):
        SweepSpec(axis="delta1", start=0.0, stop=math.inf, drive=d)
    SweepSpec(axis="delta1", start=-1.0, stop=1.0, drive=d)
    SweepSpec(axis="delta1", start=-1.0, stop=1.0, drive=d, points=np.int64(5))


def test_locate_folds_rejects_non_integer_samples(heavy, options):
    with pytest.raises(ParameterError, match="samples must be an integer"):
        locate_folds(heavy, _loop_drive(heavy), "power_l", 1e-14, 1.0, options,
                     samples=100.5)


def test_locate_folds_errors_name_its_arguments(heavy, options):
    # locate_folds has no points, start or stop argument
    with pytest.raises(ParameterError, match="samples must be an integer >= 2"):
        locate_folds(heavy, _loop_drive(heavy), "power_l", 1e-14, 1.0, options,
                     samples=1)
    with pytest.raises(ParameterError, match="lo < hi"):
        locate_folds(heavy, _loop_drive(heavy), "power_l", 1.0, 1e-14, options)


def test_axis_grid_spacing_rules(preset):
    d = _drive(preset, delta1=0.0, delta2=0.0, power_l=1e-12, power_r=0.0)
    wide = SweepSpec(axis="power_l", start=1e-14, stop=1e-10, drive=d, points=41)
    g = axis_grid(wide)
    assert g[0] == 1e-14 and g[-1] == 1e-10
    ratios = g[1:] / g[:-1]
    assert np.all(np.abs(ratios - ratios[0]) <= 1e-12 * ratios[0])
    narrow = SweepSpec(axis="power_l", start=1e-12, stop=5e-12, drive=d, points=11)
    g = axis_grid(narrow)
    diffs = np.diff(g)
    assert np.all(np.abs(diffs - diffs[0]) <= 1e-9 * diffs[0])
    detuning = SweepSpec(axis="delta1", start=-1e9, stop=1e9, drive=d, points=11)
    g = axis_grid(detuning)
    diffs = np.diff(g)
    assert np.all(np.abs(diffs - diffs[0]) <= 1e-9 * abs(diffs[0]))


def _grid_windows():
    """(axis, start, stop, points) of seeded log and linear windows, the
    spans either side of _LOG_SPAN_RATIO, the fold bracket at 512 and 1024
    samples, and a span of one subnormal."""
    rng = random.Random(0x6E1D)
    windows = [("power_l", 1e-14, 1.0, 512), ("power_r", 1e-14, 1.0, 1024),
               # np.linspace's step underflows to zero here
               ("power_l", 0.0, 5e-324, 4)]
    for points in [2, 3, 2048] + [rng.randrange(2, 2049) for _ in range(40)]:
        lo = sampling.log_uniform(rng, 1e-15, 1e-2)
        windows += [
            (rng.choice(POWER_AXES), lo,
             lo * 10.0 ** rng.uniform(1.01, 14.0), points),
            (rng.choice(POWER_AXES), rng.choice((0.0, lo)),
             lo * rng.uniform(1.01, 9.99), points),
            ("delta1", rng.uniform(-2e11, 1e11), rng.uniform(1.01e11, 2e11),
             points)]
        # the smallest stop whose span ratio exceeds _LOG_SPAN_RATIO
        above = lo * continuation._LOG_SPAN_RATIO
        while above / lo > continuation._LOG_SPAN_RATIO:
            above = math.nextafter(above, 0.0)
        while not above / lo > continuation._LOG_SPAN_RATIO:
            above = math.nextafter(above, math.inf)
        below = math.nextafter(above, 0.0)
        assert below / lo <= continuation._LOG_SPAN_RATIO < above / lo
        windows += [("power_l", lo, above, points),
                    ("power_r", lo, below, points)]
    return windows


def test_grid_rule_is_numpy_geomspace_and_linspace_bit_for_bit(preset):
    # a numpy change that moves a sample fails here rather than silently
    # moving fold values and the golden files
    d = _drive(preset, delta1=0.0, delta2=0.0, power_l=1e-12, power_r=0.0)
    rng = random.Random(0x6E1E)
    windows = _grid_windows()
    logs = 0
    for axis, lo, hi, points in windows:
        log = (axis in POWER_AXES and lo > 0.0
               and hi / lo > continuation._LOG_SPAN_RATIO)
        logs += log
        want = (np.geomspace if log else np.linspace)(lo, hi, points)
        grid = axis_grid(SweepSpec(axis=axis, start=lo, stop=hi, drive=d,
                                   points=points))
        assert grid.tobytes() == want.tobytes(), (axis, lo, hi, points)
        # any subset of indices, down to one, as locate_folds asks for them
        picks = [[k] for k in rng.sample(range(points), min(points, 12))]
        picks.append(sorted(rng.sample(range(points), min(points, 5))))
        for index in map(np.array, picks):
            got = continuation._grid(axis, lo, hi, points)[0](index)
            assert got.tobytes() == want[index].tobytes(), (
                axis, lo, hi, points, index)
    assert 40 < logs < len(windows) - 40


def test_sweep_records_match_pointwise_solves(preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=0.5 * preset.omega_m,
               power_l=1e-12, power_r=2e-12)
    spec = SweepSpec(axis="delta1", start=0.0, stop=2.0 * preset.omega_m,
                     drive=d, points=25)
    res = sweep_1d(preset, spec, options)
    assert len(res.records) == 25
    grid = axis_grid(spec)
    for (v, branches), gv in zip(res.records, grid):
        assert v == float(gv)
        point = d.with_value(preset, "delta1", v)
        again, _ = solve_and_classify(preset, point, options)
        assert [b.q_s for b in branches] == [b.q_s for b in again]
        assert [b.verdict for b in branches] == [b.verdict for b in again]


def test_decoupled_pump_sweep_is_flat(preset, options):
    # g1 = 0: nothing the pump detuning does can reach the mechanics, so
    # the readout photon number must be bit-identical along the sweep
    p0 = replace_params(preset, g1=0.0)
    d = _drive(p0, delta1=0.0, delta2=preset.omega_m,
               power_l=1e-9, power_r=3e-12)
    spec = SweepSpec(axis="delta1", start=-2.0 * preset.omega_m,
                     stop=2.0 * preset.omega_m, drive=d, points=50)
    res = sweep_1d(p0, spec, options)
    assert res.folds == ()
    ref = res.records[0][1]
    assert len(ref) == 1
    for _, branches in res.records:
        assert len(branches) == 1
        assert branches[0].q_s == ref[0].q_s
        assert branches[0].n_p2 == ref[0].n_p2
        assert branches[0].verdict == ref[0].verdict


def test_subthreshold_power_sweep_single_branch(preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=0.3 * preset.omega_m,
               power_l=1e-15, power_r=0.0)
    spec = SweepSpec(axis="power_l", start=1e-16, stop=1e-13, drive=d,
                     points=40)
    res = sweep_1d(preset, spec, options)
    assert res.folds == ()
    qs = [branches[0].q_s for _, branches in res.records]
    assert all(len(branches) == 1 for _, branches in res.records)
    # displacement grows monotonically with pump power below threshold
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_locate_folds_linear_system_is_empty(preset, options):
    p0 = replace_params(preset, g1=0.0, g2=0.0)
    d = _drive(p0, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-12, power_r=1e-12)
    folds = locate_folds(p0, d, "power_l", 1e-14, 1e-6, options, samples=64)
    assert folds == ()


def _fold_drives():
    """name -> (params, drive, axis, lo, hi, options, fold count).

    The fold-scan reference drives: the AC5 loop, the AC6 single cavity,
    ``delta1`` at q_m = 5, and the eight fold-study conventions at
    power_r = 1e-7 W (``flux_study`` is the flux, angular, minus one).
    The detuning axes also get the readout's own ``delta2`` at q_m = 5,
    ``delta1`` under the minus sign with the readout on, ``delta1`` under
    the flux amplitude convention, a ``delta1`` window with a fold at a
    rounding-level root of the fold polynomial, and ``delta2`` around a
    five-branch drive of :func:`sampling.draw_five_root_point`.
    """
    preset = preset_hill_params()
    heavy = replace_params(preset, q_m=5.0)
    single = replace_params(preset, g2=0.0)
    default = SolverOptions()
    drives = {
        "ac5_loop": (heavy, _loop_drive(heavy), "power_l", 1e-14, 1.0,
                     default, 2),
        "ac6_single": (single, _loop_drive(single), "power_l", 1e-13, 1e-10,
                       default, 2),
        "delta1": (heavy, _drive(heavy, delta1=heavy.omega_m,
                                 delta2=heavy.omega_m, power_l=2e-12),
                   "delta1", 0.0, 2.0 * heavy.omega_m, default, 2),
        "delta2": (heavy, _drive(heavy, delta1=heavy.omega_m,
                                 delta2=heavy.omega_m, power_r=2e-11),
                   "delta2", 0.0, 4.0 * heavy.omega_m, default, 2),
        "delta1_minus": (heavy, _drive(heavy, delta1=heavy.omega_m,
                                       delta2=heavy.omega_m, power_l=2e-12,
                                       power_r=1e-12),
                         "delta1", 0.0, 2.0 * heavy.omega_m,
                         SolverOptions(sign=-1), 2),
        "delta1_flux": (heavy, DrivePoint.build(
            heavy, delta1=heavy.omega_m, delta2=heavy.omega_m, power_l=1e-2,
            amp_convention="flux"), "delta1", 0.0, 2.0 * heavy.omega_m,
            default, 2),
    }
    # the fold near 4.4e10 rad/s is a root where the expanded fold
    # polynomial is at rounding level: only a +-sqrt(A / R - kappa^2) seed
    # of a nearly real root reaches it
    literal = preset_hill_params(kappa2_interpretation="literal")
    drives["delta1_rounding_level"] = (
        literal, DrivePoint.build(literal, delta1=38681609529.01302,
                                  delta2=32922257377.022305,
                                  power_l=4.364712476108987e-11,
                                  power_r=8.133974592890049e-12),
        "delta1", -11754187689.916437, 91278709602.79256, default, 4)
    five, drive = sampling.draw_five_root_point(random.Random(1), default)
    drives["delta2_five_branch"] = (five, drive, "delta2", 0.5 * drive.delta2,
                                    1.5 * drive.delta2, default, 2)
    for amp in ("literal", "flux"):
        for kappa2 in ("angular", "literal"):
            params = preset_hill_params(kappa2_interpretation=kappa2)
            drive = DrivePoint.build(params, delta1=params.omega_m,
                                     delta2=params.omega_m, power_r=1e-7,
                                     amp_convention=amp)
            for sign_name, sign in (("plus", 1), ("minus", -1)):
                count = 2 if amp == "flux" else (4 if sign < 0 else 0)
                name = f"study_{amp}_{kappa2}_{sign_name}"
                if name == "study_flux_angular_minus":
                    name = "flux_study"
                drives[name] = (
                    params, drive, "power_l", 1e-14, 1.0,
                    SolverOptions(sign=sign), count)
    return drives


FOLD_DRIVES = _fold_drives()
POWER_DRIVES = [name for name, spec in FOLD_DRIVES.items()
                if spec[2] == "power_l"]
DETUNING_DRIVES = [name for name in FOLD_DRIVES if name not in POWER_DRIVES]


SCAN_SAMPLES = (2, 3, 8, 1024)


def _scan_cases():
    """name -> (params, drive, axis, lo, hi, options, {samples: count}).

    FOLD_DRIVES, with their count at 1024 samples, plus brackets on the
    folds of the study_literal_angular_minus drive, whose branch count
    goes 1, 3, 1, 3, 1 across them, with their counts at every sample
    number.  The solve at that drive's third fold value itself already
    counts the 3 branches past it, as the fold list does, so the scalar
    scan can stand on it.  delta1_rounding_level (2 samples) and
    delta2_five_branch (2, 3 and 8 samples) each put two +2 folds in one
    cell.
    """
    cases = {name: (*spec[:-1], {1024: spec[-1]})
             for name, spec in FOLD_DRIVES.items()}
    params, drive, axis, _, _, options, _ = FOLD_DRIVES[
        "study_literal_angular_minus"]
    v = _folds(params, drive, axis, 0.0, 1.0, options)[2][0]
    # v +- h are exact, so the middle of 3 samples is v itself
    h = 2.0 ** (math.floor(math.log2(v)) - 2)
    for name, lo, hi, counts in (
            ("minus_plus_pair", 1e-6, 1e-5, (0, 0, 2, 2)),
            ("fold_at_lo", v, 1e-4, (1, 1, 1, 1)),
            ("fold_at_hi", 1e-6, v, (0, 0, 2, 2)),
            ("fold_at_sample", v - h, v + h, (1, 1, 1, 1))):
        cases[name] = (params, drive, axis, lo, hi, options,
                       dict(zip(SCAN_SAMPLES, counts)))
    return cases


SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("name,samples", [
    pytest.param(name, samples, id=name if samples == 1024
                 else f"{name}-{samples}")
    for name in SCAN_CASES for samples in SCAN_SAMPLES])
def test_locate_folds_matches_scalar_scan_oracle(name, samples, monkeypatch):
    params, drive, axis, lo, hi, options, counts = SCAN_CASES[name]
    values = axis_grid(SweepSpec(axis=axis, start=lo, stop=hi, drive=drive,
                                 points=samples))
    if name == "fold_at_sample" and samples == 3:
        # the middle sample is the fold itself
        assert values[1] == _folds(params, drive, axis, lo, hi, options)[2][0]
    scan = oracles.scan_counts(params, drive, axis, values, options)
    expected = [
        oracles.bisect_count_change(params, drive, axis, float(v0),
                                    float(v1), options, _FOLD_SCAN_REL_TOL)
        for v0, v1, c0, c1 in zip(values, values[1:], scan, scan[1:])
        if c0 != c1]
    assert len(expected) == counts.get(samples, len(expected))
    # no scan sample falls back to the scalar solve
    fallbacks = []
    scalar = steady.steady_branches
    monkeypatch.setattr(steady, "steady_branches",
                        lambda *a: fallbacks.append(a) or scalar(*a))
    folds = locate_folds(params, drive, axis, lo, hi, options,
                         samples=samples)
    assert [repr(f) for f in folds] == [repr(f) for f in expected]
    assert fallbacks == []


def _sweep_case(name):
    """(params, options, SweepResult) of a sweep with folds."""
    options = SolverOptions()
    if name in ("ac5_loop", "blue_readout"):
        heavy = replace_params(preset_hill_params(), q_m=5.0)
        if name == "ac5_loop":
            drive, window = _loop_drive(heavy), LOOP_FOLDS
        else:
            drive, window = _loop_drive(heavy, -1, 1e-13), BLUE_FOLDS
        spec = SweepSpec(axis="power_l", start=window[0] / 2.0,
                         stop=window[1] * 1.8, drive=drive, points=200,
                         direction="both")
        return heavy, options, hysteresis_sweep(heavy, spec, options)
    options = SolverOptions(sign=-1)
    if name == "fig2b_minus":
        return (preset_hill_params(), options,
                run_preset("fig2b", options=options)["ramp"])
    # the pump detuning sweep at 3 uW folds under these conventions
    return (preset_hill_params(kappa2_interpretation="literal"), options,
            run_preset("fig2a", kappa2_interpretation="literal",
                       options=options)["pump_3uw"])


@pytest.mark.parametrize("name,folds,jumps", [
    ("ac5_loop", 2, 2), ("blue_readout", 2, 2), ("fig2b_minus", 4, 0),
    ("fig2a_3uw", 1, 0)])
def test_sweep_folds_and_jumps_match_bisection_oracle(name, folds, jumps):
    params, options, res = _sweep_case(name)
    spec = res.spec
    values = [v for v, _ in res.records]
    counts = [len(branches) for _, branches in res.records]

    def oracle(v0, v1):
        return repr(oracles.bisect_count_change(
            params, spec.drive, spec.axis, v0, v1, options, _FOLD_REL_TOL))

    assert [repr(f) for f in res.folds] == [
        oracle(v0, v1)
        for v0, v1, c0, c1 in zip(values, values[1:], counts, counts[1:])
        if c0 != c1]
    assert len(res.folds) == folds
    found = ()
    if res.hysteresis is not None:
        found = res.hysteresis.up.jumps + res.hysteresis.down.jumps
    assert len(found) == jumps
    for jump in found:
        i = bisect.bisect_left(values, jump)
        assert repr(jump) == oracle(values[i - 1], values[i])


def test_sweep_step_across_two_folds_matches_bisection_oracle():
    # one coarse step from five branches down to one crosses the two -2
    # folds of a five-branch drive, so the bisection counts from both
    options = SolverOptions()
    params, drive = sampling.draw_five_root_point(random.Random(0), options)
    spec = SweepSpec(axis="power_l", start=drive.power_l, stop=1e-6,
                     drive=drive, points=2)
    res = sweep_1d(params, spec, options)
    (v0, five), (v1, one) = res.records
    assert (len(five), len(one)) == (5, 1)
    assert [change for v, change, _ in _folds(params, drive, "power_l", v0,
                                              v1, options)
            if v0 < v <= v1] == [-2, -2]
    assert [repr(f) for f in res.folds] == [repr(oracles.bisect_count_change(
        params, drive, "power_l", v0, v1, options, _FOLD_REL_TOL))]


def _assert_folds_move_the_exact_count(params, drive, axis, options):
    """Return the power-axis folds, each checked against the exact oracle.

    Independent of the polynomial route: the exact Sturm count gains or
    loses exactly the fold's pair between P (1 - 1e-6) and P (1 + 1e-6).
    """
    folds = continuation._power_folds(params, drive, axis, options)
    for value, change, _ in folds:
        below, above = (
            oracles.exact_count(
                params, drive.with_value(params, axis, value * factor),
                options.sign)
            for factor in (1.0 - 1e-6, 1.0 + 1e-6))
        assert above - below == change, (drive, axis, options, folds)
    return folds


@pytest.mark.parametrize("name", POWER_DRIVES)
def test_power_folds_move_the_grid_oracle_count(name):
    params, drive, axis, _, _, options, count = FOLD_DRIVES[name]
    assert len(_assert_folds_move_the_exact_count(
        params, drive, axis, options)) == count


N_AUDIT_POWER = 40


def test_power_folds_move_the_grid_oracle_count_on_drawn_drives():
    # seeded audit of the unpolished companion roots on drawn drives,
    # under both signs and on both power axes
    rng = random.Random(0xF01D5)
    params = preset_hill_params()
    folding = 0
    for k in range(N_AUDIT_POWER):
        folding += bool(_assert_folds_move_the_exact_count(
            params, sampling.draw_drive(rng, params), POWER_AXES[k // 2 % 2],
            SolverOptions(sign=1 if k % 2 else -1)))
    assert folding >= N_AUDIT_POWER // 2


N_SPLIT = 40


def test_power_split_is_affine_in_the_axis_power(monkeypatch):
    # p(x; P) = a(x) - P b(x): the assembly at P is the assembly at 0 minus
    # P times the force term b, on seeded drawn drives, under both signs
    # and on both power axes; a fold list assembles once, for a
    calls = []
    monkeypatch.setattr(continuation, "_assemble",
                        lambda *a: calls.append(a) or steady._assemble(*a))
    rng = random.Random(0x5B117)
    params = preset_hill_params()
    for k in range(N_SPLIT):
        drive = sampling.draw_drive(rng, params)
        axis = POWER_AXES[k // 2 % 2]
        options = SolverOptions(sign=1 if k % 2 else -1)
        q_scale = continuation._lorentz_scale(params, drive)
        a, b = continuation._power_split(
            params, drive.with_value(params, axis, 0.0),
            drive.with_value(params, axis, 1.0), axis, options.sign, q_scale)
        for power in (sampling.log_uniform(rng, *sampling.POWER_RANGE)
                      for _ in range(3)):
            got = steady._assemble(params, drive.with_value(params, axis, power),
                                   options.sign, q_scale).poly.coeffs
            want = [ai - power * bi for ai, bi in
                    itertools.zip_longest(a, b, fillvalue=0.0)]
            top = max(map(abs, [*a, *(power * bi for bi in b)]))
            assert len(got) == len(want)
            assert all(abs(g - w) <= 4.0 * np.finfo(float).eps * top
                       for g, w in zip(got, want)), (drive, axis, options)
        calls.clear()
        continuation._power_folds(params, drive, axis, options)
        assert len(calls) <= 1


def _refuse_solves(monkeypatch):
    """Make every steady solve an error, wherever the package calls it."""
    def refuse(*args):
        raise AssertionError("a steady state was solved")

    for module in (steady, stability, continuation):
        for name in ("steady_branches", "steady_q_grid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_power_axis_without_coupling_solves_nothing(preset, options,
                                                    monkeypatch):
    _refuse_solves(monkeypatch)
    p0 = replace_params(preset, g1=0.0)
    d = _drive(p0, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-12, power_r=1e-7)
    assert continuation._power_folds(p0, d, "power_l", options) == ()
    assert locate_folds(p0, d, "power_l", 1e-14, 1.0, options) == ()


@pytest.mark.parametrize("name", DETUNING_DRIVES)
def test_detuning_folds_solve_nothing(name, monkeypatch):
    params, drive, axis, lo, hi, options, count = FOLD_DRIVES[name]
    _refuse_solves(monkeypatch)
    assert len(locate_folds(params, drive, axis, lo, hi, options)) == count


def test_bracket_whose_folds_miss_its_count_change_raises(monkeypatch):
    # a limit-point Newton that cannot converge finds no fold; a sweep
    # bracket whose end counts differ must then fail and name itself,
    # not fall back on solving at its midpoints
    params, drive, axis, lo, hi, options, _ = FOLD_DRIVES["delta1"]
    spec = SweepSpec(axis=axis, start=lo, stop=hi, drive=drive, points=64)
    records = sweep_1d(params, spec, options).records
    v0, v1 = next((r0[0], r1[0]) for r0, r1 in zip(records, records[1:])
                  if len(r0[1]) != len(r1[1]))
    monkeypatch.setattr(continuation, "_LP_MAX_ITER", 1)
    assert continuation._detuning_folds(params, drive, axis, lo, hi,
                                        options) == ()
    with pytest.raises(SweepError,
                       match=re.escape(f"on {axis} in ({v0!r}, {v1!r}]")):
        sweep_1d(params, spec, options)


def _count_fold_lists(monkeypatch) -> list:
    calls = []
    for name in ("_power_folds", "_detuning_folds"):
        build = getattr(continuation, name)
        monkeypatch.setattr(continuation, name,
                            lambda *a, build=build: calls.append(a) or build(*a))
    return calls


def test_each_call_builds_one_fold_list(heavy, options, monkeypatch):
    calls = _count_fold_lists(monkeypatch)
    params, drive, axis, lo, hi, study, count = FOLD_DRIVES[
        "study_literal_angular_minus"]
    assert len(locate_folds(params, drive, axis, lo, hi, study)) == count == 4
    assert len(calls) == 1
    # two folds and two jumps refined from one list
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=_loop_drive(heavy),
                     points=200, direction="both")
    for sweep in (hysteresis_sweep, clamped_hysteresis_sweep):
        calls.clear()
        res = sweep(heavy, spec, options)
        assert len(res.folds) == 2 and len(res.hysteresis.up.jumps) == 1
        assert len(calls) == 1
    params, drive, axis, lo, hi, options, _ = FOLD_DRIVES["delta1"]
    calls.clear()
    res = sweep_1d(params, SweepSpec(axis=axis, start=lo, stop=hi,
                                     drive=drive, points=64), options)
    assert len(res.folds) == 2 and len(calls) == 1
    # a sweep whose counts never change builds none
    calls.clear()
    assert sweep_1d(params, SweepSpec(axis=axis, start=lo, stop=0.15 * hi,
                                      drive=drive, points=8),
                    options).folds == ()
    assert calls == []


N_AUDIT_RICH = 200
N_AUDIT_FIVE = 100


def test_detuning_fold_lists_match_the_grid_counts():
    # seeded audit: on every drawn window the branch counts the exact fold
    # list implies equal the batched solver's at all 1024 samples, and the
    # exact Sturm count beside every fold
    rng = random.Random(0xF01D)
    windows = ([sampling.draw_detuning_window(rng)
                for _ in range(N_AUDIT_RICH)]
               + [sampling.draw_five_root_window(rng)
                  for _ in range(N_AUDIT_FIVE)])
    folding = 0
    for params, drive, axis, lo, hi, options in windows:
        values = axis_grid(SweepSpec(axis=axis, start=lo, stop=hi,
                                     drive=drive, points=1024))
        q_s = steady_q_grid(params, drive, axis, values, options)
        counts = np.count_nonzero(~np.isnan(q_s), axis=1)
        folds = _folds(params, drive, axis, lo, hi, options)
        at = np.array([v for v, _, _ in folds], dtype=float)
        steps = np.cumsum([0] + [change for _, change, _ in folds])
        implied = counts[0] + steps[np.searchsorted(at, values, side="right")]
        assert implied.tolist() == counts.tolist(), (axis, lo, hi, drive,
                                                     options, folds)
        # the exact count agrees at the window's start and on either side
        # of every fold
        sides = [float(values[0]), *(v + s * 1e-6 * abs(v)
                                     for v in at.tolist() for s in (-1, 1))]
        exact = [oracles.exact_count(params, drive.with_value(params, axis, v),
                                     options.sign) for v in sides]
        want = counts[0] + steps[np.searchsorted(at, sides, side="right")]
        assert exact == want.tolist(), (axis, lo, hi, drive, options, folds)
        folding += bool(np.any(counts != counts[0]))
    # the audit must be rich in folds to mean anything
    assert folding >= 150


def test_locate_folds_frozen_loop_device(heavy, options):
    d = _loop_drive(heavy)
    folds = locate_folds(heavy, d, "power_l", 1e-14, 1e-9, options)
    assert len(folds) == 2
    assert folds[0] == pytest.approx(LOOP_FOLDS[0], rel=1e-8)
    assert folds[1] == pytest.approx(LOOP_FOLDS[1], rel=1e-8)
    # counts: one branch outside the fold pair, three inside
    for v, want in ((0.5 * folds[0], 1), (0.5 * (folds[0] + folds[1]), 3),
                    (2.0 * folds[1], 1)):
        point = d.with_value(heavy, "power_l", v)
        assert len(steady_branches(heavy, point, options)) == want


def test_hysteresis_loop_frozen(heavy, options):
    d = _loop_drive(heavy)
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=d, points=200,
                     direction="both")
    res = hysteresis_sweep(heavy, spec, options)
    assert res.diagnostics == ()
    assert isinstance(res.hysteresis, HysteresisResult)
    assert len(res.folds) == 2
    up, down = res.hysteresis.up, res.hysteresis.down
    assert up.jumps == (pytest.approx(LOOP_JUMP_UP, rel=1e-8),)
    assert down.jumps == (pytest.approx(LOOP_JUMP_DOWN, rel=1e-8),)
    # the upward ramp lets go at a strictly higher power than the downward
    assert up.jumps[0] > down.jumps[0]
    # jump locations are the fold locations
    assert up.jumps[0] == pytest.approx(res.folds[1], rel=1e-5)
    assert down.jumps[0] == pytest.approx(res.folds[0], rel=1e-5)


def test_hysteresis_traces_coincide_outside_loop(heavy, options):
    d = _loop_drive(heavy)
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=d, points=200,
                     direction="both")
    res = hysteresis_sweep(heavy, spec, options)
    up = dict(res.hysteresis.up.points)
    down = dict(res.hysteresis.down.points)
    assert set(up) == set(down)
    lo, hi = res.folds
    for v in up:
        inside = lo <= v <= hi
        same = abs(up[v].q_s - down[v].q_s) <= 1e-8 * (1.0 + abs(up[v].q_s))
        if not inside:
            assert same
        if v > 1.02 * hi or v < 0.98 * lo:
            assert same
    # inside the loop the ramps sit on different branches
    mid = min(up, key=lambda v: abs(v - 0.5 * (lo + hi)))
    assert down[mid].q_s > up[mid].q_s * 1.5


def test_hysteresis_trace_points_are_stable(heavy, options):
    d = _loop_drive(heavy)
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=d, points=120,
                     direction="both")
    res = hysteresis_sweep(heavy, spec, options)
    for trace in (res.hysteresis.up, res.hysteresis.down):
        assert isinstance(trace, Trace)
        for _, b in trace.points:
            assert b.verdict is Verdict.STABLE
    # ramp order: up ascends the axis, down descends
    ups = [v for v, _ in res.hysteresis.up.points]
    downs = [v for v, _ in res.hysteresis.down.points]
    assert ups == sorted(ups)
    assert downs == sorted(downs, reverse=True)


def test_blue_readout_hysteresis_frozen(heavy, options):
    # readout on the other side of its resonance, weakly driven; the
    # upward ramp starts on the high-photon readout branch and sheds
    # photons at the jump
    d = _drive(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
               delta2=-heavy.omega_m, power_l=1e-12, power_r=1e-13)
    folds = locate_folds(heavy, d, "power_l", 1e-14, 1e-9, options)
    assert folds == (pytest.approx(BLUE_FOLDS[0], rel=1e-8),
                     pytest.approx(BLUE_FOLDS[1], rel=1e-8))
    spec = SweepSpec(axis="power_l", start=BLUE_FOLDS[0] / 2.0,
                     stop=BLUE_FOLDS[1] * 1.8, drive=d, points=200,
                     direction="both")
    res = hysteresis_sweep(heavy, spec, options)
    assert res.diagnostics == ()
    up = res.hysteresis.up
    assert up.jumps == (pytest.approx(BLUE_JUMP_UP, rel=1e-8),)
    assert res.hysteresis.down.jumps == (pytest.approx(BLUE_JUMP_DOWN, rel=1e-8),)
    assert up.points[0][1].n_p2 == pytest.approx(101094.89096677376, rel=1e-10)
    jump = up.jumps[0]
    before = max((v for v, _ in up.points if v < jump))
    after = min((v for v, _ in up.points if v > jump))
    by_value = dict(up.points)
    assert by_value[before].n_p2 == pytest.approx(91262.82485140329, rel=1e-8)
    assert by_value[after].n_p2 == pytest.approx(69812.45778801662, rel=1e-8)
    assert by_value[after].n_p2 < by_value[before].n_p2


def _ramp_jumps(params, drive, axis, lo, hi, points, options):
    """(up jumps, down jumps) of the hysteresis ramp over [lo, hi], or None
    when some sample has no stable branch."""
    spec = SweepSpec(axis=axis, start=lo, stop=hi, drive=drive,
                     points=points, direction="both")
    try:
        ramps = hysteresis_sweep(params, spec, options).hysteresis
    except NoStableBranchError:
        return None
    return ramps.up.jumps, ramps.down.jumps


N_DRAWN_LOOPS = 40
RAMP_SIZES = (20, 40, 400)


@functools.cache
def _drawn_loop_jumps():
    """seed -> {points: :func:`_ramp_jumps`} of the power_l ramp over
    [fold_0 / 5, 5 fold_1] of each seed's three-branch drive."""
    options = SolverOptions()
    found = {}
    for seed in range(N_DRAWN_LOOPS):
        params, drive, _, _ = sampling.draw_three_root_point(
            random.Random(seed), options)
        folds = locate_folds(params, drive, "power_l", 1e-14, 1e-9, options)
        found[seed] = {n: _ramp_jumps(params, drive, "power_l",
                                      folds[0] / 5.0, 5.0 * folds[-1], n,
                                      options) for n in RAMP_SIZES}
    return found


@pytest.mark.parametrize("seed", [4, 28, 31, 37])
def test_drawn_loop_jumps_once_each_way_at_every_size(seed):
    # a coarse step moves q far on the surviving branch, yet the ramp
    # leaves its branch only where that branch's fold removes it
    for n, jumps in _drawn_loop_jumps()[seed].items():
        assert jumps is not None and tuple(map(len, jumps)) == (1, 1), n


def test_drawn_ramps_jump_alike_at_every_size():
    # seeded property: wherever the ramp runs, every grid size reports the
    # same jumps, each on its own step's 1e-6 bisection lattice
    ramped = []
    for seed, by_size in _drawn_loop_jumps().items():
        runs = [jumps for jumps in by_size.values() if jumps is not None]
        ramped += [seed] if runs else []
        for up, down in runs[1:]:
            assert up == pytest.approx(runs[0][0], rel=1e-6), seed
            assert down == pytest.approx(runs[0][1], rel=1e-6), seed
    # the other 36 draws self-oscillate somewhere in their window
    assert ramped == [4, 28, 31, 37]


@pytest.mark.parametrize("power_l", [2e-12, 5e-12])
def test_detuning_loop_jumps_once_each_way_at_every_size(heavy, options,
                                                         power_l):
    drive = _drive(heavy, delta1=heavy.omega_m, delta2=heavy.omega_m,
                   power_l=power_l)
    for n in (5, 8, 12, 20, 40, 400):
        up, down = _ramp_jumps(heavy, drive, "delta1", 0.0,
                               2.0 * heavy.omega_m, n, options)
        assert (len(up), len(down)) == (1, 1), n


def test_detuning_step_counts_the_other_crossing_of_a_fold(options):
    # 5 points over [0, 2 omega_m]: in the up step (0.5, 1] omega_m the
    # upper branch rises through the -2 fold's q_f before the fold, so the
    # pair the fold removes is (1, 2), not (2, 3)
    params, drive, axis, lo, hi, _, _ = FOLD_DRIVES["delta1"]
    wm = params.omega_m
    spec = SweepSpec(axis=axis, start=lo, stop=hi, drive=drive, points=5,
                     direction="both")
    (u, before), (w, after) = sweep_1d(params, spec, options).records[1:3]
    assert (u / wm, w / wm) == (pytest.approx(0.5), pytest.approx(1.0))
    assert (len(before), len(after)) == (3, 1)
    folds = _folds(params, drive, axis, lo, hi, options)
    (v, change, q), = [f for f in folds if u < f[0] <= w]
    assert (change, round(q, 1), round(v / wm, 4)) == (-2, 2796.1, 0.6838)
    assert round((2.0 * params.g1 * q - v) / wm, 4) == 0.6584
    assert sum(b.q_s < q for b in before) == 3
    assert list(continuation._fold_slots(params, spec, options.sign,
                                         lambda: folds, u, before, w)) == [
        (-2, 2)]


def _slot_sweeps():
    """(params, spec, options) of coarse sweeps whose steps cross folds:
    3-point windows around seeded five-branch drives on all four axes,
    the q_m = 5 detuning loop at 5 points and seeded detuning windows."""
    sweeps = []
    for seed in range(3):
        params, drive = sampling.draw_five_root_point(random.Random(seed),
                                                      SolverOptions())
        for axis, lo, hi in (("power_l", 1e-2, 1e2), ("power_r", 1e-2, 1e2),
                             ("delta1", 0.2, 1.8), ("delta2", 0.2, 1.8)):
            v = getattr(drive, axis)
            sweeps.append((params, SweepSpec(
                axis=axis, start=lo * v, stop=hi * v, drive=drive, points=3),
                SolverOptions()))
    params, drive, axis, lo, hi, options, _ = FOLD_DRIVES["delta1"]
    sweeps.append((params, SweepSpec(axis=axis, start=lo, stop=hi,
                                     drive=drive, points=5), options))
    rng = random.Random(7)
    for _ in range(30):
        params, drive, axis, lo, hi, options = sampling.draw_detuning_window(
            rng)
        sweeps.append((params, SweepSpec(axis=axis, start=lo, stop=hi,
                                         drive=drive, points=5), options))
    return sweeps


def test_fold_slots_count_the_branches_below_each_fold():
    # oracle: k is the number of steady branches below the fold's q_f,
    # solved 1e-7 of the step before the fold in the ramp direction, for
    # each fold of every count-changing step, ramped both ways
    checked = 0
    for params, spec, options in _slot_sweeps():
        records = sweep_1d(params, spec, options).records
        folds = _folds(params, spec.drive, spec.axis, spec.start, spec.stop,
                       options)
        for (v0, b0), (v1, b1) in zip(records, records[1:]):
            if len(b0) == len(b1):
                continue
            for u, before, w in ((v0, b0, v1), (v1, b1, v0)):
                inside = sorted((f for f in folds
                                 if min(u, w) < f[0] <= max(u, w)),
                                reverse=w < u)
                slots = list(continuation._fold_slots(
                    params, spec, options.sign, lambda: folds, u, before, w))
                assert len(slots) == len(inside)
                for (v, _, q), (_, k) in zip(inside, slots):
                    near = spec.drive.with_value(
                        params, spec.axis, v - 1e-7 * (w - u))
                    assert k == sum(b.q_s < q for b in steady_branches(
                        params, near, options)), (spec, v)
                    checked += 1
    assert checked >= 70


@pytest.mark.parametrize("name", list(FOLD_DRIVES))
def test_fold_q_is_a_double_root(name):
    # at (value, q_f) both f and df/dq vanish, relative to the terms each
    # cancels; power-axis roots are unpolished, so df/dq is only as small
    # as the root error
    params, drive, axis, lo, hi, options, count = FOLD_DRIVES[name]
    folds = _folds(params, drive, axis, lo, hi, options)
    assert len(folds) >= count
    c = 2.0 / params.omega_m
    for v, _, q in folds:
        at = drive.with_value(params, axis, v)
        n1, n2, _, _ = steady.photon_numbers_from_q(q, params, at)
        d1, d2 = steady.effective_detunings(q, params, at)
        force = abs(q) + c * (params.g1 * n1 + params.g2 * n2)
        slope = 1.0 + 2.0 * c * sum(
            g * g * n * abs(d) / (kappa * kappa + d * d)
            for g, n, d, kappa in ((params.g1, n1, d1, params.kappa1),
                                   (params.g2, n2, d2, params.kappa2)))
        assert abs(steady.steady_residual(q, params, at, options.sign)) <= (
            4.0 * np.finfo(float).eps * force), (name, v)
        assert abs(steady.residual_derivative(q, params, at, options.sign)
                   ) <= 1e-11 * slope, (name, v)


def test_uncoupled_control_shows_no_loop(preset, options):
    p0 = replace_params(preset, g1=0.0, g2=0.0)
    d = _drive(p0, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-12, power_r=1e-12)
    spec = SweepSpec(axis="power_l", start=1e-13, stop=1e-11, drive=d,
                     points=60, direction="both")
    res = hysteresis_sweep(p0, spec, options)
    assert res.folds == ()
    assert res.hysteresis.up.jumps == ()
    assert res.hysteresis.down.jumps == ()
    up = dict(res.hysteresis.up.points)
    down = dict(res.hysteresis.down.points)
    for v in up:
        assert up[v].q_s == down[v].q_s


def test_ramp_without_a_stable_first_sample_names_it(preset, options):
    # the fig2b window: with no fold at any power the fallback window is
    # used, and on the preset device its first sample self-oscillates
    drive = figures._drive(preset, "literal")
    lo, hi = figures.power_window(preset, drive)
    spec = SweepSpec(axis="power_l", start=lo, stop=hi, drive=drive,
                     points=400, direction="both")
    with pytest.raises(NoStableBranchError) as caught:
        hysteresis_sweep(preset, spec, options)
    assert caught.value.axis_value == spec.start == 1e-08
    assert str(caught.value) == stability._no_stable_branch("power_l", 1e-08)


def _high_q_drive(preset):
    return _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
                  power_l=1e-12, power_r=1e-12)


def _count_grid_solves(monkeypatch) -> list:
    calls = []
    solve = continuation.solve_and_classify_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "solve_and_classify_grid", counted)
    return calls


def _has_stable(branches):
    return any(b.verdict == Verdict.STABLE for b in branches)


def _truncation_note(value):
    return (f"ramp truncated: no stable branch at power_l={value!r}; "
            "self-oscillating regime")


def test_high_q_device_cannot_ramp_past_fold(preset, options, monkeypatch):
    # on the preset device the surviving branch past the upper fold is
    # anti-damped, so the strict quasi-static ramp must refuse
    spec = SweepSpec(axis="power_l", start=1.28e-12, stop=3.886e-11,
                     drive=_high_q_drive(preset), points=60,
                     direction="both")
    with pytest.raises(NoStableBranchError):
        hysteresis_sweep(preset, spec, options)
    records = sweep_1d(preset, replace(spec, direction="up"), options).records
    first = next(i for i, (_, branches) in enumerate(records)
                 if not _has_stable(branches))
    assert first >= 2
    solves = _count_grid_solves(monkeypatch)
    res = clamped_hysteresis_sweep(preset, spec, options)
    assert len(solves) == 2
    # the top is the last sample of the first grid before the first one
    # with no stable branch, and the ramp keeps its points
    assert res.spec.stop == axis_grid(spec)[first - 1] == records[first - 1][0]
    assert res.hysteresis is not None
    assert len(res.records) == len(res.hysteresis.up.points) == spec.points
    assert res.hysteresis.up.points[-1][0] == res.spec.stop
    assert all(_has_stable(branches) for _, branches in res.records)
    notes = [n for n in res.diagnostics if n.kind == "ramp_truncated"]
    assert notes == [Diagnostic("ramp_truncated",
                                ("power_l", records[first][0]))]
    assert str(notes[0]) == _truncation_note(records[first][0])
    assert res.diagnostics[-1] == notes[0]


def test_clamped_ramp_that_fits_is_the_strict_sweep(heavy, options,
                                                    monkeypatch):
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=_loop_drive(heavy),
                     points=200, direction="both")
    want = hysteresis_sweep(heavy, spec, options)
    solves = _count_grid_solves(monkeypatch)
    assert clamped_hysteresis_sweep(heavy, spec, options) == want
    assert len(solves) == 1


def test_sweep_results_name_the_direction_they_computed(heavy, options):
    # a "both" spec ramps in sweep_1d as in hysteresis_sweep, and the
    # hysteresis sweeps record "both" whatever their spec says, so the
    # summary's direction line reads what was computed
    both = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=_loop_drive(heavy),
                     points=60, direction="both")
    up = replace(both, direction="up")
    ramped = sweep_1d(heavy, both, options)
    assert ramped.hysteresis is not None
    assert sweep_1d(heavy, up, options).hysteresis is None
    for sweep in (hysteresis_sweep, clamped_hysteresis_sweep):
        for spec in (both, up):
            res = sweep(heavy, spec, options)
            assert res == ramped
            assert "  points: 60  direction: both\n" in summarize(res)
    assert "  points: 60  direction: up\n" in summarize(
        sweep_1d(heavy, up, options))


@pytest.mark.parametrize("start, stop, points, first", [
    (2.5e-11, 3.886e-11, 60, 0),     # past the self-oscillation onset
    (2.155e-11, 2.175e-11, 3, 1),    # one stable sample below it
])
def test_clamped_ramp_without_two_stable_samples_is_the_plain_sweep(
        preset, options, monkeypatch, start, stop, points, first):
    spec = SweepSpec(axis="power_l", start=start, stop=stop,
                     drive=_high_q_drive(preset), points=points,
                     direction="both")
    want = sweep_1d(preset, replace(spec, direction="up"), options)
    assert [_has_stable(b) for _, b in want.records[:first + 1]] == (
        [True] * first + [False])
    solves = _count_grid_solves(monkeypatch)
    res = clamped_hysteresis_sweep(preset, spec, options)
    assert len(solves) == 1
    assert res.spec.direction == "up"
    assert res == replace(want, diagnostics=want.diagnostics + (
        Diagnostic("ramp_truncated", ("power_l", want.records[first][0])),
        Diagnostic("no_ramp_fits")))
    assert [str(n) for n in res.diagnostics[-2:]] == [
        _truncation_note(want.records[first][0]),
        "no quasi-static ramp fits inside the window: every attempted top "
        "hit a sample with no stable branch"]


def test_low_power_displacement_tracks_readout_push(preset, options):
    # with only the readout coupled and far below threshold the steady
    # displacement is the perturbative push (2 g2 / omega_m) n_2
    p0 = replace_params(preset, g1=0.0)
    d = _drive(p0, delta1=0.0, delta2=preset.omega_m,
               power_l=0.0, power_r=1e-15)
    spec = SweepSpec(axis="power_r", start=1e-17, stop=1e-14, drive=d,
                     points=30)
    res = sweep_1d(p0, spec, options)
    for _, branches in res.records:
        b = branches[0]
        push = 2.0 * p0.g2 * b.n_p2 / p0.omega_m
        assert b.q_s == pytest.approx(push, rel=1e-6)
