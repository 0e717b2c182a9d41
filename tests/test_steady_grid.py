"""The batched grid solvers against the scalar ones, row by row.

Rows must be equal, not close: the batched solve and classify do the
scalar arithmetic elementwise, in the same order.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import sampling
from twomode import continuation, polyroots, stability, steady
from twomode.continuation import SweepSpec, _solve_grid, axis_grid, sweep_1d
from twomode.errors import (ParameterError, PolynomialError, SolverError,
                            SweepError)
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.stability import solve_and_classify
from twomode.steady import (SolverOptions, q_upper_bound, steady_branches,
                            steady_q_grid)

# The fig2b drive under --sign minus --kappa2 literal, and the bisection
# midpoint of its fold scan where the scalar solve breaches the
# self-consistency ceiling.
CEILING_BREACH_POWER_L = 9.181158464634483e-06

REGIMES = ("full", "cubic", "decoupled", "three", "five", "quartic")


def _scalar_rows(params, drive, axis, values, options):
    """Per-row q_s from steady_branches, or the exception type it raises."""
    rows = []
    for v in values:
        point = drive.with_value(params, axis, float(v))
        try:
            rows.append([b.q_s for b in steady_branches(params, point, options)])
        except (PolynomialError, SolverError) as exc:
            rows.append(type(exc))
    return rows


def _assert_rows_match(params, drive, axis, values, options):
    refs = _scalar_rows(params, drive, axis, values, options)
    raised = [ref for ref in refs if isinstance(ref, type)]
    if raised:
        with pytest.raises(raised[0]):
            steady_q_grid(params, drive, axis, values, options)
        return None
    grid = steady_q_grid(params, drive, axis, values, options)
    assert grid.shape == (len(values), 5)
    for row, ref in zip(grid, refs):
        got = row[~np.isnan(row)]
        assert got.tolist() == ref
        assert np.all(np.isnan(row[len(got):]))
    return grid


def _solver_poly(params, drive, options):
    """The polynomial the scalar solver roots at this drive."""
    qb = min(q_upper_bound(params, drive), steady._tail_root_bound(params, drive))
    return steady._assemble(params, drive, options.sign, max(qb, 1.0)).poly


def _case(regime, seed):
    """(params, drive, axis, values, options) of one grid to compare."""
    rng = random.Random(seed)
    options = SolverOptions(sign=rng.choice((1, -1)))
    preset = preset_hill_params()
    if regime == "full":
        params = preset
        drive = sampling.draw_drive(rng, params)
    elif regime == "cubic":
        params = replace_params(preset, g2=0.0)
        drive = sampling.draw_drive(rng, params)
    elif regime == "decoupled":     # the fig3 control: the pump cannot push
        params = replace_params(preset, g1=0.0)
        drive = sampling.draw_drive(rng, params)
    elif regime == "three":
        options = SolverOptions()
        params, drive, _, _ = sampling.draw_three_root_point(rng, options)
    elif regime == "five":
        options = SolverOptions()
        params, drive = sampling.draw_five_root_point(rng, options)
    else:   # a flux-convention study drive, where the lead coefficient trims
        params = preset_hill_params(rng.choice(("angular", "literal")))
        drive = DrivePoint.build(params, delta1=params.omega_m,
                                 delta2=params.omega_m, power_r=1e-7,
                                 power_l=sampling.log_uniform(rng, 1e-14, 1.0),
                                 amp_convention="flux")
    axis = rng.choice(("power_l", "power_r", "delta1", "delta2"))
    center = getattr(drive, axis)
    if axis.startswith("power"):
        values = center * np.geomspace(0.8, 1.25, 12)
    else:
        values = center + np.linspace(-0.02, 0.02, 12) * params.omega_m
    return params, drive, axis, values, options


@given(regime=st.sampled_from(REGIMES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_grid_rows_match_scalar_solver(regime, seed):
    params, drive, axis, values, options = _case(regime, seed)
    _assert_rows_match(params, drive, axis, values, options)


@pytest.mark.parametrize("regime,branches", [("three", 3), ("five", 5)])
def test_multi_root_rows_are_covered(regime, branches):
    params, drive, axis, values, options = _case(regime, 7)
    grid = _assert_rows_match(params, drive, axis, values, options)
    assert branches in np.count_nonzero(~np.isnan(grid), axis=1)


def test_flux_study_rows_trim_to_quartic_and_quintic():
    # Below about 1e-5 W the readout-driven scale is 1 and the g1^2 g2^2
    # lead falls under the trim threshold; above it the rows stay quintic.
    params = preset_hill_params()
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_r=1e-7,
                             amp_convention="flux")
    values = np.geomspace(1e-14, 1.0, 40)
    degrees = [_solver_poly(params, drive.with_value(params, "power_l", v),
                            SolverOptions()).degree
               for v in values]
    assert {4, 5} <= set(degrees)
    _assert_rows_match(params, drive, "power_l", values, SolverOptions())


def test_undriven_row_takes_the_scalar_rest_branch():
    params = replace_params(preset_hill_params(), g2=0.0)
    drive = DrivePoint.build(params, delta1=2.0 * math.sqrt(3.0) * params.kappa1,
                             delta2=params.omega_m, power_l=1e-13)
    grid = _assert_rows_match(params, drive, "power_l",
                              np.array([0.0, 1e-13, 3e-12]), SolverOptions())
    assert grid[0, 0] == 0.0


def test_ceiling_breach_raises_like_the_scalar_solver():
    params = preset_hill_params("literal")
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_l=2e-6, power_r=1e-7)
    options = SolverOptions(sign=-1)
    values = np.array([9e-6, CEILING_BREACH_POWER_L, 9.3e-6])
    assert _scalar_rows(params, drive, "power_l", values, options)[1] is SolverError
    _assert_rows_match(params, drive, "power_l", values, options)


def _fold_approach():
    """A five-branch drive and twelve power_l values from 1e-8 to 0.1
    relative above its lowest fold, where its two new roots close in."""
    options = SolverOptions()
    params, drive = sampling.draw_five_root_point(random.Random(0), options)
    (fold, _, _), *_ = continuation._folds(params, drive, "power_l", 0.0,
                                           1.0, options)
    return params, drive, fold * (1.0 + np.geomspace(1e-8, 0.1, 12)), options


def _rows_real_roots_changes(params, drive, values, options, monkeypatch):
    """Indices of the power_l rows where the scalar real_roots takes a
    Newton polish step or merges two roots."""
    newton, horner = polyroots._newton, polyroots._horner
    steps, evaluated = [], []

    def spy(coeffs, slope, x, target_rel):
        if sys._getframe(1).f_code is not polyroots.real_roots.__code__:
            # the complex rescue in all_roots
            return newton(coeffs, slope, x, target_rel)
        # the polish evaluates the slope only to take a step
        evaluated.clear()
        root = newton(coeffs, slope, x, target_rel)
        steps.append(any(c is slope for c in evaluated))
        return root

    def watched(coeffs, x):
        evaluated.append(coeffs)
        return horner(coeffs, x)

    monkeypatch.setattr(polyroots, "_newton", spy)
    monkeypatch.setattr(polyroots, "_horner", watched)
    rows = []
    for i, v in enumerate(values.tolist()):
        steps.clear()
        p = _solver_poly(params, drive.with_value(params, "power_l", v), options)
        # one polish per real root: fewer roots out means a merge
        if len(polyroots.real_roots(p, options.imag_tol)) < len(steps) or any(steps):
            rows.append(i)
    return rows


@pytest.mark.parametrize("constant,value", [("_POLISH_RESIDUAL_REL", 1e-16),
                                            ("_DEDUP_REL", 1e-4)])
def test_rows_real_roots_would_change_go_to_steady_branches(
        constant, value, monkeypatch):
    # the row kernel neither polishes nor merges real roots: a row where
    # the scalar form does is solved by steady_branches, and no other row
    params, drive, values, options = _fold_approach()
    monkeypatch.setattr(polyroots, constant, value)
    changed = _rows_real_roots_changes(params, drive, values, options,
                                       monkeypatch)
    assert changed
    rescued = []
    scalar = steady.steady_branches
    monkeypatch.setattr(steady, "steady_branches", lambda p, point, o: (
        rescued.append(point.power_l) or scalar(p, point, o)))
    assert _assert_rows_match(params, drive, "power_l", values,
                              options) is not None
    assert rescued == [values.tolist()[i] for i in changed]


def _pointwise_records(params, spec, options):
    """(value, branches, diagnostics) per sample from solve_and_classify,
    up to the first sample that raises; then that value and exception."""
    records = []
    for v in axis_grid(spec).tolist():
        try:
            branches, diags = solve_and_classify(
                params, spec.drive.with_value(params, spec.axis, v), options)
        except (PolynomialError, SolverError) as exc:
            return records, (v, exc)
        records.append((v, branches, diags))
    return records, None


def _assert_sweep_matches_pointwise(params, spec, options):
    ref, failure = _pointwise_records(params, spec, options)
    if failure is not None:
        value, exc = failure
        with pytest.raises(SweepError) as caught:
            _solve_grid(params, spec, options)
        assert caught.value.axis_value == value
        assert str(caught.value) == f"solve failed at {spec.axis}={value!r}: {exc}"
        return None
    got = _solve_grid(params, spec, options)
    # SteadyBranch equality compares all nine fields; diagnostics are text
    assert got == ref
    return got


def _sweep_case(regime, seed):
    params, drive, axis, values, options = _case(regime, seed)
    spec = SweepSpec(axis=axis, start=float(values[0]), stop=float(values[-1]),
                     drive=drive, points=len(values))
    return params, spec, options


@given(regime=st.sampled_from(REGIMES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_records_equal_pointwise_records(regime, seed):
    _assert_sweep_matches_pointwise(*_sweep_case(regime, seed))


@pytest.mark.parametrize("regime,branches", [("three", 3), ("five", 5)])
def test_sweep_records_cover_multi_root_rows(regime, branches):
    got = _assert_sweep_matches_pointwise(*_sweep_case(regime, 7))
    assert branches in [len(b) for _, b, _ in got]


def test_sweep_records_carry_ordering_diagnostics():
    # Blue-detuned readout driven hard enough to anti-damp the mechanics:
    # the eigenvalue verdicts depart from the ordering rule.
    params = preset_hill_params()
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=-params.omega_m, power_l=2e-6,
                             power_r=1e-7)
    spec = SweepSpec(axis="delta1", start=0.0, stop=2.0 * params.omega_m,
                     drive=drive, points=40)
    got = _assert_sweep_matches_pointwise(params, spec, SolverOptions(sign=-1))
    assert any(diags for _, _, diags in got)


def test_sweep_records_where_pow_and_product_round_apart():
    # On a Python float amp**2 is libm pow, on an array an exact square;
    # they differ in the last bit for about one amplitude in a thousand.
    # Each sweep starts on such an amplitude.
    params = preset_hill_params()
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_l=1e-9, power_r=1e-9)
    amp = {p: drive.with_value(params, "power_l", p).amp_l
           for p in np.geomspace(1e-12, 1e-6, 5000).tolist()}
    starts = [p for p, a in amp.items() if a**2 != a * a][:3]
    assert starts
    for p in starts:
        spec = SweepSpec(axis="power_l", start=p, stop=1.5 * p, drive=drive,
                         points=2)
        _assert_sweep_matches_pointwise(params, spec, SolverOptions())


def test_sweep_through_ceiling_breach_names_the_sample():
    params = preset_hill_params("literal")
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_l=2e-6, power_r=1e-7)
    spec = SweepSpec(axis="power_l", start=9e-6, stop=CEILING_BREACH_POWER_L,
                     drive=drive, points=5)
    assert axis_grid(spec)[-1] == CEILING_BREACH_POWER_L
    with pytest.raises(SweepError) as caught:
        sweep_1d(params, spec, SolverOptions(sign=-1))
    assert caught.value.axis_value == CEILING_BREACH_POWER_L
    assert str(caught.value).startswith(
        f"solve failed at power_l={CEILING_BREACH_POWER_L!r}: ")


def _ceiling_case():
    """The drive and options of the ceiling-breach tests above."""
    params = preset_hill_params("literal")
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_l=2e-6, power_r=1e-7)
    return params, drive, SolverOptions(sign=-1)


def test_ceiling_breach_sample_has_one_exact_branch():
    # the exact count at the breach is 1, and 3 just below the -2 fold
    # under it: the root the solver rejects there is the ghost of the pair
    # that died at that fold (ROADMAP item 7)
    params, drive, options = _ceiling_case()
    fold = max(value for value, change, _ in continuation._folds(
        params, drive, "power_l", 0.0, 1.0, options)
        if change == -2 and value < CEILING_BREACH_POWER_L)
    assert fold == pytest.approx(CEILING_BREACH_POWER_L, rel=1e-6)
    assert [oracles.exact_count(params, drive.with_value(params, "power_l", v),
                                options.sign)
            for v in (CEILING_BREACH_POWER_L, fold * (1.0 - 1e-9))] == [1, 3]


def test_ceiling_breach_sweep_solves_in_one_pass(monkeypatch):
    # the failing sample is named by the grid itself: no sample is solved
    # again point by point
    params, drive, options = _ceiling_case()
    spec = SweepSpec(axis="power_l", start=9e-6, stop=CEILING_BREACH_POWER_L,
                     drive=drive, points=5)
    with pytest.raises(SolverError) as scalar:
        steady_branches(params, drive.with_value(
            params, "power_l", CEILING_BREACH_POWER_L), options)
    calls = {"steady_branches": 0, "solve_and_classify": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for module in (steady, stability, continuation):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    with pytest.raises(SweepError) as caught:
        sweep_1d(params, spec, options)
    assert calls == {"steady_branches": 1, "solve_and_classify": 0}
    assert caught.value.axis_value == CEILING_BREACH_POWER_L
    assert str(caught.value) == (
        f"solve failed at power_l={CEILING_BREACH_POWER_L!r}: {scalar.value}")
    assert isinstance(caught.value.__cause__, SolverError)


def test_steady_failure_block_is_not_classified(monkeypatch):
    # the steady solve fails at the last sample: the block raises that
    # failure before it classifies any branch
    params, drive, options = _ceiling_case()
    spec = SweepSpec(axis="power_l", start=9e-6, stop=CEILING_BREACH_POWER_L,
                     drive=drive, points=5)
    calls = []
    max_re_rows = stability._max_re_rows
    monkeypatch.setattr(stability, "_max_re_rows",
                        lambda *args: calls.append(args) or max_re_rows(*args))
    with pytest.raises(SweepError) as caught:
        sweep_1d(params, spec, options)
    assert caught.value.axis_value == CEILING_BREACH_POWER_L
    assert isinstance(caught.value.__cause__, SolverError)
    assert calls == []


def test_sweep_past_mode_frequency_raises_parameter_error():
    # at delta1 >= omega1 the pump laser frequency is not positive: the
    # ParameterError is raised as it is, not wrapped in a SweepError
    params = preset_hill_params()
    drive = DrivePoint.build(params, delta1=0.0, delta2=params.omega_m,
                             power_l=1e-12, power_r=1e-12)
    spec = SweepSpec(axis="delta1", start=0.0, stop=2.0 * params.omega1,
                     drive=drive, points=5)
    with pytest.raises(ParameterError, match="laser frequency must be positive"):
        sweep_1d(params, spec, SolverOptions())
