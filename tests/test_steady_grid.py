"""The batched grid solvers against the scalar ones, row by row.

Rows must be equal, not close: the batched solve and classify do the
scalar arithmetic elementwise, in the same order.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import sampling
from twomode import continuation, polyroots, stability, steady
from twomode.continuation import SweepSpec, _solve_grid, axis_grid, sweep_1d
from twomode.errors import ParameterError, PolynomialError, SweepError
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.stability import Diagnostic, solve_and_classify
from twomode.steady import (SolverOptions, Verdict, q_upper_bound,
                            steady_branches)

# The fig2b drive under --sign minus --kappa2 literal, and the bisection
# midpoint of its fold scan where the scalar solve used to breach a
# self-consistency ceiling on a ghost root and raise; its exact count is 1.
CEILING_BREACH_POWER_L = 9.181158464634483e-06

REGIMES = ("full", "cubic", "decoupled", "three", "five", "quartic")


def _scalar_rows(params, drive, axis, values, options):
    """Per-row q_s from steady_branches, or the exception type it raises."""
    rows = []
    for v in values:
        point = drive.with_value(params, axis, float(v))
        try:
            rows.append([b.q_s for b in steady_branches(params, point, options)])
        except PolynomialError as exc:
            rows.append(type(exc))
    return rows


def _assert_rows_match(params, drive, axis, values, options):
    refs = _scalar_rows(params, drive, axis, values, options)
    raised = [ref for ref in refs if isinstance(ref, type)]
    if raised:
        with pytest.raises(raised[0]):
            oracles.q_grid(params, drive, axis, values, options)
        return None
    grid = oracles.q_grid(params, drive, axis, values, options)
    assert grid.shape == (len(values), 5)
    for row, ref in zip(grid, refs):
        got = row[~np.isnan(row)]
        assert got.tolist() == ref
        assert np.all(np.isnan(row[len(got):]))
    return grid


def _solver_poly(params, drive, options):
    """The polynomial the scalar solver roots at this drive."""
    qb = min(q_upper_bound(params, drive), steady._tail_root_bound(params, drive))
    return steady._assemble(params, drive, options.sign, max(qb, 1.0))


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


def _exact_counts(params, drive, axis, values, options):
    return [oracles.exact_count(params, drive.with_value(params, axis, float(v)),
                                options.sign) for v in values]


def test_ceiling_breach_raises_like_the_scalar_solver():
    # the breach row used to raise in the grid as in the scalar solver;
    # now both solve it, to its exact count of 1
    params, drive, options = _ceiling_case()
    values = np.array([9e-6, CEILING_BREACH_POWER_L, 9.3e-6])
    grid = _assert_rows_match(params, drive, "power_l", values, options)
    counts = np.count_nonzero(~np.isnan(grid), axis=1).tolist()
    assert counts == _exact_counts(params, drive, "power_l", values, options)
    assert counts[1] == 1


def _fold_approach():
    """A five-branch drive and 24 power_l values from 1e-16 to 1e-12
    relative on either side of its third fold, where a close root pair
    can come back from the companion matrix as a complex pair."""
    options = SolverOptions()
    params, drive = sampling.draw_five_root_point(random.Random(0), options)
    fold = continuation._folds(params, drive, "power_l", 0.0, 1.0,
                               options)[2][0]
    offsets = np.geomspace(1e-16, 1e-12, 12)
    values = fold * np.concatenate((1.0 - offsets, 1.0 + offsets))
    return params, drive, values, options


def _rows_with_a_half_bracket(params, drive, values, options):
    """Indices of the power_l rows where the scalar real_roots reports a
    root that is not a real companion eigenvalue: one found in a half
    bracket beside a complex position."""
    rows = []
    for i, v in enumerate(values.tolist()):
        point = drive.with_value(params, "power_l", v)
        qb = min(q_upper_bound(params, point),
                 steady._tail_root_bound(params, point))
        q_scale = max(qb, 1.0)
        p = steady._assemble(params, point, options.sign, q_scale)
        real = {z.real for z in polyroots.companion_roots(p.coeffs).tolist()
                if z.imag == 0.0}
        found = polyroots.real_roots(p, 0.0, 1.05 * qb / q_scale)
        if any(x not in real for x, _, _ in found):
            rows.append(i)
    return rows


def test_rows_with_a_half_bracket_go_to_steady_branches(monkeypatch):
    # the row kernel takes only roots at real eigenvalues: a row with a
    # sign change in a half bracket beside a complex position is solved
    # by steady_branches, and no other row.  This close to a fold the rule
    # can miss the exact count (ROADMAP item 7), so counts are not checked
    params, drive, values, options = _fold_approach()
    halves = _rows_with_a_half_bracket(params, drive, values, options)
    assert halves
    rescued = []
    scalar = steady.steady_branches
    monkeypatch.setattr(steady, "steady_branches", lambda p, point, o: (
        rescued.append(point.power_l) or scalar(p, point, o)))
    _assert_rows_match(params, drive, "power_l", values, options)
    assert rescued == [values.tolist()[i] for i in halves]


def _pointwise_records(params, spec, options):
    """(value, branches, diagnostics) per sample from solve_and_classify,
    up to the first sample that raises; then that value and exception."""
    records = []
    for v in axis_grid(spec).tolist():
        try:
            branches, diags = solve_and_classify(
                params, spec.drive.with_value(params, spec.axis, v), options)
        except PolynomialError as exc:
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


@pytest.mark.parametrize("case", ["blue", "five"])
def test_sweep_self_oscillation_counts(case):
    # each sample counts its UNSTABLE branches with df/dq > 0, read here
    # from the sign of the closed-form det J, in grid and pointwise
    # records alike; the sweep merges the counts into one record
    if case == "blue":
        # blue-detuned readout driven hard enough to anti-damp the mechanics
        params = preset_hill_params()
        drive = DrivePoint.build(params, delta1=params.omega_m,
                                 delta2=-params.omega_m, power_l=2e-6,
                                 power_r=1e-7)
        spec = SweepSpec(axis="delta1", start=0.0,
                         stop=2.0 * params.omega_m, drive=drive, points=40)
        options = SolverOptions(sign=-1)
    else:
        params, spec, options = _sweep_case("five", 7)
    counts = []
    for v, branches, diags in _assert_sweep_matches_pointwise(params, spec,
                                                              options):
        point = spec.drive.with_value(params, spec.axis, v)
        count = sum(b.verdict is Verdict.UNSTABLE
                    and oracles.characteristic_closed_form(
                        b, params, point, options.sign)[0] > 0.0
                    for b in branches)
        assert diags == ((Diagnostic("self_oscillation", (count, 1)),)
                         if count else ())
        counts.append(count)
    assert sum(counts) > 0
    assert sweep_1d(params, spec, options).diagnostics == (
        Diagnostic("self_oscillation",
                   (sum(counts), sum(c > 0 for c in counts))),)


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


def _ceiling_case():
    """The drive and options of the ceiling-breach tests."""
    params = preset_hill_params("literal")
    drive = DrivePoint.build(params, delta1=params.omega_m,
                             delta2=params.omega_m, power_l=2e-6, power_r=1e-7)
    return params, drive, SolverOptions(sign=-1)


def _ceiling_sweep():
    params, drive, options = _ceiling_case()
    spec = SweepSpec(axis="power_l", start=9e-6, stop=CEILING_BREACH_POWER_L,
                     drive=drive, points=5)
    return params, spec, options


def test_sweep_through_ceiling_breach_names_the_sample():
    # the sweep used to fail there, naming the sample; now its last
    # record is that sample, solved to its exact count of 1
    params, spec, options = _ceiling_sweep()
    assert axis_grid(spec)[-1] == CEILING_BREACH_POWER_L
    value, branches = sweep_1d(params, spec, options).records[-1]
    assert value == CEILING_BREACH_POWER_L
    assert len(branches) == oracles.exact_count(
        params, spec.drive.with_value(params, "power_l", value),
        options.sign) == 1


def test_ceiling_breach_sample_has_one_exact_branch():
    # the exact count at the breach is 1, and 3 just below the -2 fold
    # under it: the root the solver used to reject there was the ghost of
    # the pair that died at that fold
    params, drive, options = _ceiling_case()
    fold = max(value for value, change, _ in continuation._folds(
        params, drive, "power_l", 0.0, 1.0, options)
        if change == -2 and value < CEILING_BREACH_POWER_L)
    assert fold == pytest.approx(CEILING_BREACH_POWER_L, rel=1e-6)
    assert [oracles.exact_count(params, drive.with_value(params, "power_l", v),
                                options.sign)
            for v in (CEILING_BREACH_POWER_L, fold * (1.0 - 1e-9))] == [1, 3]


def _counted_solves(monkeypatch):
    """Count the steady_branches and solve_and_classify calls, under every
    name they are reached by."""
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
    return calls


def test_ceiling_breach_sweep_solves_in_one_pass(monkeypatch):
    # every sample, the breach included, is solved by the grid itself: no
    # sample is solved again point by point, and each has its exact count
    params, spec, options = _ceiling_sweep()
    calls = _counted_solves(monkeypatch)
    records = sweep_1d(params, spec, options).records
    assert calls == {"steady_branches": 0, "solve_and_classify": 0}
    assert [len(b) for _, b in records] == _exact_counts(
        params, spec.drive, "power_l", axis_grid(spec), options)
    assert len(records[-1][1]) == 1


def test_steady_failure_block_is_not_classified(monkeypatch):
    # the ceiling-breach block is classified, to its exact count; a block
    # whose steady solve fails at a sample (an overflowing drive power
    # gives non-finite coefficients) raises that failure before it
    # classifies any branch
    params, spec, options = _ceiling_sweep()
    calls = []
    max_re_rows = stability._max_re_rows
    monkeypatch.setattr(stability, "_max_re_rows",
                        lambda *args: calls.append(args) or max_re_rows(*args))
    assert len(sweep_1d(params, spec, options).records[-1][1]) == 1
    assert len(calls) == 1
    calls.clear()
    overflow = SweepSpec(axis="power_l", start=9e-6, stop=1e300,
                         drive=spec.drive, points=5)
    with pytest.raises(SweepError) as caught:
        sweep_1d(params, overflow, options)
    assert caught.value.axis_value in axis_grid(overflow).tolist()
    assert isinstance(caught.value.__cause__, PolynomialError)
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
