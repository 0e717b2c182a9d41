"""The batched grid solver against the scalar solver, row by row."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sampling
from twomode import steady
from twomode.errors import PolynomialError, SolverError
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.steady import (SolverOptions, q_upper_bound, steady_branches,
                            steady_q_grid)

# The fig2b drive under --sign minus --kappa2 literal, and the bisection
# midpoint of its fold scan where the scalar solve breaches the
# self-consistency ceiling.
CEILING_BREACH_POWER_L = 9.181158464634483e-06


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
        assert len(got) == len(ref)
        assert np.all(np.isnan(row[len(got):]))
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12 * abs(b)
    return grid


def _solver_degree(params, drive, options):
    """Degree of the polynomial the scalar solver roots at this drive."""
    qb = min(q_upper_bound(params, drive), steady._tail_root_bound(params, drive))
    return steady._assemble(params, drive, options.sign, max(qb, 1.0)).poly.degree


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


@given(regime=st.sampled_from(("full", "cubic", "three", "five", "quartic")),
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
    degrees = [_solver_degree(params, drive.with_value(params, "power_l", v),
                              SolverOptions())
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
