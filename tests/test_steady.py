"""Steady-state residual, polynomial assembly, and branch solving."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import sampling
from twomode import steady
from twomode.errors import ParameterError, PolynomialError
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.steady import (_POLISH_MAX_ITER, SolverOptions,
                            assemble_fixed_point_polynomial,
                            effective_detunings, photon_numbers_from_q,
                            q_upper_bound, residual_derivative,
                            steady_amplitudes, steady_branches,
                            steady_q_grid, steady_residual)

from test_steady_grid import REGIMES, _case

# Frozen 5-root drive on the preset device: both pumps red of cavity with
# powers inside the overlap window of the two bistable responses.
FIVE_ROOT_DRIVE = dict(delta1=25132741228.718346, delta2=37699111843.077515,
                       power_l=3.554336028031624e-12,
                       power_r=1.029350567828061e-11,
                       amp_convention="literal")
FIVE_ROOT_QS = (1600.0776211012155, 3349.0481760410535, 4728.150977531293,
                12224.926710020607, 14338.106592825206)


def _drive(params, **kw):
    kw.setdefault("amp_convention", "literal")
    return DrivePoint.build(params, **kw)


def test_options_validation():
    with pytest.raises(ParameterError):
        SolverOptions(sign=0)
    with pytest.raises(ParameterError):
        SolverOptions(sign=2)
    with pytest.raises(ParameterError):
        SolverOptions(marginal_band=2e-3)
    assert SolverOptions(sign=-1).sign == -1


def test_effective_detunings_exact(preset):
    d = _drive(preset, delta1=1e9, delta2=-2e9, power_l=1e-9, power_r=1e-9)
    d1, d2 = effective_detunings(3.5, preset, d)
    assert d1 == 1e9 - preset.g1 * 3.5
    assert d2 == -2e9 - preset.g2 * 3.5
    q = np.array([0.0, 1.0, 2.0])
    d1v, d2v = effective_detunings(q, preset, d)
    assert d1v.shape == q.shape
    assert d1v[0] == d.delta1 and d2v[0] == d.delta2


def test_photon_numbers_frozen_resonant(preset):
    # pump on the lower mechanical sideband, probe off; at q = 0 the pump
    # mode photon number is A_1 / (kappa1^2 + omega_m^2)
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-7, power_r=0.0)
    n1, n2, d1, d2 = photon_numbers_from_q(0.0, preset, d)
    # 40-digit mpmath reference 4886882891.7358448632
    assert n1 == pytest.approx(4886882891.735845, rel=5e-15)
    assert n1 == 4886882891.735845
    assert n2 == 0.0
    assert d1 == preset.omega_m and d2 == preset.omega_m
    a1 = preset.kappa_e1 * d.amp_l**2
    assert n1 == a1 / (preset.kappa1**2 + preset.omega_m**2)


def test_photon_numbers_match_amplitudes(preset, rng):
    d = _drive(preset, delta1=0.7 * preset.omega_m, delta2=-0.2 * preset.omega_m,
               power_l=3e-10, power_r=8e-11)
    for _ in range(50):
        q = rng.uniform(-1e5, 1e5)
        n1, n2, d1, d2 = photon_numbers_from_q(q, preset, d)
        a1, a2 = steady_amplitudes(q, preset, d)
        assert n1 == pytest.approx(abs(a1) ** 2, rel=1e-10)
        assert n2 == pytest.approx(abs(a2) ** 2, rel=1e-10)


def test_residual_matches_independent_route(preset, rng):
    for _ in range(25):
        d = sampling.draw_drive(rng, preset)
        for sign in (1, -1):
            qb = oracles.force_bound(preset, d)
            for _ in range(8):
                q = rng.uniform(-qb, qb)
                got = steady_residual(q, preset, d, sign)
                want = oracles.residual_scalar(q, preset, d, sign)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_residual_vectorized_matches_scalar(preset):
    d = _drive(preset, delta1=preset.omega_m, delta2=0.5 * preset.omega_m,
               power_l=1e-10, power_r=2e-11)
    q = np.linspace(0.0, 2e4, 257)
    vec = steady_residual(q, preset, d)
    for i, qi in enumerate(q):
        assert vec[i] == steady_residual(float(qi), preset, d)
    # the Newton polish's hoisted residual is steady_residual bit for bit
    for sign in (1, -1):
        pair = steady._residual_pair(preset, d, sign)
        want = steady_residual(q, preset, d, sign)
        assert pair(q)[0].tobytes() == want.tobytes()
        assert [pair(qi)[0] for qi in q.tolist()] == want.tolist()


def test_residual_derivative_is_derivative(preset, rng):
    d = _drive(preset, delta1=0.9 * preset.omega_m, delta2=1.4 * preset.omega_m,
               power_l=5e-11, power_r=3e-11)
    for _ in range(40):
        q = rng.uniform(0.0, 3e4)
        h = 1e-4 * (1.0 + abs(q))
        fd = (steady_residual(q + h, preset, d)
              - steady_residual(q - h, preset, d)) / (2.0 * h)
        assert residual_derivative(q, preset, d) == pytest.approx(fd, rel=1e-5)


def test_q_upper_bound_dominates_force(preset, rng):
    # the bound evaluates each Lorentzian at its peak, so no steady state
    # can sit above it: f(q) > 0 for q > bound
    for _ in range(25):
        d = sampling.draw_drive(rng, preset)
        qb = q_upper_bound(preset, d)
        assert qb == oracles.force_bound(preset, d)
        assert steady_residual(1.0001 * qb + 1.0, preset, d) > 0.0


def test_polynomial_assembly_degree_and_lead(preset):
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    sp = assemble_fixed_point_polynomial(preset, d)
    assert sp.poly.degree == 5
    assert sp.q_scale == max(q_upper_bound(preset, d), 1.0)
    lead = sp.poly.coeffs[-1]
    want = (preset.g1 * preset.g2 * sp.q_scale**2 / preset.omega_m**2) ** 2
    assert lead > 0.0
    assert lead == pytest.approx(want, rel=1e-12)


def test_polynomial_degree_reductions(preset):
    base = dict(delta1=preset.omega_m, delta2=0.4 * preset.omega_m,
                power_l=1e-10, power_r=2e-11)
    one_mode = replace_params(preset, g2=0.0)
    d = _drive(one_mode, **base)
    assert assemble_fixed_point_polynomial(one_mode, d).poly.degree == 3
    other = replace_params(preset, g1=0.0)
    d = _drive(other, **base)
    assert assemble_fixed_point_polynomial(other, d).poly.degree == 3
    uncoupled = replace_params(preset, g1=0.0, g2=0.0)
    d = _drive(uncoupled, **base)
    sp = assemble_fixed_point_polynomial(uncoupled, d)
    assert sp.poly.coeffs == (0.0, 1.0)


def test_decoupled_mode_cannot_perturb_coefficients(preset):
    # with g1 = 0 the pump Lorentzian is a constant factor in q and is
    # divided out exactly, so the polynomial and the branches are
    # bit-identical no matter how the pump is driven
    p0 = replace_params(preset, g1=0.0)
    a = _drive(p0, delta1=0.2 * preset.omega_m, delta2=preset.omega_m,
               power_l=1e-6, power_r=4e-11)
    b = _drive(p0, delta1=1.7 * preset.omega_m, delta2=preset.omega_m,
               power_l=1e-15, power_r=4e-11)
    pa = assemble_fixed_point_polynomial(p0, a)
    pb = assemble_fixed_point_polynomial(p0, b)
    assert pa.poly.coeffs == pb.poly.coeffs
    ba = steady_branches(p0, a)
    bb = steady_branches(p0, b)
    assert [x.q_s for x in ba] == [x.q_s for x in bb]
    assert [x.n_p2 for x in ba] == [x.n_p2 for x in bb]


def test_scaled_roots_are_residual_zeros(preset):
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    sp = assemble_fixed_point_polynomial(preset, d)
    from twomode.polyroots import real_roots
    hi = 1.05 * q_upper_bound(preset, d) / sp.q_scale
    qs = [x * sp.q_scale for x, _, _ in real_roots(sp.poly, 0.0, hi)]
    assert len(qs) == 5
    for q in qs:
        assert abs(steady_residual(q, preset, d)) <= 1e-8 * (1.0 + abs(q))


def test_frozen_five_root_branches(preset, options):
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    branches = steady_branches(preset, d, options)
    assert len(branches) == 5
    got = [b.q_s for b in branches]
    assert got == sorted(got)
    for g, want in zip(got, FIVE_ROOT_QS):
        assert g == pytest.approx(want, rel=1e-12)
    assert branches[0].n_p1 == pytest.approx(445664.84174492635, rel=1e-12)
    for b in branches:
        assert b.verdict is None
        assert math.isnan(b.max_re_eig)
        assert b.n_p1 == pytest.approx(abs(b.amp1) ** 2, rel=1e-10)
        assert b.delta1_eff == d.delta1 - preset.g1 * b.q_s


def test_branch_invariants_over_random_drives(preset, options, rng):
    for _ in range(60):
        d = sampling.draw_drive(rng, preset)
        branches = steady_branches(preset, d, options)
        assert len(branches) in (1, 2, 3, 4, 5)
        qb = q_upper_bound(preset, d)
        peak1 = preset.kappa_e1 * d.amp_l**2 / preset.kappa1**2
        peak2 = preset.kappa_e2 * d.amp_r**2 / preset.kappa2**2
        last = -math.inf
        for b in branches:
            assert b.q_s > last
            last = b.q_s
            assert 0.0 <= b.q_s <= 1.02 * qb
            defect = abs(steady_residual(b.q_s, preset, d))
            assert defect <= 1e-10 * (1.0 + abs(b.q_s))
            assert 0.0 <= b.n_p1 <= 1.0000001 * peak1
            assert 0.0 <= b.n_p2 <= 1.0000001 * peak2


def test_zero_drive_rest_branch(preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=0.0, power_r=0.0)
    branches = steady_branches(preset, d, options)
    assert len(branches) == 1
    b = branches[0]
    assert b.q_s == 0.0
    assert b.amp1 == 0.0 and b.amp2 == 0.0
    assert b.n_p1 == 0.0 and b.n_p2 == 0.0
    assert b.delta1_eff == d.delta1


def test_minus_sign_convention_flips_root_side(preset):
    # with only the readout coupled, +1 pushes the steady displacement
    # positive and -1 pulls it negative
    p0 = replace_params(preset, g1=0.0)
    d = _drive(p0, delta1=preset.omega_m, delta2=0.5 * preset.omega_m,
               power_l=0.0, power_r=1e-9)
    plus = steady_branches(p0, d, SolverOptions(sign=1))
    minus = steady_branches(p0, d, SolverOptions(sign=-1))
    assert all(b.q_s >= 0.0 for b in plus)
    assert all(b.q_s <= 0.0 for b in minus)
    for b in minus:
        assert abs(oracles.residual_scalar(b.q_s, p0, d, -1)) \
            <= 1e-10 * (1.0 + abs(b.q_s))


def test_strong_drive_rescale_regression(preset, options):
    # at watt-scale pump power the a-priori peak bound is ~1e13 while the
    # single real root sits at ~1.6e6; the solver must still find it
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=0.0101818756476861, power_r=1e-07)
    branches = steady_branches(preset, d, options)
    assert len(branches) == 1
    assert branches[0].q_s == pytest.approx(1618615.4411681662, rel=1e-10)


@given(st.floats(min_value=1e-15, max_value=1e-3))
def test_low_power_linear_response(power):
    # far below bistability the displacement is the perturbative push
    # 2 (g1 n1 + g2 n2) / omega_m evaluated at the bare detunings
    params = preset_hill_params()
    d = DrivePoint.build(params, delta1=params.omega_m, delta2=params.omega_m,
                         power_l=power * 1e-12, power_r=0.0,
                         amp_convention="literal")
    branches = steady_branches(params, d)
    assert len(branches) == 1
    n1, n2, _, _ = photon_numbers_from_q(0.0, params, d)
    push = 2.0 * (params.g1 * n1 + params.g2 * n2) / params.omega_m
    assert branches[0].q_s == pytest.approx(push, rel=1e-3)


# The Newton polish stops once an iterate equals the one before last; it
# must return exactly what oracles.polish_root_full, the loop run to its
# cap, returns.

_POLISH_ROOT = steady._polish_root
_POLISH_ROWS = steady._polish_rows


def _fig3_red():
    """The fig3 red trace: delta1 over [0, 2 omega_m] in 400 samples."""
    params = preset_hill_params()
    drive = _drive(params, delta1=params.omega_m, delta2=params.omega_m,
                   power_l=2e-6, power_r=1e-7)
    return params, drive, np.linspace(0.0, 2.0 * params.omega_m, 400)


def _spy_polish(mp):
    """Record the arguments of every _polish_root and _polish_rows call."""
    calls = {"_polish_root": [], "_polish_rows": []}
    for name, real in (("_polish_root", _POLISH_ROOT),
                       ("_polish_rows", _POLISH_ROWS)):
        mp.setattr(steady, name,
                   lambda *a, real=real, log=calls[name]: log.append(a)
                   or real(*a))
    return calls


def _solve_everywhere(params, drive, axis, values, options):
    """The grid solve, then a scalar solve at every value; a solve that
    raises is skipped."""
    with contextlib.suppress(PolynomialError):
        steady_q_grid(params, drive, axis, values, options)
    for v in values.tolist():
        with contextlib.suppress(PolynomialError):
            steady_branches(params, drive.with_value(params, axis, v), options)


def _two_cycles(q, trail) -> bool:
    seq = [q] + trail
    return any(a == b for a, b in zip(seq, seq[2:]))


def _check_polish_root(calls) -> int:
    """Assert each call equals the full loop; count calls that cycle."""
    cycles = 0
    for args in calls:
        trail = []
        want = oracles.polish_root_full(*args, trail=trail)
        assert repr(_POLISH_ROOT(*args)) == repr(want)
        cycles += _two_cycles(args[0], trail)
    return cycles


def _check_polish_rows(calls) -> int:
    """Assert each call equals the full loop entry by entry, bit for bit;
    count entries that cycle."""
    cycles = 0
    for q, lo, hi, params, columns, sign in calls:
        want = np.full(q.shape, np.nan)
        column = {name: np.broadcast_to(getattr(columns, name), (len(q), 1))
                  for name in ("delta1", "delta2", "power_l", "power_r",
                               "amp_l", "amp_r")}
        bounds = [np.broadcast_to(b, q.shape) for b in (lo, hi)]
        for i, j in zip(*np.nonzero(~np.isnan(q))):
            fields = {k: c[i, 0].item() for k, c in column.items()}
            drive = DrivePoint(**fields, amp_convention=columns.amp_convention)
            trail = []
            want[i, j] = oracles.polish_root_full(
                q[i, j].item(), bounds[0][i, j].item(), bounds[1][i, j].item(),
                params, drive, sign, trail=trail)
            cycles += _two_cycles(q[i, j].item(), trail)
        assert _POLISH_ROWS(q, lo, hi, params, columns, sign).tobytes() \
            == want.tobytes()
    return cycles


def test_polish_stops_on_two_cycles_with_the_full_loop_result():
    params, drive, values = _fig3_red()
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_polish(mp)
        _solve_everywhere(params, drive, "delta1", values, SolverOptions())
    assert len(calls["_polish_root"]) == 400
    assert _check_polish_root(calls["_polish_root"]) >= 20
    assert _check_polish_rows(calls["_polish_rows"]) >= 20


def test_polish_rows_stop_before_the_iteration_cap(monkeypatch):
    # the fig3 red grid has entries in an exact 2-cycle, which the full
    # loop would iterate to the cap
    params, drive, values = _fig3_red()
    ranks = []
    real = steady._residual_pair

    def counted(*args):
        residual = real(*args)

        def evaluate(x):
            ranks.append(np.ndim(x))
            return residual(x)
        return evaluate

    monkeypatch.setattr(steady, "_residual_pair", counted)
    steady_q_grid(params, drive, "delta1", values, SolverOptions())
    # the rows evaluate f and f' once at the start and once per step
    assert 0 < ranks.count(2) - 1 < _POLISH_MAX_ITER


@given(regime=st.sampled_from(REGIMES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_polish_equals_full_loop_on_grid_cases(regime, seed):
    params, drive, axis, values, options = _case(regime, seed)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_polish(mp)
        _solve_everywhere(params, drive, axis, values, options)
    _check_polish_root(calls["_polish_root"])
    _check_polish_rows(calls["_polish_rows"])
