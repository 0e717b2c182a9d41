"""Linearization, eigenvalue verdicts, and their checks against the
closed-form characteristic polynomial and against trajectories that SciPy's
DOP853 integrates on the oracle's right-hand side."""

import math
import random

import numpy as np
import pytest

import oracles
import sampling
from twomode import stability
from twomode.errors import ClassificationError
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.polyroots import all_roots_rows
from twomode.stability import (_ordering_diagnostics, branch_eigenvalues,
                               branch_state, classify_branches,
                               classify_stability, jacobian, ordering_rule,
                               solve_and_classify)
from twomode.steady import SolverOptions, Verdict, steady_branches

from test_steady import FIVE_ROOT_DRIVE, _drive


def _state_scale(branch, params):
    a = max(abs(branch.amp1), abs(branch.amp2), 1.0)
    q = max(abs(branch.q_s), 1.0)
    return np.array([a, a, a, a, q, params.omega_m * q])


def test_branch_state_layout(preset):
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-12, power_r=1e-12)
    b = steady_branches(preset, d)[0]
    s = branch_state(b)
    assert s.shape == (6,)
    assert s[0] == b.amp1.real and s[1] == b.amp1.imag
    assert s[2] == b.amp2.real and s[3] == b.amp2.imag
    assert s[4] == b.q_s and s[5] == 0.0


def test_vector_field_vanishes_at_branches(preset, options, rng):
    for _ in range(20):
        d = sampling.draw_drive(rng, preset)
        for b in steady_branches(preset, d, options):
            f = oracles.rhs_reference(branch_state(b), preset, d)
            scale = _state_scale(b, preset)
            rates = np.array([preset.kappa1, preset.kappa1, preset.kappa2,
                              preset.kappa2, preset.omega_m, preset.omega_m])
            assert np.all(np.abs(f) <= 1e-9 * rates * scale)


def test_jacobian_matches_finite_differences(preset, rng):
    d = _drive(preset, delta1=0.8 * preset.omega_m, delta2=1.2 * preset.omega_m,
               power_l=4e-11, power_r=7e-12)
    for _ in range(100):
        state = np.array([rng.uniform(-6e4, 6e4), rng.uniform(-6e4, 6e4),
                          rng.uniform(-2e4, 2e4), rng.uniform(-2e4, 2e4),
                          rng.uniform(-2e4, 2e4), rng.uniform(-1e14, 1e14)])
        got = jacobian(state, preset, d)
        want = oracles.fd_jacobian(state, preset, d)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))


def test_characteristic_rows_exact_small_case():
    coeffs = stability._characteristic_rows(np.diag([1.0, 2.0, 3.0])[None])
    assert coeffs.tolist() == [[-6.0, 11.0, -6.0, 1.0]]


def test_eigenvalues_match_dense_solver(preset, options):
    # package route is characteristic polynomial + own root finder; the
    # dense LAPACK eigensolver is the independent cross-check
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    for b in steady_branches(preset, d, options):
        lam = np.sort_complex(branch_eigenvalues(b, preset, d))
        ref = np.sort_complex(np.linalg.eigvals(
            jacobian(branch_state(b), preset, d)))
        assert lam.shape == (6,)
        assert np.max(np.abs(lam - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_eigenvalues_conjugate_closed(preset, options, rng):
    for _ in range(15):
        d = sampling.draw_drive(rng, preset)
        for b in steady_branches(preset, d, options):
            lam = branch_eigenvalues(b, preset, d)
            conj = np.sort_complex(np.conj(lam))
            assert np.max(np.abs(np.sort_complex(lam) - conj)) \
                <= 1e-7 * np.max(np.abs(lam))


def test_undriven_rest_spectrum(preset, options):
    d = _drive(preset, delta1=0.7 * preset.omega_m,
               delta2=1.3 * preset.omega_m, power_l=0.0, power_r=0.0)
    classified, diags = solve_and_classify(preset, d, options)
    assert diags == ()
    b = classified[0]
    assert b.verdict is Verdict.STABLE
    # slowest decay is the bare mechanical linewidth
    assert b.max_re_eig == pytest.approx(-preset.gamma_m / 2.0, rel=1e-8)
    lam = np.sort_complex(branch_eigenvalues(b, preset, d))
    ref = np.sort_complex(np.array(oracles.decoupled_eigenvalues(preset, d)))
    assert np.max(np.abs(lam - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_weak_drive_sideband_cooling(preset, options):
    # both pumps one mechanical frequency red of resonance: radiation
    # pressure adds damping, so the decay rate grows far past gamma_m/2
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-13, power_r=1e-13)
    classified, diags = solve_and_classify(preset, d, options)
    assert diags == ()
    assert len(classified) == 1
    b = classified[0]
    assert b.verdict is Verdict.STABLE
    assert b.max_re_eig == pytest.approx(-124271332.46085185, rel=1e-8)
    assert -oracles.kappa_max(preset) <= b.max_re_eig < -100.0 * preset.gamma_m


def test_self_oscillation_flagged_against_ordering_rule(preset, options):
    # stronger drive at the same detunings lands past the mechanical
    # lasing threshold: a single branch, but anti-damped; the folk rule
    # calls any single branch stable so a diagnostic is reported
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-9, power_r=1e-9)
    classified, diags = solve_and_classify(preset, d, options)
    assert len(classified) == 1
    assert classified[0].verdict is Verdict.UNSTABLE
    assert classified[0].max_re_eig > 0.0
    assert len(diags) == 1
    assert diags[0].kind == "ordering_rule"
    assert diags[0].values == (d.delta1, d.delta2, d.power_l, d.power_r,
                               (Verdict.UNSTABLE,))
    assert str(diags[0]) == (
        "ordering-rule disagreement at drive "
        f"(delta1={d.delta1!r}, delta2={d.delta2!r}, power_l=1e-09, "
        "power_r=1e-09): eigenvalues say ('UNSTABLE',), rule says "
        "('STABLE',)")


def test_ordering_rule_shape():
    s, u = Verdict.STABLE, Verdict.UNSTABLE
    assert ordering_rule(1) == (s,)
    assert ordering_rule(3) == (s, u, s)
    assert ordering_rule(5) == (s, u, s, u, s)


def test_five_root_verdicts_frozen(preset, options):
    # the eigenvalues overrule the alternation rule on the deep branches
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    classified, diags = solve_and_classify(preset, d, options)
    names = tuple(b.verdict.name[0] for b in classified)
    assert names == ("S", "U", "U", "U", "U")
    assert len(diags) == 1
    heavy = replace_params(preset, q_m=5.0)
    d5 = _drive(heavy, **FIVE_ROOT_DRIVE)
    classified, diags = solve_and_classify(heavy, d5, options)
    names = tuple(b.verdict.name[0] for b in classified)
    assert names == ("S", "U", "U", "U", "S")
    assert len(diags) == 1


def test_quasistatic_three_roots_alternate(options, rng):
    for _ in range(4):
        params, point, branches, diags = sampling.draw_three_root_point(
            rng, options)
        assert diags == ()
        assert tuple(b.verdict for b in branches) == ordering_rule(3)


def test_marginal_band_classification(preset):
    # a nearly undamped mechanical mode sits inside a wide marginal band
    soft = replace_params(preset, q_m=1e9)
    d = _drive(soft, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=0.0, power_r=0.0)
    wide = SolverOptions(marginal_band=1e-3)
    classified, _ = solve_and_classify(soft, d, wide)
    assert classified[0].verdict is Verdict.MARGINAL
    narrow = SolverOptions(marginal_band=1e-11)
    classified, _ = solve_and_classify(soft, d, narrow)
    assert classified[0].verdict is Verdict.STABLE


def test_classify_preserves_branch_fields(preset, options):
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    raw = steady_branches(preset, d, options)
    classified, _ = classify_branches(raw, preset, d, options)
    for before, after in zip(raw, classified):
        assert after.q_s == before.q_s
        assert after.n_p1 == before.n_p1
        assert after.amp2 == before.amp2
        assert after.verdict is not None
        assert math.isfinite(after.max_re_eig)


def _scalar_classified(branches, params, drive, options):
    """classify_branches through the oracle's per-branch route."""
    classified = tuple(oracles.classify_branch(b, params, drive, options)
                       for b in branches)
    return classified, _ordering_diagnostics(
        tuple(b.verdict for b in classified), drive.delta1, drive.delta2,
        drive.power_l, drive.power_r)


def _classify_cases():
    """(params, drive) at seeded 1-, 3- and 5-branch points, and at points
    with one coupling switched off; the 3-branch ones sit inside a fold
    window under the plus sign."""
    rng = random.Random(20140217)
    options = SolverOptions()
    preset = preset_hill_params()
    cases = [(preset, sampling.draw_drive(rng, preset)) for _ in range(6)]
    cases += [sampling.draw_three_root_point(rng, options)[:2]
              for _ in range(2)]
    cases += [sampling.draw_five_root_point(rng, options) for _ in range(3)]
    no_g2 = replace_params(preset, g2=0.0)
    no_g1 = replace_params(preset, g1=0.0)
    wide = 2.0 * math.sqrt(3.0)
    cases += [
        (no_g2, DrivePoint.build(no_g2, delta1=wide * no_g2.kappa1,
                                 delta2=no_g2.omega_m, power_l=2e-12,
                                 power_r=1e-12)),
        (no_g1, DrivePoint.build(no_g1, delta1=no_g1.omega_m,
                                 delta2=wide * no_g1.kappa2, power_l=1e-12,
                                 power_r=1e-11)),
    ]
    cases += [(p, sampling.draw_drive(rng, p)) for p in (no_g1, no_g2)
              for _ in range(2)]
    return cases


def test_classify_branches_equals_scalar_route():
    counts = set()
    for params, drive in _classify_cases():
        for sign in (1, -1):
            options = SolverOptions(sign=sign)
            raw = steady_branches(params, drive, options)
            counts.add((len(raw), params.g1 == 0.0, params.g2 == 0.0))
            want = _scalar_classified(raw, params, drive, options)
            assert classify_branches(raw, params, drive, options) == want
            assert tuple(classify_stability(b, params, drive, options)
                         for b in raw) == want[0]
    assert {(1, False, False), (3, False, False), (5, False, False),
            (3, False, True), (3, True, False)} <= counts


def test_characteristic_rows_match_closed_form():
    # the recurrence over each point's stacked Jacobians against
    # D(lam) = L1 L2 M - 4 g1^2 n1 D1 L2 - s 4 g2^2 n2 D2 L1
    counts = set()
    for params, drive in _classify_cases():
        for sign in (1, -1):
            raw = steady_branches(params, drive, SolverOptions(sign=sign))
            counts.add(len(raw))
            states = np.array([branch_state(b) for b in raw])
            rows = stability._characteristic_rows(stability._scaled_jacobians(
                states, params, drive.delta1, drive.delta2, sign))
            for b, row in zip(raw, rows):
                want = oracles.characteristic_closed_form(b, params, drive,
                                                          sign)
                assert (np.max(np.abs(row - want))
                        <= 1e-7 * np.max(np.abs(want))), (drive, sign, b.q_s)
    assert {1, 3, 5} <= counts


def _reject_rows(monkeypatch, rejected):
    """Make the stacked root audit reject rows ``rejected`` of every
    stack, with NaN for their companion roots."""

    def audit(coeffs):
        roots, ok = all_roots_rows(coeffs)
        roots[rejected], ok[rejected] = np.nan, False
        return roots, ok

    monkeypatch.setattr(stability, "all_roots_rows", audit)


def test_rejected_rows_take_their_jacobian_eigenvalues(monkeypatch):
    # the rows the audit rejects get np.linalg.eigvals of their own scaled
    # Jacobians, the others keep their companion roots; the verdicts stay
    params, drive = sampling.draw_five_root_point(random.Random(3),
                                                  SolverOptions())
    options = SolverOptions()
    raw = steady_branches(params, drive, options)
    assert len(raw) == 5
    states = np.array([branch_state(b) for b in raw])
    args = (states, params, drive.delta1, drive.delta2, options.sign)
    unforced_roots = stability._eigenvalue_rows(*args)
    unforced = classify_branches(raw, params, drive, options)
    rejected, kept = [1, 3], [0, 2, 4]
    _reject_rows(monkeypatch, rejected)
    roots = stability._eigenvalue_rows(*args)
    jac = stability._scaled_jacobians(*args)
    assert np.array_equal(roots[rejected], np.linalg.eigvals(jac[rejected]))
    assert np.array_equal(roots[kept], unforced_roots[kept])
    classified, diagnostics = classify_branches(raw, params, drive, options)
    assert diagnostics == unforced[1]
    for got, want in zip(classified, unforced[0]):
        assert got.verdict is want.verdict
        assert abs(got.max_re_eig - want.max_re_eig) <= 1e-10 * params.omega_m


@pytest.mark.parametrize("route", ["point", "grid"])
def test_zero_constant_term_row_stays_in_the_stack(preset, options,
                                                   monkeypatch, route):
    # a zero constant term is an exact zero root of the companion matrix:
    # the row passes the audit and keeps its companion roots, it does not
    # take its Jacobian's eigenvalues
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    raw = steady_branches(preset, d, options)
    rows = stability._characteristic_rows

    def zero_root_in_stack(m):
        coeffs = rows(m)
        coeffs[2, 0] = 0.0
        return coeffs

    monkeypatch.setattr(stability, "_characteristic_rows", zero_root_in_stack)
    states = np.array([branch_state(b) for b in raw])
    args = (states, preset, d.delta1, d.delta2, options.sign)
    roots, ok = all_roots_rows(zero_root_in_stack(
        stability._scaled_jacobians(*args)))
    assert ok.all()
    assert np.array_equal(stability._eigenvalue_rows(*args), roots)
    if route == "point":
        got, _ = classify_branches(raw, preset, d, options)
    else:
        ((got, _),) = stability.solve_and_classify_grid(
            preset, d, "power_l", [d.power_l], options)
    assert [b.max_re_eig for b in got] \
        == (roots.real * preset.omega_m).max(axis=1).tolist()


def test_non_finite_jacobian_row_raises_classification_error(preset, options,
                                                             monkeypatch):
    # the audit rejects the row, and the eigenvalue call on its Jacobian
    # fails
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    raw = steady_branches(preset, d, options)
    jacobians = stability._scaled_jacobians

    def nan_in_row_2(*args):
        jac = jacobians(*args)
        jac[2, 5, 4] = np.nan
        return jac

    monkeypatch.setattr(stability, "_scaled_jacobians", nan_in_row_2)
    with pytest.raises(ClassificationError,
                       match="^Jacobian eigenvalue iteration failed: ") as info:
        classify_branches(raw, preset, d, options)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_classify_branches_of_nothing(preset):
    d = _drive(preset, delta1=0.0, delta2=0.0, power_l=0.0, power_r=0.0)
    assert classify_branches((), preset, d) == ((), ())


def test_five_branch_point_is_classified_in_one_stack(preset, options,
                                                      monkeypatch):
    calls = []
    rows = stability._characteristic_rows
    monkeypatch.setattr(stability, "_characteristic_rows",
                        lambda m: calls.append(m.shape) or rows(m))
    d = _drive(preset, **FIVE_ROOT_DRIVE)
    classified, _ = solve_and_classify(preset, d, options)
    assert len(classified) == 5
    assert calls == [(5, 6, 6)]


def test_integrator_against_closed_form(preset):
    # uncoupled undriven system: every block has an exact solution
    p0 = replace_params(preset, g1=0.0, g2=0.0)
    d = _drive(p0, delta1=0.3 * p0.omega_m, delta2=-0.6 * p0.omega_m,
               power_l=0.0, power_r=0.0)
    y0 = np.array([1.0, 0.5, -0.3, 0.8, 2.0, 0.0])
    tf = 3.0 / p0.kappa1
    got = oracles.integrate_final(y0, p0, d, tf, rel_tol=1e-10)
    a1 = (1.0 + 0.5j) * np.exp(-(p0.kappa1 + 1j * d.delta1) * tf)
    a2 = (-0.3 + 0.8j) * np.exp(-(p0.kappa2 + 1j * d.delta2) * tf)
    gm, wm = p0.gamma_m, p0.omega_m
    nu = math.sqrt(wm * wm - gm * gm / 4.0)
    qt = math.exp(-gm * tf / 2.0) * (2.0 * math.cos(nu * tf)
                                     + (gm / nu) * math.sin(nu * tf))
    assert complex(got[0], got[1]) == pytest.approx(a1, rel=1e-8)
    assert complex(got[2], got[3]) == pytest.approx(a2, rel=1e-7)
    assert got[4] == pytest.approx(qt, rel=1e-6)


def test_integrator_relaxes_to_stable_branch(preset, options):
    # heavily damped device so every eigenvalue is fast; kick the lower
    # stable branch by 0.1 percent and watch it pull back
    heavy = replace_params(preset, q_m=5.0)
    d = _drive(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
               delta2=heavy.omega_m, power_l=2e-12, power_r=0.0)
    classified, diags = solve_and_classify(heavy, d, options)
    assert diags == ()
    assert tuple(b.verdict for b in classified) == ordering_rule(3)
    b = classified[0]
    y = branch_state(b)
    kicked = y.copy()
    kicked[:5] *= 1.001
    final = oracles.integrate_final(kicked, heavy, d, 30.0 / abs(b.max_re_eig),
                                    rel_tol=1e-9)
    err = np.abs(final - y) / _state_scale(b, heavy)
    assert np.max(err) <= 1e-5


def test_integrator_departs_unstable_branch(preset, options):
    heavy = replace_params(preset, q_m=5.0)
    d = _drive(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
               delta2=heavy.omega_m, power_l=2e-12, power_r=0.0)
    classified, _ = solve_and_classify(heavy, d, options)
    middle = classified[1]
    assert middle.verdict is Verdict.UNSTABLE
    y = branch_state(middle)
    w, v = np.linalg.eig(jacobian(y, heavy, d))
    i = int(np.argmax(w.real))
    direction = np.real(v[:, i])
    direction /= np.max(np.abs(direction))
    kicked = y + 1e-6 * max(abs(x) for x in y) * direction
    d_init = np.linalg.norm(kicked - y)
    final = oracles.integrate_final(kicked, heavy, d, 10.0 / w.real[i],
                                    rel_tol=1e-9)
    d_final = np.linalg.norm(final - y)
    assert d_final >= 100.0 * d_init
