"""Release acceptance checks, one test per criterion.

Each test covers one end-to-end guarantee of the package: oracle
equivalence of the static solver, integration-confirmed stability
verdicts, exact decoupling, detuning-side photon ordering, hysteresis
consistency, the single-cavity limit, the convention-sensitivity fold
study, and the sub-unity-photon bistable configuration.  Every
criterion's test prints a single PASS line with the measured margins, and
wall-clock budgets are asserted where the criterion fixes one.  AC1 also
has near-fold audits against the exact oracle, and two mutant checks that
show its comparisons fail on a dropped root and on roots taken without
a sign change.
"""

import collections
import math
import random
import time

import numpy as np
import pytest

import oracles
import sampling
from twomode import polyroots, steady
from twomode.continuation import (SweepSpec, _folds, hysteresis_sweep,
                                  locate_folds, sweep_1d)
from twomode.params import (POWER_AXES, DrivePoint, preset_hill_params,
                            replace_params)
from twomode.stability import branch_state, solve_and_classify
from twomode.steady import SolverOptions, Verdict, steady_branches
from twomode.studies import fold_power_study, subunity_search

from test_continuation import LOOP_FOLDS

N_ORACLE_SAMPLES = 200
N_FIVE_ROOT_SAMPLES = 40
N_NEAR_FOLD_DRAWS = 30
NEAR_FOLD_OFFSETS = (1e-11, 1e-9, 1e-7, 1e-5)
N_ODE_SAMPLES = 30


def _state_scale(branch, params):
    a = max(abs(branch.amp1), abs(branch.amp2), 1.0)
    q = max(abs(branch.q_s), 1.0)
    return np.array([a, a, a, a, q, params.omega_m * q])


def _draw_system(rng, preset):
    # randomized device around the preset: couplings over a decade,
    # mechanical quality factor from heavily damped to the preset value
    g1 = preset.g1 * 10.0 ** rng.uniform(-0.5, 0.5)
    g2 = preset.g2 * 10.0 ** rng.uniform(-0.5, 0.5)
    q_m = 10.0 ** rng.uniform(math.log10(2.0), math.log10(preset.q_m))
    return replace_params(preset, g1=g1, g2=g2, q_m=q_m)


def _solve_q(params, drive, options):
    return [b.q_s for b in steady.steady_branches(params, drive, options)]


def _assert_exact_roots(params, drive, sign, roots):
    """The exact oracle has len(roots) distinct real roots, and its k-th
    lies within 1e-6 (1 + |q|) of roots[k]: k roots up to the bottom of
    that window and k + 1 up to its top."""
    seq = oracles.sturm_sequence(oracles.fixed_point_quintic(params, drive,
                                                             sign))
    count = oracles.sturm_count(seq)
    assert count == len(roots), (
        f"exact count {count}, solver roots {roots} at {drive!r}")
    for k, q in enumerate(roots):
        tol = 1e-6 * (1.0 + abs(q))
        window = (oracles.sturm_count(seq, hi=q - tol),
                  oracles.sturm_count(seq, hi=q + tol))
        assert window == (k, k + 1), (
            f"exact roots up to root {k}'s window ends: {window}, solver "
            f"roots {roots} at {drive!r}")


@pytest.fixture(scope="module")
def oracle_batch(preset, options):
    """Randomized parameter/drive samples and their solved roots.

    No draw is redrawn: the exact oracle resolves root pairs at any
    separation, near-fold draws included.
    """
    rng = random.Random(0x5EED)
    t0 = time.time()
    batch = []
    for _ in range(N_ORACLE_SAMPLES):
        params = _draw_system(rng, preset)
        drive = sampling.draw_drive(rng, params)
        batch.append((params, drive, _solve_q(params, drive, options)))
    return batch, time.time() - t0


def test_ac1_static_solver_matches_grid_oracle(oracle_batch, options):
    batch, elapsed = oracle_batch
    t0 = time.time()
    for params, drive, roots in batch:
        _assert_exact_roots(params, drive, options.sign, roots)
    elapsed += time.time() - t0
    assert elapsed < 60.0
    counts = collections.Counter(len(roots) for _, _, roots in batch)
    print(f"AC1 PASS: {len(batch)} samples match the exact Sturm count 1:1, "
          f"each root within 1e-6 of its own ({dict(sorted(counts.items()))} "
          f"branches, {elapsed:.1f}s)")


def _check_five_root_set(options):
    rng = random.Random(0xAC15)
    for _ in range(N_FIVE_ROOT_SAMPLES):
        params, drive = sampling.draw_five_root_point(rng, options)
        roots = _solve_q(params, drive, options)
        _assert_exact_roots(params, drive, options.sign, roots)
        assert len(roots) == 5, (drive, roots)


def test_ac1_five_root_set_matches_grid_oracle(options):
    # the random batch above draws no five-root point, so the regime where
    # both modes are bistable gets its own seeded set
    _check_five_root_set(options)
    print(f"AC1 PASS: {N_FIVE_ROOT_SAMPLES} five-root samples match the "
          f"exact Sturm count 1:1, each root within 1e-6 of its own")


def _near_fold_drives():
    """Seeded (params, drive) draws in turn: the preset device, a mild-Q
    device and a five-root drive."""
    rng = random.Random(0x4EA2)
    preset = preset_hill_params()
    drives = []
    for _ in range(N_NEAR_FOLD_DRAWS):
        drives.append((preset, sampling.draw_drive(rng, preset)))
        mild = sampling.draw_mild_system(rng)
        drives.append((mild, sampling.draw_drive(rng, mild)))
        drives.append(sampling.draw_five_root_point(rng, SolverOptions()))
    return drives


def _assert_near_fold_counts(sign, drives, known=()):
    """Probe every exact power fold of every drive on both power axes at
    fold (1 -+ offset); the probes where the branch count of
    steady_branches differs from the exact count must be ``known``, each
    (draw, axis, signed offset, solver count, exact count).  Every
    reported root must lie within 1e-6 (1 + |q|) of an exact root."""
    options = SolverOptions(sign=sign)
    offsets = sorted(s * o for s in (-1, 1) for o in NEAR_FOLD_OFFSETS)
    mismatches, far = [], []
    probes = 0
    for k, (params, drive) in enumerate(drives):
        for axis in POWER_AXES:
            for fold, _, _ in _folds(params, drive, axis, 0.0, 1.0, options):
                for offset in offsets:
                    point = drive.with_value(params, axis,
                                             fold * (1.0 + offset))
                    roots = _solve_q(params, point, options)
                    seq = oracles.sturm_sequence(
                        oracles.fixed_point_quintic(params, point, sign))
                    want = oracles.sturm_count(seq)
                    probes += 1
                    if len(roots) != want:
                        mismatches.append((k, axis, offset, len(roots), want))
                    for q in roots:
                        tol = 1e-6 * (1.0 + abs(q))
                        if oracles.sturm_count(seq, q - tol, q + tol) < 1:
                            far.append((k, axis, offset, q))
    assert mismatches == list(known), (
        f"{len(mismatches)} of {probes} near-fold probes disagree with the "
        f"exact count: {mismatches[:20]}")
    assert not far, (f"{len(far)} near-fold roots have no exact root within "
                     f"1e-6 (1 + |q|): {far[:20]}")
    return probes


# Probes whose count under sign +1 is known to differ from the exact one.
KNOWN_PLUS_SIGN_GHOSTS = ()


def test_ac1_near_fold_counts_match_exact_oracle():
    probes = _assert_near_fold_counts(1, _near_fold_drives(),
                                      KNOWN_PLUS_SIGN_GHOSTS)
    print(f"AC1 PASS: {probes} near-fold probes match the exact count, "
          f"{len(KNOWN_PLUS_SIGN_GHOSTS)} known ghost")


def test_ac1_near_fold_counts_match_exact_oracle_minus_sign():
    probes = _assert_near_fold_counts(-1, _near_fold_drives())
    print(f"AC1 PASS: {probes} near-fold probes under sign -1 match the "
          f"exact count")


# Two points of the benchmark's point cloud with three branches under
# sign -1, where the force terms nearly cancel (at point 637 they are
# about 1.2e13 each and cancel to q = -797), so rounding leaves |f| above
# 1e-6 (1 + |q|) at a root: (g1, g2, q_m) of the device around the preset
# and (delta1, delta2, power_l, power_r) of the drive.
MINUS_SIGN_POOL_POINTS = {
    637: ((11765481.937823577, 2322370.906913836, 118.72093342982947),
          (-6570171763.953151, -30350140256.848507, 0.007546998646377047,
           0.07810669700523619)),
    824: ((3215923.5804180815, 6045765.0626631165, 5165.928198765406),
          (395511667.38598204, -15781659401.709372, 0.02072004380851844,
           0.0032649096632706297)),
}


@pytest.mark.parametrize("index", sorted(MINUS_SIGN_POOL_POINTS))
def test_ac1_minus_sign_pool_point_solves_to_its_exact_count(index):
    (g1, g2, q_m), (delta1, delta2, power_l, power_r) = (
        MINUS_SIGN_POOL_POINTS[index])
    params = replace_params(preset_hill_params(), g1=g1, g2=g2, q_m=q_m)
    drive = DrivePoint.build(params, delta1=delta1, delta2=delta2,
                             power_l=power_l, power_r=power_r)
    options = SolverOptions(sign=-1)
    roots = _solve_q(params, drive, options)
    _assert_exact_roots(params, drive, -1, roots)
    assert len(roots) == 3
    branches, _ = solve_and_classify(params, drive, options)
    assert [b.q_s for b in branches] == roots


def test_exact_oracle_fails_a_dropped_root(options, monkeypatch):
    solve = steady.steady_branches
    monkeypatch.setattr(steady, "steady_branches",
                        lambda *args: solve(*args)[:-1])
    with pytest.raises(AssertionError, match="exact count 5, solver roots"):
        _check_five_root_set(options)


def _no_sign_test(p, lo, hi):
    """real_roots without its sign test: every eigenvalue inside (lo, hi)
    within 1e-7 (1 + |Re|) of the real axis is a root, with its bracket.
    Every strictly real eigenvalue at the audited offsets has a sign
    change, so the mutant must also let nearly real pairs in to show."""
    xs = sorted(z.real for z in polyroots.companion_roots(p.coeffs).tolist()
                if lo < z.real < hi and abs(z.imag) <= 1e-7 * (1.0 + abs(z.real)))
    edges = [lo] + [0.5 * (a + b) for a, b in zip(xs, xs[1:])] + [hi]
    return list(zip(xs, edges, edges[1:]))


def test_exact_oracle_fails_roots_without_a_sign_change(monkeypatch):
    drives = _near_fold_drives()[:6]
    _assert_near_fold_counts(1, drives)
    monkeypatch.setattr(steady, "real_roots", _no_sign_test)
    with pytest.raises(AssertionError, match="near-fold probes disagree"):
        _assert_near_fold_counts(1, drives)


def test_ac2_branch_structure_and_ode_verdicts(oracle_batch, options):
    batch, _ = oracle_batch
    t0 = time.time()
    counts = {}
    for _, _, roots in batch:
        assert len(roots) in (1, 3, 5), roots
        counts[len(roots)] = counts.get(len(roots), 0) + 1

    # quasi-static three-root points: verdicts must read stable /
    # unstable / stable and every verdict must survive direct
    # integration of the full six-dimensional dynamics
    rng = random.Random(0xAC2)
    worst_return = 0.0
    worst_landing = 0.0
    for _ in range(N_ODE_SAMPLES):
        params, point, branches, diags = sampling.draw_three_root_point(
            rng, options)
        assert [b.verdict for b in branches] == [
            Verdict.STABLE, Verdict.UNSTABLE, Verdict.STABLE]
        assert diags == ()
        stable = (branches[0], branches[2])
        for b in stable:
            scale = _state_scale(b, params)
            horizon = 30.0 / abs(b.max_re_eig)
            for kick in (1.001, 0.999):
                final = oracles.integrate_final(branch_state(b) * kick, params,
                                                point, horizon, rel_tol=1e-10)
                err = np.max(np.abs(final - branch_state(b)) / scale)
                worst_return = max(worst_return, err)
                assert err < 1e-4, (point, b.q_s, err)
        mid = branches[1]
        evals, evecs = np.linalg.eig(
            oracles.jacobian(branch_state(mid), params, point))
        lead = int(np.argmax(evals.real))
        v = np.real(evecs[:, lead])
        v = v / np.max(np.abs(v) / _state_scale(mid, params))
        settle = min(abs(b.max_re_eig) for b in stable)
        horizon = 20.0 / evals[lead].real + 40.0 / settle
        for s in (1.0, -1.0):
            final = oracles.integrate_final(branch_state(mid) + s * 1e-4 * v,
                                            params, point, horizon,
                                            rel_tol=1e-10)
            dists = [np.max(np.abs(final - branch_state(b))
                            / _state_scale(b, params)) for b in stable]
            off = np.max(np.abs(final - branch_state(mid))
                         / _state_scale(mid, params))
            assert off > 1e-2, (point, off)
            worst_landing = max(worst_landing, min(dists))
            assert min(dists) < 1e-4, (point, dists)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"AC2 PASS: root counts {counts} all in {{1,3,5}}; "
          f"{N_ODE_SAMPLES} three-root points verified by integration "
          f"(worst return {worst_return:.1e}, worst landing "
          f"{worst_landing:.1e}, {elapsed:.1f}s)")


def test_ac3_uncoupled_readout_is_exactly_flat(preset, options):
    quiet = replace_params(preset, g1=0.0)
    base = DrivePoint.build(quiet, delta1=0.0, delta2=quiet.omega_m,
                            power_l=1e-7, power_r=1e-9,
                            amp_convention="literal")
    spec = SweepSpec(axis="delta1", start=0.0, stop=2.0 * quiet.omega_m,
                     drive=base, points=400)
    t0 = time.time()
    result = sweep_1d(quiet, spec, options)
    elapsed = time.time() - t0
    assert len(result.records) == 400
    assert result.folds == ()
    n2 = {b.n_p2 for _, branches in result.records for b in branches}
    qs = {b.q_s for _, branches in result.records for b in branches}
    assert len(n2) == 1 and len(qs) == 1   # bit-identical across the sweep
    assert elapsed < 1.0
    print(f"AC3 PASS: pump-detuning sweep with the pump decoupled leaves "
          f"the readout bit-identical at all 400 points ({elapsed:.2f}s)")


def test_ac4_readout_photon_ordering_by_detuning_side(preset, options):
    quiet = replace_params(preset, g1=0.0)
    wm = preset.omega_m
    power = 1e-13    # perturbative: single branch along the whole sweep
    t0 = time.time()
    margins_hi = []
    margins_lo = []
    for d1 in np.linspace(0.0, 2.0 * wm, 400):
        row = []
        for params, d2 in ((preset, wm), (quiet, wm), (preset, -wm)):
            point = DrivePoint.build(params, delta1=d1, delta2=d2,
                                     power_l=power, power_r=power,
                                     amp_convention="literal")
            branches = steady_branches(params, point, options)
            assert len(branches) == 1
            row.append(branches[0])
        high, base, low = row
        assert all(b.q_s > 0.0 for b in (high, low))
        # strict ordering point by point: red-side readout above the
        # decoupled baseline, blue-side readout below it
        assert high.n_p2 > base.n_p2 > low.n_p2, d1
        margins_hi.append((high.n_p2 - base.n_p2) / base.n_p2)
        margins_lo.append((base.n_p2 - low.n_p2) / base.n_p2)
    elapsed = time.time() - t0
    assert elapsed < 2.0
    print(f"AC4 PASS: strict readout ordering at 400/400 points "
          f"(min margins {min(margins_hi):.1e} above, "
          f"{min(margins_lo):.1e} below, {elapsed:.2f}s)")


def test_ac5_hysteresis_loop_consistency(preset, options):
    heavy = replace_params(preset, q_m=5.0)
    d = DrivePoint.build(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
                         delta2=heavy.omega_m, power_l=1e-12, power_r=0.0,
                         amp_convention="literal")
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=d, points=200,
                     direction="both")
    t0 = time.time()
    res = hysteresis_sweep(heavy, spec, options)
    loop_elapsed = time.time() - t0
    up = dict(res.hysteresis.up.points)
    down = dict(res.hysteresis.down.points)
    assert res.hysteresis.up.jumps and res.hysteresis.down.jumps
    jump_up = res.hysteresis.up.jumps[0]
    jump_down = res.hysteresis.down.jumps[0]
    assert jump_up >= jump_down
    lo, hi = res.folds
    outside = 0
    for v in up:
        if v < 0.98 * lo or v > 1.02 * hi:
            outside += 1
            for field in ("q_s", "n_p1", "n_p2"):
                a, b = getattr(up[v], field), getattr(down[v], field)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (v, field)
    assert outside > 50

    # control: no coupling, no loop
    p0 = replace_params(heavy, g1=0.0, g2=0.0)
    d0 = DrivePoint.build(p0, delta1=heavy.omega_m, delta2=heavy.omega_m,
                          power_l=1e-12, power_r=1e-12,
                          amp_convention="literal")
    spec0 = SweepSpec(axis="power_l", start=1e-13, stop=1e-11, drive=d0,
                      points=60, direction="both")
    t0 = time.time()
    res0 = hysteresis_sweep(p0, spec0, options)
    control_elapsed = time.time() - t0
    assert res0.folds == ()
    assert res0.hysteresis.up.jumps == ()
    assert res0.hysteresis.down.jumps == ()
    for v, b in res0.hysteresis.up.points:
        assert dict(res0.hysteresis.down.points)[v].q_s == b.q_s
    assert loop_elapsed < 5.0 and control_elapsed < 5.0
    print(f"AC5 PASS: up-ramp jump {jump_up:.6e} W >= down-ramp jump "
          f"{jump_down:.6e} W; traces coincide at {outside} points outside "
          f"the loop; uncoupled control shows no loop "
          f"({loop_elapsed:.2f}s + {control_elapsed:.2f}s)")


def test_ac6_single_cavity_bistability_asymptotics(preset, options):
    single = replace_params(preset, g2=0.0)
    d_bi = 2.0 * math.sqrt(3.0) * single.kappa1
    d_no = single.kappa1

    def drive_at(delta, power):
        return DrivePoint.build(single, delta1=delta, delta2=single.omega_m,
                                power_l=power, power_r=0.0,
                                amp_convention="literal")

    t0 = time.time()
    folds = locate_folds(single, drive_at(d_bi, 1e-13), "power_l",
                         1e-13, 1e-10, options)
    assert len(folds) == 2
    onset = folds[0]
    mid = math.sqrt(folds[0] * folds[1])
    assert len(steady_branches(single, drive_at(d_bi, mid), options)) == 3
    assert len(steady_branches(single, drive_at(d_bi, 0.5 * onset), options)) == 1

    # independent onset: bisect the sign change of the cubic discriminant
    lo, hi = 1e-13, 1.5 * onset
    assert not oracles.single_cavity_bistable(single, drive_at(d_bi, lo))
    assert oracles.single_cavity_bistable(single, drive_at(d_bi, hi))
    for _ in range(80):
        probe = math.sqrt(lo * hi)
        if oracles.single_cavity_bistable(single, drive_at(d_bi, probe)):
            hi = probe
        else:
            lo = probe
    oracle_onset = math.sqrt(lo * hi)
    rel = abs(onset - oracle_onset) / oracle_onset
    assert rel < 1e-5

    # count/discriminant agreement across the window, and no bistability
    # at the narrow detuning for any power up to ten times the threshold
    for power in np.geomspace(1e-13, 10.0 * onset, 60):
        for delta in (d_bi, d_no):
            drv = drive_at(delta, power)
            n = len(steady_branches(single, drv, options))
            disc = oracles.cubic_discriminant(
                *oracles.single_cavity_cubic(single, drv))
            assert (n == 3) == (disc > 0.0), (delta, power, n, disc)
            if delta == d_no:
                assert n == 1, (power, n)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"AC6 PASS: bistability onsets at {onset:.6e} W at the wide "
          f"detuning (discriminant oracle agrees to {rel:.1e}) and never "
          f"appears at the narrow detuning up to {10.0 * onset:.1e} W "
          f"({elapsed:.2f}s)")


def test_ac7_convention_fold_power_study():
    t0 = time.time()
    report = fold_power_study(points=120)
    elapsed = time.time() - t0
    assert len(report.rows) == 8
    combos = {(r.amp_convention, r.kappa2_interpretation, r.sign_convention)
              for r in report.rows}
    assert len(combos) == 8
    onsets = {}
    for row in report.rows:
        # every search returns a definite answer: either a located fold
        # pair or a definite all-clear note for the whole bracket
        assert isinstance(row.folds, tuple)
        assert row.note
        if len(row.folds) >= 2:
            assert row.structure_ok is True
            onsets[(row.amp_convention, row.kappa2_interpretation,
                    row.sign_convention)] = min(row.folds)
        else:
            assert row.folds == ()
            assert row.structure_ok is None
            assert "never changes" in row.note
    assert onsets    # at least one convention is bistable in the bracket
    text = report.render()
    assert "fold-power study" in text
    assert len([l for l in text.splitlines()
                if l.startswith(("literal", "flux"))]) == 8
    span = (min(onsets.values()), max(onsets.values()))
    print(f"AC7 PASS: 8-convention fold study produced; {len(onsets)} "
          f"bistable combinations, onsets {span[0]:.2e}..{span[1]:.2e} W, "
          f"S-curve structure verified in each ({elapsed:.1f}s)")


def test_ac8_subunity_bistable_configuration():
    t0 = time.time()
    report = subunity_search()
    elapsed = time.time() - t0
    assert report.hit is not None
    hit = report.hit
    assert hit.stable_count >= 2
    assert hit.max_n_p2 < 1.0
    assert len(hit.folds) >= 2
    # the logarithmic readout-power scan is recorded: every trial before
    # the hit was too bright
    assert report.trials
    for trial in report.trials[:-1]:
        assert not trial.ok
    assert "hit:" in report.render()
    assert elapsed < 120.0
    print(f"AC8 PASS: {hit.stable_count} stable branches with readout "
          f"occupation {hit.max_n_p2:.3f} < 1 at power_l={hit.power_l:.3e} W, "
          f"power_r={hit.power_r:.3e} W ({elapsed:.1f}s)")
