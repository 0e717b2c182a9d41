"""Dynamical stability of steady-state branches.

The classifier is fully algebraic: the analytic 6x6 Jacobian of the real
first-order system is built in omega_m-scaled units, its characteristic
polynomial is produced by the Faddeev-LeVerrier recurrence, and the
eigenvalues come from one stacked companion eigenvalue call with a
residual audit.  One stacked kernel classifies every branch: all
branches of a point in :func:`classify_branches`, and of a sweep grid
in :func:`solve_and_classify_grid`.  A row its root audit rejects takes the
eigenvalues of its own scaled Jacobian instead, from one more stacked
``np.linalg.eigvals`` call.  A branch is Stable when every eigenvalue
real part sits below ``-eps``, Unstable when one exceeds ``+eps``,
Marginal in between, with ``eps = marginal_band * omega_m``.

Every verdict is checked against the exact saddle rule: det J = L1 L2
df/dq, Lk = (kappa_k^2 + Dk^2) / omega_m^2 with Dk the effective
detuning and f the defect of :func:`steady.steady_residual`, so a branch
with df/dq < 0 has a positive real eigenvalue and is never STABLE
(MARGINAL stays legal); at df/dq = 0 the rule says nothing.  An UNSTABLE
branch with df/dq > 0 is self-oscillating.  Diagnostics are typed
:class:`Diagnostic` records that keep the raw values of their note, so
code filters them by ``kind``; the text is built only when ``str()`` is
called.

The package does no time integration.  The test suite checks verdicts
against trajectories of the mean-field equations, integrated by SciPy's
DOP853 on a right-hand side that shares no algebra with this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, ParameterError, SweepError
from .params import DrivePoint, SystemParams
from .polyroots import all_roots_rows
from .steady import (_GRID_BLOCK, _MAX_BRANCHES, SolverOptions, SteadyBranch,
                     Verdict, _residual_pair, _solve_rows,
                     photon_numbers_from_q, steady_branches)

# Scaled-Jacobian entries that are constant rates, and those that are a
# rate times one field quadrature (the Q column and the force row), with
# the state column each takes.
_RATE_ROWS = np.array((0, 1, 2, 3, 4, 5, 5))
_RATE_COLS = np.array((0, 1, 2, 3, 5, 4, 5))
_FIELD_ROWS = np.array((0, 1, 2, 3, 5, 5, 5, 5))
_FIELD_COLS = np.array((4, 4, 4, 4, 0, 1, 2, 3))
_FIELD_OF = np.array((1, 0, 3, 2, 0, 1, 2, 3))


def branch_state(branch: SteadyBranch) -> np.ndarray:
    """Real 6-vector (Re a1, Im a1, Re a2, Im a2, Q, P) of a branch."""
    return np.array([branch.amp1.real, branch.amp1.imag,
                     branch.amp2.real, branch.amp2.imag,
                     branch.q_s, 0.0])


def _scaled_jacobians(states: np.ndarray, params: SystemParams, delta1,
                      delta2, sign: int) -> np.ndarray:
    """Jacobian in units of omega_m, with P likewise scaled, at each row of
    ``states`` (n, 5 or 6), as (n, 6, 6); the detunings are floats or (n,)
    arrays.

    The rad/s Jacobian of the mean-field system, in the layout of
    :func:`branch_state` (P = dQ/dt), is omega_m D J D^-1 with J this
    matrix and D = diag(1, 1, 1, 1, 1, omega_m), so J's eigenvalues are
    exactly its own over omega_m.
    """
    om = params.omega_m
    k1, k2 = params.kappa1 / om, params.kappa2 / om
    g1, g2 = params.g1 / om, params.g2 / om
    q = states[:, 4]
    d1e = delta1 / om - g1 * q
    d2e = delta2 / om - g2 * q
    jac = np.zeros((states.shape[0], 6, 6))
    jac[:, _RATE_ROWS, _RATE_COLS] = (-k1, -k1, -k2, -k2, 1.0, -1.0,
                                      -params.gamma_m / om)
    jac[:, 0, 1], jac[:, 1, 0] = d1e, -d1e
    jac[:, 2, 3], jac[:, 3, 2] = d2e, -d2e
    jac[:, _FIELD_ROWS, _FIELD_COLS] = states[:, _FIELD_OF] * np.array(
        (-g1, g1, -g2, g2, 4.0 * g1, 4.0 * g1, 4.0 * sign * g2,
         4.0 * sign * g2))
    return jac


def _characteristic_rows(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier over a stack (k, n, n): (k, n + 1) ascending
    coefficients of each monic characteristic polynomial."""
    k, n = m.shape[0], m.shape[1]
    coeffs = np.zeros((n + 1, k))
    coeffs[n] = 1.0
    eye = np.eye(n)
    acc = eye
    for j in range(1, n + 1):
        acc = m @ acc
        # accumulate adds strictly left to right, whatever the stack's length
        trace = np.add.accumulate(acc.reshape(k, n * n)[:, ::n + 1],
                                  axis=1)[:, -1]
        ck = trace / -j
        coeffs[n - j] = ck
        acc = acc + ck[:, None, None] * eye
    return coeffs.T


def _eigenvalue_rows(states, params: SystemParams, delta1, delta2,
                     sign: int) -> np.ndarray:
    """Linearization eigenvalues in units of omega_m at each row of
    ``states`` (n, 5 or 6), as (n, 6); the detunings are floats or (n,)
    arrays.

    Faddeev-LeVerrier over the stack of scaled Jacobians, then one stacked
    companion eigenvalue call with the root audit.  The rows the audit
    rejects take the eigenvalues of their own scaled Jacobians, in one
    more stacked call; a failure of that call (a non-finite Jacobian)
    raises ClassificationError.
    """
    jac = _scaled_jacobians(states, params, delta1, delta2, sign)
    roots, ok = all_roots_rows(_characteristic_rows(jac))
    if not ok.all():
        try:
            roots[~ok] = np.linalg.eigvals(jac[~ok])
        except np.linalg.LinAlgError as exc:
            raise ClassificationError(
                f"Jacobian eigenvalue iteration failed: {exc}") from exc
    return roots


def _max_re_rows(states, params: SystemParams, delta1, delta2,
                 sign: int) -> np.ndarray:
    """max Re(eig) [rad/s] at each row of ``states``, see
    :func:`_eigenvalue_rows`."""
    roots = _eigenvalue_rows(states, params, delta1, delta2, sign)
    return (roots.real * params.omega_m).max(axis=1)


def _verdicts(max_re: list, params: SystemParams,
              options: SolverOptions) -> list:
    """Verdict of every max Re(eig) [rad/s] in ``max_re``."""
    eps = options.marginal_band * params.omega_m
    stable, unstable, marginal = (Verdict.STABLE, Verdict.UNSTABLE,
                                  Verdict.MARGINAL)
    return [stable if m < -eps else unstable if m > eps else marginal
            for m in max_re]


def classify_branches(branches, params: SystemParams, drive: DrivePoint,
                      options: SolverOptions = SolverOptions()):
    """Classify every branch; also check each verdict against the saddle rule.

    Returns (classified branches ascending in q_s, the Diagnostic records
    of :func:`_notes` from df/dq on floats); a saddle-rule defect is
    reported, never raised.  All branches go through one stacked
    :func:`_max_re_rows`, the kernel :func:`solve_and_classify_grid` uses.
    """
    branches = tuple(branches)
    states = np.array([branch_state(b) for b in branches]).reshape(-1, 6)
    max_re = _max_re_rows(states, params, drive.delta1, drive.delta2,
                          options.sign).tolist()
    classified = tuple(
        SteadyBranch(b.q_s, b.amp1, b.amp2, b.n_p1, b.n_p2, b.delta1_eff,
                     b.delta2_eff, verdict, m)
        for b, verdict, m in zip(branches, _verdicts(max_re, params, options),
                                 max_re))
    slope = _residual_pair(params, drive, options.sign)
    return classified, _notes(classified, [slope(b.q_s)[1] for b in branches],
                              lambda: drive)


@dataclass(frozen=True)
class Diagnostic:
    """A note a solve or a sweep attaches to its result.

    It keeps the raw values its text needs and builds the text only when
    ``str()`` is called.  ``kind`` is one of:

    - ``"saddle_rule"``: a STABLE branch has df/dq < 0, so a positive real
      eigenvalue; ``values`` is (DrivePoint, q_s);
    - ``"self_oscillation"``: UNSTABLE branches with df/dq > 0; ``values``
      is (branches, drive points), summed over a sweep;
    - ``"ramp_truncated"``: a hysteresis ramp stopped short of a sample
      with no stable branch; ``values`` is (axis, axis value);
    - ``"no_ramp_fits"``: no quasi-static ramp fits inside the window;
      ``values`` is ().
    """

    kind: str
    values: tuple = ()

    def __str__(self) -> str:
        if self.kind == "saddle_rule":
            d, q_s = self.values
            return ("saddle-rule defect at drive "
                    f"(delta1={d.delta1!r}, delta2={d.delta2!r}, "
                    f"power_l={d.power_l!r}, power_r={d.power_r!r}): branch "
                    f"q_s={q_s!r} has df/dq < 0 but is classed STABLE")
        if self.kind == "self_oscillation":
            return ("self-oscillation: {} unstable branches with df/dq > 0 "
                    "over {} drive points".format(*self.values))
        if self.kind == "ramp_truncated":
            return f"ramp truncated: {_no_stable_branch(*self.values)}"
        return ("no quasi-static ramp fits inside the window: every "
                "attempted top hit a sample with no stable branch")


def _no_stable_branch(axis: str, value: float) -> str:
    """Why a quasi-static ramp cannot pass the sample at ``value``."""
    return f"no stable branch at {axis}={value!r}; self-oscillating regime"


def _notes(branches, slopes: list, point) -> tuple:
    """A point's diagnostics from each branch's df/dq: a ``"saddle_rule"``
    record per STABLE branch with df/dq < 0, naming the DrivePoint
    ``point()``, then the count of UNSTABLE ones with df/dq > 0, if any."""
    notes, count = (), 0
    for b, s in zip(branches, slopes):
        count += s > 0.0 and b.verdict is Verdict.UNSTABLE
        if s < 0.0 and b.verdict is Verdict.STABLE:
            notes += (Diagnostic("saddle_rule", (point(), b.q_s)),)
    return notes + ((Diagnostic("self_oscillation", (count, 1)),)
                    if count else ())


def solve_and_classify(params: SystemParams, drive: DrivePoint,
                       options: SolverOptions = SolverOptions()):
    """Steady branches at one drive point, classified; plus diagnostics."""
    branches = steady_branches(params, drive, options)
    return classify_branches(branches, params, drive, options)


def solve_and_classify_grid(params: SystemParams, drive: DrivePoint,
                            axis: str, values,
                            options: SolverOptions = SolverOptions()) -> list:
    """:func:`solve_and_classify` at ``drive.with_value(params, axis, v)``
    for every v, as a list of (branches, diagnostics).

    Every record equals the pointwise one, field for field.  Samples are
    done together, block by block: q_s of every branch from
    :func:`steady._solve_rows`, which rescues its own rows, photon numbers,
    effective detunings and df/dq for all branches at once, then every
    branch through :func:`_max_re_rows`, as in :func:`classify_branches`.
    A block whose steady solve fails is not classified: its first failing
    sample, where the pointwise loop stops, raises a SweepError naming it
    (a ParameterError as it is).  A ClassificationError is raised as it is.
    """
    values = np.asarray(values, dtype=float)
    records = []
    for start in range(0, len(values), _GRID_BLOCK):
        records += _classify_block(params, drive, axis,
                                   values[start:start + _GRID_BLOCK], options)
    return records


def _classify_block(params, drive, axis, values, options):
    q = np.full((len(values), _MAX_BRANCHES), np.nan)
    failed = _solve_rows(params, drive, axis, values, options, q)
    if failed is not None:
        value, exc = float(values[failed[0]]), failed[1]
        if isinstance(exc, ParameterError):
            raise exc
        raise SweepError(f"solve failed at {axis}={value!r}: {exc}",
                         axis_value=value) from exc
    columns, _ = drive.with_values(params, axis, values[:, None])
    n1, n2, d1, d2 = photon_numbers_from_q(q, params, columns)
    slopes = _residual_pair(params, columns, options.sign)(q)[1].tolist()
    rows, cols = np.nonzero(~np.isnan(q))
    delta1, delta2, amp_l, amp_r = (
        np.broadcast_to(getattr(columns, name), q[:, :1].shape).ravel()[rows]
        for name in ("delta1", "delta2", "amp_l", "amp_r"))
    q_s = q[rows, cols].tolist()
    # steady._amplitudes per branch, from floats: Python divides complex
    # numbers as the scalar call does, numpy rounds quotients differently.
    root1, root2 = math.sqrt(params.kappa_e1), math.sqrt(params.kappa_e2)
    amp1 = [root1 * a / (params.kappa1 + 1j * (d - params.g1 * qv))
            for qv, d, a in zip(q_s, delta1.tolist(), amp_l.tolist())]
    amp2 = [root2 * a / (params.kappa2 + 1j * (d - params.g2 * qv))
            for qv, d, a in zip(q_s, delta2.tolist(), amp_r.tolist())]
    a1, a2 = np.array(amp1, dtype=complex), np.array(amp2, dtype=complex)
    states = np.stack([a1.real, a1.imag, a2.real, a2.imag, q[rows, cols]],
                      axis=1)
    max_re = _max_re_rows(states, params, delta1, delta2,
                          options.sign).tolist()
    records = zip(q_s, amp1, amp2,
                  *(a[rows, cols].tolist() for a in (n1, n2, d1, d2)),
                  _verdicts(max_re, params, options), max_re)
    by_sample = [[] for _ in range(len(values))]
    for r, record in zip(rows.tolist(), records):
        by_sample[r].append(SteadyBranch(*record))
    # a row's branches are its leading q columns; zip pairs them with slopes
    return [(tuple(branches),
             _notes(branches, row_slopes,
                    functools.partial(drive.with_value, params, axis, v)))
            for branches, row_slopes, v in zip(by_sample, slopes,
                                               values.tolist())]
