"""Output checks, each at its layer's stated tolerance.

Every check returns a list of problem strings; an empty list means the
output is correct.  Reference values are the rows the package produced
when the references were recorded (see ``make_refs.py``); nothing here
compares at bit-equality except the decoupled readout trace, which is
bit-identical by construction (AC3).

Tolerances:

- branch counts match exactly;
- ``q_s``, ``n_p1``, ``n_p2`` and the sweep axis within 1e-12 relative;
- verdicts match and ``max_re_eig`` within 1e-12 * omega_m;
- every branch has |steady residual| <= 1e-6 * (1 + |q|), computed from
  the reported ``q_s``, ``n_p1`` and ``n_p2`` alone;
- ``locate_folds`` folds within 1e-9 relative, and the single-cavity
  onset within 1e-5 of the cubic-discriminant oracle;
- sweep folds and hysteresis jumps within 1e-6 relative.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

ROW_REL = 1e-12
EIG_ABS = 1e-12          # times omega_m
RESIDUAL_REL = 1e-6
FOLD_REL = 1e-9
ONSET_REL = 1e-5
SWEEP_FOLD_REL = 1e-6

HBAR = 1.054571817e-34   # CODATA 2018, as in the package


def close(got: float, ref: float, rel: float) -> bool:
    return abs(got - ref) <= rel * max(abs(got), abs(ref))


def residual(q, n1, n2, g1, g2, omega_m, sign) -> float:
    """Fixed-point defect q - (2/omega_m)(g1 n1 + s g2 n2) of a reported row."""
    return q - (2.0 / omega_m) * (g1 * n1 + sign * g2 * n2)


def check_branches(got, ref, model, where="") -> list:
    """Compare branch rows ``(q_s, n_p1, n_p2, verdict, max_re_eig)``.

    ``model`` is ``(g1, g2, omega_m, sign)`` for the residual check.
    Verdicts are compared as given: the enum value for library results,
    the CSV's 0/1 ``stable`` column for CLI rows.
    """
    g1, g2, omega_m, sign = model
    if len(got) != len(ref):
        return [f"{where}branch count {len(got)} != {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        q, n1, n2, verdict, max_re = g
        for name, a, b in (("q_s", q, r[0]), ("n_p1", n1, r[1]),
                           ("n_p2", n2, r[2])):
            if not close(a, b, ROW_REL):
                problems.append(f"{where}branch {i} {name} {a!r} != {b!r}")
        if verdict != r[3]:
            problems.append(f"{where}branch {i} verdict {verdict!r} != {r[3]!r}")
        if not abs(max_re - r[4]) <= EIG_ABS * omega_m:
            problems.append(f"{where}branch {i} max_re_eig {max_re!r} != {r[4]!r}")
        problems.extend(check_residual([g], model, where))
    return problems


def check_residual(rows, model, where="") -> list:
    g1, g2, omega_m, sign = model
    problems = []
    for q, n1, n2, *_ in rows:
        defect = residual(q, n1, n2, g1, g2, omega_m, sign)
        if not abs(defect) <= RESIDUAL_REL * (1.0 + abs(q)):
            problems.append(f"{where}q_s={q!r} residual {defect!r}")
    return problems


def check_values(got, ref, rel, what) -> list:
    """Same number of values, each within ``rel`` of its reference."""
    got, ref = tuple(got), tuple(ref)
    if len(got) != len(ref):
        return [f"{what}: {len(got)} values {got!r}, expected {len(ref)} {ref!r}"]
    return [f"{what}: {a!r} != {b!r}" for a, b in zip(got, ref)
            if not close(a, b, rel)]


# -- single-cavity discriminant oracle (AC6) ------------------------------

def single_cavity_bistable(params, delta1, power_l) -> bool:
    """Three real roots of the one-mode fixed-point cubic (g2 = 0).

    In x = g1 q / kappa1 the cubic is x^3 - 2(d/k) x^2 + (1 + d^2/k^2) x
    - u with u = 2 g1^2 A / (omega_m kappa1^3), A = kappa_e1 E^2 and the
    literal drive amplitude E^2 = 2 P kappa1 / (hbar (omega1 - delta1)).
    """
    g, kappa = params.g1, params.kappa1
    amp2 = 2.0 * power_l * kappa / (HBAR * (params.omega1 - delta1))
    u = 2.0 * g * g * params.kappa_e1 * amp2 / (params.omega_m * kappa**3)
    a, b, c, d = 1.0, -2.0 * delta1 / kappa, 1.0 + (delta1 / kappa) ** 2, -u
    disc = (18.0 * a * b * c * d - 4.0 * b**3 * d + b**2 * c**2
            - 4.0 * a * c**3 - 27.0 * a**2 * d**2)
    return disc > 0.0


def discriminant_onset(params, delta1, lo, hi) -> float:
    """Lowest bistable pump power in [lo, hi], by log bisection."""
    if single_cavity_bistable(params, delta1, lo) or not \
            single_cavity_bistable(params, delta1, hi):
        raise ValueError("the bracket does not straddle the onset")
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if single_cavity_bistable(params, delta1, mid):
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


# -- CLI output files -----------------------------------------------------

def output_files(base: Path) -> list:
    """Every file a CLI run with ``--out base`` may have written."""
    return sorted(base.parent.glob(base.stem + "*"))


def read_csv(path: Path) -> list:
    """Rows ``(axis, branch, q_s, n_p1, n_p2, stable, max_re_eig)``."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        idx = [header.index(k) for k in ("axis", "branch", "q_s", "n_p1",
                                         "n_p2", "stable", "max_re_eig")]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            a, br, q, n1, n2, st, mre = (cells[i] for i in idx)
            rows.append((float(a), int(br), float(q), float(n1), float(n2),
                         int(st), float(mre)))
    return rows


def read_traces(base: Path) -> dict:
    """CSV files of one CLI run, by trace label ('' for the bare file)."""
    out = {}
    for path in output_files(base):
        if path.suffix != ".csv":
            continue
        label = path.stem[len(base.stem):].removeprefix("__")
        out[label] = read_csv(path)
    return out


_FLOATS = re.compile(r"[-+0-9.eE]+(?:, [-+0-9.eE]+)*$")


def read_summary(path: Path) -> dict:
    """Label -> {"folds": (...), "up": (...), "down": (...)} from a summary."""
    out = {}
    current = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.startswith(" "):
                label = ""
                if line.startswith("["):
                    label = line[1:line.index("]")]
                current = out.setdefault(label, {"folds": (), "up": (),
                                                 "down": ()})
                continue
            text = line.strip()
            for key, prefix in (("folds", "branch-count changes at: "),
                                ("up", "up-ramp jumps at: "),
                                ("down", "down-ramp jumps at: ")):
                if text.startswith(prefix):
                    values = text[len(prefix):]
                    if not _FLOATS.match(values):
                        raise ValueError(f"unreadable summary line {line!r}")
                    current[key] = tuple(float(v) for v in values.split(", "))
    return out


def check_cli_rows(got: dict, ref: dict, model_of) -> list:
    """Compare CSV traces against references, label by label.

    ``model_of(label)`` gives the trace's ``(g1, g2, omega_m, sign)``.
    """
    if sorted(got) != sorted(ref):
        return [f"trace labels {sorted(got)} != {sorted(ref)}"]
    problems = []
    for label, ref_rows in ref.items():
        rows = got[label]
        where = f"[{label}] "
        if len(rows) != len(ref_rows):
            problems.append(f"{where}{len(rows)} rows != {len(ref_rows)}")
            continue
        for row, r in zip(rows, ref_rows):
            if row[1] != r[1] or not close(row[0], r[0], ROW_REL):
                problems.append(f"{where}row key {row[:2]!r} != {tuple(r[:2])!r}")
                break
        problems.extend(check_branches([row[2:] for row in rows],
                                       [r[2:] for r in ref_rows],
                                       model_of(label), where))
    return problems


def check_summary(got: dict, ref: dict) -> list:
    if sorted(got) != sorted(ref):
        return [f"summary labels {sorted(got)} != {sorted(ref)}"]
    problems = []
    for label, entry in ref.items():
        for key in ("folds", "up", "down"):
            problems.extend(check_values(got[label][key], entry[key],
                                         SWEEP_FOLD_REL, f"[{label}] {key}"))
    return problems


def check_flat(rows, where) -> list:
    """AC3: a decoupled readout trace is bit-identical along the sweep."""
    q = {r[2] for r in rows}
    n2 = {r[4] for r in rows}
    if len(q) == 1 and len(n2) == 1:
        return []
    return [f"{where}: decoupled readout not flat "
            f"({len(q)} distinct q_s, {len(n2)} distinct n_p2)"]
