"""Result emission: CSV / JSON-lines records plus a human-readable summary.

Floats are written with repr so every value round-trips bit-exactly
through float().  CSV rows use the fixed header below; JSON-lines rows
carry the same fields as object keys.  Multi-trace results (figure
presets, hysteresis ramps) fan out to one file per trace label.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from os import fspath
from pathlib import Path

from .continuation import SweepResult
from .errors import ParameterError
from .params import POWER_AXES
from .steady import Verdict

CSV_HEADER = "axis,branch,q_s,n_p1,n_p2,delta1_eff,delta2_eff,stable,max_re_eig"
# One CSV line of a branch_row: ints as str, floats as repr.
_CSV_LINE = "%r,%d,%r,%r,%r,%r,%r,%d,%r"
_CSV_CELLS = itemgetter(*CSV_HEADER.split(","))
FORMATS = ("csv", "jsonlines")


def branch_row(axis_value: float, index: int, branch) -> dict:
    if branch.verdict is None:
        raise ParameterError("cannot emit an unclassified branch")
    return {
        "axis": float(axis_value),
        "branch": int(index),
        "q_s": float(branch.q_s),
        "n_p1": float(branch.n_p1),
        "n_p2": float(branch.n_p2),
        "delta1_eff": float(branch.delta1_eff),
        "delta2_eff": float(branch.delta2_eff),
        "stable": int(branch.verdict == Verdict.STABLE),
        "max_re_eig": float(branch.max_re_eig),
    }


def result_rows(result: SweepResult) -> list:
    return [branch_row(value, index, branch)
            for value, branches in result.records
            for index, branch in enumerate(branches)]


def trace_rows(trace) -> list:
    """Rows for one hysteresis ramp; branch column is always 0."""
    return [branch_row(value, 0, branch) for value, branch in trace.points]


def render_csv(rows: list) -> str:
    """CSV text of :func:`branch_row` rows, under :data:`CSV_HEADER`."""
    lines = [CSV_HEADER]
    lines += [_CSV_LINE % _CSV_CELLS(row) for row in rows]
    return "\n".join(lines) + "\n"


def render_jsonlines(rows: list) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def render_rows(rows: list, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "jsonlines":
        return render_jsonlines(rows)
    raise ParameterError(f"unknown output format {fmt!r}, expected {FORMATS}")


def labeled_rows(result: SweepResult) -> dict:
    """Trace label -> rows.  Plain sweeps get the single label 'grid'."""
    out = {"grid": result_rows(result)}
    if result.hysteresis is not None:
        out["up"] = trace_rows(result.hysteresis.up)
        out["down"] = trace_rows(result.hysteresis.down)
    return out


def preset_rows(results_by_label: dict) -> dict:
    """Trace label -> rows of a preset's {label: SweepResult}; hysteresis
    traces become ``<label>_up`` and ``<label>_down``."""
    rows = {}
    for label, result in results_by_label.items():
        for inner, inner_rows in labeled_rows(result).items():
            rows[label if inner == "grid" else f"{label}_{inner}"] = inner_rows
    return rows


def output_path(base, label: str | None):
    base = Path(fspath(base))
    if label is None or label == "grid":
        return base
    return base.with_name(f"{base.stem}__{label}{base.suffix}")


def write_rows(rows_by_label: dict, fmt: str, out=None) -> list:
    """Write each labeled row set; return the paths written.

    With out=None everything goes to stdout, labels separated by a
    `# label <name>` comment line (skipped for a lone 'grid' label).
    """
    if out is None:
        only_grid = set(rows_by_label) == {"grid"}
        for label, rows in rows_by_label.items():
            if not only_grid:
                sys.stdout.write(f"# label {label}\n")
            sys.stdout.write(render_rows(rows, fmt))
        return []
    written = []
    for label, rows in rows_by_label.items():
        path = output_path(out, label)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(render_rows(rows, fmt))
        written.append(path)
    return written


def summarize(result: SweepResult, label: str | None = None) -> str:
    spec = result.spec
    head = f"sweep {spec.axis} in [{spec.start!r}, {spec.stop!r}]"
    if label:
        head = f"[{label}] {head}"
    lines = [head,
             f"  points: {spec.points}  direction: {spec.direction}"]
    if result.folds:
        lines.append("  branch-count changes at: "
                     + ", ".join(repr(v) for v in result.folds))
    else:
        lines.append("  branch-count changes: none")
    hys = result.hysteresis
    if hys is not None:
        for name, trace in (("up", hys.up), ("down", hys.down)):
            if trace.jumps:
                lines.append(f"  {name}-ramp jumps at: "
                             + ", ".join(repr(v) for v in trace.jumps))
            else:
                lines.append(f"  {name}-ramp jumps: none")
        if spec.axis in POWER_AXES and (hys.up.jumps or hys.down.jumps):
            critical = min(hys.up.jumps + hys.down.jumps)
            lines.append(f"  lowest jump power: {critical!r} W")
    if result.diagnostics:
        lines.append(f"  diagnostics: {len(result.diagnostics)}")
        for note in result.diagnostics[:3]:
            lines.append(f"    {note}")
    return "\n".join(lines) + "\n"


def write_summary(results_by_label: dict, out) -> Path:
    """Sidecar `<out stem>.summary.txt` next to the data files."""
    base = Path(fspath(out))
    path = base.with_name(base.stem + ".summary.txt")
    text = "".join(summarize(result, label if len(results_by_label) > 1 else None)
                   for label, result in results_by_label.items())
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
