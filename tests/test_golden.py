"""CLI output files and scalar-only solves compared with recorded ones.

``tests/golden`` holds the CSV and ``.summary.txt`` files of ``preset
fig3 --points 40``, ``preset fig2b --sign minus --points 40`` and the AC5
``both`` loop sweep at 60 points (``golden/loop.conf``), recorded before
the diagnostics became typed records, the Newton polish stopped on exact
2-cycles and CSV lines were formatted in one call.  They pin the note
text, the ``repr`` cells and the polished roots.

``golden/scalar_paths.json`` pins the paths of the root finder that only
the scalar solve takes, recorded before the solve moved to plain-float
polynomials: the grid solvers hand such rows to ``steady_branches``, so
comparing the two cannot pin them.  Its ``steady_branches`` entries are
drives where ``real_roots`` takes a Newton polish step or merges two real
roots (``paths``), each with the ``repr`` of ``steady_branches`` or the
type of the error it raises: the five-branch fold approach of the grid
tests under a tightened polish target or merge distance (``constants``),
and near-fold probes of the AC1 audit under both signs, the known ghost
of draw 71 among them.  No steady drive found takes the complex rescue of
``all_roots``, so its ``roots`` entries are wildly scaled polynomials
that do, with the ``repr`` of ``all_roots`` and ``real_roots``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from twomode import cli, polyroots
from twomode.errors import PolynomialError, SolverError
from twomode.params import DrivePoint, SystemParams
from twomode.polyroots import RealPolynomial, all_roots, real_roots
from twomode.steady import SolverOptions, steady_branches

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig3": ["preset", "fig3", "--points", "40"],
    "fig2b_minus": ["preset", "fig2b", "--sign", "minus", "--points", "40"],
    "loop": ["sweep", "--config", str(GOLDEN / "loop.conf")],
}


@pytest.mark.parametrize("name", CASES)
def test_cli_files_equal_golden_bytes(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(CASES[name] + ["--out", str(tmp_path / f"{name}.csv")])
    assert code == 0
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for file_name in want:
        assert ((tmp_path / file_name).read_bytes()
                == (GOLDEN / name / file_name).read_bytes()), file_name


SCALAR_PATHS = json.loads((GOLDEN / "scalar_paths.json").read_text())


def _outcome(call):
    """``repr`` of ``call()``, or the type name of the error it raises."""
    try:
        return repr(call())
    except (PolynomialError, SolverError) as exc:
        return type(exc).__name__


def test_scalar_only_steady_solves_equal_golden(monkeypatch):
    differ = []
    for row in SCALAR_PATHS["steady_branches"]:
        with monkeypatch.context() as patch:
            for name, value in row["constants"].items():
                patch.setattr(polyroots, name, value)
            got = _outcome(lambda: steady_branches(
                SystemParams(**row["params"]), DrivePoint(**row["drive"]),
                SolverOptions(sign=row["sign"])))
        if got != row["result"]:
            differ.append(row["label"])
    assert not differ


def test_complex_rescue_roots_equal_golden():
    for row in SCALAR_PATHS["roots"]:
        p = RealPolynomial.from_coeffs(row["coeffs"])
        assert _outcome(lambda: all_roots(p).tolist()) == row["all_roots"]
        assert _outcome(lambda: real_roots(p).tolist()) == row["real_roots"]
