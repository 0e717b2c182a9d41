"""CLI output files and scalar-only solves compared with recorded ones.

``tests/golden`` holds the CSV and ``.summary.txt`` files of ``preset
fig3 --points 40``, ``preset fig2b --sign minus --points 40`` and the AC5
``both`` loop sweep at 60 points (``golden/loop.conf``), recorded before
the diagnostics became typed records, the Newton polish stopped on exact
2-cycles and CSV lines were formatted in one call.  They pin the note
text, the ``repr`` cells and the polished roots.

``golden/scalar_paths.json`` pins steady solves, each with the ``repr``
of ``steady_branches``, and the route of ``real_roots`` it takes
(``paths``): ``sign`` where every root is a real companion eigenvalue
with a sign change across its bracket, ``half`` where a root is found in
a half bracket beside a complex position, which only the scalar solve
takes.  The ``sign`` entries are near-fold probes of the AC1 audit under
both signs, the known ghost of draw 71 among them, recorded when their
roots were polished and merged by tolerances and re-recorded under the
sign rule; the ``half`` entries are the five-branch fold approach of the
grid tests.  Every recorded branch count equals the exact Sturm count.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from twomode import cli
from twomode.params import DrivePoint, SystemParams
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


def test_scalar_only_steady_solves_equal_golden():
    differ = [row["label"] for row in SCALAR_PATHS["steady_branches"]
              if repr(steady_branches(SystemParams(**row["params"]),
                                      DrivePoint(**row["drive"]),
                                      SolverOptions(sign=row["sign"])))
              != row["result"]]
    assert not differ
