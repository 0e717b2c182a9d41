"""CLI output files compared byte for byte with recorded ones.

``tests/golden`` holds the CSV and ``.summary.txt`` files of ``preset
fig3 --points 40``, ``preset fig2b --sign minus --points 40`` and the AC5
``both`` loop sweep at 60 points (``golden/loop.conf``), recorded before
the diagnostics became typed records, the Newton polish stopped on exact
2-cycles and CSV lines were formatted in one call.  They pin the note
text, the ``repr`` cells and the polished roots.
"""

import contextlib
import io
from pathlib import Path

import pytest

from twomode import cli

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
