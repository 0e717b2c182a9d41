"""Row construction, CSV/JSON-lines rendering, file fan-out, summaries."""

import json
import math

import pytest

from twomode.continuation import SweepSpec, hysteresis_sweep, sweep_1d
from twomode.errors import ParameterError
from twomode.io import (CSV_HEADER, branch_row, labeled_rows, output_path,
                        preset_rows, render_csv, render_rows, result_rows,
                        summarize, trace_rows, write_rows, write_summary)
from twomode.params import replace_params
from twomode.stability import solve_and_classify

from test_continuation import LOOP_FOLDS
from test_steady import _drive


@pytest.fixture(scope="module")
def loop_result():
    from twomode.params import preset_hill_params
    from twomode.steady import SolverOptions
    heavy = replace_params(preset_hill_params(), q_m=5.0)
    d = _drive(heavy, delta1=2.0 * math.sqrt(3.0) * heavy.kappa1,
               delta2=heavy.omega_m, power_l=1e-12, power_r=0.0)
    spec = SweepSpec(axis="power_l", start=LOOP_FOLDS[0] / 2.0,
                     stop=LOOP_FOLDS[1] * 1.8, drive=d, points=60,
                     direction="both")
    return hysteresis_sweep(heavy, spec, SolverOptions())


def test_csv_header_exact():
    assert CSV_HEADER == ("axis,branch,q_s,n_p1,n_p2,delta1_eff,delta2_eff,"
                          "stable,max_re_eig")


def test_single_point_csv(preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-13, power_r=0.0)
    classified, _ = solve_and_classify(preset, d, options)
    rows = [branch_row(d.power_l, i, b) for i, b in enumerate(classified)]
    text = render_csv(rows)
    lines = text.splitlines()
    assert len(lines) == 1 + len(classified) == 2
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == 9
    assert float(cells[0]) == 1e-13
    assert cells[1] == "0"
    # repr cells reparse to the exact same float
    assert float(cells[2]) == classified[0].q_s
    assert float(cells[3]) == classified[0].n_p1
    assert float(cells[8]) == classified[0].max_re_eig
    assert cells[7] == "1"
    assert text.endswith("\n")


def test_unclassified_branch_rejected(preset, options):
    from twomode.steady import steady_branches
    d = _drive(preset, delta1=preset.omega_m, delta2=preset.omega_m,
               power_l=1e-13, power_r=0.0)
    raw = steady_branches(preset, d, options)
    with pytest.raises(ParameterError):
        branch_row(1e-13, 0, raw[0])


def test_result_rows_cover_every_branch(loop_result):
    rows = result_rows(loop_result)
    want = sum(len(branches) for _, branches in loop_result.records)
    assert len(rows) == want
    stable_flags = {r["stable"] for r in rows}
    assert stable_flags == {0, 1}
    for r in rows:
        assert set(r) == set(CSV_HEADER.split(","))
        assert r["branch"] >= 0
        assert math.isfinite(r["max_re_eig"])


def test_jsonlines_mirror_csv(loop_result):
    rows = result_rows(loop_result)
    csv_text = render_rows(rows, "csv")
    jl_text = render_rows(rows, "jsonlines")
    csv_lines = csv_text.splitlines()[1:]
    jl_lines = jl_text.splitlines()
    assert len(csv_lines) == len(jl_lines)
    keys = CSV_HEADER.split(",")
    for cline, jline in zip(csv_lines, jl_lines):
        obj = json.loads(jline)
        cells = cline.split(",")
        for key, cell in zip(keys, cells):
            if key in ("branch", "stable"):
                assert obj[key] == int(cell)
            else:
                assert obj[key] == float(cell)
    with pytest.raises(ParameterError):
        render_rows(rows, "tsv")


def test_trace_rows_all_branch_zero(loop_result):
    rows = trace_rows(loop_result.hysteresis.up)
    assert len(rows) == len(loop_result.hysteresis.up.points)
    assert all(r["branch"] == 0 for r in rows)
    assert all(r["stable"] == 1 for r in rows)


def test_labeled_fanout(loop_result, preset, options):
    labels = labeled_rows(loop_result)
    assert set(labels) == {"grid", "up", "down"}
    d = _drive(preset, delta1=preset.omega_m, delta2=0.0,
               power_l=1e-14, power_r=0.0)
    spec = SweepSpec(axis="power_l", start=1e-15, stop=5e-15, drive=d,
                     points=5)
    plain = sweep_1d(preset, spec, options)
    assert set(labeled_rows(plain)) == {"grid"}


def test_preset_rows_flatten_labels(loop_result, preset, options):
    d = _drive(preset, delta1=preset.omega_m, delta2=0.0,
               power_l=1e-14, power_r=0.0)
    spec = SweepSpec(axis="power_l", start=1e-15, stop=5e-15, drive=d,
                     points=5)
    plain = sweep_1d(preset, spec, options)
    rows = preset_rows({"ramp": loop_result, "scan": plain})
    assert list(rows) == ["ramp", "ramp_up", "ramp_down", "scan"]
    loop = labeled_rows(loop_result)
    assert rows["ramp"] == loop["grid"]
    assert rows["ramp_up"] == loop["up"]
    assert rows["scan"] == result_rows(plain)


def test_output_path_labels(tmp_path):
    base = tmp_path / "trace.csv"
    assert output_path(base, None) == base
    assert output_path(base, "grid") == base
    assert output_path(base, "up") == tmp_path / "trace__up.csv"
    assert output_path(base, "down") == tmp_path / "trace__down.csv"


def test_write_rows_files_round_trip(tmp_path, loop_result):
    labels = labeled_rows(loop_result)
    out = tmp_path / "loop.csv"
    written = write_rows(labels, "csv", out)
    assert sorted(p.name for p in written) == [
        "loop.csv", "loop__down.csv", "loop__up.csv"]
    text = (tmp_path / "loop__up.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    rows = labels["up"]
    assert len(lines) == 1 + len(rows)
    # bit-exact float round-trip through the file
    first = lines[1].split(",")
    assert float(first[2]) == rows[0]["q_s"]
    assert float(first[8]) == rows[0]["max_re_eig"]


def test_write_rows_stdout(capsys, loop_result):
    labels = labeled_rows(loop_result)
    written = write_rows(labels, "csv", None)
    assert written == []
    out = capsys.readouterr().out
    assert "# label grid\n" in out
    assert "# label up\n" in out
    assert "# label down\n" in out
    single = {"grid": labels["grid"]}
    write_rows(single, "csv", None)
    out = capsys.readouterr().out
    assert not out.startswith("# label")
    assert out.splitlines()[0] == CSV_HEADER


def test_summary_contents(loop_result):
    text = summarize(loop_result)
    assert "sweep power_l" in text
    assert "branch-count changes at:" in text
    assert "up-ramp jumps at:" in text
    assert "down-ramp jumps at:" in text
    up = loop_result.hysteresis.up.jumps[0]
    down = loop_result.hysteresis.down.jumps[0]
    assert repr(up) in text
    assert repr(down) in text
    # the smaller jump power is called out as the critical one
    assert up >= down
    assert f"lowest jump power: {down!r} W" in text


def test_summary_sidecar(tmp_path, loop_result):
    out = tmp_path / "loop.csv"
    path = write_summary({"ramp": loop_result}, out)
    assert path == tmp_path / "loop.summary.txt"
    text = path.read_text()
    assert "sweep power_l" in text
    # single result: no label prefix
    assert not text.startswith("[")
    path = write_summary({"a": loop_result, "b": loop_result}, out)
    assert "[a]" in path.read_text()
