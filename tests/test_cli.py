"""Subcommand behavior and process exit codes."""

import json

import numpy as np
import pytest

from twomode import stability
from twomode.cli import main
from twomode.io import CSV_HEADER
from twomode.params import preset_hill_params

BASE = 'system = "hill2012"\n'

LOOP_CONFIG = ('system = "hill2012"\n'
               'system.q_m = 5\n'
               'drive.delta1_rad_s = 11318108032.821518\n'  # 2*sqrt(3)*kappa1
               'drive.delta2_hz = 4e9\n'
               'drive.power_l_w = 1e-12\n'
               'sweep.axis = "power_l"\n'
               'sweep.start_w = 6.5e-13\n'
               'sweep.stop_w = 5.1e-12\n'
               'sweep.points = 60\n'
               'sweep.direction = "both"\n')


def _write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_human_readable(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + 'drive.power_l_w = 1e-13\n')
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "operating point:" in out
    assert "branch 0:" in out
    assert "STABLE" in out


def test_solve_csv_file(tmp_path):
    cfg = _write(tmp_path, BASE + 'drive.power_l_w = 1e-13\n')
    out = tmp_path / "point.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[7] == "1"


def test_solve_format_flag_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + 'drive.power_l_w = 1e-13\n')
    assert main(["solve", "--config", cfg, "--format", "jsonlines"]) == 0
    out = capsys.readouterr().out
    row = json.loads(out.splitlines()[0])
    assert row["stable"] == 1


def test_solve_stdout_takes_the_documents_format(tmp_path, capsys):
    # output.format applies to stdout as it does for sweep; --format
    # overrides it
    cfg = _write(tmp_path, BASE + 'drive.power_l_w = 1e-13\n'
                 'output.format = "jsonlines"\n')
    assert main(["solve", "--config", cfg]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[0])
    assert row["stable"] == 1
    assert main(["solve", "--config", cfg, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER


def test_sweep_with_hysteresis_fanout(tmp_path, capsys):
    cfg = _write(tmp_path, LOOP_CONFIG)
    out = tmp_path / "loop.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "loop.csv" in names
    assert "loop__up.csv" in names
    assert "loop__down.csv" in names
    assert "loop.summary.txt" in names
    summary = (tmp_path / "loop.summary.txt").read_text()
    assert "up-ramp jumps at:" in summary
    assert "lowest jump power:" in summary
    assert "wrote" in capsys.readouterr().out


def test_sweep_up_only_single_file(tmp_path):
    text = LOOP_CONFIG.replace('sweep.direction = "both"',
                               'sweep.direction = "up"')
    cfg = _write(tmp_path, text)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "grid.csv" in names
    assert "grid__up.csv" not in names


def test_folds_command(tmp_path, capsys):
    text = LOOP_CONFIG.replace('sweep.start_w = 6.5e-13',
                               'sweep.start_w = 1e-14').replace(
                               'sweep.stop_w = 5.1e-12',
                               'sweep.stop_w = 1e-9')
    cfg = _write(tmp_path, text)
    assert main(["folds", "--config", cfg, "--samples", "256",
                 "--threads", "1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("fold power_l = ")]
    assert len(lines) == 2
    values = sorted(float(l.rpartition("=")[2]) for l in lines)
    assert values[0] == pytest.approx(1.3004470633603326e-12, rel=1e-6)
    assert values[1] == pytest.approx(2.835530696694626e-12, rel=1e-6)


def test_folds_out_creates_parent_directory(tmp_path):
    text = (BASE
            + 'sweep.axis = "power_l"\n'
            + 'sweep.start_w = 1e-16\n'
            + 'sweep.stop_w = 1e-15\n')
    cfg = _write(tmp_path, text)
    out = tmp_path / "new" / "dir" / "folds.txt"
    assert main(["folds", "--config", cfg, "--samples", "32",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("no folds on power_l")


def test_folds_none_found(tmp_path, capsys):
    text = (BASE
            + 'sweep.axis = "power_l"\n'
            + 'sweep.start_w = 1e-16\n'
            + 'sweep.stop_w = 1e-15\n')
    cfg = _write(tmp_path, text)
    assert main(["folds", "--config", cfg, "--samples", "32",
                 "--threads", "1"]) == 0
    assert "no folds" in capsys.readouterr().out


def test_consecutive_calls_do_not_share_arguments(tmp_path, capsys,
                                                  monkeypatch):
    from twomode import cli

    seen = []
    monkeypatch.setattr(cli, "locate_folds",
                        lambda *a, samples: seen.append(samples) or ())
    text = (BASE
            + 'sweep.axis = "power_l"\n'
            + 'sweep.start_w = 1e-16\n'
            + 'sweep.stop_w = 1e-15\n')
    cfg = _write(tmp_path, text)
    out = tmp_path / "folds.txt"
    assert main(["folds", "--config", cfg, "--samples", "32",
                 "--out", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    assert main(["folds", "--config", cfg]) == 0
    assert seen == [32, 1024]
    assert not out.exists()
    assert capsys.readouterr().out.startswith("no folds on power_l")
    assert cli.build_parser() is cli.build_parser()


def test_preset_campaign(tmp_path):
    out = tmp_path / "fig5a.csv"
    assert main(["preset", "fig5a", "--points", "25", "--threads", "1",
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "fig5a__weak_readout.csv" in names or "fig5a.csv" in names
    assert "fig5a.summary.txt" in names


def test_config_error_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + "system.coupling = 3\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "system.coupling" in err


def test_config_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "run.conf"
    lines = (b"# preset device", BASE.encode().strip(),
             b"drive.power_l_w = 1e-13  # \xff")
    for newline in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(newline.join(lines) + newline)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: byte 0xff is not valid UTF-8")


@pytest.mark.parametrize("command,line,entry", [
    ("solve", 5, "drive.power_l_w = 1e-12"),
    ("sweep", 9, "sweep.points = 60"),
])
def test_integer_past_float_range_exits_2(tmp_path, capsys, command, line,
                                           entry):
    key = entry.split(" = ")[0]
    cfg = _write(tmp_path, LOOP_CONFIG.replace(entry,
                                               f'{key} = 1{"0" * 400}'))
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: value '1000")


def test_sweep_direction_down_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, LOOP_CONFIG.replace('sweep.direction = "both"',
                                               'sweep.direction = "down"'))
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 10: sweep.direction must be one of")


def test_removed_imag_tol_key_exits_2(tmp_path, capsys):
    # the steady solve has no tolerance: its old knob is an unknown key
    cfg = _write(tmp_path, BASE + 'tol.imag_tol = 1e-7\n')
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "'tol.imag_tol'" in err


def test_sweep_endpoint_past_mode_frequency_exits_2(tmp_path, capsys):
    # pump 1 sits at 205.3 THz; a detuning of 300 THz puts the laser
    # frequency below zero at the top of the sweep
    cfg = _write(tmp_path, BASE + 'drive.power_l_w = 1e-13\n'
                 'sweep.axis = "delta1"\nsweep.start_hz = 0\n'
                 'sweep.stop_hz = 3e14\nsweep.points = 50\n')
    assert main(["sweep", "--config", cfg, "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "sweep.stop_hz" in err


def test_sweep_without_section_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert main(["sweep", "--config", cfg]) == 2
    assert "sweep" in capsys.readouterr().err


def test_bad_threads_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, LOOP_CONFIG)
    assert main(["sweep", "--config", cfg, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_changes_nothing(tmp_path):
    text = LOOP_CONFIG.replace('sweep.direction = "both"',
                               'sweep.direction = "up"')
    cfg = _write(tmp_path, text)
    one, three = tmp_path / "one.csv", tmp_path / "three.csv"
    assert main(["sweep", "--config", cfg, "--out", str(one)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(three),
                 "--threads", "3"]) == 0
    assert one.read_text() == three.read_text()


@pytest.mark.parametrize("command,flag", [
    (["folds", "--config", "{cfg}"], "--samples"),
    (["preset", "fig5a"], "--points"),
])
def test_count_flag_below_two_exits_2_naming_it(tmp_path, capsys, command,
                                                flag):
    cfg = _write(tmp_path, LOOP_CONFIG)
    argv = [a.format(cfg=cfg) for a in command] + [flag, "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert flag in err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # strict quasi-static ramp on the high-Q preset device crosses into
    # the self-oscillating regime past the fold
    text = (BASE
            + 'drive.power_r_w = 1e-12\n'
            + 'sweep.axis = "power_l"\n'
            + 'sweep.start_w = 1.28e-12\n'
            + 'sweep.stop_w = 3.886e-11\n'
            + 'sweep.points = 40\n'
            + 'sweep.direction = "both"\n')
    cfg = _write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--threads", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_classification_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a non-finite Jacobian entry fails the eigenvalue call that the
    # audit-rejected row takes
    jacobians = stability._scaled_jacobians

    def nan_in_first_row(*args):
        jac = jacobians(*args)
        jac[0, 5, 4] = np.nan
        return jac

    monkeypatch.setattr(stability, "_scaled_jacobians", nan_in_first_row)
    cfg = _write(tmp_path, LOOP_CONFIG.replace('"both"', '"up"'))
    assert main(["sweep", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: Jacobian eigenvalue iteration failed: ")


def test_fig2b_minus_literal_reports_its_four_folds(tmp_path):
    # a bisection midpoint used to hit the solver's self-consistency
    # ceiling at power_l = 9.181158464634483e-06 W and exit 3
    out = tmp_path / "fig2b.csv"
    assert main(["preset", "fig2b", "--sign", "minus", "--kappa2", "literal",
                 "--out", str(out)]) == 0
    summary = (tmp_path / "fig2b.summary.txt").read_text()
    line = next(l for l in summary.splitlines()
                if "branch-count changes at:" in l)
    folds = [float(v) for v in line.split(":", 1)[1].split(",")]
    assert folds == pytest.approx([1.5096344394799489e-09,
                                   7.334630443807926e-08,
                                   2.6399137210427587e-07,
                                   9.181158466972657e-06], rel=1e-6)
    preset = preset_hill_params()
    rows = 0
    for path in tmp_path.glob("*.csv"):
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        for line in lines[1:]:
            cells = dict(zip(CSV_HEADER.split(","), line.split(",")))
            q, n1, n2 = (float(cells[k]) for k in ("q_s", "n_p1", "n_p2"))
            defect = q - (2.0 / preset.omega_m) * (preset.g1 * n1
                                                  - preset.g2 * n2)
            assert abs(defect) <= 1e-6 * (1.0 + abs(q))
            rows += 1
    assert rows > 0


def test_missing_config_exits_4(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.conf")]) == 4
    assert "i/o failure" in capsys.readouterr().err


def test_sign_override_flips_displacement(tmp_path, capsys):
    text = (BASE
            + 'system.g1_hz = 0\n'
            + 'drive.power_r_w = 1e-11\n')
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 0
    plus = capsys.readouterr().out
    assert main(["solve", "--config", cfg, "--sign", "minus"]) == 0
    minus = capsys.readouterr().out

    def first_q(text):
        line = next(l for l in text.splitlines() if l.startswith("branch 0:"))
        return float(line.split("q_s=")[1].split()[0])

    assert first_q(plus) > 0.0
    assert first_q(minus) < 0.0


def test_kappa2_override_changes_readout(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + 'drive.power_r_w = 1e-11\n')
    assert main(["solve", "--config", cfg]) == 0
    angular = capsys.readouterr().out
    assert main(["solve", "--config", cfg, "--kappa2", "literal"]) == 0
    literal = capsys.readouterr().out

    def first_n2(text):
        line = next(l for l in text.splitlines() if l.startswith("branch 0:"))
        return float(line.split("n_p2=")[1].split()[0])

    assert first_n2(angular) != first_n2(literal)
