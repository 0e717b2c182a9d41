"""Config document grammar, unit suffixes, flags, and round-trips."""

import math

import pytest

from twomode.config import RunConfig, parse_config, serialize_config
from twomode.errors import ConfigError
from twomode.params import preset_hill_params

TWO_PI = 2.0 * math.pi

MINIMAL = 'system = "hill2012"\n'

FULL_SYSTEM = """
system.omega1_hz = 205.3e12
system.omega2_hz = 194.1e12
system.kappa1_rad_s = 3.0e9
system.kappa2_rad_s = 9.0e9
system.kappa_e1_rad_s = 0.6e9
system.kappa_e2_rad_s = 4.0e9
system.g1_hz = 960e3
system.g2_hz = 430e3
system.omega_m_hz = 4e9
system.q_m = 87e3
"""


def test_minimal_preset_document(preset):
    cfg = parse_config(MINIMAL)
    assert cfg.params == preset
    assert cfg.preset_name == "hill2012"
    # default operating point: both drives one mechanical frequency red,
    # no power
    assert cfg.drive.delta1 == preset.omega_m
    assert cfg.drive.delta2 == preset.omega_m
    assert cfg.drive.power_l == 0.0 and cfg.drive.power_r == 0.0
    assert cfg.sweep is None
    assert cfg.options.sign == 1
    assert cfg.out_path is None and cfg.out_format is None


def test_full_field_system_with_unit_suffixes():
    cfg = parse_config(FULL_SYSTEM)
    p = cfg.params
    assert p.omega1 == TWO_PI * 205.3e12
    assert p.kappa1 == 3.0e9
    assert p.kappa2 == 9.0e9
    assert p.g1 == TWO_PI * 960e3
    assert p.omega_m == TWO_PI * 4e9
    assert p.q_m == 87e3
    assert cfg.preset_name is None


def test_preset_field_override():
    cfg = parse_config('system = "hill2012"\nsystem.q_m = 5\n')
    assert cfg.params.q_m == 5.0
    assert cfg.params.kappa1 == preset_hill_params().kappa1


def test_comments_and_quoted_hash():
    doc = ('system = "hill2012"  # device preset\n'
           '# a full-line comment\n'
           'output.path = "runs#7.csv"\n')
    cfg = parse_config(doc)
    assert cfg.out_path == "runs#7.csv"


def test_duplicate_key_rejected():
    doc = 'system = "hill2012"\ndrive.power_l_w = 1e-12\ndrive.power_l_w = 2e-12\n'
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key == "drive.power_l_w"
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_unknown_key_names_key_and_line():
    doc = 'system = "hill2012"\n\nsystem.coupling = 3\n'
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key == "system.coupling"
    assert err.value.line == 3
    assert "system.coupling" in str(err.value)
    assert "line 3" in str(err.value)


def test_missing_unit_suffix_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config('system = "hill2012"\ndrive.delta1 = 5e9\n')
    assert err.value.key == "drive.delta1"
    assert "_hz" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config('system = "hill2012"\ndrive.power_l = 1e-12\n')
    assert "_w" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config('system = "hill2012"\nsystem.kappa1 = 1e9\n')


def test_conflicting_unit_suffixes_rejected():
    doc = ('system = "hill2012"\n'
           'drive.delta1_hz = 4e9\n'
           'drive.delta1_rad_s = 2.5e10\n')
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "both" in str(err.value)


def test_nonpositive_rates_rejected():
    with pytest.raises(ConfigError):
        parse_config('system = "hill2012"\nsystem.kappa1_hz = -520e6\n')
    with pytest.raises(ConfigError):
        parse_config('system = "hill2012"\ndrive.power_l_w = -1e-12\n')
    # external coupling above the total linewidth is a parameter error
    # that must surface as a config error with context
    with pytest.raises(ConfigError) as err:
        parse_config('system = "hill2012"\nsystem.kappa_e1_rad_s = 1e12\n')
    assert "bad system parameters" in str(err.value)


def test_malformed_documents_rejected():
    for doc, fragment in (
            ('system = "hill2012"\ndrive.power_l_w = abc\n', "double-quoted"),
            ('system = "hill2012"\ndrive.power_l_w = "1e-12\n', "malformed"),
            ('system = "hill2012"\ndrive.delta1_rad_s = inf\n', "finite"),
            ('system = "hill2012"\njust a line\n', "key = value"),
            ('system = "hill2012"\n= 5\n', "missing key"),
            ('system = "hill2012"\ndrive.power_l_w =\n', "missing value"),
            ('system = "unknown-device"\n', "preset"),
            ('drive.power_l_w = 1e-12\n', "incomplete")):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert fragment in str(err.value), doc


@pytest.mark.parametrize("key", ["drive.power_l_w", "sweep.points"])
def test_integer_past_float_range_rejected(key):
    # an int literal too large for a float fails as 1e400 does
    doc = ('system = "hill2012"\nsweep.axis = "power_l"\n'
           'sweep.start_w = 1e-14\nsweep.stop_w = 1e-10\n'
           f'{key} = 1{"0" * 400}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert (err.value.key, err.value.line) == (key, 5)
    assert "is not a finite float" in str(err.value)


def test_sweep_block(preset):
    doc = ('system = "hill2012"\n'
           'drive.delta1_hz = 4e9\n'
           'sweep.axis = "power_l"\n'
           'sweep.start_w = 1e-14\n'
           'sweep.stop_w = 1e-10\n'
           'sweep.points = 120\n'
           'sweep.direction = "both"\n')
    cfg = parse_config(doc)
    assert cfg.sweep is not None
    assert cfg.sweep.axis == "power_l"
    assert cfg.sweep.start == 1e-14 and cfg.sweep.stop == 1e-10
    assert cfg.sweep.points == 120
    assert cfg.sweep.direction == "both"
    assert cfg.sweep.drive == cfg.drive


def test_sweep_frequency_axis():
    doc = ('system = "hill2012"\n'
           'sweep.axis = "delta1"\n'
           'sweep.start_hz = 0\n'
           'sweep.stop_hz = 8e9\n')
    cfg = parse_config(doc)
    assert cfg.sweep.axis == "delta1"
    assert cfg.sweep.start == 0.0
    assert cfg.sweep.stop == TWO_PI * 8e9
    assert cfg.sweep.points == 400
    assert cfg.sweep.direction == "up"


def test_sweep_direction_down_is_rejected():
    # "down" solved the same grid as "up"; it is no longer accepted
    doc = ('system = "hill2012"\n'
           'sweep.axis = "power_l"\n'
           'sweep.start_w = 1e-14\n'
           'sweep.stop_w = 1e-10\n'
           'sweep.direction = "down"\n')
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key == "sweep.direction"
    assert err.value.line == 5
    assert "sweep.direction" in str(err.value)
    assert "'down'" in str(err.value)


def test_sweep_errors():
    base = 'system = "hill2012"\n'
    with pytest.raises(ConfigError) as err:
        parse_config(base + 'sweep.start_w = 1e-14\nsweep.stop_w = 1e-10\n')
    assert err.value.key == "sweep.axis"
    with pytest.raises(ConfigError) as err:
        parse_config(base + 'sweep.axis = "power_l"\nsweep.start_hz = 1\n'
                     'sweep.stop_w = 1e-10\n')
    assert "watt endpoints" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(base + 'sweep.axis = "delta1"\nsweep.start_w = 1e-14\n'
                     'sweep.stop_hz = 8e9\n')
    assert "frequency endpoints" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(base + 'sweep.axis = "delta1"\nsweep.stop_hz = 8e9\n')
    with pytest.raises(ConfigError):
        parse_config(base + 'sweep.axis = "power_l"\nsweep.start_w = 1e-14\n'
                     'sweep.stop_w = 1e-10\nsweep.points = 7.5\n')
    with pytest.raises(ConfigError):
        parse_config(base + 'sweep.axis = "power_l"\nsweep.start_w = 1e-14\n'
                     'sweep.stop_w = 1e-10\nsweep.direction = "around"\n')


def test_flags_and_overrides(preset):
    doc = ('system = "hill2012"\n'
           'flags.sign_convention = "minus"\n'
           'flags.kappa2_interpretation = "literal"\n'
           'flags.amp_convention = "flux"\n')
    cfg = parse_config(doc)
    assert cfg.options.sign == -1
    assert cfg.kappa2_interpretation == "literal"
    assert cfg.params.kappa2 == 1.73e9
    assert cfg.amp_convention == "flux"
    # command-line overrides beat the document
    cfg = parse_config(doc, sign_convention="plus",
                       kappa2_interpretation="angular",
                       amp_convention="literal")
    assert cfg.options.sign == 1
    assert cfg.params.kappa2 == preset.kappa2
    assert cfg.amp_convention == "literal"
    with pytest.raises(ConfigError):
        parse_config(doc, sign_convention="negative")
    with pytest.raises(ConfigError):
        parse_config('system = "hill2012"\nflags.sign_convention = "neg"\n')


def test_amp_convention_reaches_drive(preset):
    doc = ('system = "hill2012"\n'
           'drive.power_l_w = 1e-9\n')
    lit = parse_config(doc)
    flux = parse_config(doc, amp_convention="flux")
    assert lit.drive.amp_l != flux.drive.amp_l
    # literal: |E|^2 = 2 P kappa / (hbar w); flux: |E|^2 = P / (hbar w)
    ratio = (lit.drive.amp_l / flux.drive.amp_l) ** 2
    assert ratio == pytest.approx(2.0 * preset.kappa1, rel=1e-12)


def test_tolerance_section():
    doc = ('system = "hill2012"\n'
           'tol.marginal_band = 1e-8\n')
    cfg = parse_config(doc)
    assert cfg.options.marginal_band == 1e-8
    with pytest.raises(ConfigError) as err:
        parse_config(doc + 'tol.ode_rel_tol = 1e-7\n')
    assert err.value.key == "tol.ode_rel_tol"
    # the steady solve has no tolerance: its old knob is an unknown key
    with pytest.raises(ConfigError) as err:
        parse_config(doc + 'tol.imag_tol = 1e-7\n')
    assert (err.value.key, err.value.line) == ("tol.imag_tol", 3)
    with pytest.raises(ConfigError) as err:
        parse_config('system = "hill2012"\ntol.marginal_band = 5\n')
    assert "bad tolerance" in str(err.value)


def test_output_section():
    doc = ('system = "hill2012"\n'
           'output.path = "trace.jsonl"\n'
           'output.format = "jsonlines"\n')
    cfg = parse_config(doc)
    assert cfg.out_path == "trace.jsonl"
    assert cfg.out_format == "jsonlines"
    with pytest.raises(ConfigError):
        parse_config('system = "hill2012"\noutput.format = "parquet"\n')


def test_round_trip_is_stable():
    doc = ('system = "hill2012"\n'
           'system.q_m = 5\n'
           'drive.delta1_hz = 1.8e9\n'
           'drive.power_l_w = 1e-12\n'
           'sweep.axis = "power_l"\n'
           'sweep.start_w = 6.5e-13\n'
           'sweep.stop_w = 5.1e-12\n'
           'sweep.points = 200\n'
           'sweep.direction = "both"\n'
           'flags.kappa2_interpretation = "literal"\n'
           'output.format = "jsonlines"\n')
    cfg = parse_config(doc)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_round_trip_keeps_an_unset_format_unset():
    cfg = parse_config('system = "hill2012"\ndrive.power_l_w = 1e-12\n')
    text = serialize_config(cfg)
    assert "output.format" not in text
    assert parse_config(text) == cfg


def test_round_trip_full_system():
    cfg = parse_config(FULL_SYSTEM)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert isinstance(cfg, RunConfig)
