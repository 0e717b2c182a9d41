"""Plain-text run configuration: flat `key = value` lines, dotted sections.

Grammar
-------
One `key = value` pair per line.  `#` starts a comment (outside quotes).
Strings are double-quoted; everything else is a number.  Frequency-like
quantities carry a unit suffix on the key: `_hz` values are cyclic and get
multiplied by 2*pi on load, `_rad_s` values are taken verbatim.  Optical
powers use `_w` (watts).  Unknown keys are hard errors that name the key
and line, so typos cannot silently change a run.

Sections
--------
system     device rates, either `system = "<preset>"` or the full field set
drive      detunings and drive powers at the operating point
sweep      axis, endpoints, sample count, ramp direction
flags      model conventions (see below)
tol        the stability verdicts' marginal band
output     destination path and format

Conventions (flags.*)
---------------------
sign_convention        "plus" | "minus": sign of the second mode's force term
kappa2_interpretation  "angular" | "literal": whether the second cavity's
                       preset linewidth quoted as a plain number is cyclic
                       (multiply by 2*pi) or already an angular rate
amp_convention         "literal" | "flux": |E|^2 = 2*P*kappa/(hbar*w) vs
                       |E|^2 = P/(hbar*w)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .continuation import DIRECTIONS, SweepSpec
from .errors import ConfigError, ParameterError
from .io import FORMATS
from .params import (AMP_CONVENTIONS, AXES, KAPPA2_INTERPRETATIONS,
                     POWER_AXES, SIGN_CONVENTIONS, DrivePoint, SystemParams,
                     preset_hill_params, to_angular)
from .steady import SolverOptions

PRESETS = ("hill2012",)

_SYSTEM_FREQ_FIELDS = ("omega1", "omega2", "kappa1", "kappa2",
                       "kappa_e1", "kappa_e2", "g1", "g2", "omega_m")
_SYSTEM_BARE_FIELDS = ("q_m",)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, resolved to SI angular units."""

    params: SystemParams
    drive: DrivePoint
    options: SolverOptions
    sweep: SweepSpec | None = None
    preset_name: str | None = None
    kappa2_interpretation: str = "angular"
    amp_convention: str = "literal"
    out_path: str | None = None
    out_format: str | None = None


def _split_comment(raw: str) -> str:
    out = []
    in_quote = False
    for ch in raw:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(text: str, key: str, line: int):
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"') or '"' in text[1:-1]:
            raise ConfigError("malformed quoted string", key=key, line=line)
        return text[1:-1]
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(
                f"cannot parse value {text!r} (strings must be double-quoted)",
                key=key, line=line) from None
    # every number is used as a float, so an int past the float range fails
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"value {text!r} is not a finite float", key=key, line=line)
    return value


def _scan(text: str) -> dict:
    """Raw key -> (value, line) map with duplicate detection."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _split_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", line=lineno)
        if not value:
            raise ConfigError("missing value after '='", key=key, line=lineno)
        if key in entries:
            raise ConfigError("duplicate key", key=key, line=lineno)
        entries[key] = (_parse_value(value, key, lineno), lineno)
    return entries


class _Entries:
    """Consumes scanned entries; whatever is left at the end is unknown."""

    def __init__(self, entries: dict):
        self._entries = dict(entries)

    def take(self, key: str):
        return self._entries.pop(key, (None, None))

    def has(self, key: str) -> bool:
        return key in self._entries

    def line(self, key: str):
        return self._entries.get(key, (None, None))[1]

    def reject_leftovers(self):
        for key, (_, line) in self._entries.items():
            raise ConfigError(f"unknown key {key!r}", key=key, line=line)

    def number(self, key: str, value, line):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("expected a number", key=key, line=line)
        return float(value)

    def string(self, key: str, value, line) -> str:
        if not isinstance(value, str):
            raise ConfigError("expected a quoted string", key=key, line=line)
        return value

    def frequency(self, prefix: str):
        """Value for `{prefix}_hz` or `{prefix}_rad_s`, whichever is present.

        Returns (value_rad_s, found).
        """
        hz_key, rad_key = prefix + "_hz", prefix + "_rad_s"
        if self.has(hz_key) and self.has(rad_key):
            _, line = self.take(rad_key)
            raise ConfigError(f"both {hz_key!r} and {rad_key!r} given",
                              key=rad_key, line=line)
        if self.has(hz_key):
            value, line = self.take(hz_key)
            value = self.number(hz_key, value, line)
            try:
                return to_angular(value), True
            except ParameterError as exc:
                raise ConfigError(str(exc), key=hz_key, line=line) from exc
        if self.has(rad_key):
            value, line = self.take(rad_key)
            return self.number(rad_key, value, line), True
        if self.has(prefix):
            _, line = self.take(prefix)
            raise ConfigError(
                f"{prefix!r} needs a unit suffix (_hz or _rad_s)",
                key=prefix, line=line)
        return 0.0, False

    def power(self, prefix: str):
        key = prefix + "_w"
        if self.has(key):
            value, line = self.take(key)
            value = self.number(key, value, line)
            if value < 0.0:
                raise ConfigError("power must be >= 0", key=key, line=line)
            return value, True
        if self.has(prefix):
            _, line = self.take(prefix)
            raise ConfigError(f"{prefix!r} needs the _w suffix",
                              key=prefix, line=line)
        return 0.0, False


def _build_system(ent: _Entries, kappa2_interpretation: str) -> tuple:
    preset_name = None
    fields: dict = {}
    if ent.has("system"):
        value, line = ent.take("system")
        name = ent.string("system", value, line)
        if name not in PRESETS:
            raise ConfigError(
                f"unknown system preset {name!r}, expected one of {PRESETS}",
                key="system", line=line)
        preset_name = name
        base = preset_hill_params(kappa2_interpretation=kappa2_interpretation)
        fields = {f: getattr(base, f) for f in
                  _SYSTEM_FREQ_FIELDS + _SYSTEM_BARE_FIELDS}
    missing = []
    for field in _SYSTEM_FREQ_FIELDS:
        value, found = ent.frequency(f"system.{field}")
        if found:
            fields[field] = value
        elif preset_name is None:
            missing.append(field)
    for field in _SYSTEM_BARE_FIELDS:
        key = f"system.{field}"
        if ent.has(key):
            value, line = ent.take(key)
            fields[field] = ent.number(key, value, line)
        elif preset_name is None:
            missing.append(field)
    if missing:
        raise ConfigError(
            "system is incomplete (give a preset or all fields); missing: "
            + ", ".join(f"system.{f}" for f in missing))
    try:
        return SystemParams(**fields), preset_name
    except ParameterError as exc:
        raise ConfigError(f"bad system parameters: {exc}") from exc


def _build_flags(ent: _Entries, overrides: dict) -> tuple:
    def choice(key, allowed):
        if ent.has(key):
            value, line = ent.take(key)
            value = ent.string(key, value, line)
            if value not in allowed:
                raise ConfigError(f"expected one of {allowed}, got {value!r}",
                                  key=key, line=line)
            return value
        return None

    sign_name = choice("flags.sign_convention", tuple(SIGN_CONVENTIONS))
    kappa2 = choice("flags.kappa2_interpretation", KAPPA2_INTERPRETATIONS)
    amp = choice("flags.amp_convention", AMP_CONVENTIONS)
    sign_name = overrides.get("sign_convention") or sign_name or "plus"
    kappa2 = overrides.get("kappa2_interpretation") or kappa2 or "angular"
    amp = overrides.get("amp_convention") or amp or "literal"
    if sign_name not in SIGN_CONVENTIONS:
        raise ConfigError(f"sign override must be one of "
                          f"{tuple(SIGN_CONVENTIONS)}, got {sign_name!r}")
    if kappa2 not in KAPPA2_INTERPRETATIONS:
        raise ConfigError(f"kappa2 override must be one of "
                          f"{KAPPA2_INTERPRETATIONS}, got {kappa2!r}")
    if amp not in AMP_CONVENTIONS:
        raise ConfigError(f"amp override must be one of {AMP_CONVENTIONS}, "
                          f"got {amp!r}")
    return SIGN_CONVENTIONS[sign_name], kappa2, amp


def _build_drive(ent: _Entries, params: SystemParams, amp: str) -> DrivePoint:
    delta1, found1 = ent.frequency("drive.delta1")
    delta2, found2 = ent.frequency("drive.delta2")
    # Default operating point: both drives one mechanical frequency to the
    # red of their cavity, no power.
    if not found1:
        delta1 = params.omega_m
    if not found2:
        delta2 = params.omega_m
    power_l, _ = ent.power("drive.power_l")
    power_r, _ = ent.power("drive.power_r")
    try:
        return DrivePoint.build(params, delta1=delta1, delta2=delta2,
                                power_l=power_l, power_r=power_r,
                                amp_convention=amp)
    except ParameterError as exc:
        raise ConfigError(f"bad drive: {exc}") from exc


def _build_sweep(ent: _Entries, params: SystemParams,
                 drive: DrivePoint) -> SweepSpec | None:
    keys = ("sweep.axis", "sweep.points", "sweep.direction")
    has_any = any(ent.has(k) for k in keys) or any(
        ent.has(f"sweep.{e}{s}") for e in ("start", "stop")
        for s in ("_hz", "_rad_s", "_w"))
    if not has_any:
        return None
    if not ent.has("sweep.axis"):
        raise ConfigError("sweep.axis is required when a sweep is configured",
                          key="sweep.axis")
    value, line = ent.take("sweep.axis")
    axis = ent.string("sweep.axis", value, line)
    if axis not in AXES:
        raise ConfigError(f"expected one of {AXES}, got {axis!r}",
                          key="sweep.axis", line=line)

    def endpoint(name):
        """(value, key, line) of one endpoint."""
        suffixed = [f"sweep.{name}{s}" for s in ("_hz", "_rad_s", "_w")]
        key = next((k for k in suffixed if ent.has(k)), f"sweep.{name}")
        line = ent.line(key)
        if axis in POWER_AXES:
            value, found = ent.power(f"sweep.{name}")
            for bad in ("_hz", "_rad_s"):
                if ent.has(f"sweep.{name}{bad}"):
                    _, bline = ent.take(f"sweep.{name}{bad}")
                    raise ConfigError(
                        f"sweep over {axis} takes watt endpoints (_w)",
                        key=f"sweep.{name}{bad}", line=bline)
        else:
            value, found = ent.frequency(f"sweep.{name}")
            if ent.has(f"sweep.{name}_w"):
                _, bline = ent.take(f"sweep.{name}_w")
                raise ConfigError(
                    f"sweep over {axis} takes frequency endpoints "
                    "(_hz or _rad_s)", key=f"sweep.{name}_w", line=bline)
        if not found:
            raise ConfigError(f"sweep.{name} endpoint is required",
                              key=f"sweep.{name}")
        return value, key, line

    endpoints = [endpoint("start"), endpoint("stop")]
    start, stop = (value for value, _, _ in endpoints)
    points = 400
    if ent.has("sweep.points"):
        value, line = ent.take("sweep.points")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("expected an integer", key="sweep.points",
                              line=line)
        points = value
    direction = "up"
    if ent.has("sweep.direction"):
        value, line = ent.take("sweep.direction")
        direction = ent.string("sweep.direction", value, line)
        if direction not in DIRECTIONS:
            raise ConfigError(f"sweep.direction must be one of {DIRECTIONS}, "
                              f"got {direction!r}",
                              key="sweep.direction", line=line)
    try:
        spec = SweepSpec(axis=axis, start=start, stop=stop, drive=drive,
                         points=points, direction=direction)
    except ParameterError as exc:
        raise ConfigError(f"bad sweep: {exc}") from exc
    # every sample between the endpoints is valid when both endpoints are
    for value, key, line in endpoints:
        try:
            drive.with_value(params, axis, value)
        except ParameterError as exc:
            raise ConfigError(f"{key} is out of range: {exc}",
                              key=key, line=line) from exc
    return spec


def _build_options(ent: _Entries, sign: int) -> SolverOptions:
    kwargs = {"sign": sign}
    if ent.has("tol.marginal_band"):
        value, line = ent.take("tol.marginal_band")
        kwargs["marginal_band"] = ent.number("tol.marginal_band", value, line)
    try:
        return SolverOptions(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"bad tolerance: {exc}") from exc


def _build_output(ent: _Entries) -> tuple:
    path = None
    if ent.has("output.path"):
        value, line = ent.take("output.path")
        path = ent.string("output.path", value, line)
    fmt = None
    if ent.has("output.format"):
        value, line = ent.take("output.format")
        fmt = ent.string("output.format", value, line)
        if fmt not in FORMATS:
            raise ConfigError(f"expected one of {FORMATS}, got {fmt!r}",
                              key="output.format", line=line)
    return path, fmt


def parse_config(text: str, *, sign_convention: str | None = None,
                 kappa2_interpretation: str | None = None,
                 amp_convention: str | None = None) -> RunConfig:
    """Parse a config document into a RunConfig.

    Keyword arguments override the document's flags.* section (they carry
    command-line flags).  Raises ConfigError with key and line context.
    """
    ent = _Entries(_scan(text))
    overrides = {"sign_convention": sign_convention,
                 "kappa2_interpretation": kappa2_interpretation,
                 "amp_convention": amp_convention}
    sign, kappa2, amp = _build_flags(ent, overrides)
    params, preset_name = _build_system(ent, kappa2)
    drive = _build_drive(ent, params, amp)
    sweep = _build_sweep(ent, params, drive)
    options = _build_options(ent, sign)
    out_path, out_format = _build_output(ent)
    ent.reject_leftovers()
    return RunConfig(params=params, drive=drive, options=options, sweep=sweep,
                     preset_name=preset_name,
                     kappa2_interpretation=kappa2, amp_convention=amp,
                     out_path=out_path, out_format=out_format)


def serialize_config(config: RunConfig) -> str:
    """Canonical document that parses back to an equal RunConfig.

    All frequencies are written with the _rad_s suffix so the text is
    independent of the kappa2 interpretation flag.
    """
    lines = []
    if config.preset_name is not None:
        lines.append(f'system = "{config.preset_name}"')
        base = preset_hill_params(
            kappa2_interpretation=config.kappa2_interpretation)
    else:
        base = None
    for field in _SYSTEM_FREQ_FIELDS:
        value = getattr(config.params, field)
        if base is None or value != getattr(base, field):
            lines.append(f"system.{field}_rad_s = {value!r}")
    for field in _SYSTEM_BARE_FIELDS:
        value = getattr(config.params, field)
        if base is None or value != getattr(base, field):
            lines.append(f"system.{field} = {value!r}")
    lines.append(f"drive.delta1_rad_s = {config.drive.delta1!r}")
    lines.append(f"drive.delta2_rad_s = {config.drive.delta2!r}")
    lines.append(f"drive.power_l_w = {config.drive.power_l!r}")
    lines.append(f"drive.power_r_w = {config.drive.power_r!r}")
    if config.sweep is not None:
        sw = config.sweep
        suffix = "_w" if sw.axis in POWER_AXES else "_rad_s"
        lines.append(f'sweep.axis = "{sw.axis}"')
        lines.append(f"sweep.start{suffix} = {sw.start!r}")
        lines.append(f"sweep.stop{suffix} = {sw.stop!r}")
        lines.append(f"sweep.points = {sw.points}")
        lines.append(f'sweep.direction = "{sw.direction}"')
    sign_name = next(name for name, sign in SIGN_CONVENTIONS.items()
                     if sign == config.options.sign)
    lines.append(f'flags.sign_convention = "{sign_name}"')
    lines.append(f'flags.kappa2_interpretation = "{config.kappa2_interpretation}"')
    lines.append(f'flags.amp_convention = "{config.amp_convention}"')
    lines.append(f"tol.marginal_band = {config.options.marginal_band!r}")
    if config.out_path is not None:
        lines.append(f'output.path = "{config.out_path}"')
    if config.out_format is not None:
        lines.append(f'output.format = "{config.out_format}"')
    return "\n".join(lines) + "\n"
