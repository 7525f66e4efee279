"""Experiment configuration: flat sectioned key=value files.

The on-disk format is INI-style: a [run] section naming the experiment plus
one section per parameter group. Unknown sections or keys are errors, not
warnings; a silent typo would corrupt a physics run. An experiment takes
exactly the sections and keys its registry defaults set: a section or field
left None there is not taken (see ``untaken``). [pulse] and [absorber] parse
straight into the absorber's PulseEnvelope and AbsorberParams, and
[integration] into stepping.TimeGrid, the grid both integrators take; their
own checks run as the config is built.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from ..absorber import AbsorberParams, PulseEnvelope
from ..lmg_statics import LmgParams
from ..stepping import TimeGrid


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSection:
    n_qubits: int | None
    jx: float | None
    jy: float
    epsilon: float = 1.0

    def __post_init__(self):
        # LmgParams holds the rules; a field left None (the sweep sets it) takes a value they accept
        given = {k: v for k, v in vars(self).items() if v is not None}
        LmgParams(**{"n_qubits": 1, "jx": 0.0, **given})


@dataclass(frozen=True)
class CouplingSection:
    bx: float


@dataclass(frozen=True)
class SweepSection:
    """Grid of the one quantity the experiment sweeps (bx, jx, N or delta_pp)."""

    lo: float
    hi: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.points < 1:
            raise ConfigError(f"points must be >= 1, got {self.points}")
        if self.points > 1 and self.lo == self.hi:
            raise ConfigError(f"points = {self.points} needs lo != hi, got lo = hi = {self.lo}")
        if self.spacing == "log" and not (self.lo > 0.0 and self.hi > 0.0):
            raise ConfigError(f"log spacing needs lo and hi > 0, got lo = {self.lo}, hi = {self.hi}")

    def values(self) -> np.ndarray:
        """points values from lo to hi, evenly spaced on the chosen scale; one point is exactly [lo]."""
        if self.spacing == "linear":
            return np.linspace(self.lo, self.hi, self.points)
        return np.geomspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class OutputSection:
    directory: str = "."
    emit_svg: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: ModelSection | None = None
    coupling: CouplingSection | None = None
    pulse: PulseEnvelope | None = None
    absorber: AbsorberParams | None = None
    sweep: SweepSection | None = None
    integration: TimeGrid | None = None
    output: OutputSection = OutputSection()


def _declared(hint) -> type:
    """The type a hint declares, with None unwrapped: int | None gives int."""
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


# each section's dataclass by section name, in ExperimentConfig's field order,
# which is the order serialize_config writes
_SECTION_TYPES = {
    name: _declared(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
    if name != "experiment"
}


@functools.cache
def _kind(section: str, key: str) -> type:
    """The declared type of a section field: int, float, str or bool."""
    return _declared(typing.get_type_hints(_SECTION_TYPES[section])[key])


def _coerce(section: str, key: str, raw: str):
    kind = _kind(section, key)
    if kind is int:
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from err
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError as err:
            raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}") from err
    if kind is str:
        return raw.strip()
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}")
    return value


def parse_config_text(text: str) -> tuple[str | None, dict[str, dict]]:
    """Parse INI text into (experiment name or None, per-section override dicts)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    experiment = None
    overrides: dict[str, dict] = {}
    for section in parser.sections():
        if section == "run":
            keys = dict(parser.items("run"))
            extra = set(keys) - {"experiment"}
            if extra:
                raise ConfigError(f"unknown keys in [run]: {sorted(extra)}")
            experiment = keys.get("experiment", "").strip() or None
            continue
        if section not in _SECTION_TYPES:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{['run'] + sorted(_SECTION_TYPES)}"
            )
        cls = _SECTION_TYPES[section]
        known = {f.name for f in dataclasses.fields(cls)}
        vals = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]; expected {sorted(known)}")
            vals[key] = _coerce(section, key, raw)
        overrides[section] = vals
    return experiment, overrides


def apply_overrides(defaults: ExperimentConfig, overrides: dict[str, dict]) -> ExperimentConfig:
    """Merge parsed section overrides onto an experiment's default config.

    A section the defaults leave None is not taken and is rejected here;
    ``untaken`` finds the keys, which ``run_experiment`` rejects. A value
    its section type refuses is a ConfigError tagged with the section.
    """
    updates = {}
    for section, vals in overrides.items():
        current = getattr(defaults, section)
        if current is None:
            raise ConfigError(f"experiment {defaults.experiment} does not take [{section}]")
        try:
            updates[section] = dataclasses.replace(current, **vals)
        except ValueError as err:
            raise ConfigError(f"[{section}] {err}") from err
    return dataclasses.replace(defaults, **updates)


def untaken(cfg: ExperimentConfig, defaults: ExperimentConfig) -> str | None:
    """The first section or key that cfg sets and defaults leave None, e.g. "[model] jx"."""
    for section in _SECTION_TYPES:
        given, default = getattr(cfg, section), getattr(defaults, section)
        if given is None:
            continue
        if default is None:
            return f"[{section}]"
        for f in dataclasses.fields(given):
            if getattr(given, f.name) is not None and getattr(default, f.name) is None:
                return f"[{section}] {f.name}"
    return None


def _format_value(section: str, key: str, v) -> str:
    # mirror the parsing rules so serialize -> parse is the identity even
    # when a default was written with an integer literal
    kind = _kind(section, key)
    if kind is bool:
        return "true" if v else "false"
    if kind is int:
        return str(int(v))
    if kind is str:
        return str(v)
    return repr(float(v))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the sectioned key=value text form, without None values.

    parse -> serialize -> parse is the identity on every section present.
    """
    lines = ["[run]", f"experiment = {cfg.experiment}", ""]
    for section in _SECTION_TYPES:
        value = getattr(cfg, section)
        if value is None:
            continue
        lines.append(f"[{section}]")
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if v is not None:
                lines.append(f"{f.name} = {_format_value(section, f.name, v)}")
        lines.append("")
    return "\n".join(lines)
