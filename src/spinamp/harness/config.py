"""Experiment configuration: flat sectioned key=value files.

The on-disk format is INI-style: a [run] section naming the experiment plus
one section per parameter group. Unknown sections or keys are errors, not
warnings; a silent typo would corrupt a physics run. An experiment takes
exactly the sections its registry defaults fill in.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSection:
    n_qubits: int
    jx: float
    jy: float
    epsilon: float = 1.0


@dataclass(frozen=True)
class CouplingSection:
    bx: float


@dataclass(frozen=True)
class PulseSection:
    tau_f: float
    t_arrival: float = 0.0


@dataclass(frozen=True)
class AbsorberSection:
    delta_pp: float
    gamma_fg: float
    gamma_he: float
    eta: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class SweepSection:
    """Grid of the one quantity the experiment sweeps (bx, jx, N or delta_pp)."""

    lo: float
    hi: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"sweep spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.points < 1:
            raise ConfigError("sweep points must be >= 1")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        if self.spacing == "linear":
            return np.linspace(self.lo, self.hi, self.points)
        return np.geomspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class IntegrationSection:
    dt: float
    t_start: float
    t_end: float
    sample_every: int = 25

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError(f"integration dt must be positive, got {self.dt}")
        if self.sample_every < 1:
            raise ConfigError(f"integration sample_every must be >= 1, got {self.sample_every}")


@dataclass(frozen=True)
class OutputSection:
    directory: str = "."
    emit_svg: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: ModelSection | None = None
    coupling: CouplingSection | None = None
    pulse: PulseSection | None = None
    absorber: AbsorberSection | None = None
    sweep: SweepSection | None = None
    integration: IntegrationSection | None = None
    output: OutputSection = OutputSection()


_SECTION_TYPES = {
    "model": ModelSection,
    "coupling": CouplingSection,
    "pulse": PulseSection,
    "absorber": AbsorberSection,
    "sweep": SweepSection,
    "integration": IntegrationSection,
    "output": OutputSection,
}

_INT_FIELDS = {"n_qubits", "points", "sample_every"}
_STR_FIELDS = {"spacing", "directory"}
_BOOL_FIELDS = {"emit_svg"}


def _coerce(section: str, key: str, raw: str):
    if key in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from err
    if key in _BOOL_FIELDS:
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")
    if key in _STR_FIELDS:
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


def parse_config_file(path) -> tuple[str | None, dict[str, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(defaults: ExperimentConfig, overrides: dict[str, dict]) -> ExperimentConfig:
    """Merge parsed section overrides onto an experiment's default config."""
    updates = {}
    for section, vals in overrides.items():
        current = getattr(defaults, section)
        if current is None:
            cls = _SECTION_TYPES[section]
            try:
                updates[section] = cls(**vals)
            except TypeError as err:
                raise ConfigError(f"incomplete section [{section}]: {err}") from err
        else:
            updates[section] = dataclasses.replace(current, **vals)
    return dataclasses.replace(defaults, **updates)


def _format_value(key: str, v) -> str:
    # mirror the parsing rules so serialize -> parse is the identity even
    # when a default was written with an integer literal
    if key in _BOOL_FIELDS:
        return "true" if v else "false"
    if key in _INT_FIELDS:
        return str(int(v))
    if key in _STR_FIELDS:
        return str(v)
    return repr(float(v))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the sectioned key=value text form.

    parse -> serialize -> parse is the identity on every section present.
    """
    lines = ["[run]", f"experiment = {cfg.experiment}", ""]
    for section in _SECTION_TYPES:
        value = getattr(cfg, section)
        if value is None:
            continue
        lines.append(f"[{section}]")
        for f in dataclasses.fields(value):
            lines.append(f"{f.name} = {_format_value(f.name, getattr(value, f.name))}")
        lines.append("")
    return "\n".join(lines)
