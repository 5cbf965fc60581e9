"""Run configuration: one JSON-serializable tree covering every pipeline knob.

A :class:`RunConfig` aggregates the per-module dataclasses (mel analysis,
model dims, optimizer, sampler, forge) plus the session sample rate, seed,
and default paths. Defaults mirror the reference operating point: 44.1 kHz
mel analysis with FFT 1024 / hop 256 / 100 bins, AdamW at 5e-5 with betas
0.9/0.999 and weight decay 1e-3, a 100-step sampler at guidance scale 6.0.

Configs load from JSON files and accept ``--dotted.key value`` command-line
overrides; values are parsed as JSON (or kept as text) and coerced to the
type of the field default they replace, so typos in key names or types fail
loudly with :class:`ConfigError`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Sequence

from .dataforge import ForgeConfig
from .flow import SamplerConfig, TrainConfig
from .model import ModelConfig
from .spectral import MelConfig

SESSION_RATE_DEFAULT = 44100


class ConfigError(ValueError):
    """Malformed configuration: bad file, unknown key, or wrong value type."""


class DataError(RuntimeError):
    """Missing or malformed input data (files, manifests, checkpoints)."""


@dataclass(frozen=True)
class PathsConfig:
    """Default locations used when a command's path flags are omitted."""

    data_root: str = "data"
    output_dir: str = "runs"


@dataclass(frozen=True)
class RunConfig:
    session_rate: int = SESSION_RATE_DEFAULT
    mel: MelConfig = field(default_factory=MelConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    forge: ForgeConfig = field(default_factory=ForgeConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.session_rate <= 0:
            raise ConfigError(f"session_rate must be positive, got {self.session_rate}")
        if self.mel.sample_rate != self.session_rate:
            raise ConfigError(
                f"mel.sample_rate {self.mel.sample_rate} != session_rate "
                f"{self.session_rate}; override both together"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a scene's float64 samples take 8 bytes each; numpy refuses 2**63 bytes
        if not self.forge.duration_s * self.session_rate < 2**60:
            raise ConfigError(
                f"forge.duration_s {self.forge.duration_s} at session_rate "
                f"{self.session_rate} makes a scene of 2**60 samples or more, "
                f"too many for one float64 array"
            )


def to_dict(config) -> dict:
    """Dataclass tree -> plain dict of JSON types (tuples become lists)."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out[f.name] = to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _build(cls, payload, prefix: str = ""):
    """Construct ``cls`` from a JSON object, checking every key against its fields.

    Only the keys the payload gives reach the constructor, so fields derived
    in ``__post_init__`` (``MelConfig.f_max`` from the sample rate) follow the
    values they derive from. ``prefix`` is the dotted path used in errors.
    """
    if not isinstance(payload, dict):
        where = prefix[:-1] or "<root>"
        raise ConfigError(
            f"config section '{where}' must be an object, got {type(payload).__name__}"
        )
    defaults = {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
    }
    kwargs = {}
    for name, value in payload.items():
        key = prefix + name
        if name not in defaults:
            raise ConfigError(f"unknown config key '{key}'")
        default = defaults[name]
        if is_dataclass(default):
            kwargs[name] = _build(type(default), value, key + ".")
        else:
            kwargs[name] = _coerce(value, default, key)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        section = f"'{prefix[:-1]}' " if prefix else ""
        raise ConfigError(f"invalid {section}config: {exc}") from exc


def from_dict(payload: dict) -> RunConfig:
    return _build(RunConfig, payload)


def _coerce(value, default, key: str):
    """Fit a JSON value onto the type of the field default it replaces."""
    if default is None:  # resolved by the dataclass itself (MelConfig.f_max)
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        if not number or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"'{key}' expects an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        # the comparison is false for NaN, inf and integers beyond float range
        if not (number and abs(value) <= sys.float_info.max):
            raise ConfigError(f"'{key}' expects a finite number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not (number or isinstance(value, str)):
            raise ConfigError(f"'{key}' expects a string, got {value!r}")
        return str(value)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"'{key}' expects a JSON list, got {value!r}")
        return tuple(value)
    raise ConfigError(f"'{key}' has unsupported type {type(default).__name__}")


def apply_overrides(payload: dict, overrides: Sequence[tuple[str, str]]) -> dict:
    """Set ``(dotted key, raw string value)`` pairs in a config dict.

    A value is parsed as JSON, or kept as text when it is not JSON, and
    replaces what is at its path (a whole section, if the key names one).
    Keys and types are checked when the dict is built into a :class:`RunConfig`.
    """
    for key, raw in overrides:
        *parents, leaf = key.split(".")
        node = payload
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"cannot set '{key}': its parent is not an object")
        try:
            node[leaf] = json.loads(raw)
        except ValueError:
            node[leaf] = raw
    return payload


def load_run_config(
    path=None, overrides: Sequence[tuple[str, str]] = ()
) -> RunConfig:
    """Defaults, optionally updated from a JSON file, then flag overrides."""
    payload = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return from_dict(apply_overrides(payload, overrides))
