"""Strict JSON run configuration.

One document keys every module config. Unknown keys fail fast, naming the
offending key, so a misspelled hyperparameter can never silently fall back
to its default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, UsageError
from .fusion import FaaeConfig, HcmaConfig
from .local_branch import CnnfConfig, SbcmConfig
from .model import DetectorConfig
from .spatial import BackboneConfig
from .synth import SynthConfig
from .train import TrainConfig

_SECTIONS = {
    "sbcm": SbcmConfig,
    "cnnf": CnnfConfig,
    "backbone": BackboneConfig,
    "faae": FaaeConfig,
    "hcma": HcmaConfig,
    "train": TrainConfig,
    "synth": SynthConfig,
}


# The one range rule: every number in a config is finite and positive, and
# these keys may also be zero.
_ZERO_ALLOWED = frozenset({"train.seed", "train.learning_rate", "train.weight_decay", "synth.seed",
                           "synth.grain", "synth.smooth_passes"})
# Width keys also have a maximum, 4x the widest shipped width (2048), so a
# mistyped width fails here and not in numpy's allocator: one 8192 x 8192
# float64 weight is already 512 MiB.
_WIDTH_MAX = 8192
_WIDTHS = frozenset({"sbcm.widths", "cnnf.widths", "backbone.widths", "backbone.output_dim",
                     "faae.attn_dim", "hcma.embed_dim"})


@dataclass
class RunConfig:
    """The detector plus the training and data settings.

    The ``train`` and ``synth`` sections fill the fields of the same names;
    every other section is a field of the one ``DetectorConfig``.
    """
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)


def _coerce(key: str, value, default):
    """Check a JSON value against the type of the field's default and the range rule.

    Tuple fields take lists; an int passes for a float, a bool never for an int.
    """
    if isinstance(default, tuple):
        if isinstance(value, list):
            return tuple(_coerce(f"{key}[{i}]", v, default[0]) for i, v in enumerate(value))
        raise UsageError(f"config key '{key}' must be a list, got {json.dumps(value)}")
    kind = type(default)
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, int):
            value = float(value)
        if isinstance(value, kind):
            if kind in (int, float):
                _check_range(key, value)
            return value
    raise UsageError(f"config key '{key}' must be {kind.__name__}, got {json.dumps(value)}")


def _check_range(key: str, value) -> None:
    zero_ok = key in _ZERO_ALLOWED
    if not (math.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
        raise ConfigError(f"config key '{key}' must be finite and {'>= 0' if zero_ok else '> 0'}, "
                          f"got {json.dumps(value)}")
    if key.split("[")[0] in _WIDTHS and value > _WIDTH_MAX:
        raise ConfigError(f"config key '{key}' must be <= {_WIDTH_MAX}, got {json.dumps(value)}")


def _build_section(name: str, cls, doc: dict):
    allowed = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in allowed:
            raise UsageError(f"unknown config key '{name}.{key}' "
                             f"(known: {sorted(allowed)})")
        kwargs[key] = _coerce(f"{name}.{key}", value, allowed[key].default)
    return cls(**kwargs)


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise UsageError("run config must be a JSON object")
    sections = {}
    for key, value in doc.items():
        if key not in _SECTIONS:
            raise UsageError(f"unknown config key '{key}' (known: {sorted(_SECTIONS)})")
        if not isinstance(value, dict):
            raise UsageError(f"config section '{key}' must be a JSON object")
        sections[key] = _build_section(key, _SECTIONS[key], value)
    run = {f.name: sections.pop(f.name) for f in dataclasses.fields(RunConfig)
           if f.name in sections}
    return RunConfig(detector=DetectorConfig(**sections), **run)


def load_run_config(path: Optional[str]) -> RunConfig:
    """Read a config file; None yields all defaults."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise UsageError(f"{path}: invalid JSON ({exc})") from exc
    return run_config_from_dict(doc)
