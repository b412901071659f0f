"""Flat run configuration: defaults, key=value parsing, validation, echo."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError
from .hr_estimate import WindowConfig
from .vmd import GateThresholds, VmdParams


@dataclass
class PipelineConfig:
    """The method's settable parameters, flattened for the CLI.

    K modes, the gates mu1 and mu2, the first-pass counting-window floor
    l_min and the largest counting window l_b_max, each defaulting to its
    stage dataclass field. Every other stage value is a constant of the
    module that reads it. Construction checks every value and raises
    ConfigError for the first bad one.
    """

    k_modes: int = VmdParams.K
    mu1: float = GateThresholds.mu1
    mu2: float = GateThresholds.mu2
    l_min: float = WindowConfig.l_min
    l_b_max: float = WindowConfig.l_b_max

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # Constructing the stage objects runs their invariant checks.
        try:
            self.vmd_params()
            self.gates()
            self.window_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def vmd_params(self) -> VmdParams:
        return VmdParams(K=self.k_modes)

    def gates(self) -> GateThresholds:
        return GateThresholds(mu1=self.mu1, mu2=self.mu2)

    def window_config(self) -> WindowConfig:
        return WindowConfig(l_min=self.l_min, l_b_max=self.l_b_max)

    def echo(self) -> str:
        """Fully-resolved key=value dump, reproducing this config when re-read."""
        lines = [f"{f.name}={getattr(self, f.name)!r}".replace("'", "") for f in fields(self)]
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        valid = ", ".join(sorted(_FIELD_TYPES))
        raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
    target = _FIELD_TYPES[key]
    try:
        if target in ("int", int):
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r} as a number") from exc


def parse_config(
    path: Optional[str | Path] = None,
    overrides: Optional[Mapping[str, str]] = None,
) -> PipelineConfig:
    """Resolve a config from defaults, then a key=value file, then overrides."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, raw)
    if overrides:
        for key, raw in overrides.items():
            values[key] = _coerce(key, str(raw))
    return PipelineConfig(**values)
