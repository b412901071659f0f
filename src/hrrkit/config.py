"""Flat run configuration: defaults, key=value parsing, validation, echo."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError
from .hr_estimate import WindowConfig
from .vmd import GateThresholds, VmdParams

# The pipeline's VMD sweeps the bins below SWEEP_EDGE_HZ. The band-pass, a
# 4th-order Butterworth run forward and backward, is down to about 4**-8 in
# amplitude at four times its upper edge of 3.4 Hz. What a window holds above
# 25 Hz is leakage from its edges, which modes swept to Nyquist leave in the
# residual too: on the windows of a recovery trace, the energy loss at
# alpha = 3162 moves by at most 1.2e-7 against the gate mu2 = 1e-4. A 12.5 Hz
# edge measurably costs accuracy. The edge is in Hz, not a share of the
# sample rate, so slow traces (at or below 50 Hz) keep every bin.
SWEEP_EDGE_HZ = 25.0


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
        return VmdParams(K=self.k_modes, max_freq=SWEEP_EDGE_HZ)

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
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
