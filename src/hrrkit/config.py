"""Flat run configuration: defaults, key=value parsing, validation, echo."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError
from .preprocess import FilterSpec
from .hr_estimate import CARRY_LIMIT, ENVELOPE_FLOOR, SMOOTH_WINDOW, WindowConfig
from .vmd import ALPHA_HI, ALPHA_LO, ALPHA_RATIO_TOL, GateThresholds, VmdParams, check_alpha_bracket

# The pipeline's VMD sweeps the bins below max(SWEEP_EDGE_FLOOR_HZ,
# SWEEP_EDGE_PASS_MULTIPLE * pass_high). The band-pass, a 4th-order
# Butterworth run forward and backward, is down to about 4**-8 in amplitude
# at four times its upper edge. What a window holds above 25 Hz is leakage
# from its edges, which modes swept to Nyquist leave in the residual too: on
# the windows of a recovery trace, the energy loss at alpha = 3162 moves by
# at most 1.2e-7 against the gate mu2 = 1e-4. A 12.5 Hz edge measurably
# costs accuracy. The edge is in Hz, not a share of the sample rate, so slow
# traces (at or below 50 Hz) keep every bin.
SWEEP_EDGE_FLOOR_HZ = 25.0
SWEEP_EDGE_PASS_MULTIPLE = 4.0


@dataclass
class PipelineConfig:
    """The estimation pipeline's settable stage knobs, flattened for the CLI.

    Keys that mirror a stage dataclass field or a stage function default
    take their default from it. Construction checks every value and raises
    ConfigError for the first bad one.
    """

    # band-pass
    pass_low: float = FilterSpec.pass_low
    pass_high: float = FilterSpec.pass_high
    # decomposition
    k_modes: int = VmdParams.K
    alpha_lo: float = ALPHA_LO
    alpha_hi: float = ALPHA_HI
    alpha_ratio_tol: float = ALPHA_RATIO_TOL
    vmd_tolerance: float = VmdParams.tolerance
    vmd_max_iters: int = VmdParams.max_iters
    # gates
    mu1: float = GateThresholds.mu1
    mu2: float = GateThresholds.mu2
    # HR estimation
    l_min: float = WindowConfig.l_min
    l_b_max: float = WindowConfig.l_b_max
    l_min_lo: float = WindowConfig.l_min_bounds[0]
    l_min_hi: float = WindowConfig.l_min_bounds[1]
    cadence: float = WindowConfig.cadence
    smooth_window: float = SMOOTH_WINDOW
    envelope_floor: float = ENVELOPE_FLOOR
    carry_limit: float = CARRY_LIMIT

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # Constructing the stage objects runs their invariant checks.
        try:
            self.filter_spec()
            self.vmd_params()
            self.gates()
            self.window_config()
            check_alpha_bracket((self.alpha_lo, self.alpha_hi), self.alpha_ratio_tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 < self.carry_limit <= 1:
            raise ConfigError(f"carry_limit must be in (0, 1], got {self.carry_limit}")
        if not self.smooth_window > 0:
            raise ConfigError(f"smooth_window must be > 0, got {self.smooth_window}")
        if not self.envelope_floor > 0:
            raise ConfigError(f"envelope_floor must be > 0, got {self.envelope_floor}")

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(pass_low=self.pass_low, pass_high=self.pass_high)

    def vmd_params(self) -> VmdParams:
        return VmdParams(
            K=self.k_modes,
            tolerance=self.vmd_tolerance,
            max_iters=self.vmd_max_iters,
            max_freq=max(SWEEP_EDGE_FLOOR_HZ, SWEEP_EDGE_PASS_MULTIPLE * self.pass_high),
        )

    def gates(self) -> GateThresholds:
        return GateThresholds(mu1=self.mu1, mu2=self.mu2)

    def window_config(self) -> WindowConfig:
        return WindowConfig(
            l_min=self.l_min,
            l_b_max=self.l_b_max,
            l_min_bounds=(self.l_min_lo, self.l_min_hi),
            cadence=self.cadence,
        )

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
