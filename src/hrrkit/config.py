"""Flat run configuration: defaults, key=value parsing, validation, echo."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError
from .mode_select import ModeSelectConfig
from .preprocess import FilterSpec
from .hr_estimate import CARRY_LIMIT, ENVELOPE_FLOOR, SMOOTH_WINDOW, WindowConfig
from .vmd import ALPHA_HI, ALPHA_LO, ALPHA_RATIO_TOL, GateThresholds, VmdParams, check_alpha_bracket


@dataclass
class PipelineConfig:
    """Every stage knob of the estimation pipeline, flattened for the CLI.

    Keys that mirror a stage dataclass field or a stage function default
    take their default from it.
    """

    # band-pass
    pass_low: float = FilterSpec.pass_low
    pass_high: float = FilterSpec.pass_high
    # decomposition
    k_modes: int = VmdParams.K
    alpha_lo: float = ALPHA_LO
    alpha_hi: float = ALPHA_HI
    alpha_ratio_tol: float = ALPHA_RATIO_TOL
    tau: float = VmdParams.tau
    vmd_tolerance: float = VmdParams.tolerance
    vmd_max_iters: int = VmdParams.max_iters
    mirror_frac: float = VmdParams.mirror_frac
    # gates
    mu1: float = GateThresholds.mu1
    mu2: float = GateThresholds.mu2
    # mode selection
    resp_lo: float = ModeSelectConfig.respiration_band[0]
    resp_hi: float = ModeSelectConfig.respiration_band[1]
    hr_lo: float = ModeSelectConfig.hr_band[0]
    hr_hi: float = ModeSelectConfig.hr_band[1]
    harmonic_tol: float = ModeSelectConfig.harmonic_tol
    noise_prominence: float = ModeSelectConfig.noise_prominence
    noise_oob_fraction: float = ModeSelectConfig.noise_oob_fraction
    peak_band_halfwidth: float = ModeSelectConfig.peak_band_halfwidth
    rel_peak_floor: float = ModeSelectConfig.rel_peak_floor
    # HR estimation
    l_min: float = WindowConfig.l_min
    l_b_max: float = WindowConfig.l_b_max
    l_min_lo: float = WindowConfig.l_min_bounds[0]
    l_min_hi: float = WindowConfig.l_min_bounds[1]
    cadence: float = WindowConfig.cadence
    smooth_window: float = SMOOTH_WINDOW
    envelope_floor: float = ENVELOPE_FLOOR
    carry_limit: float = CARRY_LIMIT

    def validate(self) -> "PipelineConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # Constructing the stage objects runs their invariant checks.
        try:
            self.filter_spec()
            self.vmd_params()
            self.gates()
            self.mode_select_config()
            self.window_config()
            check_alpha_bracket((self.alpha_lo, self.alpha_hi), self.alpha_ratio_tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 < self.carry_limit <= 1:
            raise ConfigError(f"carry_limit must be in (0, 1], got {self.carry_limit}")
        if not self.smooth_window > 0:
            raise ConfigError(f"smooth_window must be > 0, got {self.smooth_window}")
        return self

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(pass_low=self.pass_low, pass_high=self.pass_high)

    def vmd_params(self) -> VmdParams:
        return VmdParams(
            K=self.k_modes,
            tau=self.tau,
            tolerance=self.vmd_tolerance,
            max_iters=self.vmd_max_iters,
            mirror_frac=self.mirror_frac,
        )

    def gates(self) -> GateThresholds:
        return GateThresholds(mu1=self.mu1, mu2=self.mu2)

    def mode_select_config(self) -> ModeSelectConfig:
        return ModeSelectConfig(
            respiration_band=(self.resp_lo, self.resp_hi),
            hr_band=(self.hr_lo, self.hr_hi),
            harmonic_tol=self.harmonic_tol,
            noise_prominence=self.noise_prominence,
            noise_oob_fraction=self.noise_oob_fraction,
            peak_band_halfwidth=self.peak_band_halfwidth,
            rel_peak_floor=self.rel_peak_floor,
        )

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
    return PipelineConfig(**values).validate()
