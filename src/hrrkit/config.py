"""The method's five parameters: defaults, key=value parsing, validation, echo.

``PipelineConfig`` is the one type that holds them. The CLI builds it from
a config file and ``--set`` overrides, and the stages read it as it is:
``vmd.select_alpha`` takes K, mu1 and mu2 from it, and
``hr_estimate.run_composite_windows`` takes l_min and the window geometry
that l_b_max sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from . import hr_estimate
from .errors import ConfigError


@dataclass
class PipelineConfig:
    """The method's settable parameters, one CLI key each.

    K modes and the gates mu1 (ceiling on the largest pairwise mode
    correlation) and mu2 (ceiling on the energy loss) for the adaptive VMD;
    the first-pass counting-window floor l_min and the largest counting
    window l_b_max for the composite windows. Every other stage value is a
    constant of the module that reads it, and alpha is set by the search.
    Construction checks every value and raises ConfigError for the first
    bad one.
    """

    k_modes: int = 6
    mu1: float = 0.2
    mu2: float = 1e-4
    l_min: float = 5.0
    l_b_max: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not 2 <= self.k_modes <= 7:
            raise ConfigError(f"K must be in [2, 7], got {self.k_modes}")
        if not 0.0 < self.mu1 < 1.0:
            raise ConfigError(f"mu1 must be in (0, 1), got {self.mu1}")
        # mu2 == 0 is permitted so an unsatisfiable energy gate can be
        # expressed; the search then always ends infeasible.
        if not 0.0 <= self.mu2 < 1.0:
            raise ConfigError(f"mu2 must be in [0, 1), got {self.mu2}")
        # Read when called, so a test that rebinds the bounds is checked by them.
        l_min_hi = hr_estimate.L_MIN_BOUNDS[1]
        if not l_min_hi <= self.l_b_max:
            raise ConfigError(
                f"l_b_max must be >= {l_min_hi} s, the adapted l_min's upper "
                f"bound, got {self.l_b_max}"
            )
        if not 0 < self.l_min <= self.l_b_max:
            raise ConfigError(f"l_min must be in (0, l_b_max], got {self.l_min}")

    @property
    def stride(self) -> float:
        """Outer-window advance per step (the paper's delta-l = max l_b)."""
        return self.l_b_max

    @property
    def l_a(self) -> float:
        """Outer (decomposition) window length, twice the maximum l_b."""
        return 2.0 * self.l_b_max

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
