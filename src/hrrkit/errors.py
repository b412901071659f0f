"""Exception types raised by the pipeline stages."""


class InputError(ValueError):
    """An input file or argument is malformed or unusable (CLI exit 2).

    Any other ValueError reaching the CLI is a pipeline failure.
    """


class TrackingLostError(RuntimeError):
    """Target SNR stayed below the tracking floor for longer than allowed."""


class AlphaInfeasibleError(RuntimeError):
    """No penalty factor in the search range satisfied both decomposition gates.

    Carries the best (r_max, p) pair observed during the search and the
    least-violating attempt (``best_alpha``, ``best_modeset``), so callers
    can degrade gracefully.
    """

    def __init__(
        self, message: str, best_r_max: float, best_p: float, best_alpha: float, best_modeset
    ):
        super().__init__(message)
        self.best_r_max = best_r_max
        self.best_p = best_p
        self.best_alpha = best_alpha
        self.best_modeset = best_modeset


class NoHeartbeatError(RuntimeError):
    """No decomposition mode qualified as a heartbeat candidate in this window."""


class DegenerateSignalError(ValueError):
    """Signal too flat or too short for envelope normalization."""


class NoEstimateError(RuntimeError):
    """Not enough peaks around the requested time to form an HR estimate."""


class DegradedQualityError(RuntimeError):
    """More than the allowed fraction of windows produced no usable estimate."""


class ConfigError(ValueError):
    """Invalid configuration key or value."""
