"""Exception types raised by the pipeline stages."""


class InputError(ValueError):
    """An input file or argument is malformed or unusable (CLI exit 2).

    Any other ValueError reaching the CLI is a pipeline failure.
    """


class TrackingLostError(RuntimeError):
    """Target SNR stayed below the tracking floor for longer than allowed."""


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
