import numpy as np
import pytest

from hrrkit.signal_model import (
    ExponentialRecovery,
    HeartbeatModel,
    RespirationModel,
    WaveformShape,
    noise_std_for_snr,
    synthesize_trace,
)


@pytest.fixture
def resp_full():
    return RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))


@pytest.fixture
def heart_recovery():
    return HeartbeatModel(
        ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID
    )


def noisy_recovery(seed):
    """The standard noisy recovery trace: 66 s at 100 Hz, 15 dB SNR."""
    resp = RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))
    heart = HeartbeatModel(ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID)
    noise_std = noise_std_for_snr(resp, heart, 15, 100.0, 66.0)
    return synthesize_trace(resp, heart, noise_std, 100.0, 66.0, seed)


@pytest.fixture
def recovery_trace():
    return noisy_recovery(1)


def tone(freq, fs, duration, amp=1.0, phase=0.0):
    t = np.arange(round(duration * fs)) / fs
    return amp * np.cos(2.0 * np.pi * freq * t + phase)
