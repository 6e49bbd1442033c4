"""Synthetic data for tests and desk-scale experiments.

Impulse responses are modeled as a unit direct-path impulse followed,
after the 2.5 ms direct-path window, by Gaussian noise under an
exponential envelope whose decay rate realizes the requested RT60 and
whose energy realizes the requested DRR exactly. This is enough to
validate parameter estimators and filter recovery with analytically
known ground truth; geometric room simulation is out of scope.

Everything is at ``stft.RATE`` (16 kHz) and runs on numpy alone. The
speech-like source filters its noise with a small IIR loop of its own,
``_lfilter``, whose output equals ``scipy.signal.lfilter``'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import DRR_DIRECT_S
from .stft import RATE, Waveform, _check_rate, _convolve

DIRECT_DELAY = 160  # samples before the direct-path impulse

# speech_like's filters as (b, a), b padded to a's length: a one-pole
# lowpass that tilts the spectrum toward low frequencies, then a 4th-order
# 120 Hz Butterworth highpass at 16 kHz that empties the sub-speech bands
# (fundamentals sit above 85 Hz). The highpass is
# scipy.signal.butter(4, 120 / 8000, "highpass") as exact hex floats.
_TILT = ((0.6, 0.0), (1.0, -0.4))
_HIGHPASS = tuple(tuple(map(float.fromhex, c)) for c in (
    ("0x1.e16c735382860p-1", "-0x1.e16c735382860p+1", "0x1.6911567ea1e48p+2",
     "-0x1.e16c735382860p+1", "0x1.e16c735382860p-1"),
    ("0x1.0p+0", "-0x1.f03d1ba0e6c38p+1", "0x1.68d6f199a7855p+2",
     "-0x1.d29bb78fa9e19p+1", "0x1.c4ac5ba8a9a26p-1"),
))


@dataclass
class SynthRirSpec:
    """Parameters of a synthetic impulse response."""

    rt60: float
    drr: float
    seed: int = 0

    def __post_init__(self):
        if not self.rt60 > 0:
            raise ValueError("rt60 must be positive")
        if self.rt60 == np.inf:
            raise ValueError("rt60 must be finite")
        if not self.drr > -np.inf:  # NaN or -inf; +inf is a pure impulse
            raise ValueError("drr must be a number or +inf")
        # without a tail sample the response is a pure impulse
        if round(self.rt60 * RATE) < 1 and self.drr != np.inf:
            raise ValueError("rt60 gives no tail sample at 16 kHz unless "
                             "drr is +inf")


def synth_rir(spec: SynthRirSpec) -> Waveform:
    """Generate the impulse response described by ``spec`` (deterministic
    in ``spec.seed``).

    The tail is Gaussian noise whose short-time power is pinned to the
    exponential envelope (sliding-RMS normalization over 2.5 ms), so the
    realized decay curve is log-linear and the nominal RT60 is the actual
    ground truth rather than the mean of a noisy realization. Tail energy
    is scaled to hit the requested DRR exactly. The response is the
    direct path at DIRECT_DELAY, a 2.5 ms guard gap, then a tail of rt60
    seconds, long enough to decay 60 dB.
    """
    rng = np.random.default_rng(spec.seed)
    # the tail starts just past the window that estimate_drr counts as direct
    tail_start = DIRECT_DELAY + int(round(DRR_DIRECT_S * RATE)) + 1
    h = np.zeros(tail_start + int(round(spec.rt60 * RATE)))
    h[DIRECT_DELAY] = 1.0

    m = h.size - tail_start
    if m > 0:
        n = np.arange(m)
        # amplitude envelope for a 60 dB energy decay over rt60 seconds
        env = np.exp(-3.0 * np.log(10.0) * n / (RATE * spec.rt60))
        g = rng.standard_normal(m)
        win = int(round(0.0025 * RATE))
        if m > 2 * win > 0:
            kernel = np.hanning(2 * win + 1)
            kernel /= kernel.sum()
            local = np.convolve(np.pad(g ** 2, win, mode="reflect"), kernel,
                                mode="valid")
            g = g / np.sqrt(np.maximum(local, 1e-12))
        tail = g * env
        target = 10.0 ** (-spec.drr / 10.0)
        current = float(np.sum(tail ** 2))
        if current > 0.0:
            tail *= np.sqrt(target / current)
        h[tail_start:] = tail
    return Waveform(h)


def mix(clean: Waveform, rir: Waveform, noise: Waveform | None,
        snr_db: float) -> Waveform:
    """Reverberant mixture: full convolution of clean with the impulse
    response plus noise scaled to the requested SNR.

    ``snr_db = +inf`` alone skips the noise, and ``noise`` may then be None;
    ``-inf`` and NaN are rejected. Otherwise the noise must be as long as the
    mixture. SNR is defined over the full mixture length from mean powers.
    """
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    if not np.any(clean.samples):
        raise ValueError("silent clean input: SNR undefined")
    sig = _convolve(clean.samples, rir.samples)
    if snr_db == np.inf:
        return Waveform(sig)
    if noise is None:
        raise ValueError(f"no noise to mix at {snr_db} dB SNR")
    n = noise.samples
    if n.size != sig.size:
        raise ValueError(f"noise has {n.size} samples, mixture {sig.size}")
    if not np.any(n):
        raise ValueError("silent noise input: cannot scale to target SNR")
    p_sig = float(np.mean(sig ** 2))
    p_noise = float(np.mean(n ** 2))
    gain = np.sqrt(p_sig / p_noise * 10.0 ** (-snr_db / 10.0))
    return Waveform(sig + gain * n)


def white_noise(num_samples: int, fs: int, seed: int = 0) -> Waveform:
    """Unit-variance white Gaussian noise; ``fs`` must be RATE."""
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(num_samples), fs)


def _lfilter(b, a, x: np.ndarray) -> np.ndarray:
    """IIR filter ``x`` with coefficients ``b``, ``a`` (``a[0] == 1``,
    ``len(b) == len(a) >= 2``) in direct form II transposed, from rest.

    This is the recursion of ``scipy.signal.lfilter``, term for term in the
    same order, so the output is the same bits.
    """
    n = len(a)
    z = [0.0] * (n - 1)
    y = np.empty(len(x))
    for k, xk in enumerate(x.tolist()):
        yk = z[0] + b[0] * xk
        for i in range(n - 2):
            z[i] = z[i + 1] + b[i + 1] * xk - a[i + 1] * yk
        z[n - 2] = b[n - 1] * xk - a[n - 1] * yk
        y[k] = yk
    return y


def speech_like(duration: float, fs: int, seed: int = 0) -> Waveform:
    """Nonstationary test source loosely mimicking speech dynamics:
    tilted noise under a syllabic-rate envelope, with short silent gaps.
    The gaps matter: reverberation decaying into them is what makes a
    room filter identifiable from a recording. ``fs`` must be RATE, the
    rate the highpass is designed for."""
    _check_rate(fs)
    rng = np.random.default_rng(seed)
    n = int(round(duration * RATE))
    if n < 1:
        raise ValueError(f"duration {duration} s gives no sample at 16 kHz")
    x = _lfilter(*_HIGHPASS, _lfilter(*_TILT, rng.standard_normal(n)))
    # mild syllabic-rate modulation; keep most frames energetic so the
    # filter stays well identified from a short utterance
    n_seg = max(2, int(duration * 4) + 1)
    knots = rng.uniform(0.7, 1.4, n_seg)
    env = np.interp(np.linspace(0, n_seg - 1, n), np.arange(n_seg), knots)
    # inter-phrase gaps: roughly every 0.4 s, 80-160 ms of silence
    pos = int(0.1 * RATE)
    while pos < n:
        gap = int(rng.uniform(0.08, 0.16) * RATE)
        env[pos: pos + gap] = 0.0
        pos += gap + int(rng.uniform(0.25, 0.45) * RATE)
    out = x * env
    return Waveform(out / np.max(np.abs(out)))


def direct_path_reference(clean: Waveform, rir: Waveform) -> Waveform:
    """Clean signal convolved with only the peak sample of the RIR: a
    scaled, delayed copy of the clean signal. Output length matches
    ``mix`` so frame counts line up.
    """
    h = rir.samples
    peak = int(np.argmax(np.abs(h)))
    direct = np.zeros_like(h)
    direct[peak] = h[peak]
    return Waveform(_convolve(clean.samples, direct))
