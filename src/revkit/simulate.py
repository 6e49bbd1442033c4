"""Synthetic data for tests and desk-scale experiments.

Impulse responses are modeled as a unit direct-path impulse followed,
after the 2.5 ms direct-path window, by Gaussian noise under an
exponential envelope whose decay rate realizes the requested RT60 and
whose energy realizes the requested DRR exactly. This is enough to
validate parameter estimators and filter recovery with analytically
known ground truth; geometric room simulation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Waveform, _convolve

DIRECT_DELAY = 160  # samples before the direct-path impulse


@dataclass
class SynthRirSpec:
    """Parameters of a synthetic impulse response."""

    rt60: float
    drr: float
    fs: int = 16000
    seed: int = 0

    def __post_init__(self):
        if self.rt60 <= 0:
            raise ValueError("rt60 must be positive")


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
    tail_start = DIRECT_DELAY + int(round(0.0025 * spec.fs)) + 1
    h = np.zeros(tail_start + int(round(spec.rt60 * spec.fs)))
    h[DIRECT_DELAY] = 1.0

    m = h.size - tail_start
    if m > 0:
        n = np.arange(m)
        # amplitude envelope for a 60 dB energy decay over rt60 seconds
        env = np.exp(-3.0 * np.log(10.0) * n / (spec.fs * spec.rt60))
        g = rng.standard_normal(m)
        win = int(round(0.0025 * spec.fs))
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
    return Waveform(h, spec.fs)


def mix(clean: Waveform, rir: Waveform, noise: Waveform | None,
        snr_db: float) -> Waveform:
    """Reverberant mixture: full convolution of clean with the impulse
    response plus noise scaled to the requested SNR.

    ``snr_db = inf`` (or ``noise = None``) skips the noise entirely.
    Noise shorter than the mixture is tiled. SNR is defined over the full
    mixture length from mean powers.
    """
    if clean.sample_rate != rir.sample_rate:
        raise ValueError("clean and RIR sample rates differ")
    if not np.any(clean.samples):
        raise ValueError("silent clean input: SNR undefined")
    sig = _convolve(clean.samples, rir.samples)
    if noise is None or np.isinf(snr_db):
        return Waveform(sig, clean.sample_rate)
    if noise.sample_rate != clean.sample_rate:
        raise ValueError("noise sample rate differs")
    if not np.any(noise.samples):
        raise ValueError("silent noise input: cannot scale to target SNR")
    n = noise.samples
    if n.size < sig.size:
        n = np.tile(n, sig.size // n.size + 1)
    n = n[: sig.size]
    p_sig = float(np.mean(sig ** 2))
    p_noise = float(np.mean(n ** 2))
    gain = np.sqrt(p_sig / p_noise * 10.0 ** (-snr_db / 10.0))
    return Waveform(sig + gain * n, clean.sample_rate)


def white_noise(num_samples: int, fs: int, seed: int = 0) -> Waveform:
    """Unit-variance white Gaussian noise."""
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(num_samples), fs)


def speech_like(duration: float, fs: int, seed: int = 0) -> Waveform:
    """Nonstationary test source loosely mimicking speech dynamics:
    tilted noise under a syllabic-rate envelope, with short silent gaps.
    The gaps matter: reverberation decaying into them is what makes a
    room filter identifiable from a recording."""
    # imported here: scipy.signal, which loads scipy.stats, would add
    # ~0.8 s to the start-up of every CLI command
    from scipy.signal import butter, lfilter

    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    x = rng.standard_normal(n)
    # one-pole lowpass tilts the spectrum toward low frequencies; the
    # highpass empties the sub-speech bands (fundamentals sit above 85 Hz)
    alpha = 0.4
    x = lfilter([1.0 - alpha], [1.0, -alpha], x)
    b_hp, a_hp = butter(4, 120.0 / (fs / 2.0), "highpass")
    x = lfilter(b_hp, a_hp, x)
    # mild syllabic-rate modulation; keep most frames energetic so the
    # filter stays well identified from a short utterance
    n_seg = max(2, int(duration * 4) + 1)
    knots = rng.uniform(0.7, 1.4, n_seg)
    env = np.interp(np.linspace(0, n_seg - 1, n), np.arange(n_seg), knots)
    # inter-phrase gaps: roughly every 0.4 s, 80-160 ms of silence
    pos = int(0.1 * fs)
    while pos < n:
        gap = int(rng.uniform(0.08, 0.16) * fs)
        env[pos: pos + gap] = 0.0
        pos += gap + int(rng.uniform(0.25, 0.45) * fs)
    out = x * env
    return Waveform(out / np.max(np.abs(out)), fs)


def direct_path_reference(clean: Waveform, rir: Waveform) -> Waveform:
    """Clean signal convolved with only the peak sample of the RIR: a
    scaled, delayed copy of the clean signal. Output length matches
    ``mix`` so frame counts line up.
    """
    if clean.sample_rate != rir.sample_rate:
        raise ValueError("sample rates differ")
    h = rir.samples
    peak = int(np.argmax(np.abs(h)))
    direct = np.zeros_like(h)
    direct[peak] = h[peak]
    return Waveform(_convolve(clean.samples, direct), clean.sample_rate)
