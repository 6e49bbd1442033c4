"""Room-impulse-response reconstruction from a subband filter.

A subband filter describes reverberation frame-to-frame in the transform
domain, which is not the transform of the impulse response itself, so it
cannot be inverted directly. Instead the filter is driven with a known
excitation, emulating an intrusive measurement: a logarithmic sine sweep
is analyzed, convolved with the filter taps along the frame axis in every
band, resynthesized, and deconvolved with the sweep's inverse filter
(time-reversed sweep with a -6 dB/octave amplitude envelope, after
Farina). The deconvolved signal is the impulse-response estimate, cropped
around the known delta position of the sweep/inverse-filter pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import ifft

from .stft import (Spectrogram, StftConfig, Waveform, _convolve, forward,
                   inverse)
from .vem import CtfFilter, _fft_padded, _spectrum


@dataclass
class SweepConfig:
    """Logarithmic sine sweep parameters."""

    f1: float = 62.5
    f2: float = 8000.0
    duration: float = 8.192
    fade_in: int = 256
    fade_out: int = 128
    sample_rate: int = 16000

    def __post_init__(self):
        if not 0.0 < self.f1 < self.f2 <= self.sample_rate / 2:
            raise ValueError("need 0 < f1 < f2 <= sample_rate / 2")
        n = self.duration * self.sample_rate
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration must be an integer number of samples")
        if self.fade_in < 0 or self.fade_out < 0:
            raise ValueError("fades must be non-negative")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


@dataclass
class RirEstimate:
    """Reconstructed impulse response and the index of its direct-path peak."""

    waveform: Waveform
    direct_index: int

    def __post_init__(self):
        if not 0 <= self.direct_index < self.waveform.samples.size:
            raise ValueError("direct_index out of bounds")


def log_sweep(cfg: SweepConfig | None = None) -> Waveform:
    """Generate the excitation e(n) = sin[N w1 / ln(w2/w1) (exp(n ln(w2/w1)/N) - 1)]

    with w = 2 pi f / fs in radians per sample and N the sweep length,
    plus half-raised-cosine fades at both ends.
    """
    if cfg is None:
        cfg = SweepConfig()
    N = cfg.num_samples
    w1 = 2.0 * np.pi * cfg.f1 / cfg.sample_rate
    w2 = 2.0 * np.pi * cfg.f2 / cfg.sample_rate
    ln_ratio = np.log(w2 / w1)
    n = np.arange(N)
    phase = (N * w1 / ln_ratio) * (np.exp(n * ln_ratio / N) - 1.0)
    e = np.sin(phase)
    if cfg.fade_in > 0:
        k = np.arange(cfg.fade_in)
        e[: cfg.fade_in] *= 0.5 * (1.0 - np.cos(np.pi * k / cfg.fade_in))
    if cfg.fade_out > 0:
        k = np.arange(cfg.fade_out)
        e[N - cfg.fade_out:] *= 0.5 * (
            1.0 + np.cos(np.pi * k / cfg.fade_out)
        )
    return Waveform(e, cfg.sample_rate)


def inverse_filter(sweep: Waveform, cfg: SweepConfig | None = None) -> Waveform:
    """Deconvolution filter for the sweep: its time reversal, amplitude
    modulated by exp(-n ln(w2/w1) / N), scaled so conv(e, v) has unit peak."""
    if cfg is None:
        cfg = SweepConfig()
    N = sweep.samples.size
    ln_ratio = np.log(cfg.f2 / cfg.f1)
    env = np.exp(-np.arange(N) * ln_ratio / N)
    v = sweep.samples[::-1] * env
    peak = float(np.max(np.abs(_convolve(sweep.samples, v))))
    return Waveform(v / peak, sweep.sample_rate)


def delta_position(sweep: Waveform, inv: Waveform) -> int:
    """Index of the impulse produced by conv(sweep, inverse filter)."""
    return int(np.argmax(np.abs(_convolve(sweep.samples, inv.samples))))


def ctf_to_rir(H: CtfFilter, stft_cfg: StftConfig | None = None,
               sweep_cfg: SweepConfig | None = None,
               zero_low_bands: int = 3,
               crop_margin: int | None = None) -> RirEstimate:
    """Reconstruct an impulse-response waveform from subband filter taps.

    Parameters
    ----------
    H : CtfFilter
        (F, L) taps; F must match the transform's bin count.
    stft_cfg, sweep_cfg : optional
        Transform and excitation settings (defaults throughout).
    zero_low_bands : int
        Rows zeroed before reconstruction. Bands excluded from inference
        carry a placeholder unit tap, which must not leak into the
        estimate.
    crop_margin : int, optional
        Samples kept on each side of the filter's nominal time support
        (default 2 * win_length).

    Returns
    -------
    RirEstimate
        Cropped waveform of length (L - 1) * hop + win_length plus
        margins, with the detected direct-path peak index.
    """
    if stft_cfg is None:
        stft_cfg = StftConfig()
    if sweep_cfg is None:
        sweep_cfg = SweepConfig()
    if crop_margin is None:
        crop_margin = 2 * stft_cfg.win_length
    h = H.h
    if h.shape[0] != stft_cfg.num_bins:
        raise ValueError(
            f"filter has {h.shape[0]} bands, transform expects "
            f"{stft_cfg.num_bins}"
        )
    L = H.num_taps

    sweep = log_sweep(sweep_cfg)
    inv = inverse_filter(sweep, sweep_cfg)
    E = forward(sweep, stft_cfg)
    T = E.num_frames

    h_used = h.copy()
    h_used[:zero_low_bands] = 0.0

    # Pseudo measurement: excitation frames filtered along time per band,
    # full length so the filter tail is retained. Guard frames of silence
    # keep all content inside the region of complete window overlap, where
    # synthesis is exact (edge frames are divided by a vanishing window
    # sum and would blow up). The product is formed in place, as the sweep
    # spectrum is the largest array of an identify-rir run.
    guard = stft_cfg.win_length // stft_cfg.hop
    FY = _spectrum(E.data, L)
    FY *= _fft_padded(h_used, FY.shape[1])
    Y = np.pad(ifft(FY, out=FY)[:, : T + L - 1],
               ((0, 0), (guard, guard)))
    y = inverse(Spectrogram(Y, stft_cfg, scale=E.scale,
                            sample_rate=sweep.sample_rate))

    full = _convolve(y.samples, inv.samples)
    origin = delta_position(sweep, inv) + guard * stft_cfg.hop

    support = (L - 1) * stft_cfg.hop + stft_cfg.win_length
    start = max(0, origin - crop_margin)
    end = min(full.size, origin + support + crop_margin)
    cropped = full[start:end]

    if not np.any(cropped):
        warnings.warn("all-zero filter produced an all-zero impulse response",
                      RuntimeWarning)
        return RirEstimate(Waveform(cropped, sweep.sample_rate), 0)
    direct = int(np.argmax(np.abs(cropped)))
    return RirEstimate(Waveform(cropped, sweep.sample_rate), direct)
