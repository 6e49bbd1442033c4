"""Room-impulse-response reconstruction from a subband filter.

A subband filter describes reverberation frame-to-frame in the transform
domain, which is not the transform of the impulse response itself, so it
cannot be inverted directly. Instead the filter is driven with a known
excitation, emulating an intrusive measurement: a logarithmic sine sweep
is analyzed, convolved with the filter taps along the frame axis in every
band, resynthesized, and deconvolved with the sweep's inverse filter
(time-reversed sweep with a -6 dB/octave amplitude envelope, after
Farina). The deconvolved signal is the impulse-response estimate.

The sweep is fixed (62.5 Hz to 8 kHz over 8.192 s at 16 kHz, with
256- and 128-sample fades), and so is the crop: the filter's time
support, (L - 1) * hop + win_length, plus 2 * win_length on each side of
the origin SWEEP_LEN - 1, where the sweep meets its own time reversal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import ifft

from .stft import (Spectrogram, StftConfig, Waveform, _convolve, forward,
                   inverse)
from .vem import CtfFilter, _fft_padded, _spectrum

SWEEP_F1 = 62.5       # Hz
SWEEP_F2 = 8000.0     # Hz
SWEEP_LEN = 131072    # samples: 8.192 s at SWEEP_RATE
SWEEP_FADES = (256, 128)  # half-raised-cosine fade-in and fade-out, samples
SWEEP_RATE = 16000


@dataclass
class RirEstimate:
    """Reconstructed impulse response and the index of its direct-path peak."""

    waveform: Waveform
    direct_index: int

    def __post_init__(self):
        if not 0 <= self.direct_index < self.waveform.samples.size:
            raise ValueError("direct_index out of bounds")


def log_sweep() -> Waveform:
    """Generate the excitation e(n) = sin[N w1 / ln(w2/w1) (exp(n ln(w2/w1)/N) - 1)]

    with w = 2 pi f / fs in radians per sample and N the sweep length,
    plus half-raised-cosine fades at both ends.
    """
    N = SWEEP_LEN
    w1 = 2.0 * np.pi * SWEEP_F1 / SWEEP_RATE
    w2 = 2.0 * np.pi * SWEEP_F2 / SWEEP_RATE
    ln_ratio = np.log(w2 / w1)
    n = np.arange(N)
    phase = (N * w1 / ln_ratio) * (np.exp(n * ln_ratio / N) - 1.0)
    e = np.sin(phase)
    fade_in, fade_out = SWEEP_FADES
    k = np.arange(fade_in)
    e[:fade_in] *= 0.5 * (1.0 - np.cos(np.pi * k / fade_in))
    k = np.arange(fade_out)
    e[N - fade_out:] *= 0.5 * (1.0 + np.cos(np.pi * k / fade_out))
    return Waveform(e, SWEEP_RATE)


def inverse_filter(sweep: Waveform) -> Waveform:
    """Deconvolution filter for the sweep: its time reversal, amplitude
    modulated by exp(-n ln(w2/w1) / N), scaled so conv(e, v) has unit peak."""
    N = sweep.samples.size
    ln_ratio = np.log(SWEEP_F2 / SWEEP_F1)
    env = np.exp(-np.arange(N) * ln_ratio / N)
    v = sweep.samples[::-1] * env
    peak = float(np.max(np.abs(_convolve(sweep.samples, v))))
    return Waveform(v / peak, sweep.sample_rate)


def delta_position(sweep: Waveform, inv: Waveform) -> int:
    """Index of the impulse produced by conv(sweep, inverse filter):
    SWEEP_LEN - 1 for ``log_sweep()``, the origin ``ctf_to_rir`` assumes."""
    return int(np.argmax(np.abs(_convolve(sweep.samples, inv.samples))))


def ctf_to_rir(H: CtfFilter, stft_cfg: StftConfig | None = None,
               zero_low_bands: int = 3) -> RirEstimate:
    """Reconstruct an impulse-response waveform from subband filter taps.

    Parameters
    ----------
    H : CtfFilter
        (F, L) taps; F must match the transform's bin count.
    stft_cfg : StftConfig, optional
        Transform settings (default transform).
    zero_low_bands : int
        Rows zeroed before reconstruction. Bands excluded from inference
        carry a placeholder unit tap, which must not leak into the
        estimate.

    Returns
    -------
    RirEstimate
        Waveform of length (L - 1) * hop + 5 * win_length: the filter's
        time support plus 2 * win_length on each side, with the detected
        direct-path peak index.
    """
    if stft_cfg is None:
        stft_cfg = StftConfig()
    h = H.h
    if h.shape[0] != stft_cfg.num_bins:
        raise ValueError(
            f"filter has {h.shape[0]} bands, transform expects "
            f"{stft_cfg.num_bins}"
        )
    L = H.num_taps

    sweep = log_sweep()
    inv = inverse_filter(sweep)
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
    origin = SWEEP_LEN - 1 + guard * stft_cfg.hop

    margin = 2 * stft_cfg.win_length
    support = (L - 1) * stft_cfg.hop + stft_cfg.win_length
    cropped = full[origin - margin: origin + support + margin]

    if not np.any(cropped):
        warnings.warn("all-zero filter produced an all-zero impulse response",
                      RuntimeWarning)
        return RirEstimate(Waveform(cropped, sweep.sample_rate), 0)
    direct = int(np.argmax(np.abs(cropped)))
    return RirEstimate(Waveform(cropped, sweep.sample_rate), direct)
