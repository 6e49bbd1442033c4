"""STFT analysis/synthesis with perfect reconstruction on the overlapped interior.

Framing is left-aligned with no centering: frame t covers samples
[t*hop, t*hop + win_length). One frame step therefore equals exactly one
hop of time-domain delay, which keeps subband filter taps interpretable
as integer-hop delays. Samples past the last full frame are not analyzed.

Waveforms are normalized by their maximum absolute value before analysis;
the factor is kept on the spectrogram so synthesis can undo it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window


@dataclass
class Waveform:
    """Mono time-domain signal with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional (mono)")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class StftConfig:
    """Analysis/synthesis parameters. Both windows are periodic Hann."""

    win_length: int = 512
    hop: int = 128

    def __post_init__(self):
        if self.win_length < 2 or self.hop < 1:
            raise ValueError("win_length must be >= 2 and hop >= 1")
        if self.win_length % self.hop != 0:
            raise ValueError("hop must divide win_length")

    @property
    def window(self) -> np.ndarray:
        return get_window("hann", self.win_length, fftbins=True)

    @property
    def num_bins(self) -> int:
        return self.win_length // 2 + 1


@dataclass
class Spectrogram:
    """Complex half-spectrum matrix, frequency bins (rows) x frames (cols).

    ``scale`` is the max-abs normalization factor divided out of the source
    waveform before analysis; ``inverse`` multiplies it back in.
    """

    data: np.ndarray
    config: StftConfig
    scale: float = 1.0
    sample_rate: int = 16000

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D")
        if self.data.shape[0] != self.config.num_bins:
            raise ValueError(
                f"expected {self.config.num_bins} frequency bins, "
                f"got {self.data.shape[0]}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite values")

    @property
    def num_bins(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]


def num_frames(num_samples: int, cfg: StftConfig) -> int:
    """Frame count for left-aligned analysis: 1 + floor((N - win) / hop)."""
    if num_samples < cfg.win_length:
        raise ValueError(
            f"input too short: {num_samples} samples < one window "
            f"({cfg.win_length})"
        )
    return 1 + (num_samples - cfg.win_length) // cfg.hop


def forward(wave: Waveform, cfg: StftConfig | None = None,
            normalize: bool = True) -> Spectrogram:
    """Analyze a waveform into a complex spectrogram.

    Parameters
    ----------
    wave : Waveform
        Input signal; must be at least one window long.
    cfg : StftConfig, optional
        Transform configuration (512/128 Hann by default).
    normalize : bool
        Divide by the max absolute sample before analysis and store the
        factor in ``Spectrogram.scale``. A silent input keeps scale 1.

    Returns
    -------
    Spectrogram with shape (win_length // 2 + 1, num_frames).
    """
    if cfg is None:
        cfg = StftConfig()
    x = wave.samples
    T = num_frames(x.size, cfg)
    scale = 1.0
    if normalize:
        peak = float(np.max(np.abs(x)))
        if peak > 0.0:
            scale = peak
            x = x / scale
    frames = sliding_window_view(x, cfg.win_length)[:: cfg.hop][:T]
    spec = np.fft.rfft(frames * cfg.window, n=cfg.win_length, axis=1)
    return Spectrogram(spec.T, cfg, scale=scale, sample_rate=wave.sample_rate)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum (T, win) frames placed ``hop`` apart; length (T - 1) * hop + win.

    Works one hop-sized block shift at a time, largest shift first, so
    every output sample adds its frames in ascending frame order.
    """
    T, win = frames.shape
    shifts = win // hop
    blocks = frames.reshape(T, shifts, hop)
    acc = np.zeros((T - 1 + shifts, hop))
    for m in range(shifts - 1, -1, -1):
        acc[m: m + T] += blocks[:, m]
    return acc.reshape(-1)


def inverse(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis, undoing the stored normalization.

    Output length is (T - 1) * hop + win_length. Samples where the
    overlap-added window power vanishes (the very signal edges) are zero.
    """
    cfg = spec.config
    frames = np.fft.irfft(spec.data.T, n=cfg.win_length, axis=1)
    frames *= cfg.window
    acc = _overlap_add(frames, cfg.hop)
    w2 = np.broadcast_to(cfg.window ** 2, frames.shape)
    wsum = _overlap_add(w2, cfg.hop)
    out = np.divide(acc, wsum, out=np.zeros_like(acc), where=wsum > 1e-12)
    return Waveform(out * spec.scale, spec.sample_rate)
