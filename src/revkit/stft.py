"""STFT analysis/synthesis with perfect reconstruction on the overlapped interior.

Framing is left-aligned with no centering: frame t covers samples
[t*hop, t*hop + win_length). One frame step therefore equals exactly one
hop of time-domain delay, which keeps subband filter taps interpretable
as integer-hop delays. Samples past the last full frame are not analyzed.

Both transforms are linear and keep the waveform's scale: any
normalization is the caller's (the CLI divides by the observation's peak).

revkit works at one sample rate, RATE = 16 kHz: a subband filter tap is one
hop of time at that rate, and the impulse-response reconstruction and the
RT60/DRR read-out count seconds in its samples. No object carries a rate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import InitVar, dataclass
from functools import cache

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

RATE = 16000  # Hz, the one sample rate of every waveform


@dataclass
class Waveform:
    """Mono time-domain signal at RATE. A ``sample_rate``, if given, must
    be RATE."""

    samples: np.ndarray
    sample_rate: InitVar[int] = RATE

    def __post_init__(self, sample_rate):
        if sample_rate != RATE:
            raise ValueError(
                f"revkit works at 16 kHz only, got {sample_rate} Hz")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional (mono)")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


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
        # 0.5 - 0.5 cos(2 pi n / N), n = 0..N-1, in the form that matches
        # scipy.signal.get_window("hann", N, fftbins=True) bit for bit
        n = self.win_length
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1))[:-1]

    @property
    def num_bins(self) -> int:
        return self.win_length // 2 + 1


@dataclass
class Spectrogram:
    """Complex half-spectrum matrix, frequency bins (rows) x frames (cols)."""

    data: np.ndarray
    config: StftConfig

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


def forward(wave: Waveform, cfg: StftConfig | None = None) -> Spectrogram:
    """Analyze a waveform, as given, into a complex spectrogram.

    Parameters
    ----------
    wave : Waveform
        Input signal; must be at least one window long.
    cfg : StftConfig, optional
        Transform configuration (512/128 Hann by default).

    Returns
    -------
    Spectrogram with shape (win_length // 2 + 1, num_frames).
    """
    if cfg is None:
        cfg = StftConfig()
    x = wave.samples
    T = num_frames(x.size, cfg)
    frames = sliding_window_view(x, cfg.win_length)[:: cfg.hop][:T]
    spec = np.fft.rfft(frames * cfg.window, n=cfg.win_length, axis=1)
    return Spectrogram(spec.T, cfg)


@cache
def _smooth_numbers(real: bool, bits: int) -> tuple[int, ...]:
    """Sorted 2·3·5-smooth (``real``) or 2·3·5·7·11-smooth numbers up to
    2**bits, the lengths pocketfft transforms fastest."""
    limit = 1 << bits
    nums = [1]
    for p in (2, 3, 5) if real else (2, 3, 5, 7, 11):
        grown = []
        for m in nums:
            while m <= limit:
                grown.append(m)
                m *= p
        nums = grown
    return tuple(sorted(nums))


def _next_fast_len(n: int, real: bool = False) -> int:
    """Smallest fast FFT length >= n >= 1; equal to
    ``scipy.fft.next_fast_len(n, real)``."""
    table = _smooth_numbers(real, (n - 1).bit_length())
    return table[bisect_left(table, n)]


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays through real FFTs of
    a fast length, equal bit for bit to ``scipy.signal.fftconvolve``."""
    n = a.size + b.size - 1
    if a.size == 1 or b.size == 1:
        return a * b
    m = _next_fast_len(n, True)
    return irfft(rfft(a, m) * rfft(b, m), m)[:n]


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


def _window_power(cfg: StftConfig, T: int) -> np.ndarray:
    """Overlap-added squared window of T frames: the divisor of ``inverse``,
    which vanishes towards the first and last sample."""
    w2 = np.broadcast_to(cfg.window ** 2, (T, cfg.win_length))
    return _overlap_add(w2, cfg.hop)


def inverse(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis: the least-squares inverse of ``forward``.

    Output length is (T - 1) * hop + win_length. Samples where the
    overlap-added window power vanishes (the very signal edges) are zero.
    """
    cfg = spec.config
    frames = np.fft.irfft(spec.data.T, n=cfg.win_length, axis=1)
    frames *= cfg.window
    acc = _overlap_add(frames, cfg.hop)
    wsum = _window_power(cfg, spec.num_frames)
    live = wsum > 1e-12
    np.divide(acc, wsum, out=acc, where=live)
    acc[~live] = 0.0
    return Waveform(acc)
