"""STFT analysis/synthesis with perfect reconstruction on the overlapped interior.

revkit has one transform: a WIN = 512-sample periodic Hann window moved
HOP = 128 samples per frame, giving BINS = 257 frequency bins. Framing is
left-aligned with no centering: frame t covers samples [t*HOP, t*HOP + WIN).
One frame step therefore equals exactly one hop of time-domain delay, which
keeps subband filter taps interpretable as integer-hop delays. Samples past
the last full frame are not analyzed.

Both transforms are linear and keep the waveform's scale: any
normalization is the caller's (the CLI divides by the observation's peak).

revkit works at one sample rate, RATE = 16 kHz: a subband filter tap is one
hop of time at that rate (8 ms), and the impulse-response reconstruction and
the RT60/DRR read-out count seconds in its samples. No object carries a rate
or a transform.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import InitVar, dataclass
from functools import cache

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

RATE = 16000  # Hz, the one sample rate of every waveform
WIN = 512     # samples per analysis/synthesis window (32 ms)
HOP = 128     # samples per frame step, and per subband filter tap (8 ms)
BINS = WIN // 2 + 1  # frequency bins of a spectrogram
# 0.5 - 0.5 cos(2 pi n / WIN), n = 0..WIN-1, in the form that matches
# scipy.signal.get_window("hann", WIN, fftbins=True) bit for bit
WINDOW = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, WIN + 1))[:-1]
WINDOW.flags.writeable = False
TRANSFORM = (WIN, HOP)  # names the one transform: ``Spectrogram.config``


def _check_rate(fs: int) -> None:
    if fs != RATE:
        raise ValueError(f"revkit works at 16 kHz only, got {fs} Hz")


@dataclass
class Waveform:
    """Mono time-domain signal at RATE. A ``sample_rate``, if given, must
    be RATE."""

    samples: np.ndarray
    sample_rate: InitVar[int] = RATE

    def __post_init__(self, sample_rate):
        _check_rate(sample_rate)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional (mono)")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


@dataclass
class Spectrogram:
    """Complex half-spectrum matrix, frequency bins (rows) x frames (cols)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D")
        if self.data.shape[0] != BINS:
            raise ValueError(
                f"expected {BINS} frequency bins, got {self.data.shape[0]}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite values")

    @property
    def config(self) -> tuple[int, int]:
        """TRANSFORM, the one transform every spectrogram is on."""
        return TRANSFORM

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]


def num_frames(num_samples: int) -> int:
    """Frame count for left-aligned analysis: 1 + floor((N - WIN) / HOP)."""
    if num_samples < WIN:
        raise ValueError(
            f"input too short: {num_samples} samples < one window ({WIN})")
    return 1 + (num_samples - WIN) // HOP


def forward(wave: Waveform) -> Spectrogram:
    """Analyze a waveform, as given, into a (BINS, num_frames) complex
    spectrogram; the waveform must be at least one window long."""
    x = wave.samples
    T = num_frames(x.size)
    frames = sliding_window_view(x, WIN)[::HOP][:T]
    spec = np.fft.rfft(frames * WINDOW, n=WIN, axis=1)
    return Spectrogram(spec.T)


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


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum (T, WIN) frames placed HOP apart; length (T - 1) * HOP + WIN.

    Works one hop-sized block shift at a time, largest shift first, so
    every output sample adds its frames in ascending frame order.
    """
    T = frames.shape[0]
    shifts = WIN // HOP
    blocks = frames.reshape(T, shifts, HOP)
    acc = np.zeros((T - 1 + shifts, HOP))
    for m in range(shifts - 1, -1, -1):
        acc[m: m + T] += blocks[:, m]
    return acc.reshape(-1)


def _window_power(T: int) -> np.ndarray:
    """Overlap-added squared window of T frames: the divisor of ``inverse``,
    which vanishes towards the first and last sample."""
    return _overlap_add(np.broadcast_to(WINDOW ** 2, (T, WIN)))


def inverse(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis: the least-squares inverse of ``forward``.

    Output length is (T - 1) * HOP + WIN. Samples where the overlap-added
    window power vanishes (the very signal edges) are zero.
    """
    frames = np.fft.irfft(spec.data.T, n=WIN, axis=1)
    frames *= WINDOW
    acc = _overlap_add(frames)
    wsum = _window_power(spec.num_frames)
    live = wsum > 1e-12
    np.divide(acc, wsum, out=acc, where=live)
    acc[~live] = 0.0
    return Waveform(acc)
