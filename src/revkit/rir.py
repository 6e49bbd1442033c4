"""Room-impulse-response reconstruction from a subband filter.

A subband filter describes reverberation frame-to-frame in the transform
domain, which is not the transform of the impulse response itself, so it
cannot be inverted directly. Instead the filter is driven with a known
excitation, emulating an intrusive measurement: a logarithmic sine sweep
is analyzed, convolved with the filter taps along the frame axis in every
band, resynthesized, and deconvolved with the sweep's inverse filter
(time-reversed sweep with a -6 dB/octave amplitude envelope, after
Farina). The deconvolved signal is the impulse-response estimate. The
filter is used exactly as given: the engine leaves the bands it excluded
from inference at zero, so nothing here needs to know which they were.

The sweep is fixed (62.5 Hz to 8 kHz over 8.192 s at ``stft.RATE``, with
256- and 128-sample fades), and so is the crop: the filter's time
support, (L - 1) * HOP + WIN, plus 2 * WIN on each side of the origin
SWEEP_LEN - 1, where the sweep meets its own time reversal.
A filter tap is one hop at that same rate, so the estimate is a 16 kHz
response by construction.

At most two arrays the size of the sweep's spectrogram (~4.2 MB each) are
live at once. The peak, ~11.6 MB, is in synthesis: the inverse filter, the
filtered spectrogram and synthesis's frame and overlap-add buffers.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.fft import ifft

from .stft import (BINS, HOP, RATE, WIN, Spectrogram, Waveform, _convolve,
                   forward, inverse)
from .vem import _BAND_CHUNK, CtfFilter, _fft_padded, _spectrum

SWEEP_F1 = 62.5       # Hz
SWEEP_F2 = 8000.0     # Hz
SWEEP_LEN = 131072    # samples: 8.192 s at RATE
SWEEP_FADES = (256, 128)  # half-raised-cosine fade-in and fade-out, samples
# max|conv(e, v)| of log_sweep() and its unscaled inverse filter, at index
# SWEEP_LEN - 1: a constant of the fixed sweep, so no call convolves for it
SWEEP_PEAK = 13346.592014944174


def log_sweep() -> Waveform:
    """Generate the excitation e(n) = sin[N w1 / ln(w2/w1) (exp(n ln(w2/w1)/N) - 1)]

    with w = 2 pi f / RATE in radians per sample and N the sweep length,
    plus half-raised-cosine fades at both ends.
    """
    N = SWEEP_LEN
    w1 = 2.0 * np.pi * SWEEP_F1 / RATE
    w2 = 2.0 * np.pi * SWEEP_F2 / RATE
    ln_ratio = np.log(w2 / w1)
    n = np.arange(N)
    phase = (N * w1 / ln_ratio) * (np.exp(n * ln_ratio / N) - 1.0)
    e = np.sin(phase)
    fade_in, fade_out = SWEEP_FADES
    k = np.arange(fade_in)
    e[:fade_in] *= 0.5 * (1.0 - np.cos(np.pi * k / fade_in))
    k = np.arange(fade_out)
    e[N - fade_out:] *= 0.5 * (1.0 + np.cos(np.pi * k / fade_out))
    return Waveform(e)


def inverse_filter(sweep: Waveform) -> Waveform:
    """Deconvolution filter for ``log_sweep()``: its time reversal, amplitude
    modulated by exp(-n ln(w2/w1) / N), divided by SWEEP_PEAK so conv(e, v)
    has unit peak."""
    N = sweep.samples.size
    ln_ratio = np.log(SWEEP_F2 / SWEEP_F1)
    env = np.exp(-np.arange(N) * ln_ratio / N)
    return Waveform(sweep.samples[::-1] * env / SWEEP_PEAK)


def delta_position(sweep: Waveform, inv: Waveform) -> int:
    """Index of the impulse produced by conv(sweep, inverse filter):
    SWEEP_LEN - 1 for ``log_sweep()``, the origin ``ctf_to_rir`` assumes."""
    return int(np.argmax(np.abs(_convolve(sweep.samples, inv.samples))))


def ctf_to_rir(H: CtfFilter) -> Waveform:
    """Reconstruct an impulse-response waveform from (BINS, L) subband
    filter taps.

    Every band of ``H`` is used as given; a zero row (such as a band the
    engine excluded from inference) adds nothing to the estimate. The
    waveform is (L - 1) * HOP + 5 * WIN samples long: the filter's time
    support plus 2 * WIN on each side.
    """
    h = H.h
    if h.shape[0] != BINS:
        raise ValueError(
            f"filter has {h.shape[0]} bands, transform expects {BINS}")
    L = H.num_taps

    sweep = log_sweep()
    inv = inverse_filter(sweep)
    E = forward(sweep).data
    del sweep
    F, T = E.shape

    # Pseudo measurement: excitation frames filtered along time per band,
    # full length so the filter tail is retained. Guard frames of silence
    # keep all content inside the region of complete window overlap, where
    # synthesis is exact (edge frames are divided by a vanishing window
    # sum and would blow up). Y is built one block of bands at a time, so
    # the only full-size arrays are E and Y, and E goes before synthesis.
    guard = WIN // HOP
    n = T + L - 1
    Y = np.zeros((F, n + 2 * guard), dtype=np.complex128)
    for a in range(0, F, _BAND_CHUNK):
        rows = slice(a, a + _BAND_CHUNK)
        FY = _spectrum(E[rows], L)
        FY *= _fft_padded(h[rows], FY.shape[1])
        Y[rows, guard: guard + n] = ifft(FY, out=FY)[:, :n]
    del E
    y = inverse(Spectrogram(Y)).samples
    del Y

    full = _convolve(y, inv.samples)
    origin = SWEEP_LEN - 1 + guard * HOP

    margin = 2 * WIN
    support = (L - 1) * HOP + WIN
    # a copy, so the returned waveform does not keep the whole convolution
    cropped = full[origin - margin: origin + support + margin].copy()

    if not np.any(cropped):
        warnings.warn("all-zero filter produced an all-zero impulse response",
                      RuntimeWarning)
    return Waveform(cropped)
