"""RT60 and DRR estimation from an impulse-response waveform.

RT60 comes from Schroeder's backward-integrated energy decay curve: a
line is fitted by least squares to segments of the dB curve, candidate
segments are enumerated between the point where the curve has dropped
5 dB below its value at the direct-path peak and the point 50 ms after
the peak, each segment ends where the curve has fallen a further 5 dB,
and the fit with the largest |Pearson correlation| wins. RT60 is -60/k
for the winning slope k in dB/s.

DRR is the energy within +/-2.5 ms of the direct-path peak over the
energy everywhere else, in dB, capped at +80 dB: the cap is returned
whenever the tail is 80 dB or more below the direct part, whatever the
scale of the response.

These heuristics are fixed module constants; only the RT60 candidate
spacing is an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Waveform

EDC_DB_FLOOR = -120.0
RT60_START_DB = 5.0      # fit starts lie between the point this far below
RT60_MAX_START_S = 0.05  # the peak level and the point this long after it
RT60_END_DROP_DB = 5.0   # each fit ends this far below its start
DRR_DIRECT_S = 0.0025    # direct window, each side of the peak
DRR_CAP_DB = 80.0


class InsufficientDecayError(ValueError):
    """The decay curve never spans the range needed for a slope fit."""


@dataclass
class EdcCurve:
    """Backward-integrated energy decay curve, linear and dB forms."""

    values: np.ndarray
    db: np.ndarray


@dataclass
class AcousticParams:
    """Estimated room parameters; fields are None when not computed."""

    rt60: float | None = None
    drr: float | None = None
    fit_start: int | None = None
    fit_end: int | None = None
    pearson_r: float | None = None


def edc(h: Waveform) -> EdcCurve:
    """Schroeder integration: reverse cumulative sum of squared samples."""
    energy = np.cumsum(h.samples[::-1] ** 2)[::-1]
    total = energy[0]
    if total > 0.0:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(energy / total)
        db = np.maximum(db, EDC_DB_FLOOR)
    else:
        db = np.full_like(energy, EDC_DB_FLOOR)
    return EdcCurve(energy, db)


def estimate_rt60(h: Waveform, start_stride: float = 0.001) -> AcousticParams:
    """Reverberation time from the decay-curve slope.

    Parameters
    ----------
    h : Waveform
        Impulse response with a detectable direct-path peak (global
        absolute maximum). Candidate fit starts lie between the sample
        where the decay curve is RT60_START_DB below its value at the
        peak and the sample RT60_MAX_START_S after the peak; each fit
        ends at the first sample RT60_END_DROP_DB below its start.
    start_stride : float
        Candidate spacing in seconds.

    Raises
    ------
    InsufficientDecayError
        If no candidate segment achieves the required decay.
    """
    fs = h.sample_rate
    curve = edc(h)
    db = curve.db
    n = db.size
    peak = int(np.argmax(np.abs(h.samples)))

    below = np.nonzero(db[peak:] <= db[peak] - RT60_START_DB)[0]
    if below.size == 0:
        raise InsufficientDecayError(
            "insufficient decay range: curve never drops "
            f"{RT60_START_DB} dB below the direct-path level"
        )
    n5 = peak + int(below[0])
    n50 = peak + int(round(RT60_MAX_START_S * fs))
    lo, hi = min(n5, n50), max(n5, n50)
    hi = min(hi, n - 2)
    stride = max(1, int(round(start_stride * fs)))

    best = None
    for s in range(lo, hi + 1, stride):
        target = db[s] - RT60_END_DROP_DB
        rel = np.nonzero(db[s:] <= target)[0]
        if rel.size == 0:
            continue
        e = s + int(rel[0])
        if e - s < 2:
            continue
        # least-squares line and Pearson r from the biased (co)variances,
        # np.cov(x, y, bias=1)'s own arithmetic without its call overhead
        X = np.stack((np.arange(s, e + 1) / fs, db[s: e + 1]))
        X -= X.mean(axis=1)[:, None]
        sxx, sxy, _, syy = ((X @ X.T) * (1.0 / X.shape[1])).flat
        if sxx == 0.0 or syy == 0.0:
            continue
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
        slope = sxy / sxx
        if slope >= 0.0:
            continue
        if best is None or abs(r) > abs(best[0]):
            best = (r, slope, s, e)
    if best is None:
        raise InsufficientDecayError(
            "insufficient decay range: no fit interval reaches "
            f"{RT60_END_DROP_DB} dB of attenuation"
        )
    r, slope, s, e = best
    return AcousticParams(rt60=-60.0 / slope, fit_start=s, fit_end=e,
                          pearson_r=float(r))


def estimate_drr(h: Waveform) -> AcousticParams:
    """Direct-to-reverberant energy ratio in dB.

    The direct window spans DRR_DIRECT_S seconds on each side of the
    absolute peak; everything outside is reverberant energy. When the
    reverberant energy is DRR_CAP_DB or more below the direct energy, the
    cap is returned (an isolated impulse has no meaningful finite DRR).
    """
    x = h.samples
    peak = int(np.argmax(np.abs(x)))
    spread = int(round(DRR_DIRECT_S * h.sample_rate))
    a = max(0, peak - spread)
    b = min(x.size, peak + spread + 1)
    direct = float(np.sum(x[a:b] ** 2))
    rest = float(np.sum(x ** 2)) - direct
    if rest <= direct * 10.0 ** (-DRR_CAP_DB / 10.0):
        return AcousticParams(drr=DRR_CAP_DB)
    return AcousticParams(drr=10.0 * np.log10(direct / rest))
