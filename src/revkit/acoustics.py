"""RT60 and DRR estimation from an impulse-response waveform.

RT60 comes from Schroeder's backward-integrated energy decay curve: a
line is fitted by least squares to segments of the dB curve, candidate
segments start every 1 ms between the point where the curve has dropped
5 dB below its value at the direct-path peak and the point 50 ms after
the peak, each segment ends where the curve has fallen a further 5 dB,
and the fit with the largest |Pearson correlation| wins. RT60 is -60/k
for the winning slope k in dB/s. The search is exhaustive in effect but
not in cost: one pass of running sums screens every candidate's |r| to
within ~3e-13, and only the candidates within 1e-9 of the screened best
(one or two on simulated responses) get the exact least-squares fit, which
alone decides. The winner is therefore always among them, and the result
is the exhaustive search's, bit for bit.

DRR is the energy within +/-2.5 ms of the direct-path peak over the
energy everywhere else, in dB, capped at +80 dB: the cap is returned
whenever the tail is 80 dB or more below the direct part, whatever the
scale of the response. A silent response has no DRR and raises.

These heuristics are fixed module constants (``RT60_*``, ``DRR_*``), not
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import RATE, Waveform

EDC_DB_FLOOR = -120.0
RT60_START_DB = 5.0      # fit starts lie between the point this far below
RT60_MAX_START_S = 0.05  # the peak level and the point this long after it
RT60_END_DROP_DB = 5.0   # each fit ends this far below its start
RT60_START_STRIDE_S = 0.001  # spacing of the candidate fit starts
DRR_DIRECT_S = 0.0025    # direct window, each side of the peak
DRR_CAP_DB = 80.0
# estimate_rt60 gives the exact fit to every candidate whose screened |r|
# is within this of the screened maximum. The screen's worst |r| error was
# 1.7e-13 over 1000 synth_rir responses and 2.7e-13 over 800 random
# two- and three-slope decays, well under half the margin, so every
# candidate that can tie or beat the winner is kept.
_SCREEN_MARGIN = 1e-9


class InsufficientDecayError(ValueError):
    """The decay curve never spans the range needed for a slope fit."""


@dataclass
class AcousticParams:
    """Estimated room parameters; fields are None when not computed."""

    rt60: float | None = None
    drr: float | None = None
    fit_start: int | None = None
    fit_end: int | None = None
    pearson_r: float | None = None


def edc(h: Waveform) -> np.ndarray:
    """Schroeder's energy decay curve in dB re its start, floored at
    EDC_DB_FLOOR: the reverse cumulative sum of squared samples. It never
    rises, which lets ``estimate_rt60`` binary-search it."""
    energy = np.cumsum(h.samples[::-1] ** 2)[::-1]
    total = energy[0]
    if total > 0.0:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(energy / total)
        db = np.maximum(db, EDC_DB_FLOOR)
    else:
        db = np.full_like(energy, EDC_DB_FLOOR)
    return db


def estimate_rt60(h: Waveform) -> AcousticParams:
    """Reverberation time from the decay-curve slope.

    Parameters
    ----------
    h : Waveform
        Impulse response with a detectable direct-path peak (global
        absolute maximum). Candidate fit starts lie between the sample
        where the decay curve is RT60_START_DB below its value at the
        peak and the sample RT60_MAX_START_S after the peak; each fit
        ends at the first sample RT60_END_DROP_DB below its start.
        Candidates are RT60_START_STRIDE_S apart.

    Every candidate's |r| is screened from running sums (see
    ``_screen_abs_r``); the exact fit runs, in start order, only on those
    within _SCREEN_MARGIN of the screened maximum, and the first largest
    exact |r| wins. The screen's error is far below the margin, so this
    returns what the exact fit of every candidate would, bit for bit.

    Raises
    ------
    InsufficientDecayError
        If no candidate segment achieves the required decay.
    """
    db = edc(h)
    n = db.size
    peak = int(np.argmax(np.abs(h.samples)))

    # The first fit start is the first sample RT60_START_DB below the peak
    # level, and each fit end the first sample RT60_END_DROP_DB below its
    # start: -db never falls, so a binary search finds each (n when none).
    n5 = int(np.searchsorted(-db, -(db[peak] - RT60_START_DB)))
    if n5 == n:
        raise InsufficientDecayError(
            "insufficient decay range: curve never drops "
            f"{RT60_START_DB} dB below the direct-path level"
        )
    n50 = peak + int(round(RT60_MAX_START_S * RATE))
    lo, hi = min(n5, n50), max(n5, n50)
    hi = min(hi, n - 2)
    stride = max(1, int(round(RT60_START_STRIDE_S * RATE)))

    starts = np.arange(lo, hi + 1, stride)
    ends = np.searchsorted(-db, -(db[starts] - RT60_END_DROP_DB))
    ok = (ends != n) & (ends - starts >= 2)
    starts, ends = starts[ok], ends[ok]
    if starts.size == 0:
        raise InsufficientDecayError(
            "insufficient decay range: no fit interval reaches "
            f"{RT60_END_DROP_DB} dB of attenuation"
        )
    score = _screen_abs_r(db, starts, ends)
    keep = score >= score.max() - _SCREEN_MARGIN
    fits = []
    for s, e in zip(starts[keep].tolist(), ends[keep].tolist()):
        # least-squares line and Pearson r from the biased (co)variances,
        # np.cov(x, y, bias=1)'s own arithmetic without its call overhead
        X = np.stack((np.arange(s, e + 1) / RATE, db[s: e + 1]))
        X -= X.mean(axis=1)[:, None]
        sxx, sxy, _, syy = ((X @ X.T) * (1.0 / X.shape[1])).flat
        # sxx > 0 (at least 3 samples); the curve never rises and falls
        # RT60_END_DROP_DB over the segment, so syy > 0 and sxy < 0
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
        fits.append((abs(r), r, sxy / sxx, s, e))
    _, r, slope, s, e = max(fits, key=lambda fit: fit[0])  # first max wins
    return AcousticParams(rt60=-60.0 / slope, fit_start=s, fit_end=e,
                          pearson_r=float(r))


def _screen_abs_r(db: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray:
    """|Pearson r| of the line fit to db[s: e + 1] for every (s, e) pair,
    from running sums of y, k*y and y*y over one window: O(n) in all
    rather than O(n) per candidate. Pearson r does not depend on the
    x scale, so x is the sample index, whose centred sum of squares
    m(m^2 - 1)/12 is exact. y is taken relative to the window's first
    sample to keep the sums' cancellation small."""
    lo = int(starts[0])
    y = db[lo: int(ends.max()) + 1] - db[lo]
    sums = np.zeros((3, y.size + 1))
    np.cumsum(np.stack((y, np.arange(y.size) * y, y * y)), axis=1,
              out=sums[:, 1:])
    a, b = starts - lo, ends - lo + 1
    sy, sky, syy = sums[:, b] - sums[:, a]
    m = (b - a).astype(np.float64)
    sxy = sky - 0.5 * (a + b - 1) * sy
    syy -= sy * sy / m
    sxx = m * (m * m - 1.0) / 12.0
    return np.abs(sxy) / np.sqrt(sxx * syy)


def estimate_drr(h: Waveform) -> AcousticParams:
    """Direct-to-reverberant energy ratio in dB.

    The direct window spans DRR_DIRECT_S seconds on each side of the
    absolute peak; everything outside is reverberant energy. When the
    reverberant energy is DRR_CAP_DB or more below the direct energy, the
    cap is returned (an isolated impulse has no meaningful finite DRR).

    Raises
    ------
    ValueError
        If the direct energy is zero (a silent response).
    """
    x = h.samples
    peak = int(np.argmax(np.abs(x)))
    spread = int(round(DRR_DIRECT_S * RATE))
    a = max(0, peak - spread)
    b = min(x.size, peak + spread + 1)
    direct = float(np.sum(x[a:b] ** 2))
    if direct == 0.0:
        raise ValueError("silent impulse response: DRR undefined")
    rest = float(np.sum(x ** 2)) - direct
    if rest <= direct * 10.0 ** (-DRR_CAP_DB / 10.0):
        return AcousticParams(drr=DRR_CAP_DB)
    return AcousticParams(drr=10.0 * np.log10(direct / rest))
