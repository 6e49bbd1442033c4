"""Batch scoring: RT60/DRR error statistics and log-spectral distortion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import Spectrogram

LSD_EPS = 1e-8


@dataclass
class ScoreReport:
    """Per-item errors and MAE/RMSE aggregates for RT60 (s) and DRR (dB)."""

    rt60_errors: np.ndarray
    drr_errors: np.ndarray
    rt60_mae: float = field(init=False)
    rt60_rmse: float = field(init=False)
    drr_mae: float = field(init=False)
    drr_rmse: float = field(init=False)

    def __post_init__(self):
        self.rt60_errors = np.asarray(self.rt60_errors, dtype=np.float64)
        self.drr_errors = np.asarray(self.drr_errors, dtype=np.float64)
        self.rt60_mae, self.rt60_rmse = _mae_rmse(self.rt60_errors)
        self.drr_mae, self.drr_rmse = _mae_rmse(self.drr_errors)


def _mae_rmse(errors: np.ndarray) -> tuple[float, float]:
    return (float(np.mean(np.abs(errors))),
            float(np.sqrt(np.mean(errors ** 2))))


def score_rir_batch(estimates, truths) -> ScoreReport:
    """Score paired (rt60, drr) estimates against reference values.

    Both arguments are sequences of (rt60, drr) pairs. Reference values
    should come from the same estimators applied to the true impulse
    responses. Missing values (None/NaN) are scoring failures.
    """
    if len(estimates) == 0:
        raise ValueError("empty batch")
    if len(estimates) != len(truths):
        raise ValueError(
            f"batch sizes differ: {len(estimates)} vs {len(truths)}")
    e = np.array(estimates, dtype=np.float64)
    t = np.array(truths, dtype=np.float64)
    bad = np.flatnonzero(~np.all(np.isfinite(np.hstack((e, t))), axis=1))
    if bad.size:
        raise ValueError(f"unscorable pairs at indices {bad.tolist()}")
    return ScoreReport(rt60_errors=e[:, 0] - t[:, 0],
                       drr_errors=e[:, 1] - t[:, 1])


def lsd(enhanced: Spectrogram, reference: Spectrogram) -> float:
    """Log-spectral distortion in dB between two equally shaped spectrograms.

    Per frame, the RMS over bins of the difference of 20 log10 magnitudes
    (floored by LSD_EPS), averaged over frames. Magnitudes are taken in
    the max-abs-normalized domain, and the enhanced side is first scaled
    so its total power matches the reference.
    """
    if enhanced.data.shape != reference.data.shape:
        raise ValueError(
            f"shape mismatch: {enhanced.data.shape} vs {reference.data.shape}"
        )
    em = np.abs(enhanced.data)
    rm = np.abs(reference.data)
    p_enh = float(np.sum(em ** 2))
    if p_enh > 0.0:
        em = em * np.sqrt(float(np.sum(rm ** 2)) / p_enh)
    diff = 20.0 * np.log10(em + LSD_EPS) - 20.0 * np.log10(rm + LSD_EPS)
    return float(np.mean(np.sqrt(np.mean(diff ** 2, axis=0))))
