"""Anechoic-speech prior precision built from magnitude spectra.

The prior on each T-F bin of the dry spectrum is a zero-mean complex
Gaussian whose precision is the inverse of the floored magnitude power:
alpha(f, t) = 1 / max(|S(f, t)|^2, POWER_FLOOR). Magnitudes can come from a
clean reference waveform (oracle use), or from a VPRI file exported by an
external enhancer. The precision matrix is held fixed while the inference
engine iterates.

VPRI file format (little-endian): magic bytes ``VPRI``, u32 version (1),
u32 F, u32 T, then F*T float32 magnitudes in frequency-major (row-major
F x T) order. Magnitudes refer to the max-abs-normalized observation.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .stft import TRANSFORM, Waveform, forward

# Numerical guard, not a model parameter: every precision, here and in the
# engine, is 1 / max(power, POWER_FLOOR), so a silent bin's stays finite.
POWER_FLOOR = 1e-10

_MAGIC = b"VPRI"
_VERSION = 1
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class PriorPrecision:
    """Per-bin prior precision alpha (1/power)."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.ndim != 2:
            raise ValueError("alpha must be an F x T matrix")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise ValueError("alpha entries must be finite and positive")

    @property
    def shape(self):
        return self.alpha.shape


def _checked_magnitudes(mag) -> np.ndarray:
    """``mag`` as float64, if it is finite and non-negative."""
    mag = np.asarray(mag, dtype=np.float64)
    if not np.all(np.isfinite(mag)):
        raise ValueError("magnitude matrix contains non-finite values")
    if np.any(mag < 0):
        raise ValueError("magnitudes must be non-negative")
    return mag


def from_magnitude(mag: np.ndarray) -> PriorPrecision:
    """Precision from a magnitude matrix: 1 / max(mag^2, POWER_FLOOR)."""
    mag = _checked_magnitudes(mag)
    return PriorPrecision(1.0 / np.maximum(mag ** 2, POWER_FLOOR))


def oracle_from_reference(clean: Waveform, transform: tuple[int, int],
                          expected_frames: int) -> PriorPrecision:
    """Ideal precision from an aligned direct-path reference waveform.

    The reference is analyzed as given, so it must be on the observation's
    scale (the CLI divides both by the observation's peak); the precision
    is 1/|S|^2 (floored). It may differ from the observation's
    ``expected_frames`` by at most one frame; |S| is cropped or zero-padded
    (silence has floor-level power, so padded frames get maximal
    precision). ``transform`` must be ``stft.TRANSFORM``, the value of the
    observation's ``Spectrogram.config``: revkit has one transform.
    """
    if transform != TRANSFORM:
        raise ValueError(
            f"transform must be {TRANSFORM} (the only one), got {transform!r}")
    mag = np.abs(forward(clean).data)
    T = mag.shape[1]
    if abs(T - expected_frames) > 1:
        raise ValueError(
            f"reference/observation length mismatch: {T} vs "
            f"{expected_frames} frames"
        )
    if T > expected_frames:
        mag = mag[:, :expected_frames]
    elif T < expected_frames:
        pad = np.zeros((mag.shape[0], expected_frames - T))
        mag = np.concatenate([mag, pad], axis=1)
    return from_magnitude(mag)


def save_prior_file(path, mag: np.ndarray) -> None:
    """Write a magnitude matrix as a VPRI prior file.

    Only a file that ``load_prior_file`` and ``from_magnitude`` accept is
    written: ``mag`` must be a non-empty F x T matrix of finite,
    non-negative values no larger than the float32 maximum, or nothing is
    written and ``ValueError`` is raised.
    """
    mag = _checked_magnitudes(mag)
    if mag.ndim != 2 or mag.size == 0:
        raise ValueError("prior magnitudes must be a non-empty F x T matrix")
    if np.any(mag > _F32_MAX):
        raise ValueError(f"magnitudes must not exceed the float32 maximum "
                         f"{_F32_MAX:.7g}")
    F, T = mag.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, F, T))
        fh.write(mag.astype("<f4").tobytes(order="C"))


def load_prior_file(path) -> np.ndarray:
    """Read a VPRI prior file back into an F x T float magnitude matrix."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a VPRI prior file (bad magic)")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated VPRI header")
        version, F, T = struct.unpack("<III", header)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported VPRI version {version}")
        if F < 1 or T < 1:
            raise ValueError(f"{path}: invalid dimensions {F} x {T}")
        # checked before reading, so a header cannot demand a huge read
        if os.fstat(fh.fileno()).st_size != 16 + 4 * F * T:
            raise ValueError(f"{path}: payload size does not match {F} x {T}")
        payload = fh.read(4 * F * T)
    mag = np.frombuffer(payload, dtype="<f4").reshape(F, T)
    return mag.astype(np.float64)
