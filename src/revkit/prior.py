"""Anechoic-speech prior precision built from magnitude spectra.

The prior on each T-F bin of the dry spectrum is a zero-mean complex
Gaussian whose precision is the inverse of the (floored) magnitude power:
alpha(f, t) = 1 / max(|S(f, t)|^2, floor). Magnitudes can come from a
clean reference waveform (oracle use), or from a VPRI file exported by an
external enhancer. The precision matrix is held fixed while the inference
engine iterates.

VPRI file format (little-endian): magic bytes ``VPRI``, u32 version (1),
u32 F, u32 T, then F*T float32 magnitudes in frequency-major (row-major
F x T) order. Magnitudes refer to the max-abs-normalized observation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .stft import StftConfig, Waveform, forward

DEFAULT_POWER_FLOOR = 1e-10

_MAGIC = b"VPRI"
_VERSION = 1


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


def from_magnitude(mag: np.ndarray,
                   floor: float = DEFAULT_POWER_FLOOR) -> PriorPrecision:
    """Precision from a magnitude matrix: 1 / max(mag^2, floor)."""
    mag = np.asarray(mag, dtype=np.float64)
    if not np.all(np.isfinite(mag)):
        raise ValueError("magnitude matrix contains non-finite values")
    if np.any(mag < 0):
        raise ValueError("magnitudes must be non-negative")
    if floor <= 0:
        raise ValueError("power floor must be positive")
    return PriorPrecision(1.0 / np.maximum(mag ** 2, floor))


def oracle_from_reference(clean: Waveform, cfg: StftConfig | None = None,
                          floor: float = DEFAULT_POWER_FLOOR,
                          expected_frames: int | None = None) -> PriorPrecision:
    """Ideal precision from an aligned direct-path reference waveform.

    The reference is analyzed with the same transform as the observation
    and the precision is 1/|S|^2 (floored). When ``expected_frames`` is
    given, the reference may differ from it by at most one frame; the
    result is cropped or zero-padded (silence has floor-level power, so
    padded frames get maximal precision).
    """
    spec = forward(clean, cfg)
    mag = np.abs(spec.data)
    if expected_frames is not None:
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
    return from_magnitude(mag, floor=floor)


def save_prior_file(path, mag: np.ndarray) -> None:
    """Write a magnitude matrix as a VPRI prior file."""
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError("prior magnitudes must be an F x T matrix")
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
        payload = fh.read(4 * F * T + 1)
        if len(payload) != 4 * F * T:
            raise ValueError(f"{path}: payload size does not match {F} x {T}")
    mag = np.frombuffer(payload, dtype="<f4").reshape(F, T)
    return mag.astype(np.float64)
