"""WAV input/output: mono 16 kHz (``stft.RATE``), 16-bit PCM or 32-bit float,
no resampling.

A small RIFF reader and writer of its own, so a command need not load an
audio library. Only little-endian RIFF files are read; chunks other than
``fmt `` and ``data`` are skipped with their pad byte.
"""

from __future__ import annotations

import struct

import numpy as np

from .stft import RATE, Waveform

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# Tail of the WAVE_FORMAT_EXTENSIBLE sub-format GUID; its first four bytes
# hold the format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> sample dtype
_DTYPES = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}


def _chunks(raw: bytes, path):
    """(id, offset of body, body size) of each RIFF chunk after the header."""
    pos = 12
    while pos + 8 <= len(raw):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        if pos + 8 + size > len(raw):
            raise ValueError(f"{path}: truncated {cid!r} chunk")
        yield cid, pos + 8, size
        pos += 8 + size + (size & 1)


def read_wav(path) -> Waveform:
    """Load a mono 16 kHz WAV file.

    16-bit PCM data is scaled to [-1, 1); 32-bit float is used as-is. Both
    may be stored as ``WAVE_FORMAT_EXTENSIBLE``. Other encodings,
    multichannel files and other sample rates are rejected; there is no
    resampling. A file that is not RIFF/WAVE or is cut short raises
    ``ValueError`` naming the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    for cid, start, size in _chunks(raw, path):
        if cid == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", raw, start)
            if fmt[0] == _EXTENSIBLE:
                if size < 40:
                    raise ValueError(f"{path}: malformed fmt chunk")
                guid = raw[start + 24: start + 40]
                if guid.endswith(_GUID_TAIL):
                    fmt = (struct.unpack_from("<I", guid)[0],) + fmt[1:]
        elif cid == b"data":
            if fmt is None:
                raise ValueError(f"{path}: data chunk before fmt chunk")
            break
    else:
        raise ValueError(f"{path}: truncated, no data chunk")

    tag, channels, rate, _, block_align, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: only mono WAV files are supported")
    if rate != RATE:
        raise ValueError(
            f"{path}: sample rate {rate} Hz, expected {RATE} Hz "
            "(resampling is not supported)"
        )
    dtype = _DTYPES.get((tag, bits))
    if dtype is None or block_align != dtype.itemsize:
        raise ValueError(
            f"{path}: unsupported sample format (tag {tag:#06x}, {bits} "
            "bits); use 16-bit PCM or 32-bit float"
        )
    data = np.frombuffer(raw, dtype, size // dtype.itemsize, start)
    if dtype.kind == "i":
        samples = data.astype(np.float64) / 32768.0
    else:
        samples = data.astype(np.float64)
    return Waveform(samples)


def write_wav(path, wave: Waveform) -> None:
    """Write a waveform as mono 32-bit float WAV at RATE.

    The layout is the one ``scipy.io.wavfile.write`` gives float data: an
    18-byte ``fmt `` chunk (cbSize 0), a ``fact`` chunk with the sample
    count, then ``data``.
    """
    data = wave.samples.astype("<f4")
    header = struct.pack(
        "<4sI4s4sIHHIIHHH4sII4sI",
        b"RIFF", 50 + data.nbytes, b"WAVE",
        b"fmt ", 18, _IEEE_FLOAT, 1, RATE, 4 * RATE, 4, 32, 0,
        b"fact", 4, data.size,
        b"data", data.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
