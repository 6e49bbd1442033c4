import re
import struct

import numpy as np
import pytest
from scipy.io import wavfile

import revkit
from revkit import stft, wavio

GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(*chunks):
    """A RIFF/WAVE file from (id, body) chunks, odd bodies padded."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data
                    + b"\0" * (len(data) & 1) for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_body(tag, bits, rate=16000):
    return struct.pack("<HHIIHH", tag, 1, rate, rate * bits // 8, bits // 8,
                       bits)


def extensible_body(tag, bits):
    # cbSize 22: valid bits, channel mask, sub-format GUID
    return (fmt_body(0xFFFE, bits) + struct.pack("<HHI", 22, bits, 4)
            + struct.pack("<I", tag) + GUID_TAIL)


def samples(dtype, n=1001):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    if dtype == np.int16:
        return np.round(x * 32767).astype(np.int16)
    return x.astype(np.float32)


def scipy_read(path):
    rate, data = wavfile.read(path)
    assert rate == 16000
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    return data.astype(np.float64)


@pytest.mark.parametrize("n", [1, 2, 1001, 48000])
def test_write_matches_scipy_bytes(tmp_path, n):
    x = np.random.default_rng(n).standard_normal(n)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    wavio.write_wav(ours, revkit.Waveform(x, 16000))
    wavfile.write(theirs, 16000, x.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_read_matches_scipy(tmp_path, dtype):
    path = tmp_path / "a.wav"
    wavfile.write(path, stft.RATE, samples(dtype))
    wave = wavio.read_wav(path)
    assert np.array_equal(wave.samples, scipy_read(path))


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_read_extensible_and_odd_chunk(tmp_path, dtype):
    data = samples(dtype).tobytes()
    tag, bits = (1, 16) if dtype == np.int16 else (3, 32)
    files = {
        "ext.wav": riff((b"fmt ", extensible_body(tag, bits)),
                        (b"data", data)),
        "list.wav": riff((b"fmt ", fmt_body(tag, bits)),
                         (b"LIST", b"INFOodd"), (b"data", data)),
    }
    for name, raw in files.items():
        path = tmp_path / name
        path.write_bytes(raw)
        assert np.array_equal(wavio.read_wav(path).samples, scipy_read(path))


@pytest.mark.parametrize("body", [
    fmt_body(1, 16)[:14],
    extensible_body(1, 16)[:38],
], ids=["fmt-14-bytes", "extensible-38-bytes"])
def test_short_fmt_chunk_is_malformed(tmp_path, body):
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(riff((b"fmt ", body), (b"data", b"\0\0")))
    with pytest.raises(ValueError) as exc:
        wavio.read_wav(path)
    assert str(exc.value) == f"{path}: malformed fmt chunk"


def test_not_riff_or_truncated_names_path(tmp_path):
    whole = tmp_path / "whole.wav"
    wavio.write_wav(whole, revkit.Waveform(np.ones(100), 16000))
    raw = whole.read_bytes()
    bodies = [b"", b"not a wav file at all", b"RIFX" + raw[4:],
              raw[:8] + b"AVI " + raw[12:],
              riff((b"data", b"\0\0"), (b"fmt ", fmt_body(1, 16)))]
    bodies += [raw[:cut] for cut in (4, 11, 12, 19, 30, 45, 57, 58,
                                     len(raw) - 1)]
    for i, body in enumerate(bodies):
        path = tmp_path / f"bad{i}.wav"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            wavio.read_wav(path)
