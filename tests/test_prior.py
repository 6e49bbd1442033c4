import struct

import numpy as np
import pytest

import revkit
from revkit import prior, stft


def test_unit_magnitude_gives_unit_precision():
    p = prior.from_magnitude(np.ones((4, 5)))
    np.testing.assert_array_equal(p.alpha, np.ones((4, 5)))


def test_zero_magnitude_hits_floor():
    mag = np.zeros((3, 3))
    p = prior.from_magnitude(mag)
    np.testing.assert_array_equal(p.alpha, np.full((3, 3), 1e10))


def test_elementwise_inverse_square():
    rng = np.random.default_rng(0)
    mag = rng.uniform(0.01, 5.0, (257, 20))
    p = prior.from_magnitude(mag)
    np.testing.assert_allclose(p.alpha, 1.0 / mag ** 2, rtol=1e-13)


def test_nonfinite_and_negative_rejected():
    with pytest.raises(ValueError):
        prior.from_magnitude(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        prior.from_magnitude(np.array([[1.0, -0.5]]))


def test_phase_invariance():
    rng = np.random.default_rng(1)
    mag = rng.uniform(0.1, 2.0, (5, 7))
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 7)))
    a1 = prior.from_magnitude(np.abs(mag * phase))
    a2 = prior.from_magnitude(mag)
    np.testing.assert_allclose(a1.alpha, a2.alpha, rtol=1e-12)


def test_monotonicity_and_scaling():
    rng = np.random.default_rng(2)
    mag = rng.uniform(0.1, 2.0, (6, 6))
    a = prior.from_magnitude(mag).alpha
    a_big = prior.from_magnitude(mag * 2).alpha
    assert np.all(a_big < a)
    np.testing.assert_allclose(a_big, a / 4.0, rtol=1e-12)


def test_oracle_matches_observation_init_when_identical():
    rng = np.random.default_rng(3)
    wave = revkit.Waveform(rng.standard_normal(8000), 16000)
    spec = stft.forward(wave)
    p = prior.oracle_from_reference(wave, spec.config, spec.num_frames)
    np.testing.assert_allclose(
        p.alpha, 1.0 / np.maximum(np.abs(spec.data) ** 2, prior.POWER_FLOOR),
        rtol=1e-12,
    )


def test_oracle_direct_path_scaling():
    rng = np.random.default_rng(4)
    clean = revkit.Waveform(rng.standard_normal(8000), 16000)
    # direct path = attenuated delayed copy; magnitudes are what count
    delayed = revkit.Waveform(
        0.5 * np.concatenate([np.zeros(64), clean.samples[:-64]]), 16000
    )
    spec = stft.forward(delayed)
    p = prior.oracle_from_reference(delayed, spec.config, spec.num_frames)
    mag = np.abs(spec.data)
    np.testing.assert_allclose(p.alpha, 1.0 / np.maximum(mag ** 2, prior.POWER_FLOOR),
                               rtol=1e-12)


def test_oracle_silent_reference():
    silent = revkit.Waveform(np.zeros(4096), 16000)
    spec = stft.forward(silent)
    p = prior.oracle_from_reference(silent, spec.config, spec.num_frames)
    np.testing.assert_array_equal(p.alpha, np.full(p.shape, 1e10))


def test_oracle_frame_mismatch():
    rng = np.random.default_rng(5)
    ref = revkit.Waveform(rng.standard_normal(8000), 16000)
    T = stft.forward(ref).num_frames
    # one frame off is tolerated (padded with max-precision frames)
    p = prior.oracle_from_reference(ref, stft.TRANSFORM, expected_frames=T + 1)
    assert p.shape == (257, T + 1)
    # or cropped; frames do not depend on the samples after them, so this is
    # the prior of the reference cut one hop short
    cut = revkit.Waveform(ref.samples[: -stft.HOP], 16000)
    p = prior.oracle_from_reference(ref, stft.TRANSFORM, expected_frames=T - 1)
    np.testing.assert_allclose(
        p.alpha, prior.oracle_from_reference(cut, stft.TRANSFORM,
                                             expected_frames=T - 1).alpha,
        rtol=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        prior.oracle_from_reference(ref, stft.TRANSFORM,
                                    expected_frames=T + 2)


@pytest.mark.parametrize("transform", [(256, 64), (512, 512), None, "512/128"])
def test_oracle_takes_the_spectrogram_config_and_nothing_else(transform):
    # bench/tracing.py passes the observation's Spectrogram.config as the
    # second argument; it names the one transform, and any other value
    # is refused rather than ignored
    rng = np.random.default_rng(8)
    w = revkit.Waveform(rng.standard_normal(8000), 16000)
    X = stft.forward(w)
    p = prior.oracle_from_reference(w, stft.forward(w).config,
                                    expected_frames=X.num_frames)
    np.testing.assert_array_equal(
        p.alpha, 1.0 / np.maximum(np.abs(X.data) ** 2, prior.POWER_FLOOR))
    with pytest.raises(ValueError, match="transform must be"):
        prior.oracle_from_reference(w, transform,
                                    expected_frames=X.num_frames)


def test_vpri_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mag = rng.uniform(0.0, 3.0, (257, 31)).astype(np.float32)
    path = tmp_path / "p.vpri"
    prior.save_prior_file(path, mag)
    back = prior.load_prior_file(path)
    assert back.shape == (257, 31)
    np.testing.assert_array_equal(back, mag.astype(np.float64))


@pytest.mark.parametrize("mag, message", [
    (np.zeros((0, 3)), "non-empty"),
    (np.zeros((3, 0)), "non-empty"),
    (np.array([[1.0, 1e39]]), "float32 maximum"),
    (np.array([[1.0, np.nan]]), "non-finite"),
    (np.array([[1.0, np.inf]]), "non-finite"),
    (np.array([[1.0, -0.5]]), "non-negative"),
], ids=["no-bands", "no-frames", "above-float32", "nan", "inf", "negative"])
def test_vpri_writer_refuses_what_the_reader_rejects(tmp_path, mag, message):
    # each of these once wrote a file that load_prior_file or from_magnitude
    # rejects (1e39 became inf with only a numpy warning); nothing is opened
    path = tmp_path / "p.vpri"
    with pytest.raises(ValueError, match=message):
        prior.save_prior_file(path, mag)
    assert not path.exists()


def test_vpri_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.vpri"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        prior.load_prior_file(path)
    good = tmp_path / "trunc.vpri"
    prior.save_prior_file(good, np.ones((4, 4)))
    data = good.read_bytes()
    good.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload"):
        prior.load_prior_file(good)


@pytest.mark.parametrize("header, message", [
    (b"VPRI" + struct.pack("<II", 1, 4), "truncated VPRI header"),
    (b"VPRI" + struct.pack("<III", 2, 4, 4), "unsupported VPRI version 2"),
    (b"VPRI" + struct.pack("<III", 1, 0, 4), "invalid dimensions 0 x 4"),
    (b"VPRI" + struct.pack("<III", 1, 4, 0), "invalid dimensions 4 x 0"),
], ids=["truncated-header", "version-2", "no-bands", "no-frames"])
def test_vpri_reader_rejects_bad_headers(tmp_path, header, message):
    path = tmp_path / "bad.vpri"
    path.write_bytes(header)  # each is rejected before the payload is sized
    with pytest.raises(ValueError) as exc:
        prior.load_prior_file(path)
    assert str(exc.value) == f"{path}: {message}"
