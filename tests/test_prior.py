import numpy as np
import pytest

import revkit
from revkit import prior, stft


def test_unit_magnitude_gives_unit_precision():
    p = prior.from_magnitude(np.ones((4, 5)))
    np.testing.assert_array_equal(p.alpha, np.ones((4, 5)))


def test_zero_magnitude_hits_floor():
    mag = np.zeros((3, 3))
    p = prior.from_magnitude(mag, floor=1e-10)
    np.testing.assert_array_equal(p.alpha, np.full((3, 3), 1e10))


def test_elementwise_inverse_square():
    rng = np.random.default_rng(0)
    mag = rng.uniform(0.01, 5.0, (257, 20))
    p = prior.from_magnitude(mag, floor=1e-10)
    np.testing.assert_allclose(p.alpha, 1.0 / mag ** 2, rtol=1e-13)


def test_nonfinite_and_negative_rejected():
    with pytest.raises(ValueError):
        prior.from_magnitude(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        prior.from_magnitude(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        prior.from_magnitude(np.ones((2, 2)), floor=0.0)


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
    p = prior.oracle_from_reference(wave, spec.config)
    np.testing.assert_allclose(
        p.alpha, 1.0 / np.maximum(np.abs(spec.data) ** 2, prior.DEFAULT_POWER_FLOOR),
        rtol=1e-12,
    )


def test_oracle_direct_path_scaling():
    rng = np.random.default_rng(4)
    clean = revkit.Waveform(rng.standard_normal(8000), 16000)
    # direct path = attenuated delayed copy; magnitudes are what count
    delayed = revkit.Waveform(
        0.5 * np.concatenate([np.zeros(64), clean.samples[:-64]]), 16000
    )
    cfg = revkit.StftConfig()
    p = prior.oracle_from_reference(delayed, cfg)
    mag = np.abs(stft.forward(delayed, cfg).data)
    np.testing.assert_allclose(p.alpha, 1.0 / np.maximum(mag ** 2, prior.DEFAULT_POWER_FLOOR),
                               rtol=1e-12)


def test_oracle_silent_reference():
    silent = revkit.Waveform(np.zeros(4096), 16000)
    p = prior.oracle_from_reference(silent)
    np.testing.assert_array_equal(p.alpha, np.full(p.shape, 1e10))


def test_oracle_frame_mismatch():
    rng = np.random.default_rng(5)
    cfg = revkit.StftConfig()
    ref = revkit.Waveform(rng.standard_normal(8000), 16000)
    T = stft.forward(ref, cfg).num_frames
    # one frame off is tolerated (padded with max-precision frames)
    p = prior.oracle_from_reference(ref, cfg, expected_frames=T + 1)
    assert p.shape == (257, T + 1)
    with pytest.raises(ValueError, match="mismatch"):
        prior.oracle_from_reference(ref, cfg, expected_frames=T + 2)


def test_vpri_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mag = rng.uniform(0.0, 3.0, (257, 31)).astype(np.float32)
    path = tmp_path / "p.vpri"
    prior.save_prior_file(path, mag)
    back = prior.load_prior_file(path)
    assert back.shape == (257, 31)
    np.testing.assert_array_equal(back, mag.astype(np.float64))


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
