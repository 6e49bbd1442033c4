import numpy as np
import pytest

import revkit
from revkit import acoustics, simulate, stft


def test_synth_rir_cap_level_drr_is_pure_impulse():
    spec = simulate.SynthRirSpec(rt60=0.5, drr=80.0, seed=0)
    h = simulate.synth_rir(spec)
    tail = np.sum(h.samples ** 2) - 1.0
    assert tail < 1e-7
    assert h.samples[simulate.DIRECT_DELAY] == 1.0


def test_synth_rir_without_a_tail_sample_is_an_infinite_drr_impulse():
    # rt60 * 16000 rounds to 0: no tail, so only drr = +inf is the truth
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=3e-5, drr=np.inf))
    assert np.flatnonzero(h.samples).tolist() == [simulate.DIRECT_DELAY]
    assert acoustics.estimate_drr(h).drr == acoustics.DRR_CAP_DB
    # one tail sample is enough to carry a finite DRR
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=1 / 16000, drr=0.0))
    assert acoustics.estimate_drr(h).drr == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("rt60", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("drr", [-5.0, 0.0, 5.0, 10.0])
def test_synth_rir_round_trip_grid(rt60, drr):
    spec = simulate.SynthRirSpec(rt60=rt60, drr=drr, seed=17)
    h = simulate.synth_rir(spec)
    est_rt = acoustics.estimate_rt60(h).rt60
    est_drr = acoustics.estimate_drr(h).drr
    assert abs(est_rt - rt60) / rt60 <= 0.05
    assert abs(est_drr - drr) <= 0.5


def test_synth_rir_deterministic_in_seed():
    spec = simulate.SynthRirSpec(rt60=0.4, drr=3.0, seed=9)
    h1 = simulate.synth_rir(spec)
    h2 = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.4, drr=3.0, seed=9))
    np.testing.assert_array_equal(h1.samples, h2.samples)
    h3 = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.4, drr=3.0, seed=10))
    assert not np.array_equal(h1.samples, h3.samples)


def test_mix_identity_channel_no_noise():
    rng = np.random.default_rng(1)
    clean = revkit.Waveform(rng.standard_normal(4000), 16000)
    delta = revkit.Waveform(np.array([1.0]), 16000)
    out = simulate.mix(clean, delta, None, np.inf)
    np.testing.assert_array_equal(out.samples, clean.samples)


def test_mix_snr_is_exact():
    rng = np.random.default_rng(2)
    clean = revkit.Waveform(rng.standard_normal(8000), 16000)
    rir = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.3, drr=5.0, seed=3))
    noise = simulate.white_noise(clean.samples.size + rir.samples.size - 1,
                                 16000, seed=4)
    out = simulate.mix(clean, rir, noise, 0.0)
    sig = simulate.mix(clean, rir, None, np.inf).samples
    n = out.samples - sig
    snr = 10 * np.log10(np.mean(sig ** 2) / np.mean(n ** 2))
    assert abs(snr) < 0.1


def test_mix_linear_in_clean():
    rng = np.random.default_rng(5)
    clean = revkit.Waveform(rng.standard_normal(3000), 16000)
    double = revkit.Waveform(2.0 * clean.samples, 16000)
    rir = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.3, drr=0.0, seed=6))
    out1 = simulate.mix(clean, rir, None, np.inf)
    out2 = simulate.mix(double, rir, None, np.inf)
    np.testing.assert_allclose(out2.samples, 2.0 * out1.samples, atol=1e-12)


def test_mix_silent_clean_rejected():
    silent = revkit.Waveform(np.zeros(1000), 16000)
    rir = revkit.Waveform(np.array([1.0]), 16000)
    with pytest.raises(ValueError, match="SNR undefined"):
        simulate.mix(silent, rir, None, 20.0)


def test_mix_silent_noise_rejected():
    rng = np.random.default_rng(8)
    clean = revkit.Waveform(rng.standard_normal(1000), 16000)
    rir = revkit.Waveform(np.array([1.0]), 16000)
    silent = revkit.Waveform(np.zeros(1000), 16000)
    with pytest.raises(ValueError,
                       match="^silent noise input: cannot scale to target SNR$"):
        simulate.mix(clean, rir, silent, 20.0)


def test_mix_rejects_noise_of_another_length():
    # noise is neither tiled nor cut: every caller passes the mixture's length
    rng = np.random.default_rng(9)
    clean = revkit.Waveform(rng.standard_normal(1000), 16000)
    rir = revkit.Waveform(np.array([1.0, 0.5]), 16000)  # mixture: 1001
    for size in (1000, 1002):
        noise = revkit.Waveform(rng.standard_normal(size), 16000)
        with pytest.raises(ValueError,
                           match=f"^noise has {size} samples, mixture 1001$"):
            simulate.mix(clean, rir, noise, 10.0)


def test_mix_at_a_finite_snr_needs_noise():
    # only snr_db = +inf skips the noise; a missing noise must not turn a
    # requested SNR into the noiseless mixture
    clean = simulate.white_noise(1000, 16000, seed=1)
    rir = revkit.Waveform(np.array([1.0]), 16000)
    with pytest.raises(ValueError, match="^no noise to mix at 20.0 dB SNR$"):
        simulate.mix(clean, rir, None, 20.0)


def test_direct_path_reference_delta():
    rng = np.random.default_rng(7)
    clean = revkit.Waveform(rng.standard_normal(2000), 16000)
    delta = revkit.Waveform(np.array([1.0]), 16000)
    ref = simulate.direct_path_reference(clean, delta)
    np.testing.assert_array_equal(ref.samples, clean.samples)


def test_direct_path_reference_scaled_delay():
    rng = np.random.default_rng(8)
    clean = revkit.Waveform(rng.standard_normal(2000), 16000)
    h = np.zeros(500)
    h[100] = 0.5
    ref = simulate.direct_path_reference(clean, revkit.Waveform(h, 16000))
    assert ref.samples.size == 2000 + 500 - 1
    np.testing.assert_allclose(ref.samples[100: 2100],
                               0.5 * clean.samples, atol=1e-12)
    assert np.max(np.abs(ref.samples[:100])) < 1e-12


def test_direct_path_reference_matches_mix_length():
    clean = simulate.speech_like(0.5, 16000, seed=1)
    rir = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.3, drr=5.0, seed=2))
    mixed = simulate.mix(clean, rir, None, np.inf)
    ref = simulate.direct_path_reference(clean, rir)
    assert ref.samples.size == mixed.samples.size


def test_speech_like_shape_and_gaps():
    wave = simulate.speech_like(2.0, 16000, seed=3)
    assert wave.samples.size == 32000
    assert np.isclose(np.max(np.abs(wave.samples)), 1.0)
    # near-silent gaps exist: some 50 ms windows carry almost no energy
    frames = wave.samples[: 31744].reshape(-1, 512)
    fp = np.mean(frames ** 2, axis=1)
    assert fp.min() < 1e-4 * fp.max()


def test_speech_like_rejects_durations_without_samples_and_other_rates(
        monkeypatch):
    # both are rejected before any noise is synthesized
    def unreachable(*args):
        raise AssertionError("speech_like filtered noise before checking")
    monkeypatch.setattr(simulate, "_lfilter", unreachable)
    with pytest.raises(ValueError, match="duration 1e-05 s gives no sample"):
        simulate.speech_like(1e-5, 16000)
    with pytest.raises(ValueError, match="16 kHz only"):
        simulate.speech_like(3.2, 8000)


def test_synth_rir_tail_starts_past_the_drr_direct_window():
    # the direct window estimate_drr counts holds the impulse alone
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.5, drr=0.0)).samples
    spread = int(round(acoustics.DRR_DIRECT_S * stft.RATE))
    d = simulate.DIRECT_DELAY
    assert np.all(h[d + 1: d + spread + 1] == 0.0)
    assert h[d + spread + 1] != 0.0


def test_mix_rejects_minus_infinite_and_nan_snr():
    # +inf is the noise-free mixture; -inf (infinitely loud noise) and NaN
    # have no mixture, and must not silently drop the noise
    clean = simulate.white_noise(1000, 16000, seed=1)
    rir = revkit.Waveform(np.array([1.0]), 16000)
    noise = simulate.white_noise(1000, 16000, seed=2)
    for snr in (-np.inf, np.nan):
        with pytest.raises(ValueError, match="number or \\+inf"):
            simulate.mix(clean, rir, noise, snr)


def test_highpass_coefficients_are_scipy_butter():
    from scipy.signal import butter
    b, a = butter(4, 120.0 / 8000.0, "highpass")
    assert np.array_equal(simulate._HIGHPASS[0], b)
    assert np.array_equal(simulate._HIGHPASS[1], a)


@pytest.mark.parametrize("n", [1, 2, 51_200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lfilter_is_scipy_lfilter_bit_for_bit(n, seed):
    # the references are the scipy calls that speech_like's two filter
    # stages stand in for
    from scipy.signal import butter, lfilter
    x = np.random.default_rng(seed).standard_normal(n)
    tilt = simulate._lfilter(*simulate._TILT, x)
    assert np.array_equal(tilt, lfilter([1.0 - 0.4], [1.0, -0.4], x))
    assert np.array_equal(simulate._lfilter(*simulate._HIGHPASS, tilt),
                          lfilter(*butter(4, 120.0 / 8000.0, "highpass"),
                                  tilt))
