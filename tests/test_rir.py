import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve, hilbert

import revkit
from revkit import rir, stft, vem
from revkit.vem import CtfFilter
from synthcases import blind_case


def test_sweep_duration_and_start():
    sweep = rir.log_sweep()
    assert sweep.samples.size == 131072  # 8.192 s at 16 kHz
    assert sweep.samples[0] == 0.0
    assert np.max(np.abs(sweep.samples)) <= 1.0


def test_sweep_instantaneous_frequency_endpoints():
    # instantaneous frequency from the analytic signal is log-linear in
    # time; extrapolating the interior fit to the endpoints recovers the
    # configured band edges
    sweep = rir.log_sweep()
    N = sweep.samples.size
    phase = np.unwrap(np.angle(hilbert(sweep.samples)))
    finst = np.diff(phase) / (2 * np.pi)  # cycles per sample
    idx = np.arange(2000, N - 2000)
    good = finst[idx] > 0
    slope, intercept = np.polyfit(idx[good], np.log(finst[idx][good]), 1)
    f_start = np.exp(intercept) * stft.RATE
    f_end = np.exp(intercept + slope * N) * stft.RATE
    assert abs(f_start - rir.SWEEP_F1) / rir.SWEEP_F1 < 0.005
    assert abs(f_end - rir.SWEEP_F2) / rir.SWEEP_F2 < 0.005


def test_inverse_filter_unit_peak_and_length():
    sweep = rir.log_sweep()
    inv = rir.inverse_filter(sweep)
    assert inv.samples.size == sweep.samples.size
    d = fftconvolve(sweep.samples, inv.samples)
    assert abs(np.max(np.abs(d)) - 1.0) < 1e-9


def test_sweep_peak_is_the_peak_of_the_sweep_and_its_inverse():
    # inverse_filter divides by the constant instead of convolving for it;
    # FFT bits depend on the numpy build, so the recomputed peak is close,
    # not equal
    sweep = rir.log_sweep()
    N = sweep.samples.size
    env = np.exp(-np.arange(N) * np.log(rir.SWEEP_F2 / rir.SWEEP_F1) / N)
    d = np.abs(stft._convolve(sweep.samples, sweep.samples[::-1] * env))
    assert int(np.argmax(d)) == rir.SWEEP_LEN - 1
    assert abs(d.max() - rir.SWEEP_PEAK) <= 1e-12 * rir.SWEEP_PEAK


def test_sweep_meets_its_inverse_at_the_assumed_origin():
    # ctf_to_rir takes the deconvolution origin as SWEEP_LEN - 1 without
    # computing it
    sweep = rir.log_sweep()
    assert sweep.samples.size == rir.SWEEP_LEN
    d = fftconvolve(sweep.samples, rir.inverse_filter(sweep).samples)
    assert int(np.argmax(np.abs(d))) == rir.SWEEP_LEN - 1


def test_inverse_filter_sidelobes():
    sweep = rir.log_sweep()
    inv = rir.inverse_filter(sweep)
    d = fftconvolve(sweep.samples, inv.samples)
    peak = int(np.argmax(np.abs(d)))
    guard = int(0.005 * stft.RATE)
    mask = np.ones(d.size, bool)
    mask[peak - guard: peak + guard + 1] = False
    sidelobe_db = 20 * np.log10(np.max(np.abs(d[mask])) / np.abs(d[peak]))
    assert sidelobe_db < -40.0


def identity_filter(F=257, L=30):
    h = np.zeros((F, L), complex)
    h[:, 0] = 1.0
    return CtfFilter(h)


def test_identity_ctf_concentrates_energy():
    est = rir.ctf_to_rir(identity_filter())
    x = est.samples
    pk = np.argmax(np.abs(x))
    window = x[max(0, pk - 2): pk + 3]
    assert np.sum(window ** 2) / np.sum(x ** 2) >= 0.95


def test_one_frame_delay_shifts_by_hop():
    est0 = rir.ctf_to_rir(identity_filter())
    h = np.zeros((257, 30), complex)
    h[:, 1] = 1.0
    est1 = rir.ctf_to_rir(CtfFilter(h))
    shift = np.argmax(np.abs(est1.samples)) - np.argmax(np.abs(est0.samples))
    assert shift == 128


def test_linearity_in_filter():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((257, 8)) + 1j * rng.standard_normal((257, 8)))
    h *= 0.3
    h[:, 0] += 1.0
    est1 = rir.ctf_to_rir(CtfFilter(h))
    est2 = rir.ctf_to_rir(CtfFilter(2.5 * h))
    np.testing.assert_allclose(est2.samples, 2.5 * est1.samples, atol=1e-12)


def test_zeroed_low_bands_leave_no_low_frequency_energy():
    H = identity_filter()
    H.h[:3] = 0.0
    est = rir.ctf_to_rir(H)
    spec = np.abs(np.fft.rfft(est.samples))
    freqs = np.fft.rfftfreq(est.samples.size, 1 / 16000)
    low = np.sum(spec[freqs < 70.0] ** 2)
    assert low / np.sum(spec ** 2) < 1e-4


def test_engine_output_reconstructs_without_re_deriving_skipped_bands():
    # the bands the engine excludes are zero in its filter, so the plain
    # ctf_to_rir call is right; so it is for any number of zero rows: five,
    # zeroed here, take out exactly those rows' own part of the estimate
    _, _, reverb, direct = blind_case(0.5, 0.0, 1234, duration=1.0)
    X = revkit.forward(reverb)
    alpha = revkit.oracle_from_reference(direct, X.config,
                                         expected_frames=X.num_frames)
    _, H, _ = vem.run(X, alpha, vem.VemConfig(max_iters=5))
    assert not np.any(H.h[: vem.SKIP_LOW_BANDS])
    h = H.h.copy()
    h[:5] = 0.0
    got = rir.ctf_to_rir(CtfFilter(h)).samples
    want = (rir.ctf_to_rir(H).samples
            - rir.ctf_to_rir(CtfFilter(H.h - h)).samples)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.max(np.abs(want)))


def reflection_filter(seed, F=257, L=12, n_refl=6):
    """Sparse reflections: per lag a delayed, attenuated arrival."""
    rng = np.random.default_rng(seed)
    f_idx = np.arange(F)
    h = np.zeros((F, L), dtype=complex)
    h[:, 0] = 1.0
    for _ in range(n_refl):
        l = rng.integers(1, L)
        d = rng.integers(0, 128)
        g = rng.uniform(0.1, 0.6)
        h[:, l] += g * np.exp(-2j * np.pi * f_idx * d / 512)
    return h


@pytest.mark.parametrize("L", [30, 5])
def test_estimate_length_is_support_plus_margins(L):
    # the filter's time support plus 2 * WIN on each side
    est = rir.ctf_to_rir(identity_filter(L=L))
    assert est.samples.size == (L - 1) * stft.HOP + 5 * stft.WIN


def test_crop_window_keeps_energy_of_compact_filters():
    # the margins on either side of the filter's support hold next to
    # none of the energy, so the crop cuts nothing off
    x = rir.ctf_to_rir(CtfFilter(reflection_filter(4))).samples
    edges = np.sum(x[:512] ** 2) + np.sum(x[-512:] ** 2)
    assert edges / np.sum(x ** 2) < 0.01


@pytest.mark.parametrize("L", [1, 5, 30])
def test_reconstruction_equals_the_full_size_pipeline(L):
    # ctf_to_rir filters one block of bands at a time; the same steps on
    # whole arrays give the same bits. 257 bands leave a short last block.
    rng = np.random.default_rng(L)
    h = rng.standard_normal((257, L)) + 1j * rng.standard_normal((257, L))
    h[:3] = 0.0
    sweep = rir.log_sweep()
    E = stft.forward(sweep).data
    n = E.shape[1] + L - 1
    N = stft._next_fast_len(n)
    Y = np.fft.ifft(np.fft.fft(E, N) * np.fft.fft(h, N))[:, :n]
    guard = stft.WIN // stft.HOP
    Y = np.pad(Y, ((0, 0), (guard, guard)))
    y = stft.inverse(stft.Spectrogram(Y)).samples
    full = stft._convolve(y, rir.inverse_filter(sweep).samples)
    origin = rir.SWEEP_LEN - 1 + guard * stft.HOP
    want = full[origin - 2 * stft.WIN:
                origin + (L - 1) * stft.HOP + 3 * stft.WIN]
    got = rir.ctf_to_rir(CtfFilter(h)).samples
    np.testing.assert_array_equal(got, want)


def test_reconstruction_memory_peak():
    # arrays the size of the sweep's spectrogram (257 x 1021 complex,
    # ~4.2 MB) are live two at a time at most: the sweep's and the filtered
    # one while the latter is filled, then the filtered one and synthesis's
    # frames. The peak reads 11.6 MB; one more such array would put it
    # near 16 MB.
    H = CtfFilter(np.ones((257, 30), complex))
    rir.ctf_to_rir(H)  # first-call caches out of the measurement
    tracemalloc.start()
    try:
        rir.ctf_to_rir(H)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 13.0


def test_all_zero_filter_warns_and_returns_zeros():
    h = np.zeros((257, 5), complex)
    with pytest.warns(RuntimeWarning, match="all-zero"):
        est = rir.ctf_to_rir(CtfFilter(h))
    assert np.argmax(np.abs(est.samples)) == 0
    assert np.all(est.samples == 0)


def test_band_count_must_match_transform():
    with pytest.raises(ValueError, match="bands"):
        rir.ctf_to_rir(CtfFilter(np.ones((100, 5), complex)))
