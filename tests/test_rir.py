import numpy as np
import pytest
from scipy.signal import fftconvolve, hilbert

import revkit
from revkit import rir
from revkit.vem import CtfFilter


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
    f_start = np.exp(intercept) * rir.SWEEP_RATE
    f_end = np.exp(intercept + slope * N) * rir.SWEEP_RATE
    assert abs(f_start - rir.SWEEP_F1) / rir.SWEEP_F1 < 0.005
    assert abs(f_end - rir.SWEEP_F2) / rir.SWEEP_F2 < 0.005


def test_inverse_filter_unit_peak_and_length():
    sweep = rir.log_sweep()
    inv = rir.inverse_filter(sweep)
    assert inv.samples.size == sweep.samples.size
    d = fftconvolve(sweep.samples, inv.samples)
    assert abs(np.max(np.abs(d)) - 1.0) < 1e-9


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
    guard = int(0.005 * rir.SWEEP_RATE)
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
    x = est.waveform.samples
    pk = est.direct_index
    window = x[max(0, pk - 2): pk + 3]
    assert np.sum(window ** 2) / np.sum(x ** 2) >= 0.95


def test_one_frame_delay_shifts_by_hop():
    est0 = rir.ctf_to_rir(identity_filter())
    h = np.zeros((257, 30), complex)
    h[:, 1] = 1.0
    est1 = rir.ctf_to_rir(CtfFilter(h))
    assert est1.direct_index - est0.direct_index == 128


def test_linearity_in_filter():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((257, 8)) + 1j * rng.standard_normal((257, 8)))
    h *= 0.3
    h[:, 0] += 1.0
    est1 = rir.ctf_to_rir(CtfFilter(h), revkit.StftConfig())
    est2 = rir.ctf_to_rir(CtfFilter(2.5 * h), revkit.StftConfig())
    np.testing.assert_allclose(est2.waveform.samples,
                               2.5 * est1.waveform.samples, atol=1e-12)


def test_zeroed_low_bands_leave_no_low_frequency_energy():
    est = rir.ctf_to_rir(identity_filter(), zero_low_bands=3)
    spec = np.abs(np.fft.rfft(est.waveform.samples))
    freqs = np.fft.rfftfreq(est.waveform.samples.size, 1 / 16000)
    low = np.sum(spec[freqs < 70.0] ** 2)
    assert low / np.sum(spec ** 2) < 1e-4


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
    # the filter's time support plus 2 * win_length on each side
    cfgS = revkit.StftConfig()
    est = rir.ctf_to_rir(identity_filter(L=L), cfgS)
    assert est.waveform.samples.size == ((L - 1) * cfgS.hop
                                         + 5 * cfgS.win_length)


def test_crop_window_keeps_energy_of_compact_filters():
    # the margins on either side of the filter's support hold next to
    # none of the energy, so the crop cuts nothing off
    x = rir.ctf_to_rir(CtfFilter(reflection_filter(4))).waveform.samples
    edges = np.sum(x[:512] ** 2) + np.sum(x[-512:] ** 2)
    assert edges / np.sum(x ** 2) < 0.01


def test_all_zero_filter_warns_and_returns_zeros():
    h = np.zeros((257, 5), complex)
    with pytest.warns(RuntimeWarning, match="all-zero"):
        est = rir.ctf_to_rir(CtfFilter(h))
    assert est.direct_index == 0
    assert np.all(est.waveform.samples == 0)


def test_band_count_must_match_transform():
    with pytest.raises(ValueError, match="bands"):
        rir.ctf_to_rir(CtfFilter(np.ones((100, 5), complex)))
