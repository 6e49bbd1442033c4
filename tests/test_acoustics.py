import numpy as np
import pytest
from scipy import stats

import revkit
from revkit import acoustics


def test_edc_unit_impulse():
    h = revkit.Waveform(np.eye(1, 100, 0)[0], 16000)
    curve = acoustics.edc(h)
    assert curve.values[0] == 1.0
    assert np.all(curve.values[1:] == 0.0)


def test_edc_total_energy_and_monotone():
    rng = np.random.default_rng(0)
    h = revkit.Waveform(rng.standard_normal(500), 16000)
    curve = acoustics.edc(h)
    assert np.isclose(curve.values[0], np.sum(h.samples ** 2))
    assert np.all(np.diff(curve.values) <= 1e-15)


def test_edc_exponential_closed_form():
    # h(n) = r^n gives EDC(n) = r^(2n) / (1 - r^2)
    fs = 16000
    r = 0.999
    n = np.arange(4000)
    h = revkit.Waveform(r ** n, fs)
    curve = acoustics.edc(h)
    expected = r ** (2 * n) * (1 - r ** (2 * (4000 - n))) / (1 - r ** 2)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-9)
    # dB curve is log-linear with slope 20 log10(r) per sample, up to the
    # truncation correction carried by the closed form
    slope = (curve.db[200] - curve.db[100]) / 100
    exp_db = 10 * np.log10(expected / expected[0])
    assert np.isclose(slope, (exp_db[200] - exp_db[100]) / 100, rtol=1e-9)
    assert np.isclose(slope, 20 * np.log10(r), rtol=1e-3)


def test_rt60_ideal_log_linear_edc():
    # slope -120 dB/s -> rt60 = 0.5 s with a perfect line fit
    fs = 16000
    r = 10.0 ** (-120.0 / (20.0 * fs))
    h = revkit.Waveform(r ** np.arange(int(1.2 * fs)), fs)
    p = acoustics.estimate_rt60(h)
    assert np.isclose(p.rt60, 0.5, atol=1e-6)
    assert np.isclose(p.pearson_r, -1.0, atol=1e-9)
    assert p.fit_start < p.fit_end


def test_rt60_synthetic_rir_round_trip():
    from revkit import simulate
    spec = simulate.SynthRirSpec(rt60=0.5, drr=5.0, seed=2)
    h = simulate.synth_rir(spec)
    p = acoustics.estimate_rt60(h)
    assert abs(p.rt60 - 0.5) / 0.5 < 0.05


def brute_force_rt60(h, fs, stride=1):
    """Exhaustive enumeration over all admissible (start, end) pairs."""
    curve = acoustics.edc(h)
    db = curve.db
    peak = int(np.argmax(np.abs(h.samples)))
    below = np.nonzero(db[peak:] <= db[peak] - 5.0)[0]
    n5 = peak + int(below[0])
    n50 = peak + int(round(0.05 * fs))
    lo, hi = min(n5, n50), max(n5, n50)
    hi = min(hi, db.size - 2)
    best = None
    for s in range(lo, hi + 1, stride):
        rel = np.nonzero(db[s:] <= db[s] - 5.0)[0]
        if rel.size == 0:
            continue
        e = s + int(rel[0])
        if e - s < 2:
            continue
        x = np.arange(s, e + 1) / fs
        fit = stats.linregress(x, db[s: e + 1])
        if not np.isfinite(fit.rvalue) or fit.slope >= 0:
            continue
        if best is None or abs(fit.rvalue) > abs(best[0]):
            best = (fit.rvalue, fit.slope, s, e)
    return -60.0 / best[1], best[2], best[3], best[0]


def test_rt60_two_slope_matches_exhaustive_search():
    # fast early decay then a slow tail; the estimator must pick the
    # same interval as the brute-force search over every candidate
    fs = 16000
    n1, n2 = 1600, 14000
    fast = 10 ** (-200.0 / (20 * fs))  # -200 dB/s
    slow = 10 ** (-60.0 / (20 * fs))   # -60 dB/s
    seg1 = fast ** np.arange(n1)
    seg2 = seg1[-1] * slow ** np.arange(1, n2 + 1)
    h = revkit.Waveform(np.concatenate([[1.0], seg1, seg2]), fs)
    p = acoustics.estimate_rt60(h, start_stride=1.0 / fs)
    rt_b, s_b, e_b, r_b = brute_force_rt60(h, fs, stride=1)
    assert p.fit_start == s_b
    assert p.fit_end == e_b
    assert np.isclose(p.rt60, rt_b, rtol=1e-12)
    assert np.isclose(p.pearson_r, r_b, rtol=1e-12)


@pytest.mark.parametrize("rt60", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("drr", [-5.0, 0.0, 5.0, 10.0])
def test_rt60_equals_linregress_search(rt60, drr):
    # the acceptance grid at the default 1 ms candidate stride: every
    # result bit-identical to the scipy.stats.linregress oracle
    from revkit import simulate
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=rt60, drr=drr, seed=17))
    p = acoustics.estimate_rt60(h)
    rt_b, s_b, e_b, r_b = brute_force_rt60(h, h.sample_rate, stride=16)
    assert (p.fit_start, p.fit_end) == (s_b, e_b)
    assert p.rt60 == rt_b
    assert p.pearson_r == r_b


def test_rt60_insufficient_decay():
    h = revkit.Waveform(np.eye(1, 50, 0)[0], 16000)
    with pytest.raises(acoustics.InsufficientDecayError):
        acoustics.estimate_rt60(h)


def test_rt60_amplitude_invariance():
    from revkit import simulate
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.4, drr=3.0, seed=5))
    p1 = acoustics.estimate_rt60(h)
    p2 = acoustics.estimate_rt60(revkit.Waveform(h.samples * 37.5, h.sample_rate))
    assert np.isclose(p1.rt60, p2.rt60, rtol=1e-9)
    assert p1.fit_start == p2.fit_start


def test_drr_impulse_plus_reflection():
    fs = 16000
    x = np.zeros(4000)
    x[100] = 1.0
    x[100 + 160] = 0.5  # +10 ms, outside the 2.5 ms direct window
    p = acoustics.estimate_drr(revkit.Waveform(x, fs))
    assert np.isclose(p.drr, 10 * np.log10(1.0 / 0.25), atol=1e-9)


def test_drr_single_impulse_capped():
    h = revkit.Waveform(np.eye(1, 1000, 3)[0], 16000)
    assert acoustics.estimate_drr(h).drr == acoustics.DRR_CAP_DB


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_drr_cap_is_relative_to_direct_energy(scale):
    # the cap applies when the tail is 80 dB or more below the direct
    # part, at any overall scale; a tail 79 dB down still reads 79 dB
    for tail_db, expected in ((-79.0, 79.0), (-81.0, acoustics.DRR_CAP_DB)):
        x = np.zeros(2000)
        x[50] = scale
        x[1000] = scale * 10.0 ** (tail_db / 20.0)
        drr = acoustics.estimate_drr(revkit.Waveform(x, 16000)).drr
        assert np.isclose(drr, expected, atol=1e-9)


def test_drr_equal_energy_is_zero():
    fs = 16000
    x = np.zeros(2000)
    x[50] = 1.0
    x[1000] = 1.0  # far outside the direct window
    assert np.isclose(acoustics.estimate_drr(revkit.Waveform(x, fs)).drr, 0.0,
                      atol=1e-12)


def test_drr_scale_and_delay_invariance():
    from revkit import simulate
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.4, drr=2.0, seed=6))
    base = acoustics.estimate_drr(h).drr
    delayed = acoustics.estimate_drr(
        revkit.Waveform(np.concatenate([np.zeros(333), h.samples]),
                        h.sample_rate)).drr
    for scale in (0.01, 1e-5):
        scaled = acoustics.estimate_drr(
            revkit.Waveform(h.samples * scale, h.sample_rate)).drr
        assert np.isclose(base, scaled, atol=1e-9)
    assert np.isclose(base, delayed, atol=1e-9)
