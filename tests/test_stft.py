import numpy as np
import pytest

import revkit
from revkit import stft, vem


def random_wave(seed, n, fs=16000):
    rng = np.random.default_rng(seed)
    return revkit.Waveform(rng.standard_normal(n), fs)


def naive_frame_dft(x, t):
    frame = x[t * stft.HOP: t * stft.HOP + stft.WIN]
    return np.fft.rfft(frame * stft.WINDOW)


def test_frame_count_formula():
    assert stft.num_frames(4096) == 29
    assert stft.num_frames(512) == 1
    assert stft.num_frames(16000) == 122


def test_too_short_input_rejected():
    with pytest.raises(ValueError, match="input too short"):
        stft.forward(revkit.Waveform(np.ones(511), 16000))


def test_zero_input_gives_zero_spectrogram():
    spec = stft.forward(revkit.Waveform(np.zeros(4096), 16000))
    assert spec.data.shape == (257, 29)
    assert np.all(spec.data == 0)


def test_unit_impulse_first_frame():
    # frame 0 sees window * impulse, i.e. the constant window[0] per bin
    x = np.zeros(2048)
    x[0] = 1.0
    spec = stft.forward(revkit.Waveform(x, 16000))
    expected = naive_frame_dft(x, 0)
    np.testing.assert_allclose(spec.data[:, 0], expected, atol=1e-12)
    assert np.allclose(spec.data[:, 0], stft.WINDOW[0])


def test_columns_match_naive_dft():
    wave = random_wave(3, 16000)
    spec = stft.forward(wave)
    for t in (0, 1, 57, spec.num_frames - 1):
        np.testing.assert_allclose(
            spec.data[:, t], naive_frame_dft(wave.samples, t),
            atol=1e-9,
        )


def test_round_trip_interior():
    wave = random_wave(7, 20000)
    spec = stft.forward(wave)
    out = stft.inverse(spec)
    n = out.samples.size
    w = stft.WIN
    err = np.linalg.norm(out.samples[w: n - w] - wave.samples[w: n - w])
    err /= np.linalg.norm(wave.samples[w: n - w])
    assert err < 1e-6


def test_inverse_of_zero_is_zero():
    spec = stft.forward(revkit.Waveform(np.zeros(4096), 16000))
    out = stft.inverse(spec)
    assert np.all(out.samples == 0)


def test_projection_idempotent():
    # analysis of a synthesized signal projects onto consistent
    # spectrograms; doing it twice changes nothing
    rng = np.random.default_rng(11)
    data = rng.standard_normal((257, 40)) + 1j * rng.standard_normal((257, 40))
    data[0] = data[0].real
    data[-1] = data[-1].real
    spec = revkit.Spectrogram(data)
    once = stft.forward(stft.inverse(spec))
    twice = stft.forward(stft.inverse(once))
    assert once.data.shape[1] <= 40
    np.testing.assert_allclose(
        twice.data[:, 1:-1],
        once.data[:, : twice.num_frames][:, 1:-1],
        atol=1e-9,
    )


def test_linearity_of_denormalized_coefficients():
    x = random_wave(1, 8000)
    y = random_wave(2, 8000)
    a, b = 2.5, -0.7
    both = revkit.Waveform(a * x.samples + b * y.samples, 16000)
    Sx = stft.forward(x)
    Sy = stft.forward(y)
    Sb = stft.forward(both)
    np.testing.assert_allclose(
        Sb.data,
        a * Sx.data + b * Sy.data,
        atol=1e-12,
    )


def test_energy_consistency_parseval():
    # windowed frame energy matches spectrum energy per rfft conventions
    wave = random_wave(9, 4096)
    spec = stft.forward(wave)
    t = 10
    frame = wave.samples[t * stft.HOP: t * stft.HOP + stft.WIN] * stft.WINDOW
    col = spec.data[:, t]
    spec_energy = (np.abs(col[0]) ** 2 + np.abs(col[-1]) ** 2
                   + 2 * np.sum(np.abs(col[1:-1]) ** 2)) / stft.WIN
    assert np.isclose(spec_energy, np.sum(frame ** 2), rtol=1e-10)


def test_spectrogram_has_the_one_transforms_bins():
    with pytest.raises(ValueError, match="expected 257 frequency bins"):
        revkit.Spectrogram(np.zeros((33, 4)))
    spec = revkit.Spectrogram(np.zeros((257, 4)))
    assert spec.config == stft.TRANSFORM == (512, 128)


def test_waveform_validation():
    with pytest.raises(ValueError):
        revkit.Waveform(np.array([1.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        revkit.Waveform(np.array([]), 16000)
    with pytest.raises(ValueError, match="16 kHz only"):
        revkit.Waveform(np.ones(4), 8000)


@pytest.mark.parametrize("n", [stft.WIN])
def test_window_is_scipy_periodic_hann(n):
    from scipy.signal import get_window
    assert np.array_equal(stft.WINDOW, get_window("hann", n, fftbins=True))
    assert not stft.WINDOW.flags.writeable


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 9), (9, 1), (2, 2), (3, 7),
                                    (100, 33), (4000, 16000), (5003, 131072)])
def test_convolve_is_scipy_fftconvolve(na, nb):
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(na + nb)
    a, b = rng.standard_normal(na), rng.standard_normal(nb)
    out = stft._convolve(a, b)
    assert out.shape == (na + nb - 1,)
    assert np.array_equal(out, fftconvolve(a, b))


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_is_scipy(real):
    from scipy.fft import next_fast_len
    sizes = range(1, 300001)
    assert ([stft._next_fast_len(n, real) for n in sizes]
            == [next_fast_len(n, real) for n in sizes])


@pytest.mark.parametrize("n", [14, 63, 480, 528, 1029, 2048])
def test_numpy_fft_is_scipy_fft(n):
    # the engine's transforms: 64 rows, zero-padded taps, in-place inverse
    import scipy.fft
    rng = np.random.default_rng(n)
    x = rng.standard_normal((64, n))
    z = x + 1j * rng.standard_normal((64, n))
    for name, a in (("fft", z), ("fft", z[:, :7]), ("ifft", z),
                    ("rfft", x), ("irfft", z[:, : n // 2 + 1])):
        assert np.array_equal(getattr(np.fft, name)(a, n),
                              getattr(scipy.fft, name)(a, n))
    assert np.array_equal(vem._fft_padded(z[:, :7], n),
                          scipy.fft.fft(z[:, :7], n))
    want = scipy.fft.ifft(z)
    assert np.array_equal(np.fft.ifft(z, out=z), want)


@pytest.mark.parametrize("n", [138240, 262144])
def test_numpy_real_fft_is_scipy_at_rir_sizes(n):
    import scipy.fft
    x = np.random.default_rng(n).standard_normal(n)
    X = np.fft.rfft(x)
    assert np.array_equal(X, scipy.fft.rfft(x))
    assert np.array_equal(np.fft.irfft(X, n), scipy.fft.irfft(X, n))
