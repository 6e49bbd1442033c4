"""Property tests: the STFT pair is a plain linear transform."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import revkit  # noqa: E402
from revkit import stft  # noqa: E402


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(512, 6000),
       k=st.integers(-30, 30))
def test_forward_and_inverse_are_homogeneous(seed, n, k):
    # neither transform normalizes, and a power-of-two gain is exact in
    # floating point, so it passes through both bit for bit
    g = 2.0 ** k
    x = np.random.default_rng(seed).standard_normal(n)
    spec = stft.forward(revkit.Waveform(x, 16000))
    scaled = stft.forward(revkit.Waveform(g * x, 16000))
    assert np.array_equal(scaled.data, g * spec.data)
    assert np.array_equal(stft.inverse(scaled).samples,
                          g * stft.inverse(spec).samples)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(stft.WIN, 6000))
def test_inverse_of_forward_is_the_input_on_the_interior(seed, n):
    # n need not be a multiple of HOP: samples past the last full frame are
    # not analyzed, and every sample that all WIN // HOP frames cover comes
    # back to criterion 1's tolerance
    x = np.random.default_rng(seed).standard_normal(n)
    y = stft.inverse(stft.forward(revkit.Waveform(x))).samples
    assert y.size == (stft.num_frames(n) - 1) * stft.HOP + stft.WIN
    edge = stft.WIN - stft.HOP
    err = np.linalg.norm(y[edge: y.size - edge] - x[edge: y.size - edge])
    assert err <= 1e-6 * np.linalg.norm(x[edge: y.size - edge])
