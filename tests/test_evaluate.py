import numpy as np
import pytest

import revkit
from revkit import evaluate
from synthcases import tf_spectrogram


def params(rt60, drr):
    return (rt60, drr)


def test_perfect_estimates_score_zero():
    est = [params(0.5, 3.0), params(0.8, -2.0)]
    rep = evaluate.score_rir_batch(est, est)
    assert rep.rt60_mae == 0.0 and rep.rt60_rmse == 0.0
    assert rep.drr_mae == 0.0 and rep.drr_rmse == 0.0


def test_symmetric_errors():
    est = [params(0.6, 1.0), params(0.4, -1.0)]
    ref = [params(0.5, 0.0), params(0.5, 0.0)]
    rep = evaluate.score_rir_batch(est, ref)
    assert np.isclose(rep.rt60_mae, 0.1)
    assert np.isclose(rep.rt60_rmse, 0.1)
    assert np.isclose(rep.drr_mae, 1.0)


def test_mae_vs_rmse():
    est = [params(0.5, 0.0), params(0.7, 0.2)]
    ref = [params(0.5, 0.0), params(0.5, 0.0)]
    rep = evaluate.score_rir_batch(est, ref)
    assert np.isclose(rep.rt60_mae, 0.1)
    assert np.isclose(rep.rt60_rmse, np.sqrt(0.02))
    assert rep.rt60_rmse >= rep.rt60_mae >= 0.0


def test_empty_and_mismatched_batches():
    with pytest.raises(ValueError, match="empty"):
        evaluate.score_rir_batch([], [])
    with pytest.raises(ValueError, match="sizes"):
        evaluate.score_rir_batch([params(1, 1)], [])


def test_unscorable_pairs_reported():
    with pytest.raises(ValueError, match="indices \\[1\\]"):
        evaluate.score_rir_batch(
            [params(0.5, 0.0), params(None, 2.0)],
            [params(0.5, 0.0), params(0.5, 0.0)],
        )


def test_order_independence():
    est = [params(0.6, 1.0), params(0.4, -1.0), params(0.9, 4.0)]
    ref = [params(0.5, 0.0)] * 3
    r1 = evaluate.score_rir_batch(est, ref)
    r2 = evaluate.score_rir_batch(est[::-1], ref)
    assert np.isclose(r1.rt60_mae, r2.rt60_mae)
    assert np.isclose(r1.drr_rmse, r2.drr_rmse)


def random_pair(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 2.0, (257, 12)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (257, 12)))
    b = rng.uniform(0.01, 2.0, (257, 12)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (257, 12)))
    return tf_spectrogram(a), tf_spectrogram(b)


def test_lsd_identical_is_zero():
    a, _ = random_pair(0)
    assert evaluate.lsd(a, a) == 0.0


def test_lsd_constant_magnitude_offset():
    # power matching takes out a constant magnitude offset entirely
    a, _ = random_pair(1)
    scaled = tf_spectrogram(10.0 * a.data)
    val = evaluate.lsd(scaled, a)
    assert abs(val) < 1e-5


def test_lsd_matches_naive_double_loop():
    a, b = random_pair(2)
    val = evaluate.lsd(a, b)
    eps = evaluate.LSD_EPS
    F, T = a.data.shape
    p_a = sum(abs(a.data[f, t]) ** 2 for f in range(F) for t in range(T))
    p_b = sum(abs(b.data[f, t]) ** 2 for f in range(F) for t in range(T))
    gain = np.sqrt(p_b / p_a)
    acc = 0.0
    for t in range(T):
        s = 0.0
        for f in range(F):
            d = (20 * np.log10(gain * abs(a.data[f, t]) + eps)
                 - 20 * np.log10(abs(b.data[f, t]) + eps))
            s += d * d
        acc += np.sqrt(s / F)
    assert abs(val - acc / T) < 1e-9


def test_lsd_symmetry_and_phase_invariance():
    # symmetric when both sides carry the same power, so that power
    # matching leaves either side as it is
    a, b = random_pair(3)
    b = tf_spectrogram(b.data * np.sqrt(np.sum(np.abs(a.data) ** 2)
                                        / np.sum(np.abs(b.data) ** 2)))
    assert np.isclose(evaluate.lsd(a, b), evaluate.lsd(b, a), rtol=1e-12)
    rng = np.random.default_rng(4)
    rotated = tf_spectrogram(
        a.data * np.exp(1j * rng.uniform(-np.pi, np.pi, a.data.shape)))
    assert np.isclose(evaluate.lsd(a, b), evaluate.lsd(rotated, b),
                      rtol=1e-12)


def test_lsd_power_match_removes_global_scale():
    a, b = random_pair(5)
    scaled = tf_spectrogram(3.7 * a.data)
    assert np.isclose(evaluate.lsd(scaled, b), evaluate.lsd(a, b), rtol=1e-9)


def test_lsd_shape_mismatch():
    a, _ = random_pair(6)
    small = tf_spectrogram(a.data[:, :5])
    with pytest.raises(ValueError, match="shape"):
        evaluate.lsd(a, small)
