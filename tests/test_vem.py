import numpy as np
import pytest

import revkit
from revkit import evaluate, vem
from synthcases import speechlike_tf_instance, tf_spectrogram


def wiener_state(seed, F=257, T=4):
    """Initialized state with L=1 filter and a chosen noise precision."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    alpha = rng.uniform(0.1, 10.0, (F, T))
    delta = rng.uniform(0.5, 50.0, F)
    cfg = vem.VemConfig(ctf_len=1, ema=0.0, max_iters=1, skip_low_bands=0)
    Xs = tf_spectrogram(X)
    ap = revkit.PriorPrecision(alpha)
    state = vem.init(Xs, ap, cfg)
    state.noise = vem.NoisePrecision(delta)
    return state, Xs, ap, cfg, X, alpha, delta


def test_init_values():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((257, 10)) + 1j * rng.standard_normal((257, 10))
    X[5] = 0.25  # constant magnitude band
    Xs = tf_spectrogram(X)
    ap = revkit.PriorPrecision(np.ones((257, 10)))
    cfg = vem.VemConfig(ctf_len=6, skip_low_bands=0)
    st = vem.init(Xs, ap, cfg)
    np.testing.assert_allclose(st.posterior.gamma, 1.0 / np.abs(X) ** 2,
                               rtol=1e-12)
    assert np.all(st.posterior.mu == 0)
    expected_h = np.zeros(6, complex)
    expected_h[0] = 1.0
    np.testing.assert_array_equal(
        st.filter.h, np.tile(expected_h, (257, 1)))
    assert np.isclose(st.noise.delta[5], 16.0)  # 1 / 0.25^2
    np.testing.assert_allclose(
        st.noise.delta, 1.0 / np.min(np.abs(X) ** 2, axis=1), rtol=1e-12)


def test_init_all_zero_band_floored():
    X = np.zeros((257, 8), complex)
    Xs = tf_spectrogram(X)
    ap = revkit.PriorPrecision(np.full((257, 8), 1e10))
    cfg = vem.VemConfig(skip_low_bands=0)
    st = vem.init(Xs, ap, cfg)
    assert np.all(st.noise.delta == 1.0 / cfg.power_floor)
    assert np.all(np.isfinite(st.posterior.gamma))


def test_e_step_matches_single_tap_wiener_posterior():
    state, Xs, ap, cfg, X, alpha, delta = wiener_state(7, T=4)
    post = vem.e_step(state, Xs, ap, cfg)
    np.testing.assert_allclose(post.gamma, alpha + delta[:, None],
                               rtol=1e-12)
    np.testing.assert_allclose(
        post.mu, delta[:, None] * X / (alpha + delta[:, None]), rtol=1e-12)


def test_e_step_ema_one_is_stationary():
    state, Xs, ap, cfg, X, alpha, delta = wiener_state(8)
    mu, gamma = vem._e_step_arrays(
        X, alpha, state.posterior.mu, state.posterior.gamma,
        state.filter.h, delta, 1.0,
    )
    np.testing.assert_array_equal(mu, state.posterior.mu)
    np.testing.assert_allclose(gamma, state.posterior.gamma, rtol=1e-14)


def test_e_step_confident_zero_prior():
    state, Xs, ap, cfg, X, alpha, delta = wiener_state(9)
    huge = revkit.PriorPrecision(np.full(X.shape, 1e18))
    post = vem.e_step(state, Xs, huge, cfg)
    assert np.all(np.abs(post.mu) < 1e-12)
    np.testing.assert_allclose(post.gamma, 1e18, rtol=1e-6)


def check_e_step_against_brute_force(F, T, L):
    rng = np.random.default_rng(10)
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.2, 3.0, (F, T))
    mu_pre = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    gamma_pre = rng.uniform(0.5, 4.0, (F, T))
    h = (rng.standard_normal((F, L)) + 1j * rng.standard_normal((F, L))) * 0.5
    delta = rng.uniform(0.5, 3.0, F)
    lam = 0.37
    mu_new, gamma_new = vem._e_step_arrays(X, A, mu_pre, gamma_pre, h, delta,
                                           lam)

    def xp(f, t):
        return X[f, t] if 0 <= t < T else 0.0

    def mp(f, t):
        return mu_pre[f, t] if 0 <= t < T else 0.0

    for f in range(F):
        hn2 = np.sum(np.abs(h[f]) ** 2)
        for t in range(T):
            g_raw = A[f, t] + delta[f] * hn2
            acc = 0.0 + 0j
            for l in range(L):
                inner = xp(f, t + l)
                for lp in range(L):
                    if lp != l:
                        inner -= h[f, lp] * mp(f, t + l - lp)
                acc += np.conj(h[f, l]) * inner
            mu_hat = acc * delta[f] / g_raw
            inv = lam / gamma_pre[f, t] + (1 - lam) / g_raw
            assert abs(mu_new[f, t] - (lam * mu_pre[f, t] + (1 - lam) * mu_hat)) < 1e-12
            assert abs(gamma_new[f, t] - 1.0 / inv) < 1e-12


def test_e_step_matches_brute_force_multi_tap():
    check_e_step_against_brute_force(3, 14, 4)


@pytest.mark.parametrize("T, L", [(3, 5), (10, 30)])
def test_e_step_matches_brute_force_short_input(T, L):
    # fewer frames than taps: the filter runs past both signal ends
    check_e_step_against_brute_force(3, T, L)


def brute_force_m_step(Xr, mur, varr, L, jitter):
    """Independent normal-equations solve for a single band."""
    T = Xr.size
    G = np.zeros((L, L), complex)
    b = np.zeros(L, complex)

    def m(t):
        return mur[t] if 0 <= t < T else 0.0

    def v(t):
        return varr[t] if 0 <= t < T else 0.0

    for t in range(T):
        w = np.array([m(t - L + 1 + i) for i in range(L)])
        G += np.outer(w, np.conj(w))
        G += np.diag([v(t - L + 1 + i) for i in range(L)])
        b += Xr[t] * np.conj(w)
    G += (jitter * np.trace(G).real / L) * np.eye(L)
    hv = b @ np.linalg.inv(G)
    return hv[::-1]


def brute_force_residual(Xr, mur, varr, h):
    """Expected fit sum_t |X(t) - sum_l h_l mu(t-l)|^2 + sum_l |h_l|^2 var(t-l)
    for a single band, frames before the start contributing zero."""
    s = 0.0
    for t in range(Xr.size):
        pred = 0.0 + 0j
        for l in range(h.size):
            if t - l >= 0:
                pred += h[l] * mur[t - l]
                s += abs(h[l]) ** 2 * varr[t - l]
        s += abs(Xr[t] - pred) ** 2
    return s


def test_m_step_recovers_known_filter_noiseless():
    # zero-variance posterior set to the exact dry signal
    rng = np.random.default_rng(3)
    T, L = 200, 4
    S = rng.standard_normal(T) + 1j * rng.standard_normal(T)
    H_true = np.array([1.0 + 0j, 0.5 - 0.2j, 0.25 + 0.1j, -0.1 + 0.05j])
    X = np.zeros(T, complex)
    for l in range(L):
        X[l:] += H_true[l] * S[: T - l]
    cfg = vem.VemConfig(ctf_len=L, skip_low_bands=0)
    gamma = np.full((1, T), 1e30)
    delta, h, _, _ = vem._m_step_arrays(X[None, :], S[None, :], gamma, L,
                                        cfg)
    assert np.linalg.norm(h[0] - H_true) / np.linalg.norm(H_true) < 1e-6
    # matches the independent brute-force solve much tighter
    h_b = brute_force_m_step(X, S, np.full(T, 1e-30), L, cfg.jitter)
    assert np.max(np.abs(h[0] - h_b)) < 1e-9
    # noiseless residual drives the precision into the cap
    assert delta[0] == cfg.delta_cap


def test_m_step_identity_channel():
    rng = np.random.default_rng(4)
    T, L = 200, 4
    S = rng.standard_normal(T) + 1j * rng.standard_normal(T)
    cfg = vem.VemConfig(ctf_len=L, skip_low_bands=0)
    gamma = np.full((1, T), 1e30)
    _, h, _, _ = vem._m_step_arrays(S[None, :], S[None, :], gamma, L, cfg)
    e0 = np.zeros(L, complex)
    e0[0] = 1.0
    assert np.linalg.norm(h[0] - e0) < 1e-6
    h_b = brute_force_m_step(S, S, np.full(T, 1e-30), L, cfg.jitter)
    assert np.max(np.abs(h[0] - h_b)) < 1e-9


def check_m_step_against_brute_force(F, T, L):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    mu = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    gamma = rng.uniform(0.5, 5.0, (F, T))
    cfg = vem.VemConfig(ctf_len=L, skip_low_bands=0)
    delta, h, _, _ = vem._m_step_arrays(X, mu, gamma, L, cfg)
    for f in range(F):
        h_b = brute_force_m_step(X[f], mu[f], 1.0 / gamma[f], L, cfg.jitter)
        assert np.max(np.abs(h[f] - h_b)) < 1e-9
        # the noise precision is T over the expected residual at the new taps
        resid = brute_force_residual(X[f], mu[f], 1.0 / gamma[f], h[f])
        np.testing.assert_allclose(delta[f], T / resid, rtol=1e-9)


def test_m_step_matches_brute_force_general():
    check_m_step_against_brute_force(6, 57, 5)


@pytest.mark.parametrize("T, L", [(3, 5), (10, 30)])
def test_m_step_matches_brute_force_short_input(T, L):
    # fewer frames than taps: the Gram is built on left-padded frames
    check_m_step_against_brute_force(6, T, L)


def test_m_step_zero_residual_hits_cap():
    cfg = vem.VemConfig(ctf_len=2, skip_low_bands=0)
    X = np.zeros((1, 20), complex)
    mu = np.zeros((1, 20), complex)
    gamma = np.full((1, 20), 1e20)
    delta, h, _, _ = vem._m_step_arrays(X, mu, gamma, 2, cfg)
    assert delta[0] == cfg.delta_cap
    assert np.all(np.isfinite(h))


def test_loglik_matches_brute_force():
    rng = np.random.default_rng(12)
    F, T, L = 4, 11, 3
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.2, 3.0, (F, T))
    mu = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    gamma = rng.uniform(0.5, 4.0, (F, T))
    h = (rng.standard_normal((F, L)) + 1j * rng.standard_normal((F, L))) * 0.4
    delta = rng.uniform(0.5, 3.0, F)
    ll = vem._loglik_arrays(X, A, mu, gamma, h, delta)
    for f in range(F):
        s = 0.0
        for t in range(T):
            pred = sum(h[f, l] * (mu[f, t - l] if t - l >= 0 else 0.0)
                       for l in range(L))
            vterm = sum(abs(h[f, l]) ** 2 *
                        (1.0 / gamma[f, t - l] if t - l >= 0 else 0.0)
                        for l in range(L))
            s += np.log(delta[f]) - delta[f] * (abs(X[f, t] - pred) ** 2 + vterm)
            s += np.log(A[f, t]) - A[f, t] * (abs(mu[f, t]) ** 2 + 1.0 / gamma[f, t])
        assert np.isclose(ll[f], s, rtol=1e-10)


def test_loglik_decreases_with_overlarge_delta():
    # with a fixed nonzero residual, pushing delta up eventually loses
    rng = np.random.default_rng(13)
    F, T = 2, 30
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = np.ones((F, T))
    mu = np.zeros((F, T), complex)
    gamma = np.full((F, T), 1e6)
    h = np.zeros((F, 1), complex)
    h[:, 0] = 1.0
    ll_small = vem._loglik_arrays(X, A, mu, gamma, h, np.full(F, 1.0))
    ll_big = vem._loglik_arrays(X, A, mu, gamma, h, np.full(F, 1e9))
    assert np.all(ll_big < ll_small)


def test_loglik_finite_for_valid_states():
    state, Xs, ap, cfg, *_ = wiener_state(14)
    ll = vem.expected_loglik(state, Xs, ap)
    assert np.all(np.isfinite(ll))


def test_run_trace_is_likelihood_of_recorded_iterate():
    # replay run() through the step API; with ema = 0 the public e_step
    # blends exactly as run() does on every iteration
    rng = np.random.default_rng(18)
    F, T = 257, 12
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.5, 2.0, (F, T))
    cfg = vem.VemConfig(ctf_len=3, ema=0.0, max_iters=3, skip_low_bands=0)
    Xs, ap = tf_spectrogram(X), revkit.PriorPrecision(A)
    _, _, trace = vem.run(Xs, ap, cfg)
    state = vem.init(Xs, ap, cfg)
    replay = [vem.expected_loglik(state, Xs, ap)]
    for _ in range(cfg.max_iters):
        state.posterior = vem.e_step(state, Xs, ap, cfg)
        state.noise, state.filter = vem.m_step(state, Xs, cfg)
        replay.append(vem.expected_loglik(state, Xs, ap))
    np.testing.assert_allclose(trace[:4], np.array(replay), rtol=1e-10)


def test_band_independence():
    rng = np.random.default_rng(15)
    F, T = 257, 60
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.5, 2.0, (F, T))
    cfg = vem.VemConfig(ctf_len=5, max_iters=8, skip_low_bands=0)
    S1, H1, tr1 = vem.run(tf_spectrogram(X), revkit.PriorPrecision(A), cfg)
    # permute all other bands; band 100 must be bit-identical
    perm = np.arange(F)
    perm[:100] = perm[:100][::-1]
    S2, H2, tr2 = vem.run(tf_spectrogram(X[perm]),
                          revkit.PriorPrecision(A[perm]), cfg)
    band_at = int(np.nonzero(perm == 100)[0][0])
    assert np.array_equal(S1.data[100], S2.data[band_at])
    assert np.array_equal(H1.h[100], H2.h[band_at])


def test_run_thread_count_does_not_change_results():
    rng = np.random.default_rng(16)
    F, T = 257, 50
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.5, 2.0, (F, T))
    cfg = vem.VemConfig(ctf_len=4, max_iters=6)
    outs = [vem.run(tf_spectrogram(X), revkit.PriorPrecision(A), cfg,
                    threads=k) for k in (1, 4, 8)]
    for S, H, tr in outs[1:]:
        assert np.array_equal(S.data, outs[0][0].data)
        assert np.array_equal(H.h, outs[0][1].h)
        assert np.array_equal(tr, outs[0][2], equal_nan=True)


def test_run_identity_channel_recovery():
    # noiseless identity with oracle prior: posterior mean locks onto the
    # observation and the filter onto the unit direct tap
    rng = np.random.default_rng(11)
    F, T = 257, 200
    mag = rng.uniform(0.05, 2.0, (F, T))
    mag[:, 60:80] *= 1e-6  # a pause anchors the noise-precision init
    S = (rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))) * mag
    Xs = tf_spectrogram(S)
    ap = revkit.from_magnitude(np.abs(S))
    cfg = vem.VemConfig(ctf_len=4, ema=0.7, max_iters=20, skip_low_bands=0)
    S_hat, H_hat, trace = vem.run(Xs, ap, cfg)
    assert np.linalg.norm(S_hat.data - S) / np.linalg.norm(S) < 1e-3
    e0 = np.zeros(4, complex)
    e0[0] = 1.0
    assert np.median(np.linalg.norm(H_hat.h - e0, axis=1)) < 1e-3


def test_run_known_filter_recovery_and_lsd():
    S, H_true, Xn = speechlike_tf_instance(seed=42)
    Xs = tf_spectrogram(Xn)
    ap = revkit.from_magnitude(np.abs(S))
    cfg = vem.VemConfig(ctf_len=8, ema=0.7, max_iters=100, skip_low_bands=3)
    S_hat, H_hat, trace = vem.run(Xs, ap, cfg)
    sl = slice(3, None)
    herr = np.linalg.norm(H_hat.h[sl] - H_true[sl], axis=1)
    herr /= np.linalg.norm(H_true[sl], axis=1)
    assert np.median(herr) < 0.1
    ref = tf_spectrogram(S)
    assert evaluate.lsd(S_hat, ref) < evaluate.lsd(Xs, ref)


def test_run_best_snapshot_non_decreasing_and_skip_bands():
    rng = np.random.default_rng(17)
    F, T = 257, 40
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    A = rng.uniform(0.5, 2.0, (F, T))
    cfg = vem.VemConfig(ctf_len=3, max_iters=10, skip_low_bands=3)
    S_hat, H_hat, trace = vem.run(tf_spectrogram(X),
                                  revkit.PriorPrecision(A), cfg)
    # skipped bands: zero spectrum, unit direct tap, no trace
    assert np.all(S_hat.data[:3] == 0)
    assert np.all(H_hat.h[:3, 0] == 1.0)
    assert np.all(H_hat.h[:3, 1:] == 0)
    assert np.all(np.isnan(trace[:, :3]))
    assert np.all(np.isfinite(trace[:, 3:]))
    # running maximum of the trace is non-decreasing by construction
    running = np.maximum.accumulate(trace[1:, 3:], axis=0)
    assert np.all(np.diff(running, axis=0) >= 0)


def test_run_likelihood_improves_from_init():
    S, H_true, Xn = speechlike_tf_instance(seed=7)
    Xs = tf_spectrogram(Xn)
    ap = revkit.from_magnitude(np.abs(S))
    cfg = vem.VemConfig(ctf_len=8, max_iters=30, skip_low_bands=3)
    _, _, trace = vem.run(Xs, ap, cfg)
    assert np.nansum(trace[-1]) > np.nansum(trace[0])


def test_config_validation():
    with pytest.raises(ValueError):
        vem.VemConfig(ema=1.0)
    with pytest.raises(ValueError):
        vem.VemConfig(max_iters=0)
    with pytest.raises(ValueError):
        vem.VemConfig(ctf_len=0)
