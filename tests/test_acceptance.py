"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion (the -v test lines mirror them). The blind
round-trip cases dominate the runtime (about three minutes total).
"""

import time

import numpy as np
import pytest

import revkit
from revkit import acoustics, evaluate, prior, rir, simulate, stft, vem, wavio
from revkit.cli import main as cli_main
from synthcases import (BLIND_CASES, DRR_GRID, RT_GRID, blind_case,
                        speechlike_tf_instance)


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_stft_perfect_reconstruction():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(16000, 160001))
        wave = revkit.Waveform(rng.standard_normal(n), 16000)
        spec = stft.forward(wave)
        out = stft.inverse(spec)
        m = out.samples.size
        w = stft.WIN
        err = (np.linalg.norm(out.samples[w: m - w] - wave.samples[w: m - w])
               / np.linalg.norm(wave.samples[w: m - w]))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"100 waveforms, worst interior error {worst:.3g}, "
           f"{elapsed:.1f} s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_e_step_wiener_oracle():
    rng = np.random.default_rng(2)
    F, T = 257, 4  # 1028 random bins
    X = rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T))
    alpha = rng.uniform(0.1, 10.0, (F, T))
    delta = rng.uniform(0.5, 50.0, F)
    cfg = vem.VemConfig(ctf_len=1, ema=0.0, max_iters=1)
    state = vem.init(revkit.Spectrogram(X), revkit.PriorPrecision(alpha), cfg)
    state.noise = vem.NoisePrecision(delta)
    post = vem.e_step(state, revkit.Spectrogram(X), revkit.PriorPrecision(alpha),
                      cfg)
    gamma_oracle = alpha + delta[:, None]
    mu_oracle = delta[:, None] * X / (alpha + delta[:, None])
    g_err = np.max(np.abs(post.gamma - gamma_oracle) / gamma_oracle)
    m_err = np.max(np.abs(post.mu - mu_oracle) / np.abs(mu_oracle))
    report(2, g_err < 1e-12 and m_err < 1e-12,
           f"{F * T} bins, gamma err {g_err:.2e}, mu err {m_err:.2e}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_m_step_least_squares_oracle():
    rng = np.random.default_rng(3)
    T, L = 200, 4
    S = rng.standard_normal(T) + 1j * rng.standard_normal(T)
    H_true = np.array([1.0 + 0j, 0.5 - 0.2j, 0.25 + 0.1j, -0.1 + 0.05j])
    X = np.zeros(T, complex)
    for l in range(L):
        X[l:] += H_true[l] * S[: T - l]
    gamma = np.full((1, T), 1e30)
    Xr, Sr = X[None, :], S[None, :]
    _, h, _, _ = vem._m_step_arrays(vem._band_energy(Xr), vem._spectrum(Xr, L),
                                    Sr, vem._spectrum(Sr, L), gamma, L)

    # independent normal-equations construction and solve
    G = np.zeros((L, L), complex)
    b = np.zeros(L, complex)
    mu_pad = np.concatenate([np.zeros(L - 1, complex), S])
    var_pad = np.concatenate([np.zeros(L - 1), np.full(T, 1e-30)])
    for t in range(T):
        w = mu_pad[t: t + L]
        G += np.outer(w, np.conj(w)) + np.diag(var_pad[t: t + L])
        b += X[t] * np.conj(w)
    G += (vem.JITTER * np.trace(G).real / L) * np.eye(L)
    h_ref = (b @ np.linalg.inv(G))[::-1]

    solve_err = np.max(np.abs(h[0] - h_ref))
    true_err = np.linalg.norm(h[0] - H_true) / np.linalg.norm(H_true)
    report(3, solve_err < 1e-9 and true_err < 1e-6,
           f"vs normal equations {solve_err:.2e}, vs truth {true_err:.2e}")


# -- 4 & 5: shared synthetic instance ---------------------------------------

@pytest.fixture(scope="module")
def known_filter_run():
    S, H_true, Xn = speechlike_tf_instance(seed=42, F=257, T=400, L=8,
                                           snr_db=30.0)
    Xs = revkit.Spectrogram(Xn)
    ap = revkit.from_magnitude(np.abs(S))
    cfg = vem.VemConfig(ctf_len=8, ema=0.7, max_iters=100)
    t0 = time.perf_counter()
    S_hat, H_hat, trace = vem.run(Xs, ap, cfg)
    elapsed = time.perf_counter() - t0
    return S, H_true, Xs, S_hat, H_hat, trace, elapsed


def test_criterion_04_likelihood_behavior(known_filter_run):
    _, _, _, _, _, trace, elapsed = known_filter_run
    total_init = np.nansum(trace[0])
    total_final = np.nansum(trace[-1])
    running = np.maximum.accumulate(trace[1:, 3:], axis=0)
    monotone = bool(np.all(np.diff(running, axis=0) >= 0))
    ok = total_final > total_init and monotone and elapsed < 60.0
    report(4, ok,
           f"loglik {total_init:.4g} -> {total_final:.4g}, best-snapshot "
           f"monotone {monotone}, {elapsed:.1f} s")


def test_criterion_05_known_filter_recovery(known_filter_run):
    S, H_true, Xs, S_hat, H_hat, _, _ = known_filter_run
    sl = slice(3, None)
    herr = np.linalg.norm(H_hat.h[sl] - H_true[sl], axis=1)
    herr /= np.linalg.norm(H_true[sl], axis=1)
    med = float(np.median(herr))
    ref = revkit.Spectrogram(S)
    lsd_in = evaluate.lsd(Xs, ref)
    lsd_out = evaluate.lsd(S_hat, ref)
    report(5, med < 0.1 and lsd_out < lsd_in,
           f"median filter error {med:.4f}, LSD {lsd_in:.2f} -> "
           f"{lsd_out:.2f} dB")


# -- 6 & 7: non-blind and blind parameter round trips ------------------------

def test_criterion_06a_nonblind_rt60_grid():
    worst = 0.0
    for rt in RT_GRID:
        for drr in DRR_GRID:
            h = simulate.synth_rir(
                simulate.SynthRirSpec(rt60=rt, drr=drr, seed=17))
            est = acoustics.estimate_rt60(h).rt60
            worst = max(worst, abs(est - rt) / rt)
    report(6, worst <= 0.05,
           f"non-blind RT60 grid, worst relative error {worst:.3%}")


def test_criterion_07a_nonblind_drr_grid():
    worst = 0.0
    for rt in RT_GRID:
        for drr in DRR_GRID:
            h = simulate.synth_rir(
                simulate.SynthRirSpec(rt60=rt, drr=drr, seed=17))
            est = acoustics.estimate_drr(h).drr
            worst = max(worst, abs(est - drr))
    report(7, worst <= 0.5,
           f"non-blind DRR grid, worst absolute error {worst:.3f} dB")


@pytest.fixture(scope="module")
def blind_round_trip():
    """20 cases: the 16-cell grid plus one extra per RT60 value."""
    rt_errors, drr_errors = [], []
    t0 = time.perf_counter()
    for k, (rt, drr) in enumerate(BLIND_CASES):
        seed = 1000 + 10 * k
        _, true_rir, reverb, direct = blind_case(rt, drr, seed,
                                                 snr_db=20.0, duration=3.2)
        X = stft.forward(reverb)
        alpha = prior.oracle_from_reference(
            direct, X.config, expected_frames=X.num_frames)
        _, H_hat, _ = vem.run(X, alpha, vem.VemConfig(max_iters=300))
        est = rir.ctf_to_rir(H_hat)
        rt_ref = acoustics.estimate_rt60(true_rir).rt60
        drr_ref = acoustics.estimate_drr(true_rir).drr
        rt_est = acoustics.estimate_rt60(est).rt60
        drr_est = acoustics.estimate_drr(est).drr
        rt_errors.append(abs(rt_est - rt_ref))
        drr_errors.append(abs(drr_est - drr_ref))
    elapsed = time.perf_counter() - t0
    return np.array(rt_errors), np.array(drr_errors), elapsed


def test_criterion_06b_blind_rt60_round_trip(blind_round_trip):
    rt_errors, _, elapsed = blind_round_trip
    mae = float(np.mean(rt_errors))
    ok = mae <= 0.15 and elapsed < 900.0
    report(6, ok,
           f"blind RT60 over {rt_errors.size} cases: MAE {mae:.4f} s "
           f"(max {rt_errors.max():.3f}), {elapsed:.0f} s")


def test_criterion_07b_blind_drr_round_trip(blind_round_trip):
    _, drr_errors, _ = blind_round_trip
    mae = float(np.mean(drr_errors))
    report(7, mae <= 4.0,
           f"blind DRR over {drr_errors.size} cases: MAE {mae:.3f} dB "
           f"(max {drr_errors.max():.2f})")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_linear_complexity():
    # Per-iteration time is the difference of a 21- and a 1-iteration run,
    # so each sample spans 20 iterations (~0.8 s at T = 1000) and short
    # bursts of host noise average out. The two sizes alternate, so a slow
    # drift in machine speed moves both alike.
    rng = np.random.default_rng(8)
    cases = {}
    for T in (1000, 2000):
        X = rng.standard_normal((257, T)) + 1j * rng.standard_normal((257, T))
        A = rng.uniform(0.5, 2.0, (257, T))
        cases[T] = (revkit.Spectrogram(X), revkit.PriorPrecision(A))
    cfg21 = vem.VemConfig(ctf_len=30, max_iters=21)
    cfg1 = vem.VemConfig(ctf_len=30, max_iters=1)
    samples = {T: [] for T in cases}
    for Xs, ap in cases.values():
        vem.run(Xs, ap, cfg1)  # warmup
    for _ in range(5):
        for T, (Xs, ap) in cases.items():
            t0 = time.perf_counter()
            vem.run(Xs, ap, cfg21)
            t21 = time.perf_counter() - t0
            t0 = time.perf_counter()
            vem.run(Xs, ap, cfg1)
            t1 = time.perf_counter() - t0
            samples[T].append((t21 - t1) / 20.0)
    per_iter = {T: float(np.median(s)) for T, s in samples.items()}
    ratio = per_iter[2000] / per_iter[1000]
    report(8, 1.5 <= ratio <= 2.5,
           f"per-iteration time ratio T=2000/T=1000: {ratio:.2f} "
           f"({per_iter[1000] * 1e3:.0f} ms vs {per_iter[2000] * 1e3:.0f} ms)")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_thread_determinism(tmp_path):
    wave = simulate.speech_like(1.2, 16000, seed=9)
    src = tmp_path / "in.wav"
    wavio.write_wav(src, wave)
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"out{threads}.wav"
        rc = cli_main(["dereverb", str(src), str(out), "--oracle", str(src),
                       "--iters", "20", "--threads", str(threads)])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(9, ok, "byte-identical output WAVs for --threads 1/4/8")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_degenerate_inputs(tmp_path):
    notes = []

    # silent input: runs clean, output silent and finite
    silent = tmp_path / "silent.wav"
    wavio.write_wav(silent, revkit.Waveform(np.zeros(8000), 16000))
    out = tmp_path / "out.wav"
    rc = cli_main(["dereverb", str(silent), str(out), "--oracle", str(silent),
                   "--iters", "3"])
    y = wavio.read_wav(out).samples
    assert rc == 0 and np.all(np.isfinite(y)) and np.allclose(y, 0.0)
    notes.append("silent input ok")

    # impulse-only RIR: RT60 reports the documented error, DRR is capped
    impulse = revkit.Waveform(np.eye(1, 1000, 5)[0], 16000)
    with pytest.raises(acoustics.InsufficientDecayError):
        acoustics.estimate_rt60(impulse)
    assert acoustics.estimate_drr(impulse).drr == acoustics.DRR_CAP_DB
    notes.append("impulse-only RIR ok")

    # zero prior magnitudes: engine stays finite, spectrum pulled to zero
    rng = np.random.default_rng(10)
    X = rng.standard_normal((257, 30)) + 1j * rng.standard_normal((257, 30))
    ap = prior.from_magnitude(np.zeros((257, 30)))
    S_hat, H_hat, trace = vem.run(revkit.Spectrogram(X), ap,
                                  vem.VemConfig(ctf_len=4, max_iters=5))
    assert np.all(np.isfinite(S_hat.data)) and np.all(np.isfinite(H_hat.h))
    assert np.all(np.isfinite(trace[:, 3:]))
    assert np.max(np.abs(S_hat.data)) < 1e-4
    notes.append("zero prior ok")

    # all-zero filter: documented warning, all-zero impulse response
    with pytest.warns(RuntimeWarning, match="all-zero"):
        est = rir.ctf_to_rir(vem.CtfFilter(np.zeros((257, 5), complex)))
    assert np.argmax(np.abs(est.samples)) == 0
    assert np.all(est.samples == 0)
    notes.append("all-zero filter ok")

    report(10, True, "; ".join(notes))
