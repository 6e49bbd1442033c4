"""Shared synthetic instances for engine and acceptance tests."""

import numpy as np

from revkit import acoustics, cli, evaluate, rir, simulate, stft

# The acceptance grid, and the 20 blind cases of criteria 6b/7b: the 16
# cells plus one extra per RT60 value.
RT_GRID = (0.3, 0.5, 0.8, 1.0)
DRR_GRID = (-5.0, 0.0, 5.0, 10.0)
BLIND_CASES = ([(rt, drr) for rt in RT_GRID for drr in DRR_GRID]
               + [(0.3, 5.0), (0.5, 0.0), (0.8, -5.0), (1.0, 10.0)])
EDGE = stft.WIN  # samples left out at each end of a dereverberated waveform


def speechlike_tf_instance(seed, F=257, T=400, L=8, snr_db=30.0,
                           tap_decay=0.7, tap_scale=0.5):
    """Speech-shaped dry spectrum, random decaying subband filter, noise.

    The dry magnitudes carry syllable-like gaps and near-empty lowest rows
    (speech has no content down there); noise is added per band at the
    requested SNR. Returns (S, H_true, X_noisy).
    """
    rng = np.random.default_rng(seed)
    env = np.ones(T)
    starts = np.linspace(25, T - 21, 10).astype(int)
    for s in starts:
        env[s: s + 16] = 0.05
    env *= rng.uniform(0.3, 1.7, T)
    mag = rng.uniform(0.3, 1.2, (F, T)) * env[None, :]
    mag[:3] = 1e-9
    S = (rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T)))
    S *= mag / np.sqrt(2.0)

    H = np.zeros((F, L), dtype=complex)
    H[:, 0] = 1.0
    H[:, 1:] = (rng.standard_normal((F, L - 1))
                + 1j * rng.standard_normal((F, L - 1)))
    H[:, 1:] *= (tap_decay ** np.arange(1, L)) * tap_scale

    X = np.zeros((F, T), dtype=complex)
    for l in range(L):
        X[:, l:] += H[:, l: l + 1] * S[:, : T - l]
    p_band = np.mean(np.abs(X) ** 2, axis=1, keepdims=True)
    W = (rng.standard_normal((F, T)) + 1j * rng.standard_normal((F, T)))
    W *= np.sqrt(p_band * 10.0 ** (-snr_db / 10.0) / 2.0)
    return S, H, X + W


def blind_case(rt60, drr, case_seed, snr_db=20.0, duration=3.2):
    """One simulate-module scenario: clean source, true RIR, mixture and
    aligned direct-path reference."""
    clean = simulate.speech_like(duration, stft.RATE, seed=case_seed)
    true_rir = simulate.synth_rir(
        simulate.SynthRirSpec(rt60=rt60, drr=drr, seed=case_seed + 1)
    )
    noise = simulate.white_noise(
        clean.samples.size + true_rir.samples.size - 1, stft.RATE,
        seed=case_seed + 2,
    )
    reverb = simulate.mix(clean, true_rir, noise, snr_db)
    direct = simulate.direct_path_reference(clean, true_rir)
    return clean, true_rir, reverb, direct


def interior_scores(samples, direct):
    """(LSD, signed level error) in dB of ``samples`` against the direct
    path ``direct`` on the interior [EDGE, n - EDGE), as the benchmark
    scores dereverb's output; the LSD is ``evaluate.lsd``'s."""
    inner = slice(EDGE, samples.size - EDGE)
    out, ref = samples[inner], direct[: samples.size][inner]
    level = 20.0 * np.log10(np.sqrt(np.mean(out ** 2) / np.mean(ref ** 2)))
    lsd = evaluate.lsd(stft.forward(stft.Waveform(out)),
                       stft.forward(stft.Waveform(ref)))
    return lsd, level


def rir_parameters(h):
    """(RT60 s, DRR dB) estimated from the RIR ``h``."""
    return acoustics.estimate_rt60(h).rt60, acoustics.estimate_drr(h).drr


def identify_errors(H_hat, truth):
    """(RT60 s, DRR dB) error of the RIR the CTF filter ``H_hat``
    identifies: its estimates minus ``truth``, the true RIR's."""
    rt60, drr = rir_parameters(rir.ctf_to_rir(H_hat))
    return rt60 - truth[0], drr - truth[1]


def output_scores(S_hat, peak, direct):
    """(LSD, signed level error) in dB of dereverb's output for the posterior
    ``S_hat`` (``cli._synthesize`` at the observation's ``peak``), scored
    against the direct path ``direct`` by ``interior_scores``."""
    return interior_scores(cli._synthesize(S_hat, peak).samples, direct)
