"""The engine fed a degraded prior instead of the exact oracle.

Every other engine test feeds the oracle magnitudes, but the paper's prior
comes from a DNN, so a change that helps the oracle could hurt a realistic
prior unnoticed. One blind case (RT60 0.8 s, DRR 0 dB) runs with five
deterministic perturbations of the oracle magnitudes, two of them "wet"
priors that keep 3 % and 10 % of the observation's power, and the RT60 and
DRR errors of the identified RIR must stay under bounds measured at a fixed
engine. Each run is made at lambda 0.7 and 100 iterations (``BOUNDS``) and
at the settings ``identify-rir`` ships (``SHIPPED_BOUNDS``), where the 10 %
wet prior's RT60 error is twice as large. A separate case feeds the
observation's own magnitude as the prior: the engine must not crash and
must return finite outputs.

The case's last 104 frames hold only reverberation, so its oracle prior
sits at ``POWER_FLOOR`` in every band there. One more run cuts the
observation and the reference 120 frames short, so that the exact oracle
is live to the last frame, and bounds its errors the same way.
"""

import argparse
import functools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from revkit import acoustics, prior, rir, stft, vem
from revkit.cli import IDENTIFY_RIR_DEFAULTS, _effective_config
from synthcases import blind_case

RT60, DRR, CASE_SEED = 0.8, 0.0, 20_000
CFG = vem.VemConfig(max_iters=100, threads=2)
# identify-rir's engine settings, merged as the CLI merges them
SHIPPED = _effective_config(argparse.Namespace(config=None, threads=2),
                            **IDENTIFY_RIR_DEFAULTS)[0]


def lognormal_6db(mag):
    """Each magnitude times a gain whose dB value is N(0, 6^2)."""
    rng = np.random.default_rng(CASE_SEED)
    return mag * 10.0 ** (rng.normal(0.0, 6.0, mag.shape) / 20.0)


def smear_5_frames(mag):
    """Centred 5-frame moving average along time (edge frames repeated)."""
    padded = np.pad(mag, ((0, 0), (2, 2)), mode="edge")
    return sliding_window_view(padded, 5, axis=1).mean(axis=-1)


def floor_40db(mag):
    """Magnitudes floored at the peak magnitude -40 dB."""
    return np.maximum(mag, np.max(mag) * 10.0 ** (-40.0 / 20.0))


def wet_3pct(mag):
    """Prior power plus 3 % of the observation's power: a prior that keeps a
    little reverberation, as a DNN's output does."""
    return np.sqrt(mag ** 2 + 0.03 * np.abs(build_case(0)[0].data) ** 2)


def wet_10pct(mag):
    """Prior power plus 10 % of the observation's power. A noise precision
    started from the quietest frame's power collapsed to the trivial fit
    S = X here (RT60 err -0.7589 s, DRR err +22.016 dB)."""
    return np.sqrt(mag ** 2 + 0.10 * np.abs(build_case(0)[0].data) ** 2)


def exact(mag):
    """The oracle magnitudes themselves."""
    return mag


# Largest |estimate - truth| allowed, (RT60 s, DRR dB): the error measured
# when the run was added, plus 0.05 s or 1 dB, rounded up. Measured with the
# noise precision started from the quietest frame's power: log-normal
# +0.0064 s / +0.964 dB, smear +0.0103 s / +2.794 dB, floor +0.0125 s /
# +1.775 dB, wet 3 % +0.0572 s / +3.238 dB, the exact oracle on the case cut
# 120 frames short +0.0197 s / +0.804 dB (on the full case it reads
# +0.0052 s / +1.204 dB). Started from the power the prior leaves
# unexplained, as now: log-normal +0.0067 / +0.620, smear +0.0010 / +2.057,
# floor +0.0066 / +0.939, wet 3 % +0.0222 / +1.384, wet 10 % +0.0391 s /
# +2.350 dB, cut +0.0213 / +0.582.
BOUNDS = {
    "lognormal_6db": (0.057, 1.97),
    "smear_5_frames": (0.061, 3.80),
    "floor_40db": (0.063, 2.78),
    "wet_3pct": (0.108, 4.24),
    "wet_10pct": (0.090, 3.36),
    "oracle_cut_120_frames": (0.070, 1.81),
}
# The same rule at SHIPPED (lambda 0.6, 120 iterations when these runs were
# added), which measured log-normal +0.0097 s / +0.630 dB, smear +0.0024 /
# +1.935, floor +0.0065 / +0.894, wet 3 % +0.0231 / +1.316, wet 10 %
# +0.0835 / +2.230, cut +0.0232 / +0.551.
SHIPPED_BOUNDS = {
    "lognormal_6db": (0.060, 1.64),
    "smear_5_frames": (0.053, 2.94),
    "floor_40db": (0.057, 1.90),
    "wet_3pct": (0.074, 2.32),
    "wet_10pct": (0.134, 3.23),
    "oracle_cut_120_frames": (0.074, 1.56),
}
# name -> (samples cut from the end of the case, perturbation)
RUNS = {"lognormal_6db": (0, lognormal_6db),
        "smear_5_frames": (0, smear_5_frames),
        "floor_40db": (0, floor_40db),
        "wet_3pct": (0, wet_3pct),
        "wet_10pct": (0, wet_10pct),
        "oracle_cut_120_frames": (120 * stft.HOP, exact)}


@functools.cache
def build_case(cut):
    """Observation spectrogram, floored oracle magnitudes and true RT60/DRR,
    with ``cut`` samples dropped from the end of the mixture and reference."""
    _, true_rir, reverb, direct = blind_case(RT60, DRR, CASE_SEED)
    end = reverb.samples.size - cut
    X = stft.forward(stft.Waveform(reverb.samples[:end]))
    oracle = prior.oracle_from_reference(
        stft.Waveform(direct.samples[:end]), X.config, X.num_frames)
    truth = (acoustics.estimate_rt60(true_rir).rt60,
             acoustics.estimate_drr(true_rir).drr)
    return X, 1.0 / np.sqrt(oracle.alpha), truth


def identify(X, mag, cfg):
    """Engine run on prior magnitudes ``mag``; the outputs and the RIR."""
    S_hat, H_hat, trace = vem.run(X, prior.from_magnitude(mag), cfg)
    return S_hat, H_hat, trace, rir.ctf_to_rir(H_hat)


def parameter_errors(name, cfg):
    """(RT60 s, DRR dB) error of the RIR identified in run ``name``."""
    cut, perturb = RUNS[name]
    X, mag, (rt60_true, drr_true) = build_case(cut)
    *_, est = identify(X, perturb(mag), cfg)
    return (acoustics.estimate_rt60(est).rt60 - rt60_true,
            acoustics.estimate_drr(est).drr - drr_true)


@pytest.mark.parametrize("name", list(RUNS))
def test_degraded_prior_keeps_parameter_errors_bounded(name):
    rt60_err, drr_err = parameter_errors(name, CFG)
    rt60_bound, drr_bound = BOUNDS[name]
    assert abs(rt60_err) <= rt60_bound, (name, rt60_err)
    assert abs(drr_err) <= drr_bound, (name, drr_err)


@pytest.mark.parametrize("name", list(RUNS))
def test_degraded_prior_at_the_shipped_settings(name):
    rt60_err, drr_err = parameter_errors(name, SHIPPED)
    rt60_bound, drr_bound = SHIPPED_BOUNDS[name]
    assert abs(rt60_err) <= rt60_bound, (name, rt60_err)
    assert abs(drr_err) <= drr_bound, (name, drr_err)


def test_observation_as_prior_stays_finite():
    X = build_case(0)[0]
    S_hat, H_hat, trace, est = identify(X, np.abs(X.data), CFG)
    assert np.all(np.isfinite(S_hat.data)) and np.all(np.isfinite(H_hat.h))
    assert np.all(np.isfinite(trace[:, vem.SKIP_LOW_BANDS:]))
    assert np.all(np.isfinite(est.samples))
