"""Every check the public data types make on construction."""

import re

import numpy as np
import pytest

from revkit.prior import PriorPrecision
from revkit.simulate import SynthRirSpec
from revkit.stft import Spectrogram, Waveform
from revkit.vem import CtfFilter, NoisePrecision, Posterior

ALPHA = "alpha entries must be finite and positive"
FILTER = "filter must be an F x L matrix with L >= 1"
NOISE = "noise precision must be finite and positive"
GAMMA = "gamma must be finite and positive"


def posterior(gamma):
    return Posterior(np.zeros(2), gamma)


def rir_spec(rt60):
    return SynthRirSpec(rt60=rt60, drr=0.0)


def rir_spec_drr(drr):
    return SynthRirSpec(rt60=0.3, drr=drr)


@pytest.mark.parametrize("make, bad, message", [
    (Waveform, np.zeros((2, 3)), "waveform must be one-dimensional (mono)"),
    (Waveform, np.zeros(0), "waveform must contain at least one sample"),
    (Waveform, [0.0, np.inf], "waveform contains non-finite samples"),
    (Spectrogram, np.zeros(257), "spectrogram data must be 2-D"),
    (Spectrogram, np.zeros((256, 3)), "expected 257 frequency bins, got 256"),
    (Spectrogram, np.full((257, 3), np.nan),
     "spectrogram contains non-finite values"),
    (PriorPrecision, np.ones(5), "alpha must be an F x T matrix"),
    (PriorPrecision, np.zeros((2, 2)), ALPHA),
    (PriorPrecision, [[1.0, -1.0]], ALPHA),
    (PriorPrecision, [[1.0, np.inf]], ALPHA),
    (PriorPrecision, [[1.0, np.nan]], ALPHA),
    (CtfFilter, np.ones(5), FILTER),
    (CtfFilter, np.ones((2, 0)), FILTER),
    (CtfFilter, [[1.0, np.nan]], "filter contains non-finite taps"),
    (CtfFilter, [[1.0, complex(0.0, np.inf)]],
     "filter contains non-finite taps"),
    (NoisePrecision, [1.0, 0.0], NOISE),
    (NoisePrecision, [-1.0], NOISE),
    (NoisePrecision, [np.inf], NOISE),
    (NoisePrecision, [np.nan], NOISE),
    (posterior, np.ones(3), "mu and gamma shapes differ"),
    (posterior, [1.0, 0.0], GAMMA),
    (posterior, [1.0, np.inf], GAMMA),
    (posterior, [1.0, np.nan], GAMMA),
    (rir_spec, 0.0, "rt60 must be positive"),
    (rir_spec, -0.5, "rt60 must be positive"),
    (rir_spec, np.nan, "rt60 must be positive"),
    (rir_spec, np.inf, "rt60 must be finite"),
    (rir_spec, 3e-5,
     "rt60 gives no tail sample at 16 kHz unless drr is +inf"),
    (rir_spec_drr, np.nan, "drr must be a number or +inf"),
    (rir_spec_drr, -np.inf, "drr must be a number or +inf"),
], ids=["waveform-2d", "waveform-empty", "waveform-inf", "spectrogram-1d",
        "spectrogram-bins", "spectrogram-nan", "prior-1d", "prior-zero",
        "prior-negative", "prior-inf", "prior-nan", "filter-1d",
        "filter-no-taps", "filter-nan", "filter-inf", "noise-zero",
        "noise-negative", "noise-inf", "noise-nan", "posterior-shapes",
        "posterior-zero", "posterior-inf", "posterior-nan", "rir-spec-zero",
        "rir-spec-negative", "rir-spec-nan", "rir-spec-inf",
        "rir-spec-no-tail", "rir-spec-drr-nan", "rir-spec-drr-minus-inf"])
def test_constructor_rejects_bad_values(make, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(bad)
