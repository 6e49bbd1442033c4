"""Single-channel speech dereverberation and blind RIR identification."""

from .acoustics import (AcousticParams, InsufficientDecayError, edc,
                        estimate_drr, estimate_rt60)
from .evaluate import ScoreReport, lsd, score_rir_batch
from .prior import (PriorPrecision, from_magnitude, load_prior_file,
                    oracle_from_reference, save_prior_file)
from .rir import RirEstimate, ctf_to_rir, inverse_filter, log_sweep
from .simulate import (SynthRirSpec, direct_path_reference, mix, speech_like,
                       synth_rir, white_noise)
from .stft import Spectrogram, Waveform, forward, inverse
from .vem import (CtfFilter, NoisePrecision, Posterior, VemConfig, VemState,
                  e_step, expected_loglik, init, m_step, run)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AcousticParams", "CtfFilter", "InsufficientDecayError",
    "NoisePrecision", "Posterior", "PriorPrecision", "RirEstimate",
    "ScoreReport", "Spectrogram", "SynthRirSpec",
    "VemConfig", "VemState", "Waveform", "ctf_to_rir",
    "direct_path_reference", "e_step", "edc", "estimate_drr", "estimate_rt60",
    "expected_loglik", "forward", "from_magnitude", "init", "inverse",
    "inverse_filter", "load_prior_file", "log_sweep", "lsd", "m_step", "mix",
    "oracle_from_reference", "read_wav", "run", "save_prior_file",
    "score_rir_batch", "speech_like", "synth_rir", "white_noise", "write_wav",
]
