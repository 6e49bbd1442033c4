"""Single-channel speech dereverberation and blind RIR identification.

Public names and submodules load on first use (PEP 562), so a command
imports only the layers it runs: ``import revkit`` loads no submodule,
and ``revkit.run`` or ``from revkit import run`` imports ``revkit.vem``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("AcousticParams", "InsufficientDecayError", "edc",
                     "estimate_drr", "estimate_rt60"), "acoustics"),
    **dict.fromkeys(("ScoreReport", "lsd", "score_rir_batch"), "evaluate"),
    **dict.fromkeys(("PriorPrecision", "from_magnitude", "load_prior_file",
                     "oracle_from_reference", "save_prior_file"), "prior"),
    **dict.fromkeys(("ctf_to_rir", "inverse_filter", "log_sweep"), "rir"),
    **dict.fromkeys(("SynthRirSpec", "direct_path_reference", "mix",
                     "speech_like", "synth_rir", "white_noise"), "simulate"),
    **dict.fromkeys(("Spectrogram", "Waveform", "forward", "inverse"),
                    "stft"),
    **dict.fromkeys(("CtfFilter", "VemConfig", "run"), "vem"),
    **dict.fromkeys(("read_wav", "write_wav"), "wavio"),
}
__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SOURCES.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES.values(), *__all__})
