"""The benchmark under bench/ calls revkit functions by name; these tests
keep every such name, and the shape of each call, alive."""

import collections
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from revkit import (acoustics, evaluate, prior, rir, simulate, stft, vem,
                    wavio)
from synthcases import blind_case

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layer_calls_exist():
    tracing = load_tracing()
    for module, names in tracing.LAYER_CALLS.items():
        lib = importlib.import_module(f"revkit.{module}")
        for name in names:
            assert callable(getattr(lib, name, None)), f"revkit.{module}.{name}"


def test_step_api_exists():
    # bench/tracing.py times these kernels one call at a time
    for name in ("init", "e_step", "m_step", "expected_loglik"):
        assert callable(getattr(vem, name, None)), f"revkit.vem.{name}"


def test_kernel_loop_times_each_step(tmp_path):
    # the `--trace 1` per-kernel loop, on the bench's dereverb seed-0 case
    _, _, reverb, direct = blind_case(0.3, -5.0, 10_000)
    wavio.write_wav(tmp_path / "reverb.wav", reverb)
    wavio.write_wav(tmp_path / "direct.wav", direct)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.kernel_loop(tracer, tmp_path, SimpleNamespace(
        reverb="reverb.wav", direct="direct.wav"))
    spans = collections.Counter(rec["name"] for rec in tracer.spans)
    assert spans == dict.fromkeys(
        ("vem.e_step", "vem.m_step", "vem.expected_loglik"),
        tracing.KERNEL_ITERS)


@pytest.mark.parametrize("call, args, kwargs", [
    (stft.Waveform, ("x", "fs"), {}),
    (stft.forward, ("w",), {}),
    (prior.oracle_from_reference, ("w", "cfg"), {"expected_frames": "T"}),
    (vem.init, ("X", "a", "cfg"), {}),
    (vem.e_step, ("state", "X", "a", "cfg"), {}),
    (vem.m_step, ("state", "X", "cfg"), {}),
    (vem.expected_loglik, ("state", "X", "a"), {}),
    (evaluate.lsd, ("a", "b"), {}),
    (simulate.speech_like, ("d", "fs"), {"seed": "s"}),
    (simulate.white_noise, ("n", "fs"), {"seed": "s"}),
    (simulate.SynthRirSpec, (), {"rt60": "r", "drr": "d", "seed": "s"}),
    (simulate.synth_rir, ("spec",), {}),
    (simulate.mix, ("clean", "rir", "noise", "snr"), {}),
    (simulate.direct_path_reference, ("clean", "rir"), {}),
    (wavio.read_wav, ("path",), {}),
    (wavio.write_wav, ("path", "wave"), {}),
    (acoustics.estimate_rt60, ("w",), {}),
    (acoustics.estimate_drr, ("w",), {}),
], ids=["stft.Waveform", "stft.forward", "prior.oracle_from_reference",
        "vem.init", "vem.e_step", "vem.m_step", "vem.expected_loglik",
        "evaluate.lsd", "simulate.speech_like", "simulate.white_noise",
        "simulate.SynthRirSpec", "simulate.synth_rir", "simulate.mix",
        "simulate.direct_path_reference", "wavio.read_wav", "wavio.write_wav",
        "acoustics.estimate_rt60", "acoustics.estimate_drr"])
def test_bench_call_shapes_bind(call, args, kwargs):
    # the calls bench/ makes outside cli.main, argument for argument; a
    # signature change would otherwise break `bench/run.py --trace 1` unseen
    inspect.signature(call).bind(*args, **kwargs)


def test_ctf_to_rir_calls_its_steps_through_the_module(monkeypatch):
    # bench/tracing.py times rir.log_sweep and rir.inverse_filter by
    # replacing the module attributes; a call that bypasses them would
    # leave those layer spans reading zero
    calls = {"log_sweep": 0, "inverse_filter": 0}

    def counting(name):
        original = getattr(rir, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rir, name, counting(name))
    rir.ctf_to_rir(vem.CtfFilter(np.ones((257, 2), complex)))
    assert calls == {"log_sweep": 1, "inverse_filter": 1}
