"""A corrupted, missing or changed output counts as a failed invocation.

Run with ``python3 -m pytest -q bench/test_checks.py``; no engine run is
needed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GOOD = np.sin(np.linspace(0.0, 40.0, 1024)) * 0.5


def _dereverb(workdir, samples, manifest="{}"):
    wl = workloads.Dereverb()
    wl.case = inputs.BlindCase("reverb.wav", "direct.wav", "true_rir.wav",
                               0.3, -5.0, 0)
    wl.out_len = GOOD.size
    if samples is not None:
        wavfile.write(workdir / "enhanced.wav", 16000,
                      samples.astype(np.float32))
    if manifest is not None:
        (workdir / "enhanced.wav.manifest.json").write_text(manifest)
    return wl.invocations()[0]


def test_good_output_passes_and_repeats(tmp_path):
    reference = [None]
    inv = _dereverb(tmp_path, GOOD)
    assert run.verify(inv, tmp_path, reference, 0) is None
    assert run.verify(inv, tmp_path, reference, 0) is None
    assert reference[0] is not None


@pytest.mark.parametrize("samples, manifest, message", [
    (None, "{}", "missing"),
    (np.concatenate([GOOD[:10], [np.nan], GOOD[11:]]), "{}", "non-finite"),
    (GOOD[:-1], "{}", "expected 1024"),
    (GOOD, None, "missing"),
    (GOOD, "{not json", "not JSON"),
])
def test_corrupted_output_fails(tmp_path, samples, manifest, message):
    inv = _dereverb(tmp_path, samples, manifest)
    error = run.verify(inv, tmp_path, [None], 0)
    assert error is not None and message in error


def test_unreadable_wav_fails(tmp_path):
    inv = _dereverb(tmp_path, None)
    (tmp_path / "enhanced.wav").write_bytes(b"RIFF\x00garbage")
    assert "unreadable" in run.verify(inv, tmp_path, [None], 0)


def test_changed_bytes_across_repeats_fail(tmp_path):
    reference = [None]
    inv = _dereverb(tmp_path, GOOD)
    assert run.verify(inv, tmp_path, reference, 0) is None
    _dereverb(tmp_path, GOOD * (1.0 + 1e-6))
    assert "differ" in run.verify(inv, tmp_path, reference, 0)


def test_unparseable_params_csv_fails(tmp_path):
    wl = workloads.IdentifyRir()
    wl.case = inputs.BlindCase("reverb.wav", "direct.wav", "true_rir.wav",
                               0.8, 0.0, 0)
    inv = wl.invocations()[0]
    wavfile.write(tmp_path / "est_rir.wav", 16000,
                  np.zeros(workloads.RIR_LEN, np.float32))
    (tmp_path / "est_rir.wav.manifest.json").write_text("{}")
    # the CLI leaves rt60_s empty when the decay is too short to fit
    (tmp_path / "params.csv").write_text(
        "rt60_s,drr_db,pearson_r,fit_start,fit_end,direct_index\n"
        ",3.5,,,,10\n")
    assert "not a number" in run.verify(inv, tmp_path, [None], 0)


def test_rir_params_out_of_tolerance_fails(tmp_path):
    wl = workloads.RirParams()
    wl.files = [inputs.RirFile("rirs/a.wav", 0.5, 0.0),
                inputs.RirFile("rirs/b.wav", 1.0, 5.0)]
    check_rt60 = wl.invocations()[0]
    header = "path,rt60_s,pearson_r,fit_start,fit_end\n"
    (tmp_path / "rt60.csv").write_text(
        header + "rirs/a.wav,0.51,-0.99,1,2\nrirs/b.wav,0.99,-0.99,1,2\n")
    assert run.verify(check_rt60, tmp_path, [None], 0) is None
    (tmp_path / "rt60.csv").write_text(
        header + "rirs/a.wav,0.51,-0.99,1,2\nrirs/b.wav,1.2,-0.99,1,2\n")
    assert "nominal" in run.verify(check_rt60, tmp_path, [None], 0)
    (tmp_path / "rt60.csv").write_text(
        header + "rirs/b.wav,0.99,-0.99,1,2\nrirs/a.wav,0.51,-0.99,1,2\n")
    assert "expected rirs/a.wav" in run.verify(check_rt60, tmp_path,
                                               [None], 0)
