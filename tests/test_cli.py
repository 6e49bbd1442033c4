import argparse
import csv
import json
import os
import platform
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import revkit
from revkit import prior, simulate, stft, wavio
from revkit.cli import (ENGINE_KEYS, IDENTIFY_RIR_DEFAULTS, _add_engine,
                        _dump_config, _effective_config, _engine_summary,
                        _field, _parse_config, main)
from revkit.vem import _available_cpus
from synthcases import blind_case, interior_scores


@pytest.fixture()
def identity_case(tmp_path):
    """Reverberation-free input with silence gaps; its own oracle prior.

    Content is kept above 450 Hz so the bands the engine zeroes carry
    nothing (window sidelobe leakage into them sits near -60 dB).
    """
    wave = simulate.speech_like(1.2, 16000, seed=31)
    spec = np.fft.rfft(wave.samples)
    freqs = np.fft.rfftfreq(wave.samples.size, 1 / 16000)
    gain = np.clip((freqs - 300.0) / 300.0, 0.0, 1.0)
    spec *= 0.5 - 0.5 * np.cos(np.pi * gain)  # gentle edge, no ringing
    x = np.fft.irfft(spec, n=wave.samples.size)
    path = tmp_path / "in.wav"
    wavio.write_wav(path, revkit.Waveform(x / np.max(np.abs(x)), 16000))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_dereverb_identity_channel(tmp_path, identity_case):
    out = tmp_path / "out.wav"
    rc = run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                 "--iters", "30")
    assert rc == 0
    x = wavio.read_wav(identity_case).samples
    y = wavio.read_wav(out).samples
    n = min(x.size, y.size)
    w = 512  # exclude the partially-overlapped transform edges
    err = np.linalg.norm(y[w: n - w] - x[w: n - w])
    err /= np.linalg.norm(x[w: n - w])
    assert err < 1e-3
    manifest = out.with_name(out.name + ".manifest.json")
    assert manifest.exists()


def test_manifest_names_the_running_versions(tmp_path, identity_case):
    out = tmp_path / "out.wav"
    assert run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                   "--iters", "1") == 0
    with open(out.with_name(out.name + ".manifest.json")) as fh:
        versions = json.load(fh)["versions"]
    assert versions == {
        "revkit": revkit.__version__, "numpy": np.__version__,
        "python": platform.python_version(),
    }


def engine_record(out):
    """The ``engine`` object of the manifest written beside ``out``."""
    return json.loads(Path(str(out) + ".manifest.json").read_text())["engine"]


@pytest.mark.parametrize("command", ["dereverb", "identify-rir"])
def test_manifest_engine_record_follows_the_trace(tmp_path, identity_case,
                                                  command):
    out, trace_csv = tmp_path / "o.wav", tmp_path / "trace.csv"
    params = ["--params", tmp_path / "p.csv"] if command == "identify-rir" \
        else []
    assert run_cli(command, identity_case, out, *params, "--oracle",
                   identity_case, "--iters", "8", "--trace", trace_csv) == 0
    trace = np.full((9, 257), np.nan)
    with open(trace_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            trace[int(row["iter"]), int(row["band"])] = float(row["loglik"])
    active = np.all(np.isfinite(trace), axis=0)
    best = 1 + np.argmax(trace[1:, active], axis=0)
    assert engine_record(out) == {
        "active_bands": 254,
        "best_iter_p10": np.percentile(best, 10),
        "best_iter_p50": np.percentile(best, 50),
        "improving_frac": np.mean(best == 8),
    }


def test_one_iteration_leaves_every_band_improving(tmp_path, identity_case):
    out = tmp_path / "o.wav"
    assert run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                   "--iters", "1") == 0
    assert engine_record(out) == {"active_bands": 254, "best_iter_p10": 1.0,
                                  "best_iter_p50": 1.0, "improving_frac": 1.0}


def test_engine_record_of_no_active_band_is_null():
    assert _engine_summary(np.full((4, 257), np.nan)) == {
        "active_bands": 0, "best_iter_p10": None, "best_iter_p50": None,
        "improving_frac": None}


def test_dereverb_rejects_zero_iters(identity_case, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("dereverb", identity_case, tmp_path / "o.wav",
                "--oracle", identity_case, "--iters", "0")


def test_dereverb_requires_exactly_one_prior_source(identity_case, tmp_path):
    with pytest.raises(SystemExit):
        run_cli("dereverb", identity_case, tmp_path / "o.wav")


def test_dereverb_rejects_mismatched_prior(identity_case, tmp_path):
    bad = tmp_path / "bad.vpri"
    prior.save_prior_file(bad, np.ones((257, 5)))
    with pytest.raises(SystemExit, match="prior file") as exc:
        run_cli("dereverb", identity_case, tmp_path / "o.wav", "--prior", bad)
    assert str(exc.value) == (f"{bad}: prior file is 257 x 5, observation "
                              "is 257 x 147")


def test_prior_file_equivalent_to_oracle(tmp_path, identity_case):
    # a VPRI file holding the oracle magnitudes drives the engine to the
    # same place (up to the file format's float32 quantization)
    wave = wavio.read_wav(identity_case)
    mag = np.abs(stft.forward(wave).data)
    vpri = tmp_path / "p.vpri"
    prior.save_prior_file(vpri, mag)

    out_a = tmp_path / "a.wav"
    out_b = tmp_path / "b.wav"
    run_cli("dereverb", identity_case, out_a, "--oracle", identity_case,
            "--iters", "10")
    run_cli("dereverb", identity_case, out_b, "--prior", vpri,
            "--iters", "10")
    a = wavio.read_wav(out_a).samples
    b = wavio.read_wav(out_b).samples
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-4


@pytest.fixture(scope="module")
def bench_dereverb(tmp_path_factory):
    """The benchmark's dereverb case (RT60 0.3 s, DRR -5 dB, seed 10000),
    written as WAV files and run at the defaults (lambda 0.6, 40 iterations)
    with the direct-path reference as the oracle."""
    d = tmp_path_factory.mktemp("bench_dereverb")
    _, _, reverb, direct = blind_case(0.3, -5.0, 10_000)
    wavio.write_wav(d / "reverb.wav", reverb)
    wavio.write_wav(d / "direct.wav", direct)
    assert run_cli("dereverb", d / "reverb.wav", d / "oracle.wav",
                   "--oracle", d / "direct.wav") == 0
    return d


def test_oracle_prior_is_on_the_observation_scale(tmp_path, bench_dereverb):
    # the oracle is referred to the observation's peak, exactly as the VPRI
    # format asks of a prior file: |STFT(ref / max|x|)|, framed by hand
    d = bench_dereverb
    x = wavio.read_wav(d / "reverb.wav").samples
    ref = wavio.read_wav(d / "direct.wav").samples / np.max(np.abs(x))
    frames = np.lib.stride_tricks.sliding_window_view(ref, 512)[::128]
    prior.save_prior_file(tmp_path / "p.vpri",
                          np.abs(np.fft.rfft(frames * stft.WINDOW)).T)
    out = tmp_path / "prior.wav"
    assert run_cli("dereverb", d / "reverb.wav", out,
                   "--prior", tmp_path / "p.vpri") == 0
    a = wavio.read_wav(d / "oracle.wav").samples
    b = wavio.read_wav(out).samples
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-4


def test_dereverb_keeps_the_direct_path_level(bench_dereverb):
    d = bench_dereverb
    y = wavio.read_wav(d / "oracle.wav").samples
    ref = wavio.read_wav(d / "direct.wav").samples
    assert abs(interior_scores(y, ref)[1]) <= 1.0


def test_dereverb_lowers_the_lsd(bench_dereverb):
    # on the interior, the output is closer to the direct path than the
    # input is, by evaluate.lsd (magnitudes clipped at the reference's
    # peak -80 dB)
    d = bench_dereverb
    y = wavio.read_wav(d / "oracle.wav").samples
    x = wavio.read_wav(d / "reverb.wav").samples[: y.size]
    ref = wavio.read_wav(d / "direct.wav").samples
    assert interior_scores(y, ref)[0] < interior_scores(x, ref)[0]


def test_dereverb_edges_peak_no_higher_than_interior(bench_dereverb):
    y = wavio.read_wav(bench_dereverb / "oracle.wav").samples
    w = 512
    interior = np.max(np.abs(y[w:-w]))
    assert np.max(np.abs(y[:w])) <= interior
    assert np.max(np.abs(y[-w:])) <= interior


def engine_config(**values):
    """(VemConfig, {key: value}) of an engine run whose flags set ``values``
    and that reads no config file."""
    return _effective_config(argparse.Namespace(config=None, **values))


def test_threads_default_to_the_available_cpus(monkeypatch):
    assert engine_config()[1]["threads"] == _available_cpus()
    # counted when a configuration is built, not when revkit is imported
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert engine_config()[1]["threads"] == 3


def test_default_threads_write_the_one_thread_bytes(tmp_path, identity_case):
    outs = []
    for flags in ([], ["--threads", "1"]):
        out = tmp_path / f"out{len(flags)}.wav"
        run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                "--iters", "6", *flags)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dump_records_the_resolved_thread_count(tmp_path, identity_case,
                                                capsys):
    out1 = tmp_path / "o1.wav"
    out2 = tmp_path / "o2.wav"
    run_cli("dereverb", identity_case, out1, "--oracle", identity_case,
            "--iters", "6", "--dump-config", "-")
    dumped = capsys.readouterr().out.removesuffix(f"wrote {out1}\n")
    assert f"threads = {_available_cpus()}\n" in dumped
    manifest = json.loads(Path(str(out1) + ".manifest.json").read_text())
    assert manifest["config"]["threads"] == str(_available_cpus())
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dumped)
    run_cli("dereverb", identity_case, out2, "--oracle", identity_case,
            "--config", cfg_path, "--dump-config", "-")
    assert capsys.readouterr().out.startswith(dumped)
    assert out1.read_bytes() == out2.read_bytes()


def test_trace_csv(tmp_path, identity_case):
    out = tmp_path / "out.wav"
    trace = tmp_path / "trace.csv"
    run_cli("dereverb", identity_case, out, "--oracle", identity_case,
            "--iters", "5", "--trace", trace)
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["iter"] for r in rows} == {str(i) for i in range(6)}
    bands = {int(r["band"]) for r in rows}
    assert min(bands) == 3 and max(bands) == 256  # skipped bands omitted
    assert all(np.isfinite(float(r["loglik"])) for r in rows)


@pytest.mark.parametrize("file_text, flags, key", [
    ("threads = 0\n", [], "threads"),
    ("", ["--lambda", "1.5"], "lambda"),
    ("skip_low_bands = 3\n", [],
     "^invalid configuration: line 1: unknown key 'skip_low_bands'$"),
    ("hop = 100\n", [], "hop"),
    ("ctf_len = abc\n", [], "ctf_len"),
    ("bogus = 1\n", [], "bogus"),
    ("", ["--config", "no-such-dir/run.cfg"], "no-such-dir/run.cfg"),
    ("jitter = 1e-6\n", [], "unknown key 'jitter'"),
    ("seed = 0\n", [], "unknown key 'seed'"),
    ("win_length = 512\n", [],
     "invalid configuration: line 1: unknown key 'win_length'"),
    ("\xffctf_len = 12\n", [],
     "^invalid configuration: cannot read .*run\\.cfg: 'utf-8' codec "
     "can't decode byte 0xff"),
], ids=["threads-file", "lambda-flag", "skip-bands-file", "hop-file",
        "bad-value-file", "unknown-key-file", "missing-file",
        "numerical-guard-file", "seed-file", "win-length-file",
        "not-utf8-file"])
def test_invalid_config_value_exits_before_any_output(tmp_path, identity_case,
                                                      file_text, flags, key):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(file_text.encode("latin-1"))
    out = tmp_path / "o.wav"
    dumped = tmp_path / "dumped.cfg"
    with pytest.raises(SystemExit, match=key):
        run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                "--config", cfg_path, "--dump-config", dumped, *flags)
    assert not out.exists() and not dumped.exists()


def test_config_line_without_equals_exits_with_one_line(tmp_path,
                                                       identity_case):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# engine\nmax_iters 5\n")
    out = tmp_path / "o.wav"
    proc = fresh_python("-m", "revkit.cli", "dereverb", identity_case, out,
                        "--oracle", identity_case, "--config", cfg_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("invalid configuration: line 2: expected "
                           "'key = value'\n")
    assert not out.exists()


def test_dump_config_round_trip(tmp_path, identity_case):
    out1 = tmp_path / "o1.wav"
    out2 = tmp_path / "o2.wav"
    cfg_path = tmp_path / "run.cfg"
    run_cli("dereverb", identity_case, out1, "--oracle", identity_case,
            "--iters", "7", "--lambda", "0.5", "--ctf-len", "10",
            "--dump-config", cfg_path)
    run_cli("dereverb", identity_case, out2, "--oracle", identity_case,
            "--config", cfg_path)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, ema, iters", [
    ("dereverb", 0.6, 40),
    ("identify-rir", revkit.VemConfig().ema,
     IDENTIFY_RIR_DEFAULTS["max_iters"])],
    ids=["dereverb-40", "identify-rir-120"])
def test_engine_commands_dump_their_default_iterations(
        tmp_path, identity_case, capsys, command, ema, iters):
    params = ["--params", tmp_path / "p.csv"] if command == "identify-rir" \
        else []
    run_cli(command, identity_case, tmp_path / "o.wav", *params,
            "--oracle", identity_case, "--dump-config", "-")
    dump = capsys.readouterr().out
    assert f"lambda = {ema}\n" in dump
    assert f"max_iters = {iters}\n" in dump


def test_identify_rir_writes_outputs(tmp_path):
    clean = simulate.speech_like(1.5, 16000, seed=41)
    rir_true = simulate.synth_rir(
        simulate.SynthRirSpec(rt60=0.4, drr=5.0, seed=42))
    mixed = simulate.mix(clean, rir_true, None, np.inf)
    direct = simulate.direct_path_reference(clean, rir_true)
    in_wav = tmp_path / "rev.wav"
    ref_wav = tmp_path / "dir.wav"
    wavio.write_wav(in_wav, mixed)
    wavio.write_wav(ref_wav, direct)
    rir_out = tmp_path / "rir.wav"
    params = tmp_path / "params.csv"
    ctf_csv = tmp_path / "ctf.csv"
    rc = run_cli("identify-rir", in_wav, rir_out, "--params", params,
                 "--oracle", ref_wav, "--iters", "40", "--ctf-csv", ctf_csv)
    assert rc == 0
    est = wavio.read_wav(rir_out)
    assert est.samples.size > 0
    with open(params, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["drr_db"]) > 0  # mostly-direct channel
    # the direct path is the largest |sample| of the RIR WAV it wrote
    assert int(row["direct_index"]) == np.argmax(np.abs(est.samples))
    with open(ctf_csv, newline="") as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert n_rows == 257 * 30


def test_identity_channel_identify_rir_degenerate(tmp_path, identity_case):
    # no reverberation: DRR lands at (or near) the cap; RT60 either errors
    # with the documented message or comes out tiny
    rir_out = tmp_path / "rir.wav"
    params = tmp_path / "params.csv"
    rc = run_cli("identify-rir", identity_case, rir_out, "--params", params,
                 "--oracle", identity_case, "--iters", "15")
    assert rc == 0
    with open(params, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["drr_db"]) > 20.0
    if row["rt60_s"]:
        assert float(row["rt60_s"]) < 0.2


def test_rt60_and_drr_commands(tmp_path, capsys):
    h = simulate.synth_rir(simulate.SynthRirSpec(rt60=0.5, drr=5.0, seed=7))
    path = tmp_path / "rir.wav"
    wavio.write_wav(path, h)
    csv_out = tmp_path / "rt.csv"
    rc = run_cli("rt60", path, "--csv", csv_out)
    assert rc == 0
    text = capsys.readouterr().out
    assert "rt60=" in text and "pearson_r=" in text and "fit_start=" in text
    with open(csv_out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert abs(float(row["rt60_s"]) - 0.5) < 0.05

    rc = run_cli("drr", path)
    assert rc == 0
    assert "drr=" in capsys.readouterr().out


def test_rt60_command_insufficient_decay(tmp_path, capsys):
    x = np.zeros(1000)
    x[10] = 1.0
    path = tmp_path / "imp.wav"
    wavio.write_wav(path, revkit.Waveform(x, 16000))
    rc = run_cli("rt60", path)
    assert rc == 1
    assert "insufficient decay" in capsys.readouterr().out


def test_simulate_and_eval_round_trip(tmp_path, capsys):
    outdir = tmp_path / "data"
    rc = run_cli("simulate", outdir, "--rt60", "0.3,0.5", "--drr", "0,5",
                 "--snr", "20", "--duration", "0.8", "--seed", "5")
    assert rc == 0
    with open(outdir / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        for key in ("reverb_wav", "direct_wav", "rir_wav"):
            assert (outdir / row[key]).exists()

    # score the true parameters against themselves: zeros, exit code 0
    params = tmp_path / "true.csv"
    with open(params, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rt60_s", "drr_db"])
        for row in rows:
            writer.writerow([row["rt60_s"], row["drr_db"]])
    rc = run_cli("eval", params, params, "--csv", tmp_path / "report.csv")
    assert rc == 0
    out = capsys.readouterr().out
    assert "mae=0.0000" in out
    assert (tmp_path / "report.csv").exists()


def test_eval_rejects_unscorable(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("rt60_s,drr_db\n0.5,3.0\n,2.0\n")
    b.write_text("rt60_s,drr_db\n0.5,3.0\n0.6,2.0\n")
    assert run_cli("eval", a, b) == 1


def test_silent_input_runs_clean(tmp_path):
    silent = tmp_path / "silent.wav"
    wavio.write_wav(silent, revkit.Waveform(np.zeros(8000), 16000))
    out = tmp_path / "out.wav"
    rc = run_cli("dereverb", silent, out, "--oracle", silent, "--iters", "3")
    assert rc == 0
    y = wavio.read_wav(out).samples
    assert np.all(np.isfinite(y))
    assert np.allclose(y, 0.0)
    # every band runs, and a flat trace's first maximum is iteration 1
    assert engine_record(out) == {"active_bands": 254, "best_iter_p10": 1.0,
                                  "best_iter_p50": 1.0, "improving_frac": 0.0}


def test_drr_of_silent_file_is_reported(tmp_path, capsys):
    # reported like an unreadable file: a line naming it, a blank row
    silent = tmp_path / "silent.wav"
    wavio.write_wav(silent, revkit.Waveform(np.zeros(1000), 16000))
    csv_out = tmp_path / "out.csv"
    assert run_cli("drr", silent, "--csv", csv_out) == 1
    assert capsys.readouterr().out == (
        f"{silent}: silent impulse response: DRR undefined\n")
    with open(csv_out, newline="") as fh:
        assert list(csv.reader(fh)) == [["path", "drr_db"], [str(silent), ""]]


def test_identify_rir_of_silent_input_leaves_drr_blank(tmp_path, capsys):
    silent = tmp_path / "silent.wav"
    wavio.write_wav(silent, revkit.Waveform(np.zeros(8000), 16000))
    params = tmp_path / "params.csv"
    with pytest.warns(RuntimeWarning, match="all-zero"):
        rc = run_cli("identify-rir", silent, tmp_path / "rir.wav",
                     "--params", params, "--oracle", silent, "--iters", "3")
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert "drr: silent impulse response: DRR undefined" in err
    with open(params, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["rt60_s"] == row["drr_db"] == ""


@pytest.mark.parametrize("command", ["dereverb", "identify-rir"])
@pytest.mark.parametrize("sources", [(), ("--oracle", "--prior")],
                         ids=["neither", "both"])
def test_prior_source_other_than_one_is_a_usage_error(tmp_path, capsys,
                                                      command, sources):
    # the parser rejects it before any file is touched: none of these exist
    argv = [command, tmp_path / "in.wav", tmp_path / "out.wav"]
    for flag in sources:
        argv += [flag, tmp_path / "ref"]
    if command == "identify-rir":
        argv += ["--params", tmp_path / "p.csv"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2  # argparse's usage error
    assert "--oracle" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_wav_contract_rejections(tmp_path):
    from scipy.io import wavfile
    bad_rate = tmp_path / "8k.wav"
    wavfile.write(bad_rate, 8000, np.zeros(1000, dtype=np.float32))
    with pytest.raises(ValueError, match="resampling"):
        wavio.read_wav(bad_rate)
    stereo = tmp_path / "st.wav"
    wavfile.write(stereo, 16000, np.zeros((1000, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mono"):
        wavio.read_wav(stereo)
    bad_fmt = tmp_path / "i32.wav"
    wavfile.write(bad_fmt, 16000, np.zeros(1000, dtype=np.int32))
    with pytest.raises(ValueError, match="format"):
        wavio.read_wav(bad_fmt)


def fresh_python(*args):
    """A fresh interpreter on this revkit, as a command runs."""
    src = str(Path(revkit.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *(str(a) for a in args)],
                          text=True, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_cli_import_leaves_out_heavy_scipy_modules():
    # scipy.signal and scipy.stats cost ~0.8 s of start-up on every command,
    # scipy.fft and scipy.io (with scipy.special) ~0.3 s more, and the CLI
    # needs none of scipy; a fresh interpreter shows what the import pulls in
    out = fresh_python("-c", "import sys, revkit.cli; print(sorted(m for m "
                       "in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: a session of all six commands runs
    # in an interpreter where any import of scipy fails
    d = tmp_path / "data"
    case = {k: d / f"case000_{k}.wav" for k in ("reverb", "direct", "rir")}
    session = [
        ["simulate", d, "--duration", "1.0"],
        ["dereverb", case["reverb"], tmp_path / "out.wav",
         "--oracle", case["direct"], "--iters", "2"],
        ["identify-rir", case["reverb"], tmp_path / "rir.wav",
         "--params", tmp_path / "p.csv", "--oracle", case["direct"],
         "--iters", "2"],
        ["rt60", case["rir"]],
        ["drr", case["rir"]],
        ["eval", tmp_path / "p.csv", d / "manifest.csv"],
    ]
    proc = fresh_python("-c", "import json, sys; sys.modules['scipy'] = None; "
                        "from revkit.cli import main; "
                        "print([main(a) for a in json.loads(sys.argv[1])])",
                        json.dumps([[str(a) for a in argv] for argv in session]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"


# Modules that only the engine commands, simulate, eval or the manifest
# writer use; numpy and the interpreter load platform and threading anyway.
ENGINE_MODULES = ("revkit.vem", "revkit.rir", "revkit.prior",
                  "revkit.simulate", "revkit.evaluate", "concurrent.futures",
                  "hashlib", "json")


def test_rt60_starts_without_the_engine(tmp_path):
    # every command pays its imports at start-up; rt60 (like drr and eval)
    # runs none of the engine, so neither the CLI import nor the command may
    # load it, while every public name still resolves on first use
    path = tmp_path / "rir.wav"
    wavio.write_wav(path, simulate.synth_rir(
        simulate.SynthRirSpec(rt60=0.5, drr=5.0, seed=7)))
    proc = fresh_python("-c", f"""
import sys
engine = {ENGINE_MODULES!r}
loaded = lambda: [m for m in engine if m in sys.modules]
import revkit.cli
after_import = loaded()
status = revkit.cli.main(["rt60", sys.argv[1]])
after_rt60 = loaded()
import revkit
vem = revkit.vem
unresolved = [n for n in revkit.__all__ if getattr(revkit, n, None) is None]
print([after_import, status, after_rt60, vem.__name__, vem.run is revkit.run,
       unresolved])
""", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(
        [[], 0, [], "revkit.vem", True, []])


@pytest.mark.parametrize("command, fault, message", [
    ("dereverb", "input-not-wav", "not a RIFF/WAVE file"),
    ("dereverb", "input-too-short", "input too short"),
    ("dereverb", "oracle-length", "length mismatch"),
    ("dereverb", "prior-bad-magic", "bad magic"),
    ("dereverb", "prior-huge-header", "payload size does not match"),
    ("dereverb", "input-missing", "No such file or directory"),
    ("identify-rir", "oracle-missing", "No such file or directory"),
    ("simulate", "clean-not-wav", "not a RIFF/WAVE file"),
    ("simulate", "clean-silent", "silent clean input"),
    ("eval", "estimates-missing", "No such file or directory"),
    ("eval", "estimates-no-columns", "need columns rt60_s and drr_db"),
], ids=["dereverb-input-not-wav", "dereverb-input-too-short",
        "dereverb-oracle-length", "dereverb-prior-bad-magic",
        "dereverb-prior-huge-header", "dereverb-input-missing",
        "identify-rir-oracle-missing", "simulate-clean-not-wav",
        "simulate-clean-silent", "eval-estimates-missing",
        "eval-estimates-no-columns"])
def test_bad_input_file_exits_with_one_line(tmp_path, identity_case, command,
                                            fault, message):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file")
    short = tmp_path / "short.wav"
    wavio.write_wav(short, revkit.Waveform(np.ones(100), 16000))
    long_ref = tmp_path / "long.wav"
    x = wavio.read_wav(identity_case).samples
    wavio.write_wav(long_ref, revkit.Waveform(np.tile(x, 2), 16000))
    vpri = tmp_path / "bad.vpri"
    vpri.write_bytes(b"NOPE" + b"\x00" * 12)
    huge = tmp_path / "huge.vpri"  # F = T = 2**32 - 1: 2**66 payload bytes
    huge.write_bytes(b"VPRI" + struct.pack("<III", 1, 2**32 - 1, 2**32 - 1))
    silent = tmp_path / "silent.wav"
    wavio.write_wav(silent, revkit.Waveform(np.zeros(1000), 16000))
    missing = tmp_path / "missing.wav"
    params = tmp_path / "params.csv"
    params.write_text("rt60_s,drr_db\n0.5,3.0\n")
    no_columns = tmp_path / "no_columns.csv"
    no_columns.write_text("rt60,drr\n0.5,3.0\n")

    out = tmp_path / "out.wav"
    dump = ["--dump-config", tmp_path / "run.cfg"]
    source, argv = {
        "input-not-wav": (bad, [bad, out, "--oracle", identity_case]),
        "input-too-short": (short, [short, out, "--oracle", short]),
        "oracle-length": (long_ref, [identity_case, out,
                                     "--oracle", long_ref]),
        "prior-bad-magic": (vpri, [identity_case, out, "--prior", vpri]),
        "prior-huge-header": (huge, [identity_case, out, "--prior", huge]),
        "input-missing": (missing, [missing, out, "--oracle", identity_case]),
        "oracle-missing": (missing, [identity_case, out, "--params",
                                     tmp_path / "p.csv", "--oracle",
                                     missing]),
        "clean-not-wav": (bad, [tmp_path / "data", "--clean", bad]),
        "clean-silent": (silent, [tmp_path / "data", "--clean", silent]),
        "estimates-missing": (missing, [missing, params]),
        "estimates-no-columns": (no_columns, [no_columns, params]),
    }[fault]
    before = set(tmp_path.iterdir())
    engine = command in ("dereverb", "identify-rir")
    proc = fresh_python("-m", "revkit.cli", command, *argv,
                        *(dump if engine else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"{source}: ") and message in proc.stderr
    assert proc.stdout == ""
    assert set(tmp_path.iterdir()) == before  # no output of any kind


# every (command, output flag) pair; None is the positional output
OUTPUT_FLAGS = pytest.mark.parametrize("command, flag", [
    ("dereverb", None),
    ("dereverb", "--trace"),
    ("dereverb", "--dump-config"),
    ("identify-rir", None),
    ("identify-rir", "--params"),
    ("identify-rir", "--ctf-csv"),
    ("identify-rir", "--trace"),
    ("identify-rir", "--dump-config"),
    ("rt60", "--csv"),
    ("drr", "--csv"),
    ("eval", "--csv"),
], ids=["dereverb-output", "dereverb-trace", "dereverb-dump-config",
        "identify-rir-output", "identify-rir-params", "identify-rir-ctf-csv",
        "identify-rir-trace", "identify-rir-dump-config", "rt60-csv",
        "drr-csv", "eval-csv"])


def argv_writing_to(path, tmp_path, case, command, flag):
    """``command``'s argv with ``path`` as the output ``flag`` names (None:
    the positional output) and every other output in ``tmp_path``."""
    params = tmp_path / "params.csv"
    params.write_text("rt60_s,drr_db\n0.5,3.0\n")
    out = path if flag is None else tmp_path / "o.wav"
    argv = {"rt60": [command, case], "drr": [command, case],
            "eval": [command, params, params]}.get(
        command, [command, case, out, "--oracle", case])
    if command == "identify-rir":
        argv += ["--params",
                 path if flag == "--params" else tmp_path / "p.csv"]
    if flag not in (None, "--params"):
        argv += [flag, path]
    return argv


@OUTPUT_FLAGS
def test_output_in_missing_directory_exits_before_the_engine(
        tmp_path, identity_case, command, flag):
    # checked before any input is read, so the engine (or any other work)
    # never runs for results it cannot write, and nothing is left behind
    nowhere = tmp_path / "nodir" / "x.out"
    argv = argv_writing_to(nowhere, tmp_path, identity_case, command, flag)
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == f"{nowhere}: no such directory"
    assert set(tmp_path.iterdir()) == before


@OUTPUT_FLAGS
def test_output_symlink_loop_exits_before_the_engine(
        tmp_path, identity_case, command, flag):
    # a path that links to itself cannot be opened: found the same way, with
    # one line and no traceback
    loop = tmp_path / "loop.wav"
    loop.symlink_to(loop)
    argv = argv_writing_to(loop, tmp_path, identity_case, command, flag)
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == f"{loop}: Too many levels of symbolic links"
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flag", [
    ("dereverb", None),
    ("dereverb", "manifest"),
    ("dereverb", "--trace"),
    ("dereverb", "--dump-config"),
    ("identify-rir", None),
    ("identify-rir", "manifest"),
    ("identify-rir", "--params"),
    ("identify-rir", "--ctf-csv"),
    ("identify-rir", "--trace"),
    ("identify-rir", "--dump-config"),
    ("rt60", "--csv"),
    ("drr", "--csv"),
    ("eval", "--csv"),
], ids=["dereverb-output", "dereverb-manifest", "dereverb-trace",
        "dereverb-dump-config", "identify-rir-output", "identify-rir-manifest",
        "identify-rir-params", "identify-rir-ctf-csv", "identify-rir-trace",
        "identify-rir-dump-config", "rt60-csv", "drr-csv", "eval-csv"])
def test_output_that_is_a_directory_exits_before_any_input_is_read(
        tmp_path, command, flag):
    # the input is missing, so only a check made before it is read can end
    # the run with this message
    missing = tmp_path / "missing.wav"
    out = tmp_path / "o.wav"
    taken = {None: out, "manifest": tmp_path / "o.wav.manifest.json"}.get(
        flag, tmp_path / "somedir")
    taken.mkdir()
    argv = {"rt60": [command, missing], "drr": [command, missing],
            "eval": [command, missing, missing]}.get(
        command, [command, missing, out, "--oracle", missing])
    if command == "identify-rir":
        argv += ["--params",
                 taken if flag == "--params" else tmp_path / "p.csv"]
    if flag not in (None, "manifest", "--params"):
        argv += [flag, taken]
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == f"{taken}: is a directory"
    assert set(tmp_path.iterdir()) == before


ENGINE_ARGS = ["--oracle", "ref.wav", "--config", "cfg.txt"]


@pytest.mark.parametrize("argv, named", [
    (["dereverb", "in.wav", "in.wav", *ENGINE_ARGS], "in.wav"),
    (["dereverb", "in.wav", "ref.wav", *ENGINE_ARGS], "ref.wav"),
    (["dereverb", "in.wav", "o.wav", "--prior", "p.vpri", "--trace", "p.vpri"],
     "p.vpri"),
    (["dereverb", "in.wav", "o.wav", *ENGINE_ARGS, "--trace", "o.wav"],
     "o.wav"),
    (["dereverb", "in.wav", "o.wav", *ENGINE_ARGS,
      "--trace", "o.wav.manifest.json"], "o.wav.manifest.json"),
    (["dereverb", "in.wav", "o.wav", *ENGINE_ARGS, "--dump-config", "cfg.txt"],
     "cfg.txt"),
    (["dereverb", "in.wav", "link.wav", *ENGINE_ARGS], "link.wav"),
    (["identify-rir", "in.wav", "o.wav", *ENGINE_ARGS, "--params", "o.wav"],
     "o.wav"),
    (["identify-rir", "in.wav", "o.wav", *ENGINE_ARGS, "--params", "p.csv",
      "--ctf-csv", "in.wav"], "in.wav"),
    (["identify-rir", "in.wav", "o.wav", *ENGINE_ARGS, "--params", "p.csv",
      "--trace", "p.csv"], "p.csv"),
    (["identify-rir", "in.wav", "o.wav", *ENGINE_ARGS, "--params", "p.csv",
      "--dump-config", "sub/../p.csv"], "sub/../p.csv"),
    (["rt60", "a.wav", "b.wav", "--csv", "b.wav"], "b.wav"),
    (["drr", "a.wav", "--csv", "sub/../a.wav"], "sub/../a.wav"),
    (["eval", "est.csv", "ref.csv", "--csv", "est.csv"], "est.csv"),
    (["eval", "est.csv", "ref.csv", "--csv", "ref.csv"], "ref.csv"),
], ids=["dereverb-output-is-input", "dereverb-output-is-oracle",
        "dereverb-trace-is-prior", "dereverb-trace-is-output",
        "dereverb-trace-is-manifest", "dereverb-dump-config-is-config",
        "dereverb-output-links-to-input", "identify-rir-params-is-output",
        "identify-rir-ctf-csv-is-input", "identify-rir-params-is-trace",
        "identify-rir-dump-config-is-params", "rt60-csv-is-input",
        "drr-csv-is-input", "eval-csv-is-estimates", "eval-csv-is-references"])
def test_output_that_names_an_input_or_output_exits_before_any_input_is_read(
        tmp_path, monkeypatch, argv, named):
    # the inputs are not WAV or CSV files, so only a check made before they
    # are read can end the run with this message; nothing is overwritten
    monkeypatch.chdir(tmp_path)
    for name in ("in.wav", "ref.wav", "p.vpri", "a.wav", "b.wav", "est.csv",
                 "ref.csv"):
        Path(name).write_bytes(name.encode())
    Path("cfg.txt").write_text("")
    Path("sub").mkdir()
    Path("link.wav").symlink_to("in.wav")

    def tree():
        return {p: p.read_bytes() if p.is_file() else None
                for p in Path().rglob("*")}
    before = tree()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == f"{named}: is an input or another output"
    assert tree() == before


@pytest.mark.parametrize("flag", [
    ["--rt60", "abc"], ["--rt60", "0"], ["--rt60", "-1"], ["--rt60", ","],
    ["--rt60", "0.5,inf"], ["--rt60", "0.5,0.00003"], ["--drr", "nan"],
    ["--drr", ""],
    ["--duration", "0"], ["--duration", "-1"], ["--duration", "inf"],
    ["--duration", "0.00001"], ["--snr", "nan"], ["--snr=-inf"],
], ids=["rt60-abc", "rt60-zero", "rt60-negative", "rt60-empty", "rt60-inf",
        "rt60-no-sample",
        "drr-nan", "drr-empty", "duration-zero", "duration-negative",
        "duration-inf", "duration-no-sample", "snr-nan", "snr-minus-inf"])
def test_simulate_rejects_bad_numbers_as_usage_errors(tmp_path, capsys, flag):
    outdir = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", outdir, *flag)
    assert exc.value.code == 2  # argparse's usage error
    # "--snr=-inf": a bare "-inf" would read as an option, not a value
    assert f"argument {flag[0].split('=')[0]}: " in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("outdir, clean, message", [
    ("taken", None, "not a directory"),
    ("taken/sub", None, "not a directory"),
    ("taken/sub", "missing.wav", "not a directory"),
    ("link", None, "File exists"),
    ("loop", None, "Too many levels of symbolic links"),
], ids=["existing-file", "below-a-file", "below-a-file-with-clean",
        "dangling-symlink", "symlink-loop"])
def test_simulate_rejects_an_unusable_output_directory(tmp_path, outdir,
                                                       clean, message):
    # checked before --clean is read: a missing source is not what ends it
    (tmp_path / "taken").write_text("a file")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", tmp_path / outdir, "--duration", "0.3",
                *(["--clean", tmp_path / clean] if clean else []))
    assert exc.value.code == f"{tmp_path / outdir}: {message}"
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("collision, message", [
    ("reverb-directory", "is a directory"),
    ("rir-symlink-loop", "Too many levels of symbolic links"),
    ("manifest-directory", "is a directory"),
    ("clean-is-an-output", "is an input or another output"),
], ids=["reverb-directory", "rir-symlink-loop", "manifest-directory",
        "clean-is-an-output"])
def test_simulate_checks_each_output_before_it_writes(tmp_path, collision,
                                                      message):
    # each file the grid would write is checked as the other commands
    # check theirs: one line, nothing written, the source untouched
    outdir = tmp_path / "data"
    outdir.mkdir()
    clean = tmp_path / "src.wav"
    wavio.write_wav(clean, simulate.speech_like(0.3, 16000, seed=3))
    if collision == "reverb-directory":
        path = outdir / "case000_reverb.wav"
        path.mkdir()
    elif collision == "rir-symlink-loop":
        path = outdir / "case000_rir.wav"
        path.symlink_to(path)
    elif collision == "manifest-directory":
        path = outdir / "manifest.csv"
        path.mkdir()
    else:
        path = clean = outdir / "case000_direct.wav"
        wavio.write_wav(clean, simulate.speech_like(0.3, 16000, seed=3))
    before = sorted(outdir.iterdir()), clean.read_bytes()
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", outdir, "--duration", "0.3", "--clean", clean)
    assert exc.value.code == f"{path}: {message}"
    assert (sorted(outdir.iterdir()), clean.read_bytes()) == before


def test_simulate_uses_the_clean_source(tmp_path):
    src = simulate.speech_like(0.5, 16000, seed=3)
    wavio.write_wav(tmp_path / "src.wav", src)
    outdir = tmp_path / "data"
    assert run_cli("simulate", outdir, "--rt60", "0.3,0.5",
                   "--clean", tmp_path / "src.wav") == 0
    src = wavio.read_wav(tmp_path / "src.wav")
    rirs = []
    for stem in ("case000", "case001"):
        rir = wavio.read_wav(outdir / f"{stem}_rir.wav")
        direct = wavio.read_wav(outdir / f"{stem}_direct.wav").samples
        expected = simulate.direct_path_reference(src, rir).samples
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(direct, expected, rtol=0,
                                   atol=1e-6 * scale)
        rirs.append(rir.samples)
    assert rirs[0].shape != rirs[1].shape or np.any(rirs[0] != rirs[1])


def test_simulate_accepts_infinite_snr(tmp_path):
    # inf is the noise-free mixture, not a bad number
    assert run_cli("simulate", tmp_path, "--snr", "inf",
                   "--duration", "0.3") == 0


@pytest.mark.parametrize("command", ["rt60", "drr"])
def test_params_commands_report_unreadable_files(tmp_path, command):
    # an unreadable file is reported like one with too little decay; the
    # files after it are still measured
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file")
    missing = tmp_path / "missing.wav"
    good = tmp_path / "rir.wav"
    wavio.write_wav(good, simulate.synth_rir(
        simulate.SynthRirSpec(rt60=0.5, drr=5.0, seed=7)))
    csv_out = tmp_path / "out.csv"
    proc = fresh_python("-m", "revkit.cli", command, bad, missing, good,
                        "--csv", csv_out)
    assert proc.returncode == 1 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{bad}: not a RIFF/WAVE file"
    assert lines[1] == f"{missing}: No such file or directory"
    assert lines[2].startswith(f"{good}: {command}=")
    with open(csv_out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == [str(bad), str(missing), str(good)]
    assert set(rows[0][1:]) == set(rows[1][1:]) == {""}
    assert all(rows[2][1:])


def test_config_parsing():
    values = _parse_config("""
# comment
ctf_len = 12
lambda = 0.5
max_iters = 7
""")
    assert values == {"ctf_len": 12, "lambda": 0.5, "max_iters": 7}
    cfg, _ = engine_config(**values)
    assert cfg.ctf_len == 12 and cfg.ema == 0.5
    assert cfg.max_iters == 7
    with pytest.raises(ValueError, match="unknown key"):
        _parse_config("bogus = 1")
    with pytest.raises(ValueError, match="bad value"):
        _parse_config("ctf_len = abc")


def test_config_dump_parses_back():
    effective = engine_config(ctf_len=11, threads=3, **{"lambda": 0.35})
    assert engine_config(**_parse_config(_dump_config(effective[1]))) == \
        effective


def test_config_keys_cover_every_setting():
    # a setting missing from ENGINE_KEYS would be left out of every dump
    # four: the skipped low bands are a constant, vem.SKIP_LOW_BANDS
    targets = {_field(key) for key in ENGINE_KEYS}
    assert len(targets) == len(ENGINE_KEYS)
    assert targets == {f.name for f in fields(revkit.VemConfig)} == {
        "ctf_len", "ema", "max_iters", "threads"}
    # each key has one flag, and that flag stores under the key
    parser = argparse.ArgumentParser()
    _add_engine(parser)
    flags = [(a.dest, a.option_strings) for a in parser._actions
             if a.dest in ENGINE_KEYS]
    assert flags == [(key, [flag]) for key, (flag, _, _) in ENGINE_KEYS.items()]


@pytest.mark.parametrize("command, flag", [
    ("simulate", ["--trace", "t.csv"]),
    ("simulate", ["--config", "x"]),
    ("simulate", ["--dump-config", "-"]),
    ("simulate", ["--count", "2"]),
    ("dereverb", ["--seed", "5"]),
    ("identify-rir", ["--seed", "5"]),
    ("dereverb", ["--skip-bands", "3"]),
    ("identify-rir", ["--skip-bands", "3"]),
], ids=["simulate-trace", "simulate-config", "simulate-dump-config",
        "simulate-count", "dereverb-seed", "identify-rir-seed",
        "dereverb-skip-bands", "identify-rir-skip-bands"])
def test_commands_reject_flags_they_do_not_read(tmp_path, identity_case,
                                                command, flag):
    args = {
        "simulate": [tmp_path / "data", "--duration", "0.5"],
        "dereverb": [identity_case, tmp_path / "o.wav",
                     "--oracle", identity_case, "--iters", "1"],
        "identify-rir": [identity_case, tmp_path / "o.wav", "--params",
                         tmp_path / "p.csv", "--oracle", identity_case,
                         "--iters", "1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, *flag)
    assert exc.value.code == 2  # argparse's usage error
