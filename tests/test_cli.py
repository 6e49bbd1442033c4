import csv

import numpy as np
import pytest

import revkit
from revkit import prior, simulate, stft, wavio
from revkit.cli import main
from revkit.config import PipelineConfig, dump_config, load_config, parse_config


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
    with pytest.raises(SystemExit, match="prior file"):
        run_cli("dereverb", identity_case, tmp_path / "o.wav", "--prior", bad)


def test_prior_file_equivalent_to_oracle(tmp_path, identity_case):
    # a VPRI file holding the oracle magnitudes drives the engine to the
    # same place (up to the file format's float32 quantization)
    wave = wavio.read_wav(identity_case)
    X = stft.forward(wave)
    mag = np.abs(stft.forward(wave, X.config).data)
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


def test_threads_do_not_change_output_bytes(tmp_path, identity_case):
    outs = []
    for k in (1, 4, 8):
        out = tmp_path / f"out{k}.wav"
        run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                "--iters", "12", "--threads", str(k))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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
    ("", ["--skip-bands", "-1"], "skip_low_bands"),
    ("hop = 100\n", [], "hop"),
], ids=["threads-file", "lambda-flag", "skip-bands-flag", "hop-file"])
def test_invalid_config_value_exits_before_any_output(tmp_path, identity_case,
                                                      file_text, flags, key):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(file_text)
    out = tmp_path / "o.wav"
    dumped = tmp_path / "dumped.cfg"
    with pytest.raises(SystemExit, match=key):
        run_cli("dereverb", identity_case, out, "--oracle", identity_case,
                "--config", cfg_path, "--dump-config", dumped, *flags)
    assert not out.exists() and not dumped.exists()


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


def test_config_parsing():
    cfg = parse_config("""
# comment
ctf_len = 12
lambda = 0.5
max_iters = 7
""")
    assert cfg.ctf_len == 12 and cfg.lam == 0.5 and cfg.max_iters == 7
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus = 1")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("ctf_len = abc")


def test_pipeline_defaults_are_the_engine_and_transform_defaults():
    assert PipelineConfig().vem_config() == revkit.VemConfig()
    assert PipelineConfig().stft_config() == revkit.StftConfig()


def test_config_dump_parses_back(tmp_path):
    cfg = PipelineConfig(ctf_len=11, lam=0.35, seed=99)
    text = dump_config(cfg)
    again = parse_config(text)
    assert again == cfg
    p = tmp_path / "c.cfg"
    p.write_text(text)
    assert load_config(p) == cfg
