"""Command-line interface.

Subcommands: dereverb, identify-rir, rt60, drr, simulate, eval.
All pipeline knobs live in a flat key = value config file (``--config``);
the engine's iteration count, filter length, smoothing and skipped bands,
plus threads and seed, are also flags that win over the file.
``--dump-config`` writes the effective configuration. Runs are
deterministic given inputs, config and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import acoustics, evaluate, prior, rir, simulate, stft, vem, wavio
from .config import PipelineConfig, dump_config, load_config


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file")
    parser.add_argument("--iters", type=_positive_int, default=None,
                        help="VEM iterations")
    parser.add_argument("--ctf-len", type=_positive_int, default=None,
                        help="subband filter length in frames")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="posterior smoothing factor in [0, 1)")
    parser.add_argument("--skip-bands", type=int, default=None,
                        help="lowest frequency bands excluded from inference")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads (results are identical)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (simulation only)")
    parser.add_argument("--trace", type=Path, default=None,
                        help="write per-band likelihood trace CSV here")
    parser.add_argument("--dump-config", type=str, default=None, metavar="PATH",
                        help="write the effective config ('-' for stdout)")


def _effective_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "default_iters", None) is not None:
        cfg.max_iters = args.default_iters
    if args.config is not None:
        cfg = load_config(args.config, cfg)
    overrides = {
        "iters": "max_iters",
        "ctf_len": "ctf_len",
        "lam": "lam",
        "skip_bands": "skip_low_bands",
        "threads": "threads",
        "seed": "seed",
    }
    for arg_name, field in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(cfg, field, value)
    # Reject bad values before any input is read or config is dumped.
    try:
        cfg.stft_config()
        cfg.vem_config()
        if cfg.threads < 1:
            raise ValueError("threads must be >= 1")
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None
    if args.dump_config is not None:
        text = dump_config(cfg)
        if args.dump_config == "-":
            sys.stdout.write(text)
        else:
            Path(args.dump_config).write_text(text)
    return cfg


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(path, inputs, outputs, cfg, timings) -> None:
    manifest = {
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "config": {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in dump_config(cfg).strip().splitlines()
        },
        "timings_s": timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_prior(args, observed: stft.Spectrogram,
                cfg: PipelineConfig) -> prior.PriorPrecision:
    if (args.oracle is None) == (args.prior is None):
        raise SystemExit("exactly one of --oracle or --prior is required")
    if args.oracle is not None:
        ref = wavio.read_wav(args.oracle)
        return prior.oracle_from_reference(
            ref, observed.config, floor=cfg.power_floor,
            expected_frames=observed.num_frames,
        )
    mag = prior.load_prior_file(args.prior)
    if mag.shape != observed.data.shape:
        raise SystemExit(
            f"prior file is {mag.shape[0]} x {mag.shape[1]}, observation is "
            f"{observed.data.shape[0]} x {observed.data.shape[1]}"
        )
    return prior.from_magnitude(mag, floor=cfg.power_floor)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trace(path, trace: np.ndarray) -> None:
    iters, bands = trace.shape
    _write_csv(path, ["iter", "band", "loglik"], (
        [it, f, repr(float(trace[it, f]))]
        for it in range(iters) for f in range(bands)
        if np.isfinite(trace[it, f])
    ))


def _run_vem(args, cfg: PipelineConfig):
    """Shared front half of dereverb / identify-rir."""
    timings = {}
    t0 = time.perf_counter()
    wave = wavio.read_wav(args.input)
    X = stft.forward(wave, cfg.stft_config())
    timings["analysis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    alpha = _load_prior(args, X, cfg)
    timings["prior"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    S_hat, H_hat, trace = vem.run(X, alpha, cfg.vem_config(),
                                  threads=cfg.threads)
    timings["vem"] = time.perf_counter() - t0
    if args.trace is not None:
        _write_trace(args.trace, trace)
    return X, S_hat, H_hat, timings


def cmd_dereverb(args) -> int:
    cfg = _effective_config(args)
    _, S_hat, _, timings = _run_vem(args, cfg)
    t0 = time.perf_counter()
    out = stft.inverse(S_hat)
    wavio.write_wav(args.output, out)
    timings["synthesis"] = time.perf_counter() - t0
    inputs = [args.input] + ([args.oracle] if args.oracle else [args.prior])
    _write_manifest(Path(str(args.output) + ".manifest.json"),
                    inputs, [args.output], cfg, timings)
    print(f"wrote {args.output}")
    return 0


def cmd_identify_rir(args) -> int:
    cfg = _effective_config(args)
    _, _, H_hat, timings = _run_vem(args, cfg)

    t0 = time.perf_counter()
    est = rir.ctf_to_rir(H_hat, cfg.stft_config(),
                         zero_low_bands=cfg.skip_low_bands)
    wavio.write_wav(args.output, est.waveform)
    timings["reconstruction"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        p_rt = acoustics.estimate_rt60(est.waveform)
        rt60_s, pearson = p_rt.rt60, p_rt.pearson_r
        fit_start, fit_end = p_rt.fit_start, p_rt.fit_end
    except acoustics.InsufficientDecayError as exc:
        print(f"rt60: {exc}", file=sys.stderr)
        rt60_s = pearson = fit_start = fit_end = None
    drr_db = acoustics.estimate_drr(est.waveform).drr
    timings["parameters"] = time.perf_counter() - t0

    _write_csv(args.params, ["rt60_s", "drr_db", "pearson_r", "fit_start",
                             "fit_end", "direct_index"],
               [[rt60_s, drr_db, pearson, fit_start, fit_end,
                 est.direct_index]])

    outputs = [args.output, args.params]
    if args.ctf_csv is not None:
        F, L = H_hat.h.shape
        _write_csv(args.ctf_csv, ["band", "tap", "re", "im"], (
            [f, l, repr(float(H_hat.h[f, l].real)),
             repr(float(H_hat.h[f, l].imag))]
            for f in range(F) for l in range(L)
        ))
        outputs.append(args.ctf_csv)

    inputs = [args.input] + ([args.oracle] if args.oracle else [args.prior])
    _write_manifest(Path(str(args.output) + ".manifest.json"),
                    inputs, outputs, cfg, timings)
    print(f"wrote {args.output} and {args.params}")
    return 0


def _params_batch(args, estimator, columns, describe) -> int:
    """Shared rt60 / drr loop: one stdout line and one CSV row per input.

    ``columns`` maps CSV column names to ``AcousticParams`` fields. An
    input without enough decay gets blank fields and exit status 1.
    """
    rows = []
    status = 0
    for p in args.inputs:
        try:
            res = estimator(wavio.read_wav(p))
        except acoustics.InsufficientDecayError as exc:
            print(f"{p}: {exc}")
            rows.append([str(p)] + [""] * len(columns))
            status = 1
            continue
        print(f"{p}: {describe(res)}")
        rows.append([str(p)] + [getattr(res, k) for k in columns.values()])
    if args.csv is not None:
        _write_csv(args.csv, ["path", *columns], rows)
    return status


def cmd_rt60(args) -> int:
    return _params_batch(
        args, acoustics.estimate_rt60,
        {"rt60_s": "rt60", "pearson_r": "pearson_r",
         "fit_start": "fit_start", "fit_end": "fit_end"},
        lambda r: f"rt60={r.rt60:.4f} s pearson_r={r.pearson_r:.5f} "
                  f"fit_start={r.fit_start} fit_end={r.fit_end}",
    )


def cmd_drr(args) -> int:
    return _params_batch(args, acoustics.estimate_drr, {"drr_db": "drr"},
                         lambda r: f"drr={r.drr:.4f} dB")


def _parse_grid(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_simulate(args) -> int:
    cfg = _effective_config(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rt60s = _parse_grid(args.rt60)
    drrs = _parse_grid(args.drr)
    fs = 16000

    clean_src = None
    if args.clean is not None:
        clean_src = wavio.read_wav(args.clean)

    rows = []
    case = 0
    for rep in range(args.count):
        for rt60_v in rt60s:
            for drr_v in drrs:
                seed = cfg.seed + case
                if clean_src is None:
                    clean = simulate.speech_like(args.duration, fs,
                                                 seed=seed + 10_000)
                else:
                    clean = clean_src
                spec = simulate.SynthRirSpec(rt60=rt60_v, drr=drr_v,
                                             fs=fs, seed=seed)
                true_rir = simulate.synth_rir(spec)
                noise = simulate.white_noise(
                    clean.samples.size + true_rir.samples.size - 1, fs,
                    seed=seed + 20_000)
                reverb = simulate.mix(clean, true_rir, noise, args.snr)
                direct = simulate.direct_path_reference(clean, true_rir)

                stem = f"case{case:03d}"
                files = {
                    "reverb": outdir / f"{stem}_reverb.wav",
                    "direct": outdir / f"{stem}_direct.wav",
                    "rir": outdir / f"{stem}_rir.wav",
                }
                wavio.write_wav(files["reverb"], reverb)
                wavio.write_wav(files["direct"], direct)
                wavio.write_wav(files["rir"], true_rir)
                rows.append([stem, rt60_v, drr_v, args.snr, seed,
                             files["reverb"].name, files["direct"].name,
                             files["rir"].name])
                case += 1

    _write_csv(outdir / "manifest.csv",
               ["case", "rt60_s", "drr_db", "snr_db", "seed",
                "reverb_wav", "direct_wav", "rir_wav"], rows)
    print(f"wrote {case} case(s) to {outdir}")
    return 0


def _read_params_csv(path) -> list[tuple[float, float]]:
    pairs = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {
            "rt60_s", "drr_db"
        }.issubset(set(reader.fieldnames)):
            raise SystemExit(f"{path}: need columns rt60_s and drr_db")
        for row in reader:
            def _field(name):
                text = (row.get(name) or "").strip()
                return float(text) if text else float("nan")
            pairs.append((_field("rt60_s"), _field("drr_db")))
    return pairs


def cmd_eval(args) -> int:
    est = _read_params_csv(args.estimates)
    ref = _read_params_csv(args.references)
    try:
        report = evaluate.score_rir_batch(est, ref)
    except ValueError as exc:
        print(f"eval failed: {exc}", file=sys.stderr)
        return 1
    print(f"n={len(est)}")
    print(f"rt60: mae={report.rt60_mae:.4f} s rmse={report.rt60_rmse:.4f} s")
    print(f"drr:  mae={report.drr_mae:.4f} dB rmse={report.drr_rmse:.4f} dB")
    if args.csv is not None:
        rows = [[i, repr(float(er)), repr(float(ed))]
                for i, (er, ed) in enumerate(zip(report.rt60_errors,
                                                 report.drr_errors))]
        rows.append(["mae", repr(report.rt60_mae), repr(report.drr_mae)])
        rows.append(["rmse", repr(report.rt60_rmse), repr(report.drr_rmse)])
        _write_csv(args.csv, ["item", "rt60_error_s", "drr_error_db"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revkit",
        description="Speech dereverberation and blind room-impulse-response "
                    "identification (16 kHz mono WAV).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dereverb", help="enhance a reverberant recording")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--oracle", type=Path, default=None,
                   help="aligned direct-path reference WAV for the prior")
    p.add_argument("--prior", type=Path, default=None,
                   help="VPRI prior magnitude file")
    _add_common(p)
    p.set_defaults(func=cmd_dereverb, default_iters=100)

    p = sub.add_parser("identify-rir",
                       help="estimate the room impulse response")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path, help="estimated RIR WAV")
    p.add_argument("--params", type=Path, required=True,
                   help="output CSV with rt60/drr")
    p.add_argument("--oracle", type=Path, default=None)
    p.add_argument("--prior", type=Path, default=None)
    p.add_argument("--ctf-csv", type=Path, default=None,
                   help="also dump the filter taps as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_identify_rir, default_iters=300)

    p = sub.add_parser("rt60", help="RT60 of impulse-response WAV file(s)")
    p.add_argument("inputs", type=Path, nargs="+")
    p.add_argument("--csv", type=Path, default=None)
    p.set_defaults(func=cmd_rt60)

    p = sub.add_parser("drr", help="DRR of impulse-response WAV file(s)")
    p.add_argument("inputs", type=Path, nargs="+")
    p.add_argument("--csv", type=Path, default=None)
    p.set_defaults(func=cmd_drr)

    p = sub.add_parser("simulate", help="emit a synthetic test set")
    p.add_argument("outdir", type=Path)
    p.add_argument("--rt60", type=str, default="0.5",
                   help="comma-separated RT60 grid in seconds")
    p.add_argument("--drr", type=str, default="5",
                   help="comma-separated DRR grid in dB")
    p.add_argument("--snr", type=float, default=20.0)
    p.add_argument("--duration", type=float, default=2.0,
                   help="source duration in seconds")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="repetitions of the grid with fresh seeds")
    p.add_argument("--clean", type=Path, default=None,
                   help="use this WAV as the source instead of synthesizing")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="score estimated vs reference parameters")
    p.add_argument("estimates", type=Path, help="CSV with rt60_s, drr_db")
    p.add_argument("references", type=Path, help="CSV with rt60_s, drr_db")
    p.add_argument("--csv", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
