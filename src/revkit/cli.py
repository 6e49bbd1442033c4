"""Command-line interface.

Subcommands: dereverb, identify-rir, rt60, drr, simulate, eval. Each
parses only the flags it reads. The engine commands (dereverb,
identify-rir) take their settings from a flat key = value config file
(``--config``) and from flags that win over the file. ``ENGINE_KEYS`` is
the one table of those settings: each key sets a ``VemConfig`` field and is
a file key, the ``dest`` of its flag and its name in ``--dump-config``
output and the manifest. A bad file, key or value exits with "invalid
configuration: ..." before any output; an output path that is a directory,
whose directory is missing or that names an input or another output, or
an input file that cannot be read or used, exits with status 1 and one
line naming it. Every command checks each file it will write before it
reads any input: ``simulate`` checks each case WAV of its grid and
``manifest.csv``. ``simulate`` takes no config file: its grid, source and
``--seed`` flags are all it reads, and a bad number is a usage error. Runs
are deterministic given inputs, config and seed.

Each command imports only the layers it runs: only the engine commands
load the engine (``vem``, ``prior``, ``rir``), so ``rt60``, ``drr`` and
``eval`` start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, acoustics, stft, wavio

if TYPE_CHECKING:
    from . import prior
    from .vem import VemConfig


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _duration(text: str) -> float:
    value = _positive_float(text)
    if round(value * stft.RATE) < 1:
        raise argparse.ArgumentTypeError(
            f"gives no sample at 16 kHz, got {text}")
    return value


def _snr_db(text: str) -> float:
    value = float(text)
    if np.isnan(value) or value == -np.inf:
        raise argparse.ArgumentTypeError(f"must be a number or inf, got {text}")
    return value


def _grid(item):
    """An argparse type: a non-empty comma-separated list of ``item``s."""
    def grid(text: str) -> list[float]:
        values = [item(v) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return grid


# config key -> (flag, type, help), in the order of --help. The key is
# also the flag's dest and its name in a dump and the manifest; each key
# sets the VemConfig field of its name ("lambda" sets ema).
ENGINE_KEYS = {
    "max_iters": ("--iters", int, "VEM iterations"),
    "ctf_len": ("--ctf-len", int, "subband filter length in frames"),
    "lambda": ("--lambda", float, "posterior smoothing factor in [0, 1)"),
    "threads": ("--threads", int, "worker threads (default: the CPUs this "
                                  "process may use; results are identical)"),
}

# identify-rir's settings where they differ from VemConfig's (dereverb's).
# Both run lambda 0.6; identify-rir's RIR errors were judged at 120
# iterations, while past 30 dereverb's LSD improves by at most 0.002 dB with
# the oracle prior and gets worse with most degraded priors (tests/judge.py).
IDENTIFY_RIR_DEFAULTS = {"max_iters": 120}


def _field(key: str) -> str:
    """The VemConfig field an engine key sets."""
    return "ema" if key == "lambda" else key


def _add_engine(parser: argparse.ArgumentParser) -> None:
    # exactly one prior source, a usage error before any file is touched
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--oracle", type=Path, default=None,
                        help="aligned direct-path reference WAV for the prior")
    source.add_argument("--prior", type=Path, default=None,
                        help="VPRI prior magnitude file")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file")
    parser.add_argument("--dump-config", type=str, default=None, metavar="PATH",
                        help="write the effective config ('-' for stdout)")
    # an absent flag sets nothing, so the file's value (or the default) stands
    for key, (flag, kind, text) in ENGINE_KEYS.items():
        parser.add_argument(flag, dest=key, type=kind,
                            default=argparse.SUPPRESS,
                            metavar=flag[2:].upper().replace("-", "_"),
                            help=text)
    parser.add_argument("--trace", type=Path, default=None,
                        help="write per-band likelihood trace CSV here")


def _parse_config(text: str) -> dict:
    """Parse ``key = value`` lines ('#' comments allowed) into {key: value}."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ENGINE_KEYS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = ENGINE_KEYS[key][1](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for '{key}'") from exc
    return values


def _effective_config(args, **defaults) -> tuple[VemConfig, dict]:
    """``VemConfig``, the command's ``defaults``, ``--config``, then flags.

    Returns the ``VemConfig`` that every key of ``ENGINE_KEYS`` sets and
    {key: value}, as a dump and the manifest record them; a key none of
    them sets keeps ``VemConfig``'s default. The merged settings are
    validated once; a bad file, key or value ends the run before any input
    is read or any output is written.
    """
    from .vem import VemConfig
    try:
        text = "" if args.config is None else args.config.read_text("utf-8")
    except (OSError, ValueError) as exc:
        raise SystemExit("invalid configuration: cannot read "
                         + _fault(args.config, exc)) from None
    try:
        values = {**defaults, **_parse_config(text)}
        values.update((k, v) for k, v in vars(args).items()
                      if k in ENGINE_KEYS)
        cfg = VemConfig(**{_field(k): v for k, v in values.items()})
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None
    return cfg, {key: getattr(cfg, _field(key)) for key in ENGINE_KEYS}


def _check_output_paths(outputs, inputs) -> None:
    """Exit with status 1 and one line if an output path is a directory, its
    directory is missing or cannot be written to, once resolved it names one
    of the ``inputs`` or an earlier output, or it cannot be looked up (a
    symlink loop), so a run that cannot write its results, or would
    overwrite what it reads or writes, never starts. None stands for an
    absent option. ``realpath`` resolves as ``Path.resolve()`` does, but
    leaves a symlink loop for ``os.stat`` to report."""
    taken = {os.path.realpath(p) for p in inputs if p is not None}
    for path in filter(None, outputs):
        if Path(path).is_dir():
            raise SystemExit(f"{path}: is a directory")
        if not Path(path).parent.is_dir():
            raise SystemExit(f"{path}: no such directory")
        if not os.access(Path(path).parent, os.W_OK | os.X_OK):
            raise SystemExit(f"{path}: Permission denied")
        if os.path.realpath(path) in taken:
            raise SystemExit(f"{path}: is an input or another output")
        with _reading(path), contextlib.suppress(FileNotFoundError):
            os.stat(path)
        taken.add(os.path.realpath(path))


def _dump_config(settings: dict) -> str:
    """``settings`` in the config file's format, in sorted key order."""
    return "".join(f"{key} = {settings[key]}\n" for key in sorted(settings))


def _write_dump(args, settings: dict) -> None:
    """``--dump-config``, written once the inputs have loaded, so a run that
    fails on them leaves no output."""
    if args.dump_config is None:
        return
    text = _dump_config(settings)
    if args.dump_config == "-":
        sys.stdout.write(text)
    else:
        Path(args.dump_config).write_text(text)


def _sha256(path) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest_path(args) -> Path:
    return Path(str(args.output) + ".manifest.json")


def _engine_summary(trace: np.ndarray) -> dict:
    """What the engine did, from ``vem.run``'s likelihood trace: the bands
    it ran (their trace is finite), percentiles of each one's best
    iteration (the first maximum, as ``run`` picks it) and the share whose
    best is the last iteration; with no band run, those three are None.
    """
    active = np.all(np.isfinite(trace), axis=0)
    if not active.any():
        return {"active_bands": 0, "best_iter_p10": None,
                "best_iter_p50": None, "improving_frac": None}
    best = 1 + np.argmax(trace[1:, active], axis=0)
    return {"active_bands": int(active.sum()),
            "best_iter_p10": float(np.percentile(best, 10)),
            "best_iter_p50": float(np.percentile(best, 50)),
            "improving_frac": float(np.mean(best == trace.shape[0] - 1))}


def _write_manifest(args, outputs, settings, timings, engine) -> None:
    """``<output>.manifest.json`` of a dereverb / identify-rir run;
    ``engine`` is ``_engine_summary`` of the run's trace."""
    import json
    import platform

    inputs = [args.input, args.oracle or args.prior]
    manifest = {
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "config": {k: str(v) for k, v in settings.items()},
        "timings_s": timings,
        "engine": engine,
        # FFT and BLAS output bits depend on the builds, so name them.
        "versions": {"revkit": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    with open(_manifest_path(args), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fault(path, exc: Exception) -> str:
    """One line naming ``path`` for an OSError or ValueError about it."""
    if isinstance(exc, OSError):
        return f"{path}: {exc.strerror or exc}"
    return f"{path}: {str(exc).removeprefix(f'{path}: ')}"


@contextlib.contextmanager
def _reading(path):
    """Exit with status 1 and one line if ``path`` cannot be read or used."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise SystemExit(_fault(path, exc)) from None


def _load_prior(args, observed: stft.Spectrogram,
                peak: float) -> prior.PriorPrecision:
    """The prior; an oracle is divided by the observation's ``peak``."""
    from . import prior
    if args.oracle is not None:
        with _reading(args.oracle):
            ref = wavio.read_wav(args.oracle)
            return prior.oracle_from_reference(
                stft.Waveform(ref.samples / peak),
                observed.config, expected_frames=observed.num_frames,
            )
    with _reading(args.prior):
        mag = prior.load_prior_file(args.prior)
        if mag.shape != observed.data.shape:
            raise ValueError(
                f"prior file is {mag.shape[0]} x {mag.shape[1]}, observation "
                f"is {observed.data.shape[0]} x {observed.data.shape[1]}"
            )
        return prior.from_magnitude(mag)


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


def _run_vem(args, cfg: VemConfig, settings: dict, *outputs):
    """Shared front half of dereverb / identify-rir; ``outputs`` are the
    command's own output paths besides the WAV, the trace and the dump.
    The engine sees the observation divided by its ``peak`` (1 for
    silence), the scale VPRI magnitudes refer to."""
    from . import vem
    _check_output_paths(
        [args.output, _manifest_path(args), args.trace, *outputs,
         None if args.dump_config == "-" else args.dump_config],
        [args.input, args.oracle, args.prior, args.config])
    timings = {}
    t0 = time.perf_counter()
    with _reading(args.input):
        x = wavio.read_wav(args.input)
        peak = float(np.max(np.abs(x.samples))) or 1.0
        X = stft.forward(stft.Waveform(x.samples / peak))
    timings["analysis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    alpha = _load_prior(args, X, peak)
    timings["prior"] = time.perf_counter() - t0
    _write_dump(args, settings)

    t0 = time.perf_counter()
    S_hat, H_hat, trace = vem.run(X, alpha, cfg)
    timings["vem"] = time.perf_counter() - t0
    if args.trace is not None:
        _write_trace(args.trace, trace)
    return S_hat, H_hat, peak, timings, _engine_summary(trace)


def _synthesize(S_hat: stft.Spectrogram, peak: float) -> stft.Waveform:
    """dereverb's output at the observation's ``peak``. The posterior is not
    a consistent spectrogram, so inverse's division by the vanishing window
    power amplifies the first and last window into a click; fade where that
    power is below half its maximum."""
    wsum = stft._window_power(S_hat.num_frames)
    fade = np.minimum(1.0, wsum / (0.5 * np.max(wsum)))
    return stft.Waveform(stft.inverse(S_hat).samples * peak * fade)


def cmd_dereverb(args) -> int:
    cfg, settings = _effective_config(args)
    S_hat, _, peak, timings, engine = _run_vem(args, cfg, settings)
    t0 = time.perf_counter()
    wavio.write_wav(args.output, _synthesize(S_hat, peak))
    timings["synthesis"] = time.perf_counter() - t0
    _write_manifest(args, [args.output], settings, timings, engine)
    print(f"wrote {args.output}")
    return 0


def cmd_identify_rir(args) -> int:
    from . import rir
    cfg, settings = _effective_config(args, **IDENTIFY_RIR_DEFAULTS)
    _, H_hat, _, timings, engine = _run_vem(args, cfg, settings,
                                            args.params, args.ctf_csv)

    t0 = time.perf_counter()
    est = rir.ctf_to_rir(H_hat)
    wavio.write_wav(args.output, est)
    timings["reconstruction"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        res = acoustics.estimate_rt60(est)
    except acoustics.InsufficientDecayError as exc:
        print(f"rt60: {exc}", file=sys.stderr)
        res = acoustics.AcousticParams()
    try:
        res.drr = acoustics.estimate_drr(est).drr
    except ValueError as exc:
        print(f"drr: {exc}", file=sys.stderr)
    timings["parameters"] = time.perf_counter() - t0

    _write_csv(args.params, ["rt60_s", "drr_db", "pearson_r", "fit_start",
                             "fit_end", "direct_index"],
               [[res.rt60, res.drr, res.pearson_r, res.fit_start, res.fit_end,
                 int(np.argmax(np.abs(est.samples)))]])

    outputs = [args.output, args.params]
    if args.ctf_csv is not None:
        F, L = H_hat.h.shape
        _write_csv(args.ctf_csv, ["band", "tap", "re", "im"], (
            [f, l, repr(float(H_hat.h[f, l].real)),
             repr(float(H_hat.h[f, l].imag))]
            for f in range(F) for l in range(L)
        ))
        outputs.append(args.ctf_csv)
    _write_manifest(args, outputs, settings, timings, engine)
    print(f"wrote {args.output} and {args.params}")
    return 0


def _params_batch(args, estimator, columns, describe) -> int:
    """Shared rt60 / drr loop: one stdout line and one CSV row per input.

    ``columns`` maps CSV column names to ``AcousticParams`` fields. An
    input that cannot be read or has too little decay
    (``InsufficientDecayError`` is a ``ValueError``) gets a message line,
    blank fields and exit status 1; the other inputs are still processed.
    An unusable ``--csv`` path ends the run before any input is read.
    """
    _check_output_paths([args.csv], args.inputs)
    rows = []
    status = 0
    for p in args.inputs:
        try:
            res = estimator(wavio.read_wav(p))
        except (OSError, ValueError) as exc:
            print(_fault(p, exc))
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


def cmd_simulate(args) -> int:
    from . import simulate
    outdir = Path(args.outdir)
    # the nearest existing ancestor is where mkdir would fail; "." and "/"
    # always exist
    if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
        raise SystemExit(f"{outdir}: not a directory")
    # exists() reads a symlink loop as absent; stat reports it
    with _reading(outdir), contextlib.suppress(FileNotFoundError):
        os.stat(outdir)
    # case k: (stem, seed, rt60, drr), with its files named up front
    cases = [(f"case{k:03d}", args.seed + k, rt60_v, drr_v)
             for k, (rt60_v, drr_v)
             in enumerate(itertools.product(args.rt60, args.drr))]
    kinds = ("reverb", "direct", "rir")
    manifest = outdir / "manifest.csv"
    if outdir.exists():  # a directory that does not exist yet holds nothing
        _check_output_paths([*(outdir / f"{stem}_{kind}.wav"
                               for stem, *_ in cases for kind in kinds),
                             manifest], [args.clean])
    clean_src = None
    if args.clean is not None:
        with _reading(args.clean):
            clean_src = wavio.read_wav(args.clean)
            if not np.any(clean_src.samples):
                raise ValueError("silent clean input: SNR undefined")
    with _reading(outdir):  # a dangling symlink passes the check above
        outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for stem, seed, rt60_v, drr_v in cases:
        if clean_src is None:
            clean = simulate.speech_like(args.duration, stft.RATE,
                                         seed=seed + 10_000)
        else:
            clean = clean_src
        true_rir = simulate.synth_rir(
            simulate.SynthRirSpec(rt60=rt60_v, drr=drr_v, seed=seed))
        noise = simulate.white_noise(
            clean.samples.size + true_rir.samples.size - 1, stft.RATE,
            seed=seed + 20_000)
        waves = {"reverb": simulate.mix(clean, true_rir, noise, args.snr),
                 "direct": simulate.direct_path_reference(clean, true_rir),
                 "rir": true_rir}
        for kind in kinds:
            wavio.write_wav(outdir / f"{stem}_{kind}.wav", waves[kind])
        rows.append([stem, rt60_v, drr_v, args.snr, seed,
                     *(f"{stem}_{kind}.wav" for kind in kinds)])

    _write_csv(manifest, ["case", "rt60_s", "drr_db", "snr_db", "seed",
                          "reverb_wav", "direct_wav", "rir_wav"], rows)
    print(f"wrote {len(cases)} case(s) to {outdir}")
    return 0


def _read_params_csv(path) -> list[tuple[float, float]]:
    pairs = []
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {
            "rt60_s", "drr_db"
        }.issubset(set(reader.fieldnames)):
            raise SystemExit(f"{path}: need columns rt60_s and drr_db")
        for row in reader:
            def _cell(name):
                text = (row.get(name) or "").strip()
                return float(text) if text else float("nan")
            pairs.append((_cell("rt60_s"), _cell("drr_db")))
    return pairs


def cmd_eval(args) -> int:
    from . import evaluate
    _check_output_paths([args.csv], [args.estimates, args.references])
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
    _add_engine(p)
    p.set_defaults(func=cmd_dereverb)

    p = sub.add_parser("identify-rir",
                       help="estimate the room impulse response")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path, help="estimated RIR WAV")
    p.add_argument("--params", type=Path, required=True,
                   help="output CSV with rt60/drr")
    p.add_argument("--ctf-csv", type=Path, default=None,
                   help="also dump the filter taps as CSV")
    _add_engine(p)
    p.set_defaults(func=cmd_identify_rir)

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
    p.add_argument("--rt60", type=_grid(_duration), default="0.5",
                   help="comma-separated RT60 grid in seconds (a list "
                        "starting with '-' needs the --rt60=... form)")
    p.add_argument("--drr", type=_grid(_finite_float), default="5",
                   help="comma-separated DRR grid in dB (a list starting "
                        "with '-' needs the --drr=-5,5 form)")
    p.add_argument("--snr", type=_snr_db, default=20.0,
                   help="SNR in dB ('inf' for no noise)")
    p.add_argument("--duration", type=_duration, default=2.0,
                   help="source duration in seconds")
    p.add_argument("--clean", type=Path, default=None,
                   help="use this WAV as the source instead of synthesizing")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed of the first case (case k uses seed + k)")
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
