"""Judge engine settings on the cases that ROADMAP items 2, 4 and 9 name.

    PYTHONPATH=src python tests/judge.py [--json PATH] [LAMBDA:ITERS ...]

Each argument is a ``lambda:iterations`` pair; with none, the two engine
commands' own: dereverb's (``VemConfig``'s defaults) and identify-rir's
(``cli.IDENTIFY_RIR_DEFAULTS``). For each pair the engine runs at 2 threads
with the oracle prior. As the CLI does, the observation and the oracle are
divided by the observation's peak.

identify-rir, on

- the 20 blind cases of criteria 6b/7b at case-seed bases 1000, 5000 and
  9000 (case k of a base uses seed base + 10 k); at identify-rir's own
  pair, "grid 1000" is criteria 6b/7b's cases at their settings (the
  criteria run ``revkit identify-rir`` on the cases' WAV files);
- the benchmark's ``identify-rir-t2`` cell, RT60 0.8 s and DRR 0 dB, at
  bench seeds 0-19 (case seed 20000 + 10 seed).

An error is the estimate minus the estimator applied to the true RIR. Each
case set prints its RT60 and DRR mean absolute errors, its mean signed DRR
error and its worst case; the MAEs pooled over all 80 cases follow. Then
come the runs of ``tests/test_degraded_prior.py``, set up as that test sets
them up, each against its bounds there at both of its settings.

dereverb, on the benchmark's ``dereverb`` cell, RT60 0.3 s and DRR -5 dB,
at bench seeds 0-19 (case seed 10000 + 10 seed), and on the blind cases at
base 1000. The output is dereverb's own synthesis (``cli._synthesize``: the
peak restored, the edges faded), scored against the direct path on the
interior [512, n - 512), as the benchmark scores it. Each case set prints
the mean and worst log-spectral distance (``evaluate.lsd``, which clips
both magnitudes at the reference's peak -80 dB) and the mean and worst
absolute level error; the same line pooled over both sets follows. Then
come the same ``tests/test_degraded_prior.py`` runs as dereverb output (the
oracle replaced by a DNN-like prior): each prints the output's LSD, its
observation's and the output's signed level error.

The engine runs once per case and setting, and every part that holds the
case scores that run: identify-rir the filter, dereverb the posterior. The
blind cases at base 1000 and the degraded priors are in both parts, so a
setting takes 107 engine runs. The report prints from the record the judge
builds as it measures; ``--json PATH`` also writes that record to PATH: the
settings; per setting, each identify-rir case's signed RT60 and DRR errors,
each degraded run's errors with both of its bound sets, each dereverb case's
LSD and signed level error, and the degraded-prior dereverb rows; and the
commit (when git can name it), the platform and the Python and numpy
versions. The printed output is the same with or without it.

This is a measurement, not a test: pytest does not collect it (only its
per-case code, in ``tests/test_judge.py``). The default pair took 226 s
on a 2-vCPU VM.
"""

import argparse
import json
import platform
import subprocess
from pathlib import Path

import numpy as np

import test_degraded_prior as degraded
from revkit import prior, stft, vem
from synthcases import (BLIND_CASES, blind_case, identify_errors,
                        output_scores, rir_parameters)

GRID_BASES = (1000, 5000, 9000)
T2_CELL = (0.8, 0.0)
D0_CELL = (0.3, -5.0)
BENCH_SEEDS = range(20)
THREADS = 2
IDENTIFY_KEYS = ("rt60_err_s", "drr_err_db")
DEREVERB_KEYS = ("lsd_db", "level_err_db")


def setting(text: str) -> vem.VemConfig:
    """``lambda:iterations`` as an engine config."""
    ema, iters = text.split(":")
    return vem.VemConfig(ema=float(ema), max_iters=int(iters),
                         threads=THREADS)


def label(cfg: vem.VemConfig) -> str:
    return f"{cfg.ema}:{cfg.max_iters}"


def grid(base: int) -> list:
    """The blind cases at one case-seed base, as [(rt60, drr, case seed)]."""
    return [(rt, drr, base + 10 * k)
            for k, (rt, drr) in enumerate(BLIND_CASES)]


def bench_cell(cell, first_seed: int) -> list:
    return [(*cell, first_seed + 10 * s) for s in BENCH_SEEDS]


# part -> {case set: cases}; grid 1000 is in both parts
CASE_SETS = {
    "identify_rir": {**{f"grid {base}": grid(base) for base in GRID_BASES},
                     "bench cell": bench_cell(T2_CELL, 20_000)},
    "dereverb": {"d0 cell": bench_cell(D0_CELL, 10_000),
                 "grid 1000": grid(1000)},
}


def oracle_case(rt60, drr, case_seed):
    """Observation, oracle prior and the observation's peak, scaled as the
    CLI scales them; the true RIR's (RT60, DRR) and the direct path."""
    _, true_rir, reverb, direct = blind_case(rt60, drr, case_seed)
    peak = float(np.max(np.abs(reverb.samples))) or 1.0
    X = stft.forward(stft.Waveform(reverb.samples / peak))
    alpha = prior.oracle_from_reference(stft.Waveform(direct.samples / peak),
                                        X.config, X.num_frames)
    return X, alpha, peak, rir_parameters(true_rir), direct.samples


def fields(keys, values) -> dict:
    return dict(zip(keys, map(float, values)))


def measure(oracle, cfg, parts) -> dict:
    """{part: scores} for each of ``parts`` from one engine run at ``cfg`` on
    ``oracle``, an ``oracle_case``: identify-rir's errors from the filter,
    dereverb's scores from the posterior."""
    X, alpha, peak, truth, direct = oracle
    S_hat, H_hat, _ = vem.run(X, alpha, cfg)
    scores = {}
    if "identify_rir" in parts:
        scores["identify_rir"] = fields(IDENTIFY_KEYS,
                                        identify_errors(H_hat, truth))
    if "dereverb" in parts:
        scores["dereverb"] = fields(DEREVERB_KEYS,
                                    output_scores(S_hat, peak, direct))
    return scores


def table(rows, keys) -> np.ndarray:
    """Record rows as an array, one column per key."""
    return np.array([[row[key] for key in keys] for row in rows])


def summary(errors: np.ndarray) -> str:
    """One line over rows of (RT60 err, DRR err)."""
    mae = np.mean(np.abs(errors), axis=0)
    worst = np.max(np.abs(errors), axis=0)
    return (f"RT60 MAE {mae[0]:.4f} s  DRR MAE {mae[1]:.3f} dB  "
            f"signed DRR {np.mean(errors[:, 1]):+.3f} dB  "
            f"worst {worst[0]:.4f} s / {worst[1]:.3f} dB")


def dereverb_summary(scores: np.ndarray) -> str:
    """One line over rows of (clipped LSD, signed level error); the level
    error is summarized by its absolute value (an LSD is never negative)."""
    scores = np.abs(scores)
    mean, worst = np.mean(scores, axis=0), np.max(scores, axis=0)
    return (f"clipped LSD mean {mean[0]:.3f} dB  worst {worst[0]:.3f} dB  "
            f"level error mean {mean[1]:.3f} dB  worst {worst[1]:.3f} dB")


def within(errors, bounds) -> str:
    ok = all(abs(e) <= b for e, b in zip(errors, bounds))
    return f"{'within' if ok else 'OUTSIDE'} {bounds[0]} / {bounds[1]}"


def commit() -> str | None:
    """The checkout's commit, or None where git cannot name it."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True,
                              cwd=Path(__file__).parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure_settings(cfgs) -> dict:
    """Everything the judge measures at ``cfgs``, as JSON-ready values."""
    settings = [{"ema": cfg.ema, "max_iters": cfg.max_iters,
                 **{part: {name: [] for name in sets}
                    for part, sets in CASE_SETS.items()},
                 "degraded_identify_rir": {}, "degraded_dereverb": {}}
                for cfg in cfgs]
    sets_of = {}  # case -> {part: its case set there}
    for part, sets in CASE_SETS.items():
        for name, cases in sets.items():
            for case in cases:
                sets_of.setdefault(case, {})[part] = name
    for (rt60, drr, seed), sets in sets_of.items():
        oracle = oracle_case(rt60, drr, seed)
        for rec, cfg in zip(settings, cfgs):
            for part, scores in measure(oracle, cfg, sets).items():
                rec[part][sets[part]].append(
                    {"rt60": rt60, "drr": drr, "case_seed": seed, **scores})

    bound_sets = {label(degraded.CFG): degraded.BOUNDS,
                  "shipped": degraded.SHIPPED_BOUNDS}
    for rec, cfg in zip(settings, cfgs):
        for name in degraded.RUNS:
            S_hat, H_hat, _ = degraded.engine_run(name, cfg)
            errors = degraded.parameter_errors(name, H_hat)
            rec["degraded_identify_rir"][name] = {
                **fields(IDENTIFY_KEYS, errors),
                "bounds": {at: list(bounds[name])
                           for at, bounds in bound_sets.items()}}
            rec["degraded_dereverb"][name] = fields(
                (*DEREVERB_KEYS, "input_lsd_db"),
                degraded.dereverb_scores(name, S_hat))

    return {"commit": commit(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": THREADS, "settings": settings}


def report(record: dict) -> None:
    """Print ``record``, the judge's measurements."""
    for rec in record["settings"]:
        print(f"lambda {rec['ema']}, {rec['max_iters']} iterations, "
              f"{record['threads']} threads")
        print("  identify-rir")
        for name, rows in rec["identify_rir"].items():
            print(f"    {name:<12} ({len(rows)}) "
                  f"{summary(table(rows, IDENTIFY_KEYS))}")
        pooled = table(sum(rec["identify_rir"].values(), []), IDENTIFY_KEYS)
        mae = np.mean(np.abs(pooled), axis=0)
        print(f"    pooled ({len(pooled)})   RT60 MAE {mae[0]:.4f} s  "
              f"DRR MAE {mae[1]:.3f} dB")
        for name, run in rec["degraded_identify_rir"].items():
            errors = run["rt60_err_s"], run["drr_err_db"]
            print(f"    {name:<22} RT60 {errors[0]:+.4f} s  "
                  f"DRR {errors[1]:+.3f} dB  "
                  + ",  ".join(f"{within(errors, bounds)} at {at}"
                               for at, bounds in run["bounds"].items()))
        print("  dereverb")
        for name, rows in rec["dereverb"].items():
            print(f"    {name:<12} ({len(rows)}) "
                  f"{dereverb_summary(table(rows, DEREVERB_KEYS))}")
        pooled = table(sum(rec["dereverb"].values(), []), DEREVERB_KEYS)
        print(f"    pooled ({len(pooled)})   {dereverb_summary(pooled)}")
        for name, run in rec["degraded_dereverb"].items():
            print(f"    {name:<22} clipped LSD {run['lsd_db']:.3f} dB "
                  f"(input {run['input_lsd_db']:.3f})  "
                  f"level error {run['level_err_db']:+.3f} dB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("settings", nargs="*", metavar="LAMBDA:ITERS",
                        default=[label(vem.VemConfig()),
                                 label(degraded.SHIPPED)])
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the measurements to PATH as JSON")
    args = parser.parse_args()
    record = measure_settings([setting(text) for text in args.settings])
    report(record)
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
