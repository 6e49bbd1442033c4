"""Judge engine settings on the cases that ROADMAP items 2, 4 and 9 name.

    PYTHONPATH=src python tests/judge.py [LAMBDA:ITERS ...]

Each argument is a ``lambda:iterations`` pair; with none, the two engine
commands' own: dereverb's (``VemConfig``'s defaults) and identify-rir's
(``cli.IDENTIFY_RIR_DEFAULTS``). For each pair the engine runs at 2 threads
with the oracle prior. As the CLI does, the observation and the oracle are
divided by the observation's peak.

identify-rir, on

- the 20 blind cases of criteria 6b/7b at case-seed bases 1000, 5000 and
  9000 (case k of a base uses seed base + 10 k);
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
the mean and worst log-spectral distance, with both magnitudes clipped at
the reference's peak -80 dB, and the mean and worst absolute level error.

This is a measurement, not a test: pytest does not collect it, and it takes
a few minutes per pair on two CPUs.
"""

import argparse

import numpy as np

import test_degraded_prior as degraded
from revkit import acoustics, cli, prior, rir, stft, vem
from synthcases import BLIND_CASES, blind_case

GRID_BASES = (1000, 5000, 9000)
T2_CELL = (0.8, 0.0)
D0_CELL = (0.3, -5.0)
BENCH_SEEDS = range(20)
THREADS = 2
EDGE = stft.WIN  # samples left out at each end of dereverb's output
CLIP_DB = -80.0  # LSD floor, relative to the reference's peak magnitude


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


def oracle_case(rt60, drr, case_seed):
    """Observation, oracle prior and the observation's peak, scaled as the
    CLI scales them; the true RIR and the direct path."""
    _, true_rir, reverb, direct = blind_case(rt60, drr, case_seed)
    peak = float(np.max(np.abs(reverb.samples))) or 1.0
    X = stft.forward(stft.Waveform(reverb.samples / peak))
    alpha = prior.oracle_from_reference(stft.Waveform(direct.samples / peak),
                                        X.config, X.num_frames)
    return X, alpha, peak, true_rir, direct.samples


def identified(X, alpha, cfg):
    """(RT60, DRR) of the RIR the engine identifies."""
    _, H_hat, _ = vem.run(X, alpha, cfg)
    est = rir.ctf_to_rir(H_hat)
    return acoustics.estimate_rt60(est).rt60, acoustics.estimate_drr(est).drr


def clipped_lsd(out: np.ndarray, ref: np.ndarray) -> float:
    """``evaluate.lsd`` of two waveforms, with both magnitudes clipped at
    the reference's peak CLIP_DB instead of floored at ``LSD_EPS``."""
    em = np.abs(stft.forward(stft.Waveform(out)).data)
    rm = np.abs(stft.forward(stft.Waveform(ref)).data)
    em *= np.sqrt(np.sum(rm ** 2) / np.sum(em ** 2))
    floor = np.max(rm) * 10.0 ** (CLIP_DB / 20.0)
    diff = 20.0 * np.log10(np.maximum(em, floor) / np.maximum(rm, floor))
    return float(np.mean(np.sqrt(np.mean(diff ** 2, axis=0))))


def dereverb_scores(X, alpha, peak, direct, cfg):
    """(clipped LSD, absolute level error) of dereverb's output, in dB."""
    S_hat, _, _ = vem.run(X, alpha, cfg)
    out = cli._synthesize(S_hat, peak).samples
    inner = slice(EDGE, out.size - EDGE)
    out, ref = out[inner], direct[: out.size][inner]
    level = 20.0 * np.log10(np.sqrt(np.mean(out ** 2) / np.mean(ref ** 2)))
    return clipped_lsd(out, ref), abs(level)


def summary(errors: np.ndarray) -> str:
    """One line over rows of (RT60 err, DRR err)."""
    mae = np.mean(np.abs(errors), axis=0)
    worst = np.max(np.abs(errors), axis=0)
    return (f"RT60 MAE {mae[0]:.4f} s  DRR MAE {mae[1]:.3f} dB  "
            f"signed DRR {np.mean(errors[:, 1]):+.3f} dB  "
            f"worst {worst[0]:.4f} s / {worst[1]:.3f} dB")


def dereverb_summary(scores: np.ndarray) -> str:
    """One line over rows of (clipped LSD, level error)."""
    mean, worst = np.mean(scores, axis=0), np.max(scores, axis=0)
    return (f"clipped LSD mean {mean[0]:.3f} dB  worst {worst[0]:.3f} dB  "
            f"level error mean {mean[1]:.3f} dB  worst {worst[1]:.3f} dB")


def within(errors, bounds) -> str:
    ok = all(abs(e) <= b for e, b in zip(errors, bounds))
    return f"{'within' if ok else 'OUTSIDE'} {bounds[0]} / {bounds[1]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("settings", nargs="*", metavar="LAMBDA:ITERS",
                        default=[label(vem.VemConfig()),
                                 label(degraded.SHIPPED)])
    cfgs = [setting(text) for text in parser.parse_args().settings]

    # identify_errors[i][case set] -> rows of (RT60, DRR) error of cfgs[i]
    identify_sets = {f"grid {base}": grid(base) for base in GRID_BASES}
    identify_sets["bench cell"] = bench_cell(T2_CELL, 20_000)
    identify_errors = [{} for _ in cfgs]
    for name, cases in identify_sets.items():
        for rt60, drr, seed in cases:
            X, alpha, _, true_rir, _ = oracle_case(rt60, drr, seed)
            truth = np.array([acoustics.estimate_rt60(true_rir).rt60,
                              acoustics.estimate_drr(true_rir).drr])
            for errors, cfg in zip(identify_errors, cfgs):
                errors.setdefault(name, []).append(
                    np.array(identified(X, alpha, cfg)) - truth)

    degraded_errors = [{name: degraded.parameter_errors(name, cfg)
                        for name in degraded.RUNS} for cfg in cfgs]

    # dereverb_rows[i][case set] -> rows of (LSD, level error) of cfgs[i]
    dereverb_sets = {"d0 cell": bench_cell(D0_CELL, 10_000),
                     "grid 1000": grid(1000)}
    dereverb_rows = [{} for _ in cfgs]
    for name, cases in dereverb_sets.items():
        for rt60, drr, seed in cases:
            X, alpha, peak, _, direct = oracle_case(rt60, drr, seed)
            for rows, cfg in zip(dereverb_rows, cfgs):
                rows.setdefault(name, []).append(
                    dereverb_scores(X, alpha, peak, direct, cfg))

    bound_sets = ((label(degraded.CFG), degraded.BOUNDS),
                  ("shipped", degraded.SHIPPED_BOUNDS))
    for cfg, errors, runs, scores in zip(cfgs, identify_errors,
                                         degraded_errors, dereverb_rows):
        print(f"lambda {cfg.ema}, {cfg.max_iters} iterations, "
              f"{THREADS} threads")
        print("  identify-rir")
        for name, rows in errors.items():
            print(f"    {name:<12} ({len(rows)}) {summary(np.array(rows))}")
        pooled = np.concatenate([np.array(r) for r in errors.values()])
        mae = np.mean(np.abs(pooled), axis=0)
        print(f"    pooled ({len(pooled)})   RT60 MAE {mae[0]:.4f} s  "
              f"DRR MAE {mae[1]:.3f} dB")
        for name, (rt_err, drr_err) in runs.items():
            print(f"    {name:<22} RT60 {rt_err:+.4f} s  "
                  f"DRR {drr_err:+.3f} dB  "
                  + ",  ".join(f"{within((rt_err, drr_err), bounds[name])} "
                               f"at {at}" for at, bounds in bound_sets))
        print("  dereverb")
        for name, rows in scores.items():
            print(f"    {name:<12} ({len(rows)}) "
                  f"{dereverb_summary(np.array(rows))}")


if __name__ == "__main__":
    main()
