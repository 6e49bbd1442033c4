"""Judge engine settings on the cases that ROADMAP items 2 and 4 name.

    PYTHONPATH=src python tests/judge.py 0.7:150 0.6:120

Each argument is a ``lambda:iterations`` pair. For each pair the engine
runs at 2 threads with the oracle prior on

- the 20 blind cases of criteria 6b/7b at case-seed bases 1000, 5000 and
  9000 (case k of a base uses seed base + 10 k);
- the benchmark's ``identify-rir-t2`` cell, RT60 0.8 s and DRR 0 dB, at
  bench seeds 0-19 (case seed 20000 + 10 seed).

As the CLI does, the observation and the oracle are divided by the
observation's peak. An error is the estimate minus the estimator applied to
the true RIR. Each case set prints its RT60 and DRR mean absolute errors,
its mean signed DRR error and its worst case; the MAEs pooled over all 80
cases follow. Last come the runs of ``tests/test_degraded_prior.py``, set
up as that test sets them up, each against its bound there.

This is a measurement, not a test: pytest does not collect it, and it takes
a few minutes per pair on two CPUs.
"""

import argparse

import numpy as np

import test_degraded_prior as degraded
from revkit import acoustics, prior, rir, stft, vem
from synthcases import BLIND_CASES, blind_case

GRID_BASES = (1000, 5000, 9000)
BENCH_CELL = (0.8, 0.0)
BENCH_SEEDS = range(20)
THREADS = 2


def setting(text: str) -> vem.VemConfig:
    """``lambda:iterations`` as an engine config."""
    ema, iters = text.split(":")
    return vem.VemConfig(ema=float(ema), max_iters=int(iters),
                         threads=THREADS)


def case_sets() -> dict:
    """label -> [(rt60, drr, case seed)]."""
    sets = {f"grid {base}": [(rt, drr, base + 10 * k)
                             for k, (rt, drr) in enumerate(BLIND_CASES)]
            for base in GRID_BASES}
    sets["bench cell"] = [(*BENCH_CELL, 20_000 + 10 * s) for s in BENCH_SEEDS]
    return sets


def oracle_case(rt60, drr, case_seed):
    """Observation, oracle prior and true RIR, scaled as the CLI scales."""
    _, true_rir, reverb, direct = blind_case(rt60, drr, case_seed)
    peak = float(np.max(np.abs(reverb.samples))) or 1.0
    X = stft.forward(stft.Waveform(reverb.samples / peak))
    alpha = prior.oracle_from_reference(stft.Waveform(direct.samples / peak),
                                        X.config, X.num_frames)
    return X, alpha, true_rir


def identified(X, alpha, cfg):
    """(RT60, DRR) of the RIR the engine identifies."""
    _, H_hat, _ = vem.run(X, alpha, cfg)
    est = rir.ctf_to_rir(H_hat)
    return acoustics.estimate_rt60(est).rt60, acoustics.estimate_drr(est).drr


def summary(errors: np.ndarray) -> str:
    """One line over rows of (RT60 err, DRR err)."""
    mae = np.mean(np.abs(errors), axis=0)
    worst = np.max(np.abs(errors), axis=0)
    return (f"RT60 MAE {mae[0]:.4f} s  DRR MAE {mae[1]:.3f} dB  "
            f"signed DRR {np.mean(errors[:, 1]):+.3f} dB  "
            f"worst {worst[0]:.4f} s / {worst[1]:.3f} dB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("settings", nargs="+", metavar="LAMBDA:ITERS")
    labels = parser.parse_args().settings
    cfgs = [setting(text) for text in labels]

    # errors[label of the setting][case set] -> rows of (RT60, DRR) error
    errors = {label: {} for label in labels}
    for name, cases in case_sets().items():
        for rt60, drr, seed in cases:
            X, alpha, true_rir = oracle_case(rt60, drr, seed)
            truth = np.array([acoustics.estimate_rt60(true_rir).rt60,
                              acoustics.estimate_drr(true_rir).drr])
            for label, cfg in zip(labels, cfgs):
                errors[label].setdefault(name, []).append(
                    np.array(identified(X, alpha, cfg)) - truth)

    degraded_errors = {label: {} for label in labels}
    for name, (cut, perturb) in degraded.RUNS.items():
        X, mag, truth = degraded.build_case(cut)
        alpha = prior.from_magnitude(perturb(mag))
        for label, cfg in zip(labels, cfgs):
            degraded_errors[label][name] = (np.array(identified(X, alpha, cfg))
                                            - np.array(truth))

    for label, cfg in zip(labels, cfgs):
        print(f"lambda {cfg.ema}, {cfg.max_iters} iterations, "
              f"{THREADS} threads")
        for name, rows in errors[label].items():
            print(f"  {name:<12} ({len(rows)}) {summary(np.array(rows))}")
        pooled = np.concatenate([np.array(r) for r in errors[label].values()])
        mae = np.mean(np.abs(pooled), axis=0)
        print(f"  pooled ({len(pooled)})   RT60 MAE {mae[0]:.4f} s  "
              f"DRR MAE {mae[1]:.3f} dB")
        for name, (rt_err, drr_err) in degraded_errors[label].items():
            rt_bound, drr_bound = degraded.BOUNDS[name]
            ok = abs(rt_err) <= rt_bound and abs(drr_err) <= drr_bound
            print(f"  {name:<22} RT60 {rt_err:+.4f} s (bound {rt_bound})  "
                  f"DRR {drr_err:+.3f} dB (bound {drr_bound})  "
                  f"{'within' if ok else 'OUTSIDE'}")


if __name__ == "__main__":
    main()
