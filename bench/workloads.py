"""The three benchmark workloads: their inputs, CLI invocations, output checks
and quality scores.

Every repeat of a workload runs the same invocations on the same files, so
the output hashes of all repeats must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from revkit import Waveform, acoustics, evaluate, stft, wavio

import checks
import inputs
from checks import OutputError

WIN, HOP, CTF_LEN = 512, 128, 30  # the CLI's default transform and filter
# ctf_to_rir's documented crop: the filter's time support plus 2 * win_length
# on each side.
RIR_LEN = (CTF_LEN - 1) * HOP + WIN + 2 * 2 * WIN
RT60_REL_TOL = 0.05  # acceptance criterion 6a, per RIR
DRR_TOL_DB = 0.5     # acceptance criterion 7a, per RIR
RIR_BATCH_REPEATS = 12  # 12 x 16 grid cells = 192 RIRs

# Quality metrics printed for every workload ("n/a" where not applicable).
QUALITY_UNITS = {"lsd_db": "dB", "level_err_db": "dB", "rt60_err_s": "s",
                 "drr_err_db": "dB"}


@dataclass
class Invocation:
    """One CLI call: arguments after ``python -m revkit.cli``, the files it
    writes (removed before each call) and the check of those files, which
    returns the files whose bytes must repeat exactly."""

    args: list[str]
    outputs: list[str]
    check: Callable[[Path], list[Path]]


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def _lsd(enhanced: np.ndarray, reference: np.ndarray) -> float:
    return evaluate.lsd(stft.forward(Waveform(enhanced, inputs.FS)),
                        stft.forward(Waveform(reference, inputs.FS)))


class Dereverb:
    name = "dereverb"
    why = ("main use: 100 single-threaded EM iterations dominate wall time, "
           "so any engine-kernel change shows here; start-up is the rest")
    cli_threads = 1
    cell = (0.3, -5.0)  # RT60 s, DRR dB: T = 436 frames

    def prepare(self, workdir: Path, seed: int) -> None:
        self.case = inputs.write_blind_case(workdir, *self.cell,
                                            case_seed=10_000 + 10 * seed)
        n = checks.read_wav(workdir / self.case.reverb).size
        frames = 1 + (n - WIN) // HOP  # stft.num_frames
        self.out_len = (frames - 1) * HOP + WIN

    def invocations(self) -> list[Invocation]:
        def check(workdir):
            checks.read_wav(workdir / "enhanced.wav", self.out_len)
            checks.read_json(workdir / "enhanced.wav.manifest.json")
            return [workdir / "enhanced.wav"]
        return [Invocation(
            ["dereverb", self.case.reverb, "enhanced.wav",
             "--oracle", self.case.direct],
            ["enhanced.wav", "enhanced.wav.manifest.json"], check)]

    def score(self, workdir: Path) -> dict:
        """Level and LSD against the direct path on the interior
        [win, n - win), where stft.inverse reconstructs exactly (the range
        acceptance criterion 1 checks). The first and last windows are
        reported apart, as ``edge_gain_db``."""
        out = checks.read_wav(workdir / "enhanced.wav", self.out_len)
        direct = checks.read_wav(workdir / self.case.direct)[: out.size]
        reverb = checks.read_wav(workdir / self.case.reverb)[: out.size]
        inner = slice(WIN, out.size - WIN)
        edge = max(np.max(np.abs(out[:WIN])), np.max(np.abs(out[-WIN:])))
        return {
            "lsd_db": _lsd(out[inner], direct[inner]),
            "level_err_db": abs(20.0 * np.log10(_rms(out[inner])
                                                / _rms(direct[inner]))),
            "lsd_input_db": _lsd(reverb[inner], direct[inner]),
            "edge_gain_db": 20.0 * np.log10(edge
                                            / np.max(np.abs(out[inner]))),
        }

    def quality_ok(self, q: dict) -> bool:
        # Enhancement must bring the output closer to the direct path than
        # the unprocessed input is.
        return bool(np.isfinite(q["level_err_db"])
                    and q["lsd_db"] < q["lsd_input_db"])


class IdentifyRir:
    name = "identify-rir-t2"
    why = ("300 EM iterations through the band-parallel pool on 2 workers, "
           "plus ctf_to_rir and the estimators: parallelism and stopping "
           "rules show here")
    cli_threads = 2
    cell = (0.8, 0.0)  # T = 498 frames

    def prepare(self, workdir: Path, seed: int) -> None:
        self.case = inputs.write_blind_case(workdir, *self.cell,
                                            case_seed=20_000 + 10 * seed)

    def invocations(self) -> list[Invocation]:
        def check(workdir):
            checks.read_wav(workdir / "est_rir.wav", RIR_LEN)
            checks.read_csv(workdir / "params.csv", ("rt60_s", "drr_db"), 1)
            checks.read_json(workdir / "est_rir.wav.manifest.json")
            return [workdir / "est_rir.wav", workdir / "params.csv"]
        return [Invocation(
            ["identify-rir", self.case.reverb, "est_rir.wav",
             "--params", "params.csv", "--oracle", self.case.direct,
             "--threads", str(self.cli_threads)],
            ["est_rir.wav", "params.csv", "est_rir.wav.manifest.json"],
            check)]

    def score(self, workdir: Path) -> dict:
        """Errors against the estimators applied to the true RIR, as in
        acceptance criteria 6b and 7b."""
        est = checks.read_csv(workdir / "params.csv", ("rt60_s", "drr_db"),
                              1)[0]
        truth = wavio.read_wav(workdir / self.case.rir)
        return {
            "rt60_err_s": abs(est["rt60_s"]
                              - acoustics.estimate_rt60(truth).rt60),
            "drr_err_db": abs(est["drr_db"]
                              - acoustics.estimate_drr(truth).drr),
        }

    def quality_ok(self, q: dict) -> bool:
        return bool(np.isfinite(q["rt60_err_s"])
                    and np.isfinite(q["drr_err_db"]))


class RirParams:
    name = "rir-params"
    why = ("rt60 and drr over 192 RIR files: no engine, so acoustics, wavio "
           "and interpreter start-up do all the work")
    cli_threads = 1

    def prepare(self, workdir: Path, seed: int) -> None:
        self.files = inputs.write_rir_batch(
            workdir, first_seed=30_000 + 1000 * seed,
            repeats=RIR_BATCH_REPEATS)

    def _rows(self, workdir: Path, name: str, column: str) -> list[dict]:
        rows = checks.read_csv(workdir / name, (column,), len(self.files))
        for row, item in zip(rows, self.files):
            if row["path"] != item.path:
                raise OutputError(f"{name}: row for {row['path']}, expected "
                                  f"{item.path}")
        return rows

    def invocations(self) -> list[Invocation]:
        paths = [f.path for f in self.files]

        def check_rt60(workdir):
            rows = self._rows(workdir, "rt60.csv", "rt60_s")
            for row, item in zip(rows, self.files):
                if abs(row["rt60_s"] - item.rt60) > RT60_REL_TOL * item.rt60:
                    raise OutputError(f"{item.path}: RT60 {row['rt60_s']} s, "
                                      f"nominal {item.rt60} s")
            return [workdir / "rt60.csv"]

        def check_drr(workdir):
            rows = self._rows(workdir, "drr.csv", "drr_db")
            for row, item in zip(rows, self.files):
                if abs(row["drr_db"] - item.drr) > DRR_TOL_DB:
                    raise OutputError(f"{item.path}: DRR {row['drr_db']} dB, "
                                      f"nominal {item.drr} dB")
            return [workdir / "drr.csv"]

        return [Invocation(["rt60", *paths, "--csv", "rt60.csv"],
                           ["rt60.csv"], check_rt60),
                Invocation(["drr", *paths, "--csv", "drr.csv"],
                           ["drr.csv"], check_drr)]

    def score(self, workdir: Path) -> dict:
        """Mean absolute errors against the nominal values, as in acceptance
        criteria 6a and 7a."""
        rt = self._rows(workdir, "rt60.csv", "rt60_s")
        drr = self._rows(workdir, "drr.csv", "drr_db")
        return {
            "rt60_err_s": float(np.mean([abs(r["rt60_s"] - f.rt60)
                                         for r, f in zip(rt, self.files)])),
            "drr_err_db": float(np.mean([abs(r["drr_db"] - f.drr)
                                         for r, f in zip(drr, self.files)])),
        }

    def quality_ok(self, q: dict) -> bool:
        return True  # every file was already held to 6a/7a by the checks


WORKLOADS = {w.name: w for w in (Dereverb, IdentifyRir, RirParams)}
