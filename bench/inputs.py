"""Deterministic benchmark inputs, built from a seed through public revkit.simulate.

The engine cases follow the acceptance suite's blind-case recipe
(``tests/synthcases.blind_case``): a speech-like source, a synthetic RIR at a
given RT60/DRR cell, white noise mixed in at 20 dB SNR, and the aligned
direct-path reference. The parameter batch covers the acceptance grid
RT60 {0.3, 0.5, 0.8, 1.0} s x DRR {-5, 0, 5, 10} dB with several RIR seeds.
Everything is written as the 32-bit float WAV files the CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from revkit import simulate, wavio

FS = 16000
SNR_DB = 20.0
DURATION_S = 3.2
RT_GRID = (0.3, 0.5, 0.8, 1.0)
DRR_GRID = (-5.0, 0.0, 5.0, 10.0)


@dataclass
class BlindCase:
    """File names (relative to the work directory) of one engine case."""

    reverb: str
    direct: str
    rir: str
    rt60: float
    drr: float
    case_seed: int


@dataclass
class RirFile:
    """One RIR of the parameter batch with its nominal RT60 and DRR."""

    path: str
    rt60: float
    drr: float


def write_blind_case(workdir: Path, rt60: float, drr: float,
                     case_seed: int) -> BlindCase:
    """Write the reverberant mixture, direct-path reference and true RIR."""
    clean = simulate.speech_like(DURATION_S, FS, seed=case_seed)
    true_rir = simulate.synth_rir(
        simulate.SynthRirSpec(rt60=rt60, drr=drr, seed=case_seed + 1))
    noise = simulate.white_noise(
        clean.samples.size + true_rir.samples.size - 1, FS,
        seed=case_seed + 2)
    reverb = simulate.mix(clean, true_rir, noise, SNR_DB)
    direct = simulate.direct_path_reference(clean, true_rir)
    case = BlindCase("reverb.wav", "direct.wav", "true_rir.wav", rt60, drr,
                     case_seed)
    wavio.write_wav(workdir / case.reverb, reverb)
    wavio.write_wav(workdir / case.direct, direct)
    wavio.write_wav(workdir / case.rir, true_rir)
    return case


def write_rir_batch(workdir: Path, first_seed: int,
                    repeats: int) -> list[RirFile]:
    """Write ``repeats`` passes over the RT60 x DRR grid, one RIR seed each."""
    (workdir / "rirs").mkdir()
    files = []
    for rep in range(repeats):
        for rt60 in RT_GRID:
            for drr in DRR_GRID:
                k = len(files)
                spec = simulate.SynthRirSpec(rt60=rt60, drr=drr,
                                             seed=first_seed + k)
                item = RirFile(f"rirs/rir{k:03d}.wav", rt60, drr)
                wavio.write_wav(workdir / item.path, simulate.synth_rir(spec))
                files.append(item)
    return files
