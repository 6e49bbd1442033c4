"""Flat key = value configuration files for the pipeline.

Every key can be overridden by the matching CLI flag, and ``--dump-config``
writes the effective configuration back in the same format, so a dumped
file re-fed via ``--config`` reproduces a run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .stft import StftConfig
from .vem import VemConfig


@dataclass
class PipelineConfig:
    """Everything that determines a pipeline run besides the input files."""

    win_length: int = StftConfig.win_length
    hop: int = StftConfig.hop
    ctf_len: int = VemConfig.ctf_len
    lam: float = VemConfig.ema          # config key "lambda"
    max_iters: int = VemConfig.max_iters
    skip_low_bands: int = VemConfig.skip_low_bands
    delta_cap: float = VemConfig.delta_cap
    jitter: float = VemConfig.jitter
    power_floor: float = VemConfig.power_floor
    threads: int = 1
    seed: int = 0

    def stft_config(self) -> StftConfig:
        return StftConfig(win_length=self.win_length, hop=self.hop)

    def vem_config(self) -> VemConfig:
        return VemConfig(
            ctf_len=self.ctf_len,
            ema=self.lam,
            max_iters=self.max_iters,
            skip_low_bands=self.skip_low_bands,
            delta_cap=self.delta_cap,
            jitter=self.jitter,
            power_floor=self.power_floor,
        )


# key name in the file -> (field name, parser)
_KEYS = {
    "win_length": ("win_length", int),
    "hop": ("hop", int),
    "ctf_len": ("ctf_len", int),
    "lambda": ("lam", float),
    "max_iters": ("max_iters", int),
    "skip_low_bands": ("skip_low_bands", int),
    "delta_cap": ("delta_cap", float),
    "jitter": ("jitter", float),
    "power_floor": ("power_floor", float),
    "threads": ("threads", int),
    "seed": ("seed", int),
}


def parse_config(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse ``key = value`` lines ('#' comments allowed) over ``base``."""
    cfg = PipelineConfig(**asdict(base)) if base else PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        name, cast = _KEYS[key]
        try:
            setattr(cfg, name, cast(value))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for '{key}'") from exc
    return cfg


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)


def dump_config(cfg: PipelineConfig) -> str:
    """Render the configuration in the same key = value format."""
    values = asdict(cfg)
    lines = [f"{key} = {values[name]}" for key, (name, _) in _KEYS.items()]
    return "\n".join(lines) + "\n"
