"""Flat key = value configuration files for the engine commands.

``KEYS`` is the one table of settings: each file key names the part of
``PipelineConfig`` it sets, the field, and the parser for its text. The
CLI flags that override a key store under that key, and ``--dump-config``
writes the effective configuration back in the same format, so a dumped
file re-fed via ``--config`` reproduces a run exactly. Every key changes
the engine's results or how it runs; ``simulate``'s seed is its own flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .vem import VemConfig


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class PipelineConfig:
    """Everything that determines an engine run besides the input files."""

    vem: VemConfig = field(default_factory=VemConfig)
    threads: int = field(default_factory=_available_cpus)

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


# key in the file -> (part of PipelineConfig, field, parser); part None is
# the PipelineConfig itself. The order is the order of a dump.
KEYS = {
    "ctf_len": ("vem", "ctf_len", int),
    "lambda": ("vem", "ema", float),
    "max_iters": ("vem", "max_iters", int),
    "skip_low_bands": ("vem", "skip_low_bands", int),
    "threads": (None, "threads", int),
}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines ('#' comments allowed) into {key: value}."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = KEYS[key][2](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for '{key}'") from exc
    return values


def build_config(values: dict) -> PipelineConfig:
    """The validated configuration for {key: value}; absent keys default."""
    parts = {"vem": {}, None: {}}
    for key, value in values.items():
        part, name, _ = KEYS[key]
        parts[part][name] = value
    return PipelineConfig(vem=VemConfig(**parts["vem"]), **parts[None])


def config_values(cfg: PipelineConfig) -> dict:
    """{key: value} for every key of ``KEYS``, in its order."""
    return {key: getattr(getattr(cfg, part) if part else cfg, name)
            for key, (part, name, _) in KEYS.items()}


def dump_config(cfg: PipelineConfig) -> str:
    """Render the configuration in the same key = value format."""
    return "".join(f"{key} = {value}\n"
                   for key, value in config_values(cfg).items())
