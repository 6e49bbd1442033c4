"""Traced run: the revkit CLI in-process, with a span around every call into
a layer.

Spans are recorded from the benchmark's own code. Each public function
listed in ``LAYER_CALLS`` is replaced, for the duration of the run, by a
wrapper on its module, so calls that go through the module attribute are
traced: the CLI's calls (``wavio.read_wav``, ``vem.run``, ...) and a
module's calls to its own functions (``rir.ctf_to_rir`` calling
``rir.inverse_filter``). A name imported into another module
(``prior`` using ``stft.forward``) is not traced, so that work counts as
the caller's self time.

Spans (name, start, end, parent) are kept in memory and returned when the
run ends. A span's self time is its duration minus its children's; the
self times of all spans under ``cli.main`` sum to the traced CLI time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import re
import statistics
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

LAYER_CALLS = {
    "wavio": ("read_wav", "write_wav"),
    "stft": ("forward", "inverse"),
    "prior": ("oracle_from_reference",),
    "vem": ("run",),
    "rir": ("ctf_to_rir", "log_sweep", "inverse_filter", "delta_position"),
    "acoustics": ("estimate_rt60", "estimate_drr", "edc"),
}
MEMORY_CALLS = ("vem.run", "rir.ctf_to_rir")  # repeated under tracemalloc
MEMORY_ITERS = 2  # engine iterations of the vem.run memory call
KERNEL_ITERS = 5      # public step-API calls timed per kernel
IMPROVING_WINDOW = 10  # "still improving": best iterate in the last 10

# metric -> span name; the value is the summed duration over the run
TOTAL_METRICS = {
    "wavio.read_s": "wavio.read_wav",
    "wavio.write_s": "wavio.write_wav",
    "stft.forward_s": "stft.forward",
    "stft.inverse_s": "stft.inverse",
    "prior.oracle_s": "prior.oracle_from_reference",
    "vem.run_s": "vem.run",
    "rir.ctf_to_rir_s": "rir.ctf_to_rir",
    "rir.log_sweep_s": "rir.log_sweep",
    "rir.inverse_filter_s": "rir.inverse_filter",
    "rir.delta_position_s": "rir.delta_position",
}
# metric -> span name; the value is the mean duration per call (per file)
PER_CALL_METRICS = {
    "acoustics.rt60_s": "acoustics.estimate_rt60",
    "acoustics.drr_s": "acoustics.estimate_drr",
    "acoustics.edc_s": "acoustics.edc",
}
# metric -> span name; the value is the median duration per call
KERNEL_METRICS = {
    "vem.e_step_s": "vem.e_step",
    "vem.m_step_s": "vem.m_step",
    "vem.loglik_s": "vem.expected_loglik",
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, tuple] = {}  # arguments of MEMORY_CALLS
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu0
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                rec["warnings"] = [str(w.message) for w in caught]
                if name == "vem.run":
                    _record_run(rec, args, kwargs, result)
            if name in MEMORY_CALLS:
                self.calls[name] = (args, kwargs)
            return result
        return traced

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def self_times(self, root_ids: list[int]) -> dict[str, float]:
        """Summed self time per span name over the trees under ``root_ids``."""
        children: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        out: dict[str, float] = {}
        todo = list(root_ids)
        while todo:
            rec = self.spans[todo.pop()]
            kids = children.get(rec["id"], [])
            own = self.duration(rec) - sum(self.duration(k) for k in kids)
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
            todo.extend(k["id"] for k in kids)
        return out


def _record_run(rec: dict, args, kwargs, result) -> None:
    """Shape, settings and best-iterate counters of one ``vem.run`` call."""
    X, _, cfg = args[:3]
    loglik = result[2]  # (max_iters + 1, F), NaN for skipped bands
    active = np.all(np.isfinite(loglik), axis=0)
    best = 1 + np.argmax(loglik[1:, active], axis=0)  # first maximum wins
    fallbacks = 0
    for msg in rec["warnings"]:
        if "singular Gram" in msg:
            m = re.search(r"in (\d+) update", msg)
            fallbacks += int(m.group(1)) if m else 1
    rec.update(frames=X.num_frames, taps=cfg.ctf_len, iters=cfg.max_iters,
               active_bands=int(active.sum()), best_iter=best.tolist(),
               threads=kwargs.get("threads", args[3] if len(args) > 3 else 1),
               solver_fallbacks=fallbacks)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Replace each function of ``LAYER_CALLS`` by a traced wrapper."""
    saved = []
    try:
        for mod_name, fns in LAYER_CALLS.items():
            mod = importlib.import_module(f"revkit.{mod_name}")
            for fn in fns:
                original = getattr(mod, fn)
                saved.append((mod, fn, original))
                setattr(mod, fn, tracer.wrap(f"{mod_name}.{fn}", original))
        yield
    finally:
        for mod, fn, original in saved:
            setattr(mod, fn, original)


def run_cli(tracer: Tracer, workdir: Path, argv: list[str]) -> tuple[int, str]:
    """``revkit.cli.main(argv)`` in ``workdir`` under a ``cli.main`` span."""
    from revkit import cli
    log = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with tracer.span("cli.main"), contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    return status, log.getvalue()


def kernel_loop(tracer: Tracer, workdir: Path, case) -> None:
    """Time the public step API on a state built by ``vem.init`` from the
    workload's input. This is a per-kernel view, not a replay of
    ``vem.run``: the public e-step blends from the first call and covers all
    bands."""
    from revkit import prior, stft, vem, wavio
    X = stft.forward(wavio.read_wav(workdir / case.reverb))
    alpha = prior.oracle_from_reference(
        wavio.read_wav(workdir / case.direct), X.config,
        expected_frames=X.num_frames)
    cfg = vem.VemConfig()
    state = vem.init(X, alpha, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(KERNEL_ITERS):
            with tracer.span("vem.e_step"):
                state.posterior = vem.e_step(state, X, alpha, cfg)
            with tracer.span("vem.m_step"):
                state.noise, state.filter = vem.m_step(state, X, cfg)
            with tracer.span("vem.expected_loglik"):
                vem.expected_loglik(state, X, alpha)


def memory_peaks(tracer: Tracer) -> dict[str, float]:
    """tracemalloc peak, in MB, of a second call to each of MEMORY_CALLS with
    the traced run's arguments. tracemalloc slows the engine by about half,
    so these calls are kept out of the timed spans, and the engine call runs
    MEMORY_ITERS iterations: its working set does not grow with iterations,
    apart from (max_iters + 1) x F x 8 bytes of likelihood trace."""
    from revkit import rir, vem
    peaks = {}
    for name, fn in (("vem.run", vem.run), ("rir.ctf_to_rir", rir.ctf_to_rir)):
        if name not in tracer.calls:
            continue
        args, kwargs = tracer.calls[name]
        if name == "vem.run":
            args = (*args[:2], replace(args[2], max_iters=MEMORY_ITERS),
                    *args[3:])
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fn(*args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return peaks


def layer_metrics(tracer: Tracer, cli_ids: list[int],
                  peaks: dict[str, float]) -> dict:
    """Per-layer metrics; ``None`` where the layer did not run."""
    by_name: dict[str, list[dict]] = {}
    for rec in tracer.spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def durations(name):
        return [tracer.duration(r) for r in by_name.get(name, [])]

    m: dict[str, float | None] = {}
    for metric, name in TOTAL_METRICS.items():
        d = durations(name)
        m[metric] = sum(d) if d else None
    for metric, name in PER_CALL_METRICS.items():
        d = durations(name)
        m[metric] = sum(d) / len(d) if d else None
    for metric, name in KERNEL_METRICS.items():
        d = durations(name)
        m[metric] = statistics.median(d) if d else None

    runs = by_name.get("vem.run", [])
    vem_keys = ("vem.iter_s", "vem.ns_per_cell_tap", "vem.cpu_util",
                "vem.best_iter_p10", "vem.best_iter_p50",
                "vem.useful_iter_frac", "vem.improving_frac",
                "vem.solver_fallbacks", "vem.active_bands", "vem.iters",
                "vem.peak_alloc_mb")
    m.update(dict.fromkeys(vem_keys))
    if runs:
        # One engine run per invocation; a workload runs it at most once.
        r = runs[0]
        wall = tracer.duration(r)
        best = np.array(r["best_iter"])
        iter_s = wall / r["iters"]
        m.update({
            "vem.iter_s": iter_s,
            "vem.ns_per_cell_tap": 1e9 * iter_s / (r["active_bands"]
                                                   * r["frames"] * r["taps"]),
            "vem.cpu_util": r["cpu_s"] / wall,
            "vem.best_iter_p10": float(np.percentile(best, 10)),
            "vem.best_iter_p50": float(np.percentile(best, 50)),
            "vem.useful_iter_frac": float(best.mean()) / r["iters"],
            "vem.improving_frac": float(np.mean(
                best > r["iters"] - IMPROVING_WINDOW)),
            "vem.solver_fallbacks": r["solver_fallbacks"],
            "vem.active_bands": r["active_bands"],
            "vem.iters": r["iters"],
            "vem.peak_alloc_mb": peaks.get("vem.run"),
        })
    m["rir.peak_alloc_mb"] = peaks.get("rir.ctf_to_rir")

    selfs = tracer.self_times(cli_ids)
    m["cli.other_s"] = selfs.get("cli.main", 0.0)
    return m
