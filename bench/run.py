"""revkit benchmark: time the real CLI and score what it wrote.

Usage (from the repository root):

    python3 bench/run.py --workload dereverb --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 12 --trace 1

Each workload's inputs are generated from ``--seed`` before any timing. The
benchmark then runs the workload's CLI invocations as child processes, one
at a time (a closed loop with one client), repeating them until
``--seconds`` have passed. Every invocation's outputs are checked, and their
hashes must repeat exactly. ``--trace 1`` adds one traced in-process run
that yields per-layer numbers (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
In that line a layer that did not run reports 0; the table printed above
it and the record written to ``.bench_out/`` say n/a.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so the total thread count is the CLI's
# --threads (at most 2 = nproc). Set before numpy is imported, and passed on
# to every child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3    # set-up is timed this many times per run; median kept
TIME_LIMIT_S = 170   # a run must end within 180 s; no repeat starts past this

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "cli.other_s": "s",
    "wavio.read_s": "s", "wavio.write_s": "s",
    "stft.forward_s": "s", "stft.inverse_s": "s", "prior.oracle_s": "s",
    "vem.run_s": "s", "vem.iter_s": "s", "vem.ns_per_cell_tap": "ns",
    "vem.e_step_s": "s", "vem.m_step_s": "s", "vem.loglik_s": "s",
    "vem.cpu_util": "ratio",
    "vem.best_iter_p10": "iter", "vem.best_iter_p50": "iter",
    "vem.useful_iter_frac": "ratio", "vem.improving_frac": "ratio",
    "vem.solver_fallbacks": "count", "vem.active_bands": "count",
    "vem.iters": "count", "vem.peak_alloc_mb": "MB",
    "rir.peak_alloc_mb": "MB", "rir.ctf_to_rir_s": "s",
    "rir.log_sweep_s": "s", "rir.inverse_filter_s": "s",
    "rir.delta_position_s": "s",
    "acoustics.rt60_s": "s", "acoustics.drr_s": "s", "acoustics.edc_s": "s",
    "trace.total_s": "s", "trace.overhead_s": "s",
}

# Which end-to-end metric each layer metric should move, and where.
PREDICTIONS = [
    ("cli.import_s", "setup_s everywhere; wall_s most on rir-params",
     "~1 s of it is scipy.stats, which acoustics imports"),
    ("cli.other_s", "wall_s", "argparse, manifest sha256, CSV writing"),
    ("wavio.read_s", "wall_s on rir-params", "384 reads per run"),
    ("wavio.write_s", "wall_s on dereverb and identify-rir-t2",
     "rir-params writes no WAV"),
    ("stft.forward_s, stft.inverse_s, prior.oracle_s", "wall_s on dereverb",
     "each under 0.1 % of it; recorded so that a regression shows"),
    ("vem.run_s, vem.iter_s", "wall_s and cpu_s on dereverb and "
     "identify-rir-t2; nothing on rir-params", ""),
    ("vem.ns_per_cell_tap", "as vem.iter_s",
     "iter_s / (active bands x T x L): compares inputs of different size"),
    ("vem.e_step_s, vem.m_step_s, vem.loglik_s", "wall_s on dereverb",
     "public step API on a vem.init state; Gram/rhs/solve split needs "
     "spans inside the program"),
    ("vem.cpu_util", "wall_s on identify-rir-t2 only", "~1 on dereverb"),
    ("vem.best_iter_p10, vem.best_iter_p50, vem.useful_iter_frac, "
     "vem.improving_frac", "wall_s on identify-rir-t2",
     "a stopping rule must move these without moving rt60_err_s or "
     "drr_err_db"),
    ("vem.solver_fallbacks", "failed_frac and the quality metrics", ""),
    ("vem.peak_alloc_mb, rir.peak_alloc_mb", "peak_rss_mb", ""),
    ("rir.ctf_to_rir_s, rir.log_sweep_s, rir.inverse_filter_s, "
     "rir.delta_position_s", "wall_s on identify-rir-t2",
     "under 1 % of that workload: a change to rir alone cannot show an "
     "end-to-end gain"),
    ("acoustics.rt60_s, acoustics.drr_s, acoustics.edc_s",
     "wall_s on rir-params", "per file"),
]


def environment(cli_threads: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc, "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cli_threads": cli_threads,
        "total_threads": cli_threads * blas_threads,
        "threads_within_nproc": cli_threads * blas_threads <= nproc,
    }


class Child(NamedTuple):
    """Wall time, CPU time, peak RSS and exit status of one child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int


def run_child(argv: list[str], cwd: Path, log: Path, timeout: float) -> Child:
    """Run ``argv`` to completion, killing it after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,  # Linux reports KiB
                 proc.returncode)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "revkit.cli", *args]


def measure_setup(workdir: Path, deadline: float) -> list[float]:
    """Interpreter start plus ``import revkit.cli``, each in its own child.
    One untimed import first compiles the bytecode, which users do not pay
    on every run."""
    argv = [sys.executable, "-c", "import revkit.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        child = run_child(argv, ROOT, workdir / "setup.log",
                          deadline - time.perf_counter())
        if child.status != 0:
            raise SystemExit("bench: 'import revkit.cli' failed:\n"
                             + (workdir / "setup.log").read_text())
        if i:
            samples.append(child.wall_s)
    return samples


def run_repeats(wl, workdir: Path, seconds: float, deadline: float) -> dict:
    """Repeat the workload's invocations until ``seconds`` have passed."""
    invs = wl.invocations()
    reference: list[str | None] = [None] * len(invs)
    repeats, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "failed": 0}
        t_rep = time.perf_counter()
        for i, inv in enumerate(invs):
            for name in inv.outputs:
                (workdir / name).unlink(missing_ok=True)
            child = run_child(cli_argv(inv.args), workdir,
                              workdir / "cli.log",
                              deadline - time.perf_counter())
            attempted += 1
            error = verify(inv, workdir, reference, i) if child.status == 0 \
                else f"exit status {child.status}: " \
                     f"{(workdir / 'cli.log').read_text()[-500:]}"
            if error:
                failed += 1
                rep["failed"] += 1
                errors.append(f"repeat {len(repeats)} {inv.args[0]}: {error}")
            rep["wall_s"] += child.wall_s
            rep["cpu_s"] += child.cpu_s
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], child.peak_rss_mb)
        repeats.append(rep)
        now = time.perf_counter()
        if now - start >= seconds or now + (now - t_rep) > deadline:
            break
    return {"repeats": repeats, "attempted": attempted, "failed": failed,
            "errors": errors, "reference_digests": reference}


def verify(inv, workdir: Path, reference: list, i: int) -> str | None:
    """Check one invocation's outputs; the first good digest is the one all
    later repeats must match. Returns an error message or None."""
    try:
        digest = checks.digest(inv.check(workdir))
    except checks.OutputError as exc:
        return str(exc)
    if reference[i] is None:
        reference[i] = digest
    elif digest != reference[i]:
        return "output bytes differ from an earlier repeat"
    return None


def traced_run(wl, workdir: Path, reference: list, import_s: float,
               untraced_wall_s: float) -> dict:
    import tracing
    tracer = tracing.Tracer()
    cli_ids, errors = [], []
    with tracing.traced_layers(tracer):
        for i, inv in enumerate(wl.invocations()):
            for name in inv.outputs:
                (workdir / name).unlink(missing_ok=True)
            cli_ids.append(len(tracer.spans))
            status, log = tracing.run_cli(tracer, workdir, inv.args)
            error = verify(inv, workdir, reference, i) if status == 0 \
                else f"exit status {status}: {log[-500:]}"
            if error:
                errors.append(f"traced {inv.args[0]}: {error}")
    if hasattr(wl, "case"):
        tracing.kernel_loop(tracer, workdir, wl.case)

    m = tracing.layer_metrics(tracer, cli_ids, tracing.memory_peaks(tracer))
    main_s = sum(tracer.duration(tracer.spans[i]) for i in cli_ids)
    total = len(cli_ids) * import_s + main_s
    m.update({"cli.import_s": import_s, "trace.total_s": total,
              "trace.overhead_s": total - untraced_wall_s})
    selfs = tracer.self_times(cli_ids)
    layers = {k: v for k, v in selfs.items() if k != "cli.main"}
    largest = max(layers, key=lambda k: sum(
        tracer.duration(r) for r in tracer.spans if r["name"] == k),
        default=None)
    return {
        "metrics": m, "errors": errors,
        "self_times_s": selfs,
        "accounting": {
            "cli_main_s": main_s,
            "sum_self_s": sum(selfs.values()),
            "closes": abs(sum(selfs.values()) - main_s) < 1e-6,
        },
        "largest_layer_span": largest,
        "vem_spans": sorted({r["name"] for r in tracer.spans
                             if r["name"].startswith("vem.")}),
        "spans": tracer.spans,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    t_start = time.perf_counter()
    deadline = t_start + TIME_LIMIT_S
    wl = workloads.WORKLOADS[name]()
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-",
                                    dir=ROOT / ".bench_run"))
    try:
        wl.prepare(workdir, seed)
        setup = measure_setup(workdir, deadline)
        measured = run_repeats(wl, workdir, seconds, deadline)
        try:
            quality = wl.score(workdir)
        except (checks.OutputError, ValueError) as exc:
            measured["errors"].append(f"scoring: {exc}")
            quality = None
        reps = measured["repeats"]
        e2e = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        }
        result = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "why": wl.why,
            "environment": environment(wl.cli_threads),
            "setup_samples_s": setup, **measured,
            "quality": quality, "end_to_end": e2e,
        }
        if trace:
            traced = traced_run(wl, workdir, measured["reference_digests"],
                                e2e["setup_s"], e2e["wall_s"])
            result["traced"] = traced
            result["attempted"] += len(wl.invocations())
            result["failed"] += len(traced["errors"])
            result["errors"] += traced["errors"]
        result["failed_frac"] = result["failed"] / result["attempted"]
        result["correct"] = (result["failed"] == 0 and quality is not None
                             and wl.quality_ok(quality))
        result["run_s"] = time.perf_counter() - t_start
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fmt(value, unit: str) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g} {unit}"


def print_report(res: dict) -> None:
    import workloads
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"repeats {len(res['repeats'])}  attempted {res['attempted']}  "
          f"failed {res['failed']}  correct {res['correct']}")
    print(f"   why: {res['why']}")
    for k, v in res["end_to_end"].items():
        print(f"   {k:<16} {fmt(v, E2E_UNITS[k])}")
    print(f"   {'failed_frac':<16} {fmt(res['failed_frac'], 'ratio')}")
    q = res["quality"] or {}
    for k, unit in workloads.QUALITY_UNITS.items():
        print(f"   {k:<16} {fmt(q.get(k), unit)}")
    for k, v in q.items():
        if k not in workloads.QUALITY_UNITS:
            print(f"   {k:<16} {fmt(v, 'dB')}  (diagnostic)")
    for err in res["errors"]:
        print(f"   error: {err}")
    if "traced" in res:
        t = res["traced"]
        print(f"   -- traced run: largest layer span "
              f"{t['largest_layer_span']}, vem spans {t['vem_spans'] or 'none'}")
        for k, unit in LAYER_UNITS.items():
            print(f"   {k:<22} {fmt(t['metrics'][k], unit)}")
        print("   self time per layer (s):")
        for k, v in sorted(t["self_times_s"].items(), key=lambda kv: -kv[1]):
            label = "cli.other" if k == "cli.main" else k
            print(f"     {label:<28} {v:.6f}")
        acc = t["accounting"]
        print(f"     {'sum':<28} {acc['sum_self_s']:.6f} "
              f"(cli.main {acc['cli_main_s']:.6f}, closes {acc['closes']})")


def save_record(res: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps({**res, "predictions": PREDICTIONS}, indent=1,
                               default=float) + "\n", encoding="utf-8")


def result_line(res: dict) -> dict:
    if res["trace"]:
        values = res["traced"]["metrics"]
        units = LAYER_UNITS
    else:
        values, units = res["end_to_end"], E2E_UNITS
    return {
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": 0 if values[k] is None else values[k],
                        "unit": unit} for k, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dereverb", "identify-rir-t2", "rir-params",
                                 "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "revkit" / "cli.py").is_file():
        print(f"bench: no revkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = (["dereverb", "identify-rir-t2", "rir-params"]
             if args.workload == "all" else [args.workload])
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save_record(res)
        print_report(res)
        results.append(res)
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    else:
        print(json.dumps(result_line(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
