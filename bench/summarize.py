"""Summarize run records from ``.bench_out/`` into one results file.

    python3 bench/summarize.py --label baseline

writes ``bench/results/BENCH_<label>.json``: per workload, the seeds run
and, per metric, the median, the quartiles and the spread (interquartile
distance / median) over the records. A new label adds a file; existing
files are never overwritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_KEYS = ("cli_threads", "total_threads", "threads_within_nproc")


def describe(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = {}
    for name, recs in sorted(by_workload.items()):
        untraced = [r for r in recs if not r["trace"]]
        traced = [r for r in recs if r["trace"]]
        env = recs[0]["environment"]
        entry = {
            "why": recs[0]["why"],
            "threads": {k: env[k] for k in THREAD_KEYS},
            "seconds": recs[0]["seconds"],
            "seeds": sorted(r["seed"] for r in untraced),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "all_correct": all(r["correct"] for r in recs),
            "end_to_end": {k: describe([r["end_to_end"][k] for r in untraced])
                           for k in (untraced[0]["end_to_end"]
                                     if untraced else {})},
            "quality": {k: describe([r["quality"][k] for r in untraced])
                        for k in ((untraced[0]["quality"] or {})
                                  if untraced else {})},
        }
        if traced:
            layer = traced[0]["traced"]["metrics"]
            entry["per_layer_seeds"] = sorted(r["seed"] for r in traced)
            entry["per_layer"] = {
                k: (describe([r["traced"]["metrics"][k] for r in traced])
                    if layer[k] is not None else "n/a")
                for k in layer}
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    target = ROOT / "bench" / "results" / f"BENCH_{args.label}.json"
    if target.exists():
        print(f"{target} exists; choose another label", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text())
               for p in sorted((ROOT / ".bench_out").glob("*.json"))]
    if not records:
        print("no records in .bench_out/", file=sys.stderr)
        return 1
    target.parent.mkdir(exist_ok=True)
    summary = {"label": args.label,
               "environment": {k: v for k, v in
                               records[0]["environment"].items()
                               if k not in THREAD_KEYS},
               "predictions": records[0]["predictions"],
               "workloads": summarize(records)}
    target.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
