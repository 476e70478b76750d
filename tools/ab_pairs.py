#!/usr/bin/env python3
"""Interleaved A/B pairs of the fedq benchmark between two source trees.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W[,W...] --seed S --pairs N
                              [--seconds 30] [--out BENCH.json]

Each pair runs ``perfbench/run.py --trace 0`` once in each tree (each
tree's own benchmark, from its root), the parent first in even pairs
and the change first in odd ones, so drift of the machine's speed hits
both sides alike. One invocation gives one sample per end-to-end
metric: the median of its runs. The script prints, per metric, the
median and quartiles of each side, the pairs the change won and a
verdict (see ``verdict``), and writes every pair plus that summary as
JSON to ``--out`` under the key
"<workload>@seed<S>" (other keys in the file are kept), with the
machine: platform, Python, CPU count, numpy version and the BLAS numpy
was built against. A comma-separated ``--workload`` list runs the
workloads one after another, all pairs of one before the next. Metric
names, directions and bounds come from the change tree's
``BENCHMARK.json``. It only reads ``perfbench/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def invoke(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):  # no output, or a last line that is not JSON
            pass
    if result is None or not result["correct"]:
        raise SystemExit(f"error: benchmark failed in {tree}: {proc.stderr.strip()[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def machine() -> dict:
    """Where the pairs ran: the children use this interpreter and its numpy."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def verdict(s: dict, bound: float) -> str:
    """One metric's summary ``s`` read by the claim rule, ``bound`` its relative bound.

    "gain": the change won at least 9 of 10 pairs and its median is better
    than the parent's by more than the parent's interquartile distance;
    "worse than bound": its median is worse by more than ``bound`` of the
    parent's; "unresolved": neither, and the parent's interquartile
    distance exceeds ``bound`` of its median; otherwise "within bound".
    """
    parent, change = s["parent"], s["change"]
    better_by = parent["median"] - change["median"]
    if s["better"] == "higher":
        better_by = -better_by
    spread = parent["q3"] - parent["q1"]
    if 10 * s["change_won"] >= 9 * s["pairs"] and better_by > spread:
        return "gain"
    if -better_by > bound * parent["median"]:
        return "worse than bound"
    if spread > bound * parent["median"]:
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Per metric of ``metrics`` ({name: (better, bound)}): each side's
    quartiles, the pairs the change won, and the verdict."""
    summary = {}
    for name, (direction, bound) in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {"better": direction, "parent": quartiles(parent), "change": quartiles(change),
                         "change_won": won, "pairs": len(pairs)}
        summary[name]["verdict"] = verdict(summary[name], bound)
    return summary


def run_pairs(args, workload: str, seconds: float, metrics: dict) -> dict:
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = invoke(getattr(args, side), workload, args.seed, seconds)
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): "
              + "  ".join(f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in metrics),
              flush=True)

    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        print(f"{workload} {name:<16} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, "
              f"{s['parent']['q3']:.4g}]  change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}]  ratio {s['change']['median'] / s['parent']['median']:.3f}"
              f"  change won {s['change_won']}/{s['pairs']}  {s['verdict']}", flush=True)
    return {"workload": workload, "seed": args.seed, "seconds": seconds, "machine": machine(),
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "summary": summary, "pairs": pairs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    for workload in args.workload.split(","):
        result = run_pairs(args, workload, seconds, metrics)
        if args.out is not None:
            data = json.loads(args.out.read_text()) if args.out.exists() else {}
            data[f"{workload}@seed{args.seed}"] = result
            args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
