#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a fedq source tree. Checks that:

- metric and workload names are well formed and BENCHMARK.json agrees
  with ``metrics.json`` and ``workloads.py``;
- a tiny-size run of each workload passes, untraced and traced (the
  traced run also requires the exact counts to repeat between its two
  traced runs and every metrics.csv to be byte-identical);
- every wrapped function is called on each workload that should hit it,
  which catches a wrapper bound to a name its caller does not look up;
- in a directory holding only BENCHMARK.json and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits non-zero when any check fails.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import IDLE_ON, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_definitions(root: Path) -> list[str]:
    errors = []
    bench = json.loads((root / "BENCHMARK.json").read_text())
    defs = json.loads((HERE / "metrics.json").read_text())
    names = [d["name"] for d in defs["end_to_end"] + defs["per_layer"] + defs["traced_only"]]
    for name in names + list(WORKLOADS):
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("metric names are not unique")
    for key in ("end_to_end", "per_layer"):
        want = [{k: d[k] for k in ("name", "unit", "better")} for d in defs[key]]
        got = [{k: d[k] for k in ("name", "unit", "better")} for d in bench[key]]
        if want != got:
            errors.append(f"BENCHMARK.json {key} disagrees with perfbench/metrics.json")
    if {w["name"]: w["why"] for w in bench["workloads"]} != {
            k: v["why"] for k, v in WORKLOADS.items()}:
        errors.append("BENCHMARK.json workloads disagree with perfbench/workloads.py")
    for name in defs["exact_counts"]:
        if name not in {d["name"] for d in defs["per_layer"]}:
            errors.append(f"exact count {name} is not a per-layer metric")
    return errors


def check_workloads(root: Path) -> list[str]:
    for stale in (HERE / "out").glob("result-*-seed7-*-tiny.json"):
        stale.unlink()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
                           "--seconds", "1", "--tiny"],
                          cwd=root, capture_output=True, text=True, timeout=900)
    errors = []
    if proc.returncode != 0:
        errors.append(f"tiny runs failed:\n{proc.stdout[-1500:]}\n{proc.stderr[-1500:]}")
    for workload in WORKLOADS:
        detail = HERE / "out" / f"result-{workload}-seed7-trace1-tiny.json"
        counts = json.loads(detail.read_text())["call_counts"] if detail.is_file() else {}
        for name, n in counts.items():
            if n == 0 and name not in IDLE_ON.get(workload, ()):
                errors.append(f"{workload}: wrapped function {name} was never called")
    return errors


def check_bare_directory(root: Path) -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "relu-actq",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark did not fail cleanly in a directory without the fedq sources"]
    return []


def main() -> int:
    root = Path.cwd()
    errors = check_definitions(root) + check_workloads(root) + check_bare_directory(root)
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
