#!/usr/bin/env python3
"""fedq benchmark: runs one workload the way a user does and reports it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

Run it from the root of a source tree of fedq (the directory holding
``src/fedq``); nothing needs to be built or installed. Each run is a
fresh process (``child.py``) that executes ``fedq run`` on a config
generated from the workload and the seed, with the default
``--threads`` and OpenBLAS pinned to one thread. Runs are a closed loop
with one caller: they execute one after another.

``--trace 0``: one warm-up run, then untraced runs until ``--seconds``
have passed since the start (at least three). Prints the end-to-end
metrics as medians with quartiles and sample count: the bounded ones
(process CPU time of the run and of its set-up, steps per CPU second,
peak RSS) and the wall-clock ones, which ``metrics.json`` explains are
reported unbounded.

``--trace 1``: one warm-up run, two traced runs, then untraced runs
until ``--seconds`` have passed since the start (at least two). Prints the per-layer
metrics (median of the two traced runs) and the tracing overhead.

Every run is checked: the process must exit 0, ``metrics.csv`` must pass
the workload's value checks, match every other run of the invocation
byte for byte, and at the default seed match the pinned SHA-256. In
traced mode the exact counts must repeat between the two traced runs.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed. Run details and spans go to ``perfbench/out/``.

``--workload all`` runs every workload untraced and then traced, one
invocation each, and exits non-zero if any of them failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_SHA256, WORKLOADS, check_metrics_csv, make_config  # noqa: E402

DEFS = json.loads((HERE / "metrics.json").read_text())
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_UNTRACED = {0: 3, 1: 2}
TRACED_RUNS = 2
MAX_FAILURES = 3
# Every invocation must end within 180 s; a hung run is killed before that.
HARD_LIMIT_S = 170


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_describe(root: Path) -> str:
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable (not a git checkout)"


class Session:
    """Runs of one benchmark invocation and their correctness bookkeeping."""

    def __init__(self, root: Path, workload: str, seed: int, cfg: dict, work: Path,
                 pinned: str | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.cfg = cfg
        self.pinned = pinned
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.env = {k: v for k, v in os.environ.items() if k != "FEDQ_SEED"}
        self.env.update(BLAS_ENV)
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S

    def run(self, spans: Path | None = None) -> dict | None:
        self.attempted += 1
        out = self.work / f"run{self.attempted}"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config_path),
               "--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.hard_deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return self._fail(f"run {self.attempted} did not end within {HARD_LIMIT_S} s of the start")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return self._fail(f"run {self.attempted} exited {proc.returncode}: {tail[0]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if res["exit_code"] != 0:
            return self._fail(f"run {self.attempted}: fedq run returned {res['exit_code']}: "
                              f"{proc.stderr.strip()}")
        if not res["restored"]:
            return self._fail(f"run {self.attempted}: a wrapped function was not restored")
        if not res["fedq_file"].startswith(str(self.root / "src")):
            return self._fail(f"run {self.attempted} imported fedq from {res['fedq_file']}")
        err = self._check_output(out / "metrics.csv")
        shutil.rmtree(out, ignore_errors=True)
        if err:
            return self._fail(f"run {self.attempted}: {err}")
        return res

    def _check_output(self, path: Path) -> str | None:
        try:
            data = path.read_bytes()
        except OSError as e:
            return f"cannot read metrics.csv: {e}"
        digest = hashlib.sha256(data).hexdigest()
        if self.pinned is not None and digest != self.pinned:
            return f"metrics.csv sha256 {digest} != pinned {self.pinned}"
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return f"metrics.csv sha256 {digest} differs from the first run's {self.digest}"
        return check_metrics_csv(self.workload, self.cfg, data.decode())

    def _fail(self, msg: str):
        self.failed += 1
        self.errors.append(msg)
        print(f"FAILED: {msg}", file=sys.stderr)
        return None

    def gave_up(self) -> bool:
        return self.failed >= MAX_FAILURES or time.monotonic() >= self.hard_deadline


def untraced_loop(s: Session, deadline: float, minimum: int) -> list[dict]:
    timed = []
    while (len(timed) < minimum or time.monotonic() < deadline) and not s.gave_up():
        res = s.run()
        if res is not None:
            timed.append(res)
    return timed


def end_to_end(timed: list[dict]) -> dict[str, list[float]]:
    return {
        "cpu_s": [r["cpu_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "steps_per_cpu_s": [r["steps"] / (r["cpu_s"] - r["setup_s"]) for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "run_s": [r["run_s"] for r in timed],
        "setup_wall_s": [r["setup_wall_s"] for r in timed],
        "steps_per_s": [r["steps"] / (r["run_s"] - r["setup_wall_s"]) for r in timed],
    }


def metadata(s: Session, first: dict | None) -> dict:
    return {
        "workload": s.workload,
        "seed": s.seed,
        "config_seeds": s.cfg["seeds"],
        "kernel_backend": first and first["kernel_backend"],
        "numpy": first and first["numpy"],
        "python": first and first["python"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "pool_threads": first and first.get("pool_threads"),
        "blas_threads": BLAS_ENV,
        "git_describe": git_describe(s.root),
    }


def print_stats(name: str, unit: str, values: list[float]):
    q1, med, q3 = quartiles(values)
    print(f"  {name:<28} {med:>14.6g} {unit:<6} p25 {q1:.6g}  p75 {q3:.6g}  n={len(values)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size (self-tests)")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    if not (root / "src" / "fedq" / "__init__.py").is_file():
        print(f"error: {root} holds no fedq source tree (src/fedq)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = make_config(args.workload, args.seed, tiny=args.tiny)
    pinned = PINNED_SHA256[args.workload] if args.seed == DEFAULT_SEED and not args.tiny else None
    s = Session(root, args.workload, args.seed, cfg, work, pinned)
    try:
        result = measure(s, args, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {workload} --trace {trace}", flush=True)
            if subprocess.run(cmd + (["--tiny"] if args.tiny else [])).returncode != 0:
                failed.append(f"{workload} --trace {trace}")
    print("all workloads: " + (f"FAILED {failed}" if failed else "passed"))
    return 1 if failed else 0


def measure(s: Session, args, out_dir: Path) -> dict:
    deadline = time.monotonic() + args.seconds
    warm = s.run()
    meta = metadata(s, warm)
    print("fedq benchmark  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    traced, layers, count_errors = [], {}, []
    if args.trace:
        for i in range(TRACED_RUNS):
            res = s.run(spans=out_dir / f"spans-{args.workload}-{i + 1}.jsonl")
            if res is not None:
                traced.append(res)
    timed = untraced_loop(s, deadline, MIN_UNTRACED[args.trace])
    e2e = end_to_end(timed) if timed else {}

    metrics = {}
    if args.trace and len(traced) == TRACED_RUNS and timed:
        for name in DEFS["exact_counts"]:
            vals = {r["layers"][name] for r in traced}
            if len(vals) != 1:
                count_errors.append(f"exact count {name} differs between traced runs: {sorted(vals)}")
        for name in traced[0]["layers"]:
            vals = [r["layers"][name] for r in traced]
            exact = all(isinstance(v, int) for v in vals)
            layers[name] = statistics.median_low(vals) if exact else statistics.median(vals)
        layers["trace.overhead_s"] = layers["run_s"] - statistics.median(e2e["run_s"])
        print("per-layer metrics (traced; median of %d runs):" % len(traced))
        for d in DEFS["per_layer"] + DEFS["traced_only"]:
            print(f"  {d['name']:<28} {layers[d['name']]:>14.6g} {d['unit']}")
        run_s = layers["run_s"]
        shares = {l: layers[f"{l}.self_s"] / run_s for l in LAYERS}
        print("self-time share of traced run_s: " +
              "  ".join(f"{l}={v:.3f}" for l, v in shares.items()))
        print("  (spans on pool threads include waits for the interpreter lock, so shares can"
              " sum past 1)")
        inclusive = (layers["analysis.moreau_s"] + layers["server.round_s"]) / run_s
        print(f"  analysis+server self share {shares['analysis'] + shares['server']:.3f}, "
              f"with sslcore {shares['analysis'] + shares['server'] + shares['sslcore']:.3f}, "
              f"inclusive analysis.moreau_s+server.round_s {inclusive:.3f}; "
              f"largest self time: {max(shares, key=shares.get)}")
        metrics = {d["name"]: {"value": layers[d["name"]], "unit": d["unit"]}
                   for d in DEFS["per_layer"]}
    elif not args.trace and timed:
        print("end-to-end metrics (untraced):")
        for d in DEFS["end_to_end"] + DEFS["wall_clock"]:
            print_stats(d["name"], d["unit"], e2e[d["name"]])
            print("    per run: " + " ".join(f"{v:.4g}" for v in e2e[d["name"]]))
        metrics = {d["name"]: {"value": statistics.median(e2e[d["name"]]), "unit": d["unit"]}
                   for d in DEFS["end_to_end"]}
    for err in count_errors:
        print(f"FAILED: {err}", file=sys.stderr)
    s.errors += count_errors
    fail_share = s.failed / max(s.attempted, 1)
    print(f"  {'fail_share':<28} {fail_share:>14.6g} ratio  ({s.failed} of {s.attempted} runs failed)")
    correct = s.failed == 0 and not count_errors and bool(metrics)
    detail = {"meta": meta, "correct": correct, "attempted": s.attempted, "failed": s.failed,
              "fail_share": fail_share, "errors": s.errors, "metrics_sha256": s.digest,
              "end_to_end_samples": e2e, "layers": layers,
              "call_counts": traced[0]["call_counts"] if traced else {}}
    tiny = "-tiny" if args.tiny else ""
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{tiny}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    return {"correct": correct, "attempted": s.attempted, "failed": s.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
