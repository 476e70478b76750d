#!/usr/bin/env python3
"""Traced memory of each set-up stage, each stage of a client step, and
the server's re-quantization and round, per benchmark workload.

    python3 tools/step_memory.py [--workload W[,W...]] [--tiny] [--calls]

Runs each workload's ``fedq run`` config at the benchmark's default
seed, as ``perfbench/workloads.py`` builds it (the file is only read), in a process of its own under
``tracemalloc``, with the set-up stages ``generate_all_shards`` (as
``experiment`` calls it) and ``client.start_clients`` (which quantizes
the shared init for every client and forms the run's cohorts), the step stages
``client.quantized_forward``, ``ssl_upstream``, ``quantized_backward``
and ``local_update``, and the server's ``requantize_for_client`` and
whole ``ServerState.run_round`` (which holds the client models it
de-quantizes) wrapped. Per stage it prints
the calls, the highest traced memory of the process while a call ran
(``peak_kib``) and the most one call held above what was traced when it
began (``added_kib``: the stage's working set). Each workload of a
multi-workload call runs in a fresh process of its own, so its rows are
the ones ``--workload W`` alone prints, whatever ran before it. The
first call of a stage also fills the fit-plan cache, so ``warm_kib`` is
``added_kib`` of a second run of the same config in the same process,
with the cache left warm: the working set without the one-time fill.
numpy reports its array buffers to ``tracemalloc``; memory that
bypasses it (BLAS scratch, the interpreter) is not counted, so these
are not RSS. Each wrapper's ``args`` tuple holds the stage's arguments
for the whole call, so memory that a stage releases early does not
show in ``added_kib``: ``quantized_backward``'s ``del upstream`` frees
the raw upstream gradient in an unwrapped run, but not here.
``--tiny`` runs the smoke-test sizes.

``--calls`` counts calls instead: per workload, the Python ``call`` and
C ``c_call`` events that ``sys.setprofile`` sees over the second of two
runs in a fresh process (caches warm, nothing traced), with the Python
version that ran them, since the counts depend on the interpreter.
Under each workload's total, an indented row per stage gives the calls
made inside that stage's calls, the innermost stage under way taking
each; the profile function spots the stages by their code objects, so
no wrapper adds calls to the total.
"""

import argparse
import importlib.util
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = (("experiment", "generate_all_shards"), ("client", "start_clients"), ("client", "quantized_forward"),
          ("client", "ssl_upstream"), ("client", "quantized_backward"), ("client", "local_update"),
          ("server", "requantize_for_client"), ("ServerState", "run_round"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_owners() -> dict:
    """The module or class that defines each stage, by the first name of
    its ``STAGES`` entry."""
    from fedq import client, experiment, server

    return {"experiment": experiment, "client": client, "server": server, "ServerState": server.ServerState}


def measure(raw: dict) -> dict[str, list[int]]:
    """Run the config ``raw`` cold, then warm; per stage [calls, peak,
    added] of the cold run and the warm run's added, in bytes."""
    cold = traced_run(raw)
    warm = traced_run(raw)
    return {name: stats + [warm[name][2]] for name, stats in cold.items()}


def traced_run(raw: dict) -> dict[str, list[int]]:
    """Run the config ``raw``; per stage [calls, peak, added] in bytes."""
    from fedq import config, experiment

    modules = stage_owners()
    stats = {name: [0, 0, 0] for _, name in STAGES}
    originals = {name: getattr(modules[m], name) for m, name in STAGES}
    running = []  # [traced at entry, highest peak so far] of each stage call under way, outermost first

    def wrapped(name):
        fn, s = originals[name], stats[name]

        def call(*args, **kwargs):
            traced, peak = tracemalloc.get_traced_memory()
            for outer in running:  # the reset below would lose their peak so far
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
            running.append(mine := [traced, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
                peak = max(mine[1], tracemalloc.get_traced_memory()[1])
                s[0] += 1
                s[1] = max(s[1], peak)
                s[2] = max(s[2], peak - traced)

        return call

    with tempfile.TemporaryDirectory() as out:
        cfg = config.config_from_dict(dict(raw, output_dir=out))
        for m, name in STAGES:
            setattr(modules[m], name, wrapped(name))
        tracemalloc.start()
        try:
            experiment.run_experiment(cfg)
        finally:
            tracemalloc.stop()
            for m, name in STAGES:
                setattr(modules[m], name, originals[name])
    return stats


def count_calls(raw: dict) -> tuple[int, int, dict[str, list[int]]]:
    """Run the config ``raw`` twice; the Python and C calls of the second
    run, and per stage [calls, c_calls] of those made inside its calls."""
    from fedq import config, experiment

    modules = stage_owners()
    stages = {getattr(modules[m], name).__code__: name for m, name in STAGES}
    counts = {"call": 0, "c_call": 0}
    split = {name: {"call": 0, "c_call": 0} for _, name in STAGES}
    running = []  # (frame, split counts) of each stage call under way, innermost last

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1
            if running:
                running[-1][1][event] += 1
            if event == "call" and frame.f_code in stages:
                running.append((frame, split[stages[frame.f_code]]))
        elif event == "return" and running and running[-1][0] is frame:
            running.pop()

    with tempfile.TemporaryDirectory() as out:
        cfg = config.config_from_dict(dict(raw, output_dir=out))
        experiment.run_experiment(cfg)
        sys.setprofile(profile)
        try:
            experiment.run_experiment(cfg)
        finally:
            sys.setprofile(None)
    return counts["call"], counts["c_call"], {name: [c["call"], c["c_call"]] for name, c in split.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="one workload, a comma-separated list, or all")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--calls", action="store_true", help="count the calls of a warm run instead")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    workloads = load_workloads()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")

    if args.calls:
        print(f"{'workload':<22} {'calls':>9} {'c_calls':>9} {'python':>8}")
    else:
        print(f"{'workload':<22} {'stage':<22} {'calls':>6} {'peak_kib':>9} {'added_kib':>9} {'warm_kib':>9}")
    if len(names) > 1:  # each workload in a fresh process: its rows without the header
        for w in names:
            child = subprocess.run([sys.executable, __file__, "--workload", w] + ["--tiny"] * args.tiny
                                   + ["--calls"] * args.calls, stdout=subprocess.PIPE, text=True, check=True)
            print(child.stdout.split("\n", 1)[1], end="")
        return 0
    (w,) = names
    raw = workloads.make_config(w, workloads.DEFAULT_SEED, tiny=args.tiny)
    if args.calls:
        calls, c_calls, split = count_calls(raw)
        print(f"{w:<22} {calls:>9} {c_calls:>9} {platform.python_version():>8}")
        for name, (stage_calls, stage_c_calls) in split.items():
            print(f" {name:<21} {stage_calls:>9} {stage_c_calls:>9}")
        return 0
    stats = measure(raw)
    for name, (calls, peak, added, warm) in stats.items():
        print(f"{w:<22} {name:<22} {calls:>6} {peak / 1024:>9.0f} {added / 1024:>9.0f} {warm / 1024:>9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
