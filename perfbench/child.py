"""One `fedq run` in a fresh process; prints its measurements as JSON.

    python3 perfbench/child.py --config CFG --out DIR [--spans FILE]

The run goes through ``fedq.cli.cli_dispatch``, the function behind the
``fedq`` console script, with the default ``--threads``. The clocks
(wall and process CPU time, all threads) start after ``import fedq``
and stop when the command returns.

Without ``--spans`` the only instrument is a counter around
``client.run_local_epochs``: its first call ends set-up, the lengths
of the statistics it returns count the local steps, and the most calls
in flight at once give the pool threads actually used.
With ``--spans`` the whole tracer of ``tracer.py`` is installed instead,
the spans are written to FILE, and the per-layer metrics are added to
the output. Every wrapped function is restored before the process ends.
"""

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


class StepCounter:
    """Minimal instrument of an untraced run."""

    def __init__(self, client_module):
        self.module = client_module
        self.original = client_module.run_local_epochs
        self.first_call = None
        self.first_call_cpu = None
        self.steps = 0
        self.active = 0
        self.most_active = 0
        self.lock = threading.Lock()
        client_module.run_local_epochs = self

    def __call__(self, *args, **kwargs):
        t, c = time.perf_counter(), time.process_time()
        with self.lock:
            if self.first_call is None:
                self.first_call, self.first_call_cpu = t, c
            self.active += 1
            self.most_active = max(self.most_active, self.active)
        stats = self.original(*args, **kwargs)
        with self.lock:
            self.active -= 1
            self.steps += len(stats)
        return stats

    def restore(self) -> bool:
        self.module.run_local_epochs = self.original
        return self.module.run_local_epochs is self.original


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import numpy as np

    import fedq
    import fedq.cli
    import fedq.client

    if args.spans:
        from tracer import Tracer, call_counts, summarize

        instrument = Tracer()
        instrument.install()
    else:
        instrument = StepCounter(fedq.client)

    argv = ["run", "--config", args.config, "--out", args.out]
    t0, c0 = time.perf_counter(), time.process_time()
    code = fedq.cli.cli_dispatch(argv)
    t1, c1 = time.perf_counter(), time.process_time()
    restored = instrument.restore()

    out = {
        "exit_code": code,
        "restored": restored,
        "run_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fedq_file": fedq.__file__,
        "kernel_backend": fedq.kernel_backend,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if args.spans:
        spans = instrument.spans
        if code == 0:
            out["layers"] = summarize(spans)
        out["call_counts"] = {n: 0 for n in instrument.names} | call_counts(spans)
        with open(args.spans, "w") as f:
            for s in spans:
                f.write(json.dumps([s[0], s[1], s[2], s[3] - t0, s[4] - t0, s[5], s[6], s[7]]) + "\n")
    elif instrument.first_call is not None:
        out["setup_s"] = instrument.first_call_cpu - c0
        out["setup_wall_s"] = instrument.first_call - t0
        out["steps"] = instrument.steps
        out["pool_threads"] = instrument.most_active
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
