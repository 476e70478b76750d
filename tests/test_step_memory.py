"""tools/step_memory.py runs every benchmark workload at smoke-test size
and reports each traced stage of a client step and the server's
re-quantization."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_memory.py"
STAGES = ("quantized_forward", "ssl_upstream", "quantized_backward", "local_update", "requantize_for_client")


def test_reports_every_stage_of_every_workload():
    proc = subprocess.run([sys.executable, str(TOOL), "--tiny"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    workloads = ("linear-fullbatch-16c", "linear-minibatch", "relu-actq")
    assert [r[:2] for r in rows] == [[w, name] for w in workloads for name in STAGES]
    for _, _, calls, peak, added in rows:
        assert int(calls) > 0 and int(peak) >= int(added) > 0
