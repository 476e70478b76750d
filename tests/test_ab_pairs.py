"""tools/ab_pairs.py must end a failed benchmark run in its own error
message, whatever the run printed."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

_spec = importlib.util.spec_from_file_location("ab_pairs", TOOLS / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


@pytest.mark.parametrize("script", [
    "import sys; sys.stderr.write('boom'); sys.exit(1)",  # crashed before printing
    "import sys; print('{\"correct\": true, \"metrics\": {}}'); sys.stderr.write('boom'); sys.exit(1)",
    "import sys; print('not json'); sys.stderr.write('boom')",
    "import sys; sys.stderr.write('boom')",  # exit 0 without output
], ids=["exit 1, no output", "exit 1 after a result", "unparsable last line", "exit 0, no output"])
def test_failed_run_ends_in_the_scripts_error(tmp_path, script):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script + "\n")
    with pytest.raises(SystemExit, match=f"^error: benchmark failed in {re.escape(str(tmp_path))}: boom$"):
        ab_pairs.invoke(tmp_path, "linear-minibatch", 0, 1.0)


def test_passing_run_returns_its_metrics(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('warm-up')\nprint('{\"correct\": true, \"metrics\": {\"cpu_s\": {\"value\": 1.5}}}')\n")
    assert ab_pairs.invoke(tmp_path, "linear-minibatch", 0, 1.0) == {"cpu_s": 1.5}
