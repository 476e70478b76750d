"""tools/ab_pairs.py must end a failed benchmark run in its own error
message, whatever the run printed, and read each metric's pairs by the
claim rule."""

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


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # interquartile distance ~0.02
WIDE = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]  # interquartile distance ~0.65


@pytest.mark.parametrize("better, parent, change, expected", [
    ("higher", TIGHT, [1.1] * 10, "gain"),  # 10/10 won, median up 0.1 > the parent's 0.02
    ("lower", TIGHT, [1.3] * 10, "worse than bound"),  # median up 30% against a 25% bound
    ("lower", WIDE, WIDE[::-1], "unresolved"),  # the parent's spread is 65% of its median
    ("lower", TIGHT, [1.05] * 10, "within bound"),
    ("lower", TIGHT, [0.5] * 8 + [2.0] * 2, "within bound"),  # a large gain, but won only 8/10
], ids=["gain", "worse-than-bound", "unresolved", "within-bound", "gain-needs-9-of-10"])
def test_verdict_follows_the_claim_rule(better, parent, change, expected):
    pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
    summary = ab_pairs.summarize(pairs, {"m": (better, 0.25)})
    assert summary["m"]["verdict"] == expected
