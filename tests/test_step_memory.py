"""tools/step_memory.py runs every benchmark workload at smoke-test size
and reports each traced set-up stage, each stage of a client step, the
server's re-quantization and its whole round; each stage's working set,
cold and with the fit-plan cache warm, and each run's highest traced
memory stay within their committed budgets. Its call counts repeat from
one fresh process to the next and stay within their committed budgets."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_memory.py"
WORKLOADS = ("linear-fullbatch-16c", "linear-minibatch", "relu-actq")
STAGES = ("generate_all_shards", "start_clients", "quantized_forward", "ssl_upstream", "quantized_backward",
          "local_update", "requantize_for_client", "run_round")

# The most one call of each stage adds to traced memory at --tiny, in KiB
# (numpy 2.4, CPython 3.11), per workload in the order of STAGES: in a
# fresh process (added_kib, BUDGET_KIB), where the first call of a stage
# also fills the fit-plan cache, and in a second run with the cache warm
# (warm_kib, WARM_BUDGET_KIB), where a per-call regression cannot hide
# behind that one-time fill. Tiny sizes cut rounds, which leaves every
# step and server stage's column equal to the full-size one; on
# linear-minibatch and relu-actq they also cut the shards to a tenth, so
# generate_all_shards reads 471 there against 4578 at full size. A change
# that raises a budget says so, and why, in CHANGES.md; one that lowers a
# stage's working set lowers its budget with it.
BUDGET_KIB = {
    "linear-fullbatch-16c": (1558, 446, 95, 331, 488, 172, 232, 254),
    "linear-minibatch": (471, 41, 9, 34, 197, 28, 29, 34),
    "relu-actq": (471, 346, 674, 34, 949, 344, 336, 358),
}
WARM_BUDGET_KIB = {
    "linear-fullbatch-16c": (1554, 419, 95, 331, 318, 172, 232, 254),
    "linear-minibatch": (470, 29, 9, 34, 50, 28, 29, 34),
    "relu-actq": (470, 337, 664, 34, 589, 344, 336, 358),
}
# The highest traced memory of each run at --tiny (the most peak_kib of
# any stage, fresh process), in KiB: what the process holds at once, the
# shards and stored models included, so a stage whose working set grows
# with the cohort (a call serves four clients of linear-fullbatch-16c)
# still answers to a whole-run bound. Same tolerance and same rule.
PEAK_BUDGET_KIB = {"linear-fullbatch-16c": 3025, "linear-minibatch": 882, "relu-actq": 2030}
# The Python ``call`` and C ``c_call`` events of each warm run at --tiny
# (``--calls``), exact: the counts repeat, so there is no tolerance. A
# rise fails; a change that lowers a count lowers its budget with it.
# The counts hold only under the interpreter and numpy they were taken
# with (Python 3.12 inlines comprehensions, for one).
CALL_BUDGET_VERSIONS = ("3.11.7", "2.4.6")  # Python, numpy
CALL_BUDGET = {"linear-fullbatch-16c": (10629, 12510), "linear-minibatch": (5304, 7169), "relu-actq": (2834, 3973)}


def allowed_kib(budget: int) -> float:
    """A budget and its tolerance: 5%, at least 4 KiB."""
    return budget + max(4.0, 0.05 * budget)


@pytest.fixture(scope="module")
def rows():
    proc = subprocess.run([sys.executable, str(TOOL), "--tiny"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()[1:]]


def test_reports_every_stage_of_every_workload(rows):
    assert [r[:2] for r in rows] == [[w, name] for w in WORKLOADS for name in STAGES]
    for _, _, calls, peak, added, warm in rows:
        assert int(calls) > 0 and int(peak) >= int(added) > 0 and int(warm) > 0


def test_every_stage_stays_within_its_budget(rows):
    over = []
    for w, stage, _, _, added, warm in rows:
        i = STAGES.index(stage)
        for column, kib, budget in (("added_kib", added, BUDGET_KIB[w][i]), ("warm_kib", warm, WARM_BUDGET_KIB[w][i])):
            if int(kib) > allowed_kib(budget):
                over.append(f"{w} {stage} {column}: {kib} KiB against a budget of {budget} KiB")
    assert not over, "; ".join(over)


def test_each_run_peak_stays_within_its_budget(rows):
    peaks = {w: max(int(r[3]) for r in rows if r[0] == w) for w in WORKLOADS}
    over = [f"{w}: {kib} KiB against a budget of {PEAK_BUDGET_KIB[w]} KiB"
            for w, kib in peaks.items() if kib > allowed_kib(PEAK_BUDGET_KIB[w])]
    assert not over, "; ".join(over)


@pytest.fixture(scope="module")
def call_runs():
    """Two fresh runs of ``--calls --tiny``: their outputs."""
    runs = [subprocess.run([sys.executable, str(TOOL), "--calls", "--tiny"], capture_output=True, text=True,
                           timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    return [proc.stdout for proc in runs]


def totals(output: str) -> list[list[str]]:
    """The workload rows of a ``--calls`` output: name, calls, c_calls, Python."""
    return [line.split() for line in output.splitlines()[1:] if not line.startswith(" ")]


def test_call_counts_repeat_in_fresh_processes(call_runs):
    # Stage rows included: each workload's total row is followed by one
    # row per stage, the calls made inside its calls (the innermost stage
    # under way takes each), so the rows add up to at most the total.
    assert call_runs[0] == call_runs[1]
    rows = [line.split() for line in call_runs[0].splitlines()[1:]]
    assert [r[0] for r in totals(call_runs[0])] == list(WORKLOADS)
    for i in range(0, len(rows), len(STAGES) + 1):
        (_, calls, c_calls, python), *split = rows[i:i + len(STAGES) + 1]
        assert int(calls) > 0 and int(c_calls) > 0 and python == platform.python_version()
        assert [r[0] for r in split] == list(STAGES)
        assert sum(int(r[1]) for r in split) <= int(calls) and sum(int(r[2]) for r in split) <= int(c_calls)
        assert all(int(r[2]) > 0 for r in split)


def test_call_counts_stay_within_their_budgets(call_runs):
    versions = (platform.python_version(), np.__version__)
    if versions != CALL_BUDGET_VERSIONS:
        pytest.skip(f"call budgets were taken under Python {CALL_BUDGET_VERSIONS[0]} and numpy "
                    f"{CALL_BUDGET_VERSIONS[1]}; this is Python {versions[0]} and numpy {versions[1]}")
    over = []
    for w, calls, c_calls, _ in totals(call_runs[0]):
        for column, count, budget in zip(("calls", "c_calls"), (calls, c_calls), CALL_BUDGET[w]):
            if int(count) > budget:
                over.append(f"{w} {column}: {count} against a budget of {budget}")
    assert not over, "; ".join(over)
