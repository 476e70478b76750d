"""perfbench/tracer.py looks every wrapped name up with ``vars(owner)[attr]``,
so a refactor that stops importing, say, ``aggregate`` into ``experiment``
breaks the traced benchmark. These tests catch that, and a fit path that
stops going through a wrapped function, at tiny workload sizes."""

import importlib.util
import json
from pathlib import Path

import pytest

from fedq import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import perfbench/<name>.py by path, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_tracer_installs_and_restores():
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        assert t.restore() is True


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_hook_is_called(workload, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(workloads.make_config(workload, 7, tiny=True)))
    t = tracer.Tracer()
    try:
        t.install()
        code = cli.cli_dispatch(["run", "--config", str(cfg), "--out", str(tmp_path / "run")])
    finally:
        assert t.restore() is True
    assert code == 0
    called = {s[2] for s in t.spans}
    idle = workloads.IDLE_ON.get(workload, ())
    assert [n for n in t.names if n not in called and n not in idle] == []
    # _kernel_bytes reads the kernel's first three arguments on every call.
    assert tracer.summarize(t.spans)["kernels.bytes_computed"] > 0
