"""perfbench/tracer.py looks every wrapped name up with ``vars(owner)[attr]``,
so a refactor that stops importing, say, ``aggregate`` into ``experiment``
breaks the traced benchmark. This catches it without running a workload."""

from pathlib import Path


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore() is True
