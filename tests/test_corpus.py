"""Every corpus config (``tests/corpus.py``) writes the ``metrics.csv``
bytes that ``tests/corpus.json`` pins. A whole run sees faults that the
unit tests miss, such as a draw spent where none was due: it shifts
every later draw of that client's stream. A mismatch names each config
and the columns that moved."""

import json

from corpus import PINS, run_all


def test_corpus_runs_reproduce_their_pinned_bytes():
    pinned = json.loads(PINS.read_text())
    runs = run_all()
    assert sorted(runs) == sorted(pinned), "every config is pinned, and every pin is a config"
    moved = []
    for name, got in runs.items():
        if got["sha256"] != pinned[name]["sha256"]:
            want = pinned[name]["columns"]
            cols = sorted(c for c in want.keys() | got["columns"].keys() if want.get(c) != got["columns"].get(c))
            moved.append(f"{name}: {', '.join(cols) or 'no column (the layout)'}")
    assert not moved, "metrics.csv moved in " + "; ".join(moved)
