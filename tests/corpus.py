"""The whole-run corpus: configs whose ``metrics.csv`` bytes
``tests/corpus.json`` pins, per file and per column.

The configs are the three goldens of ``test_golden.py``; the three
benchmark workloads at full size and seed 0, as ``perfbench/workloads.py``
builds them (the file is only read); 40 small configs drawn with
``random.Random(2026)``; and three configs of 8-16 clients at d = 64 that
train in more than one cohort and quantize for the clients in more than
one chunk. Every config runs in well under a second, so the whole corpus
reruns in one process within a tier-1 test.

    PYTHONPATH=src python3 tests/corpus.py

writes ``tests/corpus.json`` from the tree on the path. Only a change
that declares every moved digest rewrites it.
"""

import hashlib
import importlib.util
import json
import random
import tempfile
from pathlib import Path

from fedq.config import config_from_dict
from fedq.experiment import run_experiment

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("corpus.json")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drawn(rng: random.Random) -> dict:
    """One small config: 1-4 clients, d 4-12, bitwidths 1-10, 1-3 rounds,
    1-2 epochs, batch 8, 32 or full, aug_sigma 0 or 0.1, either lr kind,
    20-120 frequent samples and drawn seeds; two in five train a
    [d, 5, n] model, identity or relu, and three in ten of those quantize
    activations."""
    n, d = rng.randint(1, 4), rng.randint(4, 12)
    raw = {
        "n_clients": n, "d": d, "bitwidths": [rng.randint(1, 10) for _ in range(n)],
        "rounds": rng.randint(1, 3), "local_epochs": rng.randint(1, 2),
        "batch_size": rng.choice([8, 32, None]), "aug_sigma": rng.choice([0.0, 0.1]),
        "lr": {"kind": rng.choice(["constant", "inverse_sqrt"])},
        "data": {"frequent_count": rng.randint(20, 120)},
        "seeds": {"data": rng.randrange(2**16), "training": rng.randrange(2**16)},
    }
    if rng.random() < 0.4:
        raw["model"] = {"layers": [d, 5, n], "activation": rng.choice(["identity", "relu"])}
        raw["quantize_activations"] = rng.random() < 0.3
    return raw


# Cohorts hold at most client.LOCKSTEP_ELEMENTS // (batch rows x widest
# layer) clients, and quantize_for_clients takes CHUNK_ELEMENTS // (smallest
# layer) per chunk: 4 per cohort full-batch at d = 64, 12 at batch 64, and
# 4 per chunk at a 16 x 64 layer.
SPLIT = {
    "split-16c-minibatch": {
        "n_clients": 16, "d": 64, "bitwidths": [1, 2, 4, 8] * 4, "rounds": 2, "batch_size": 64,
        "model": {"layers": [64, 16]}, "data": {"frequent_count": 64},
    },
    "split-8c-fullbatch": {
        "n_clients": 8, "d": 64, "bitwidths": [3, 5, 6, 10] * 2, "rounds": 2, "batch_size": None,
        "aug_sigma": 0.0, "model": {"layers": [64, 16]}, "data": {"frequent_count": 64},
    },
    "split-12c-relu-actq": {
        "n_clients": 12, "d": 64, "bitwidths": [2, 4, 6] * 4, "rounds": 1, "batch_size": None,
        "quantize_activations": True, "model": {"layers": [64, 32, 16], "activation": "relu"},
        "data": {"frequent_count": 64},
    },
}


def configs() -> dict[str, dict]:
    """Every corpus config by name, as ``config_from_dict`` takes it, with no ``output_dir``."""
    from test_golden import RUNS, SEEDS

    out = {f"golden-{name}": dict(raw, seeds=SEEDS) for name, raw in RUNS.items()}
    workloads = _workloads()
    out.update({f"workload-{name}": workloads.make_config(name, workloads.DEFAULT_SEED)
                for name in workloads.WORKLOADS})
    rng = random.Random(2026)
    out.update({f"drawn-{i:02d}": drawn(rng) for i in range(40)})
    out.update(SPLIT)
    return out


def digests(text: str) -> dict:
    """The SHA-256 of a ``metrics.csv`` text, and a 16-hex digest of each
    column's text (its values, one a line), keyed by the column's name."""
    header, *rows = (line.split(",") for line in text.splitlines())
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "columns": {name: hashlib.sha256("\n".join(col).encode()).hexdigest()[:16]
                        for name, col in zip(header, zip(*rows))}}


def run_all() -> dict[str, dict]:
    """``digests`` of every config's ``metrics.csv``, run in this process."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in configs().items():
            result = run_experiment(config_from_dict(dict(raw, output_dir=str(Path(tmp) / name))))
            out[name] = digests((result.output_dir / "metrics.csv").read_text())
    return out


if __name__ == "__main__":
    PINS.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
