"""Golden digests: refactors must not change a single output byte.

Rerun tests compare two runs of the same code, so they cannot tell a
refactor that changes numbers from one that does not. These tests pin
the SHA-256 of ``metrics.csv`` for three small runs that take the
linear minibatch, linear full-batch and relu/activation-quantization
paths, and of the ``quantprobe`` CSV. A digest may only change together
with a CHANGES.md entry that declares the new value and why.
"""

import hashlib

import pytest

from fedq.cli import cli_dispatch
from fedq.config import config_from_dict
from fedq.experiment import run_experiment

SEEDS = {"data": 0, "training": 1}

RUNS = {
    "linear-minibatch": {
        "n_clients": 4, "d": 16, "bitwidths": [4, 5, 6, 8], "rounds": 3,
        "batch_size": 32, "data": {"frequent_count": 100},
    },
    "linear-fullbatch": {
        "n_clients": 8, "d": 16, "bitwidths": [4, 5, 6, 8] * 2, "rounds": 3,
        "batch_size": None, "data": {"frequent_count": 40},
    },
    "relu-actq": {
        "n_clients": 4, "d": 32, "bitwidths": [4, 5, 6, 8], "rounds": 2,
        "quantize_activations": True,
        "model": {"layers": [32, 64, 4], "activation": "relu"},
        "data": {"frequent_count": 100},
    },
}

METRICS_SHA256 = {
    "linear-minibatch": "cb9dd345e6594541fbf39d416125f1b917b8a68a3636b94750537e800370fd1d",
    "linear-fullbatch": "1fc5ea5baf53ddce0afc5824d1b0020c1e09351278ea2c6b634a9658eb570db7",
    "relu-actq": "fbd765756d56a721f599f0c7f9f34b85f94202cedc79c376db188f36dc9660a7",
}

QUANTPROBE_SHA256 = "9b669f02dc2b94a6e23c28c70f2b27195bec9d74bd9e1bd174e8657752fce4da"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_csv_digest(name, tmp_path):
    raw = dict(RUNS[name], seeds=SEEDS, output_dir=str(tmp_path / name))
    result = run_experiment(config_from_dict(raw))
    assert _sha256(result.output_dir / "metrics.csv") == METRICS_SHA256[name]


def test_quantprobe_csv_digest(tmp_path):
    out = tmp_path / "probe.csv"
    argv = ["quantprobe", "--rates", "3..7", "--samples", "20000", "--seed", "3",
            "--out", str(out)]
    assert cli_dispatch(argv) == 0
    assert _sha256(out) == QUANTPROBE_SHA256

