"""The benchmark's workloads, their configs and their correctness gate.

Every workload is one `fedq run` on a config generated here. The seed
given to the benchmark becomes the config's data seed, which picks the
synthetic shards; the training seed stays at its default of 1 for every
benchmark seed. The training stream sets how many iterations the Moreau
prox solve takes: over seeds 1-10 of linear-fullbatch-16c it moves the
solver's gradient evaluations by 9% (quartile distance over median),
the data seed by 0.5%. Holding it fixed keeps the work of a workload
the same from seed to seed. Seed 0 reproduces the config defaults.

At the default seed the SHA-256 of ``metrics.csv`` must equal the pinned
digest; at every seed all runs of one benchmark invocation must agree
byte for byte.

``tiny`` shrinks a workload to a smoke-test size that still takes every
code path of the full one.
"""

import math

DEFAULT_SEED = 0
TRAINING_SEED = 1

WORKLOADS = {
    "linear-minibatch": {
        "why": "The theory path users run (ROADMAP W1): ~93% of the time is under "
               "client.run_local_epochs on tensors of <=128 elements, so per-call "
               "quantizer overhead and the per-round thread pool dominate.",
        "config": {
            "n_clients": 4, "d": 32, "bitwidths": [4, 5, 6, 8], "rounds": 8,
            "batch_size": 64, "model": {"layers": [32, 4]},
            "metrics": {"moreau": True, "representability": True},
        },
        "tiny": {"rounds": 2, "data": {"frequent_count": 200}},
    },
    "linear-fullbatch-16c": {
        "why": "16 clients taking one full-batch step per round, so per-round work "
               "dominates: the Moreau prox solve, server dequantize/FedAvg/requantize "
               "and round bookkeeping.",
        "config": {
            "n_clients": 16, "d": 64, "bitwidths": [4, 5, 6, 8] * 4, "rounds": 24,
            "batch_size": None, "data": {"frequent_count": 64},
            "metrics": {"moreau": True, "representability": True},
        },
        "tiny": {"rounds": 3},
    },
    "relu-actq": {
        "why": "A relu [32,64,4] encoder with quantized activations: tanh codebooks "
               "over 64x64 activation batches make the rounding kernel the largest "
               "layer; the linear-only analysis metrics are idle (NaN).",
        "config": {
            "n_clients": 4, "d": 32, "bitwidths": [4, 5, 6, 8], "rounds": 3,
            "quantize_activations": True,
            "model": {"layers": [32, 64, 4], "activation": "relu"},
        },
        "tiny": {"rounds": 1, "data": {"frequent_count": 200}},
    },
}

# Traced functions a workload never calls: relu-actq computes none of the
# linear-only metrics (loss, Moreau surrogate, representability).
IDLE_ON = {
    "relu-actq": ("analysis.moreau_grad_surrogate", "analysis.prox_solve", "sslcore.loss",
                  "sslcore.grad", "sslcore.representability"),
}

# SHA-256 of metrics.csv at DEFAULT_SEED, full size.
PINNED_SHA256 = {
    "linear-minibatch": "bd9ae1ad8d23c3ada0da1d5690f792057077f778c182278b2563d00b820ec154",
    "linear-fullbatch-16c": "101398f32c6aec37e6b68e1beccbf7e46903b5c04c9f6f40db70209f06756d63",
    "relu-actq": "11c937a1ab9c055b4dd63e57d46ce61eeda33481ff1281976890f583a393c096",
}


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    spec = WORKLOADS[workload]
    cfg = dict(spec["config"])
    if tiny:
        cfg.update(spec["tiny"])
    cfg["seeds"] = {"data": seed, "training": TRAINING_SEED}
    return cfg


def check_metrics_csv(workload: str, cfg: dict, text: str) -> str | None:
    """Shape and value checks of one metrics.csv; returns an error or None.

    Linear workloads must have every value finite. On relu-actq the
    linear-only columns (global_loss, moreau, repr_*, client*_loss) must
    be NaN and the eps_* columns finite.
    """
    lines = text.splitlines()
    if len(lines) != cfg["rounds"] + 2:
        return f"expected {cfg['rounds'] + 1} data rows, got {len(lines) - 1}"
    header = lines[0].split(",")
    linear = len(cfg.get("model", {}).get("layers", [0, 0])) == 2
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            return "row width differs from header"
        for col, raw in zip(header[1:], fields[1:]):
            v = float(raw)
            want_nan = not linear and "_eps_" not in col
            if want_nan and not math.isnan(v):
                return f"column {col} should be NaN, got {raw}"
            if not want_nan and not math.isfinite(v):
                return f"column {col} should be finite, got {raw}"
    return None
