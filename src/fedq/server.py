"""Server side of a communication round.

The server maps each client's low-bitwidth indices back to floats
through that client's codebooks (an exact lookup, no learned
transform), forms the data-size-weighted FedAvg mean, and re-quantizes
the aggregate per client with a tanh codebook at the client's own
bitwidth. The full-precision aggregate is retained between rounds for
metrics; only clients are bitwidth-constrained.

Aggregation weights are the correctly rounded |D_k|/|D|, and summation
runs in ascending client-id order, so results do not depend on the
order in which clients report.
"""

from dataclasses import dataclass, field

import numpy as np

from . import quantkit as qk
from .errors import (
    Diverged, EmptyInput, InvalidParams, MissingClient, NonFiniteInput, ShapeMismatch,
)


def dequantize_client_models(models: list[list[qk.QuantizedTensor]]) -> list[list[np.ndarray]]:
    """Codebook lookup per layer per client; checks layer shapes agree."""
    if not models:
        raise EmptyInput("no client models")
    shapes = [layer.shape for layer in models[0]]
    out = []
    for model in models:
        if [layer.shape for layer in model] != shapes:
            raise ShapeMismatch("client models have inconsistent layer shapes")
        out.append([qk.dequantize(layer) for layer in model])
    return out


def aggregate(models: list[list[np.ndarray]], sample_counts: list[int]) -> list[np.ndarray]:
    """Per-layer weighted mean with weights |D_k| / |D|.

    Each weight is the integer quotient c / total, which Python rounds
    correctly (the float nearest the exact ratio).
    """
    if not models:
        raise EmptyInput("no models to aggregate")
    if len(models) != len(sample_counts):
        raise InvalidParams("one sample count per model required")
    if any(c <= 0 for c in sample_counts):
        raise InvalidParams("sample counts must be positive")
    total = sum(sample_counts)
    shapes = [layer.shape for layer in models[0]]
    agg = [np.zeros(s) for s in shapes]
    for model, c in zip(models, sample_counts):
        if [layer.shape for layer in model] != shapes:
            raise ShapeMismatch("model layer shapes disagree")
        w = c / total
        for out, layer in zip(agg, model):
            out += w * layer
    return agg


def requantize_for_client(
    global_model: list[np.ndarray],
    bits: int,
    rng: np.random.Generator,
) -> tuple[list[qk.QuantizedTensor], float]:
    """Quantize the aggregate at a client's bitwidth (fresh tanh codebooks).

    Returns the quantized model and the re-quantization error energy
    ||eps_r||^2 summed over layers.
    """
    out = []
    eps_r_sq = 0.0
    for layer in global_model:
        q, _, err_sq = qk.fit_and_quantize(layer, bits, "tanh", rng)
        eps_r_sq += err_sq
        out.append(q)
    return out, eps_r_sq


@dataclass
class ServerState:
    """Aggregation state across rounds.

    ``requant_error_log`` holds one {client_id: ||eps_r||^2} dict per
    completed round. Per-client re-quantization draws come from streams
    derived from (seed, round, client), so rounds are reproducible no
    matter how the surrounding harness schedules work.
    """

    client_bitwidths: dict[int, int]
    seed: int
    global_model: list[np.ndarray] | None = None
    round_counter: int = 0
    requant_error_log: list[dict[int, float]] = field(default_factory=list)

    def _round_rng(self, client_id: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.round_counter, client_id))
        )

    def run_round(
        self,
        client_models: dict[int, list[qk.QuantizedTensor]],
        sample_counts: dict[int, int],
    ) -> dict[int, list[qk.QuantizedTensor]]:
        """Dequantize, aggregate, and re-quantize for every client.

        Full participation is assumed: every registered client must
        report, otherwise MissingClient is raised. The aggregate is kept
        in ``global_model`` at full precision. A non-finite aggregate
        raises Diverged naming the (1-based) round and the client.
        """
        expected = sorted(self.client_bitwidths)
        got = sorted(client_models)
        if got != expected or sorted(sample_counts) != expected:
            missing = sorted(set(expected) - set(client_models))
            raise MissingClient(f"round requires all clients; missing {missing or got}")
        ordered = [client_models[k] for k in expected]
        dequantized = dequantize_client_models(ordered)
        self.global_model = aggregate(dequantized, [sample_counts[k] for k in expected])
        out = {}
        errors = {}
        for k in expected:
            try:
                model, eps_r_sq = requantize_for_client(
                    self.global_model, self.client_bitwidths[k], self._round_rng(k)
                )
            except NonFiniteInput as e:
                raise Diverged(self.round_counter + 1, k, "server requantize") from e
            out[k] = model
            errors[k] = eps_r_sq
        self.requant_error_log.append(errors)
        self.round_counter += 1
        return out
