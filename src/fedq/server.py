"""Server side of a communication round.

The server maps each client's low-bitwidth indices back to floats
through that client's codebooks (an exact lookup, no learned
transform), forms the data-size-weighted FedAvg mean, and re-quantizes
the aggregate for every client with a tanh codebook at the client's own
bitwidth, through ``client.quantize_model`` as a cohort's weight update
does, in the chunks of clients that ``client.quantize_for_clients``
sizes to bound the working set. The full-precision aggregate is
retained between rounds for metrics; only clients are
bitwidth-constrained.

``ServerState`` takes the shard sizes once and fixes the round's client
layout at construction: the ascending client ids, their bitwidths and
their FedAvg shares |D_k|/|D|, each correctly rounded. A round's uplink
is the client models alone, and ``aggregate`` is the plain sum of the
models weighted by those shares, in ascending client-id order, so
results do not depend on the order in which clients report.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import client as cl
from . import quantkit as qk
from .errors import Diverged, DimensionMismatch, InvalidParams, NonFiniteInput


def dequantize_client_models(models: list[list[qk.QuantizedTensor]]) -> list[list[np.ndarray]]:
    """Codebook lookup per layer per client; ``aggregate`` checks the shapes."""
    return [[qk.dequantize(layer) for layer in model] for model in models]


def aggregate(models: list[list[np.ndarray]], shares: tuple[float, ...]) -> list[np.ndarray]:
    """Per-layer weighted sum: model k scaled by ``shares[k]``, its FedAvg
    share |D_k| / |D| (``ServerState.shares``)."""
    if not models:
        raise InvalidParams("no models to aggregate")
    shapes = [layer.shape for layer in models[0]]
    agg = [np.zeros(s) for s in shapes]
    try:
        for model, share in zip(models, shares, strict=True):
            if [layer.shape for layer in model] != shapes:
                raise DimensionMismatch("model layer shapes disagree")
            for out, layer in zip(agg, model):
                out += share * layer
    except ValueError as e:  # from zip: the two lengths differ
        raise DimensionMismatch(f"{len(models)} models but {len(shares)} shares") from e
    return agg


def requantize_for_client(
    global_model: list[np.ndarray], bits: tuple[int, ...], rngs: list[np.random.Generator]
) -> tuple[list[list[qk.QuantizedTensor]], np.ndarray]:
    """The aggregate quantized for every client (``client.quantize_for_clients``):
    client r's layers get fresh tanh codebooks at ``bits[r]``, drawn from
    ``rngs[r]``. Returns the clients' models and each one's ||eps_r||^2."""
    return cl.quantize_for_clients(global_model, bits, rngs)


def _wrong_ids(what: str, expected: set, got: set, nonpositive: set = frozenset()) -> str:
    """The ids that ``got`` misses or adds to ``expected``, and those of
    ``nonpositive``, one phrase per kind."""
    kinds = (("missing", expected - got), ("unexpected", got - expected), ("non-positive", nonpositive))
    return ", ".join(f"{label} {what} of clients {sorted(bad)}" for label, bad in kinds if bad)


@dataclass
class ServerState:
    """Aggregation state across rounds.

    Construction takes each client's s_k (``client_bitwidths``) and shard
    size |D_k| (``sample_counts``) for the whole run, checks once that
    they name the same ids and that every count is positive, and keeps
    only the round's client layout it derives from them: ``ids``
    ascending, their ``bits`` and their FedAvg ``shares`` |D_k| / |D|,
    each the integer ratio that Python rounds correctly (the float
    nearest the exact ratio).
    ``requant_error`` holds the last completed round's {client_id:
    ||eps_r||^2}. Per-client re-quantization draws come from streams
    derived from (seed, round, client), so rounds are reproducible no
    matter how the surrounding harness schedules work.
    """

    client_bitwidths: InitVar[dict[int, int]]
    sample_counts: InitVar[dict[int, int]]
    seed: int
    global_model: list[np.ndarray] | None = field(default=None, init=False)
    round_counter: int = field(default=0, init=False)
    requant_error: dict[int, float] | None = field(default=None, init=False)
    ids: tuple[int, ...] = field(init=False)
    bits: tuple[int, ...] = field(init=False)
    shares: tuple[float, ...] = field(init=False)

    def __post_init__(self, client_bitwidths: dict[int, int], counts: dict[int, int]):
        nonpositive = {k for k in counts if counts[k] <= 0}
        if nonpositive or set(counts) != set(client_bitwidths):
            raise InvalidParams("the server needs one positive sample count per client and no other; "
                                + _wrong_ids("sample counts", set(client_bitwidths), set(counts), nonpositive))
        self.ids = tuple(sorted(counts))
        self.bits = tuple([client_bitwidths[k] for k in self.ids])
        total = sum(counts.values())
        self.shares = tuple([counts[k] / total for k in self.ids])

    def _round_rng(self, client_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.round_counter, client_id)))

    def run_round(self, client_models: dict[int, list[qk.QuantizedTensor]]) -> dict[int, list[qk.QuantizedTensor]]:
        """Dequantize, aggregate by the run's shares, and re-quantize for
        every client.

        Full participation is assumed: every registered client and no
        other must report a model, otherwise InvalidParams names the
        missing and unexpected ids. The aggregate is kept in
        ``global_model`` at full precision. A non-finite aggregate raises
        Diverged naming the (1-based) round and the client.
        """
        ids = self.ids
        if set(client_models) != set(ids):
            raise InvalidParams("round requires all clients and no others; "
                                + _wrong_ids("models", set(ids), set(client_models)))
        self.global_model = aggregate(dequantize_client_models([client_models[k] for k in ids]), self.shares)
        try:
            models, eps_r_sq = requantize_for_client(self.global_model, self.bits, [self._round_rng(k) for k in ids])
        except NonFiniteInput as e:
            raise Diverged(self.round_counter + 1, ids[e.row], "server requantize") from e
        self.requant_error = dict(zip(ids, eps_r_sq.tolist()))
        self.round_counter += 1
        return dict(zip(ids, models))
