"""Low-bitwidth local training, for clients in lockstep.

One client = one fully-connected encoder whose weights live as
quantized index arrays between steps, plus the client's own RNG stream.
Clients differ only in their shards and bitwidths; every other setting,
the local recipe of E epochs on B-row minibatches included, is the
run's one ``ClientConfig``. ``start_clients`` forms the run's cohorts
once, for that batch size: clients whose shards hold the same number of
rows train as one ``Cohort``, where the client is the leading axis of
every weight, minibatch, activation and gradient, and each quantizer
fit is one call over the clients' ragged codebooks. A cohort holds only
what lasts the run: its clients' streams, samples and stored models; a
round's weight values stay local to ``run_local_epochs``. This module
is the only one that reads a cohort's samples.
Each SGD step runs the forward/backward pass on the values of the
quantized weights (quantizing gradients with fresh quantile codebooks,
and optionally activations with fresh tanh codebooks), applies the
update in full precision, and immediately re-quantizes the result with
tanh codebooks rebuilt from the updated tensors; the re-quantization's
values are the next step's weights. Every client draws from its own
stream exactly what it would draw training alone, so a cohort of one
trains the same bytes. The energies of the gradient- and
weight-quantization errors are recorded per step; they are the raw
material of the variance probes in fedq.analysis.

The client keeps no clock. The round decides the step size alpha_t and
hands it to ``run_local_epochs``; all E local epochs use it.

The linear single-layer identity model is the theory path; deeper
encoders reuse the same loop with per-layer Gram regularization, which
reduces to the linear objective at one layer.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quantkit as qk
from .datagen import DataShard
from .errors import DimensionMismatch, InvalidParams, NonFiniteInput, StateMismatch, _is_int, _is_real, _must

ACTIVATIONS = ("identity", "relu")


# A cohort's widest activation batch (clients x minibatch rows x widest
# layer) holds at most this many elements, or the cohort is one client.
# Every temporary of a step grows with the cohort, while the per-call
# overhead that batching saves shrinks as tensors grow. At seed 0
# (tools/step_memory.py: the most one call adds to traced memory, cold)
# linear-fullbatch-16c in cohorts of 4 x 188 x 64 adds 488 KiB in
# quantized_backward and 331 in ssl_upstream, against 295 and 190 in
# cohorts of 2 and 234 and 71 alone; its run peaks at 3190 KiB traced
# against 3029 alone, and 0.24 MiB more RSS. relu-actq in cohorts of
# 4 x 64 x 64 adds 674 KiB in quantized_forward and 949 in
# quantized_backward, against 352 and 541 in cohorts of 2. Any cap in
# [48128, 60159] trains all three benchmark workloads in cohorts of 4.
LOCKSTEP_ELEMENTS = 49152


@dataclass(slots=True)
class QuantErrorStats:
    """Per-step quantization error energies, as one array.

    One entry per local update: total ||eps_g||^2 over layers, total
    ||eps_w||^2, and the squared norm of the unquantized weight
    gradient, stacked along the first axis of ``energies``.
    ``run_local_epochs`` returns a (3, clients, steps) array;
    ``stats[i]`` is client i's (3, steps) slice, a view.
    """

    energies: np.ndarray

    grad_error_sq = property(lambda self: self.energies[0])
    weight_error_sq = property(lambda self: self.energies[1])
    grad_norm_sq = property(lambda self: self.energies[2])

    def __getitem__(self, i: int) -> "QuantErrorStats":
        return QuantErrorStats(self.energies[:, i])

    def __len__(self) -> int:
        """Local steps, summed over the clients."""
        return self.energies[0].size

    def mean_grad_error(self) -> float:
        return float(np.mean(self.grad_error_sq)) if len(self) else 0.0

    def mean_weight_error(self) -> float:
        return float(np.mean(self.weight_error_sq)) if len(self) else 0.0


@dataclass(frozen=True)
class ClientConfig:
    """The training settings that every client of a run shares.

    A client's weights are always quantized at its own bitwidth s_k and
    its gradients at s_k + ``grad_extra_bits``. Activations are
    quantized at s_k only when ``quantize_activations`` is on; it stays
    off for the linear theory path. Each round, every client trains
    ``local_epochs`` epochs on minibatches of ``batch_size`` rows; None,
    or a size of at least the shard's rows, means full-batch steps.
    Each field's type and range are checked here, and only here: counts
    are ints and not bools, ``aug_sigma`` is a finite real, stored as a
    float.
    """

    grad_extra_bits: int = 2
    activation: str = "identity"
    aug_sigma: float = 0.1
    quantize_activations: bool = False
    local_epochs: int = 1
    batch_size: int | None = 64

    def __post_init__(self):
        _must(_is_int(self.grad_extra_bits) and self.grad_extra_bits >= 0, "grad_extra_bits", "an integer >= 0")
        _must(self.activation in ACTIVATIONS, "activation", " or ".join(ACTIVATIONS))
        _must(_is_real(self.aug_sigma) and self.aug_sigma >= 0, "aug_sigma", "a real number >= 0")
        _must(isinstance(self.quantize_activations, bool), "quantize_activations", "boolean")
        _must(_is_int(self.local_epochs) and self.local_epochs >= 1, "local_epochs", "an integer >= 1")
        _must(self.batch_size is None or (_is_int(self.batch_size) and self.batch_size >= 1),
              "batch_size", "None (full batch) or an integer >= 1")
        object.__setattr__(self, "aug_sigma", float(self.aug_sigma))


@dataclass
class Cohort:
    """Clients that train in lockstep, as one batch, for the whole run.

    Row r of every batched tensor (weights, minibatch, activations,
    gradients, codebooks) belongs to client ``ids[r]``, whose bitwidth
    is ``bits[r]``, stream ``rngs[r]`` and (rows, d) sample matrix
    ``samples[r]``; every client holds the same number of rows. A
    full-batch cohort's ``samples`` is one (clients, rows, d) array,
    every step's batch; a minibatch cohort's is a list of its shards'
    own arrays. ``models[r]`` is the client's stored model between
    rounds, one QuantizedTensor per layer in its compact dtype.
    """

    config: ClientConfig
    ids: tuple[int, ...]
    bits: tuple[int, ...]
    rngs: list[np.random.Generator]
    samples: np.ndarray | list[np.ndarray]
    models: list[list[qk.QuantizedTensor]]

    @cached_property
    def grad_bits(self) -> tuple[int, ...]:
        return tuple(b + self.config.grad_extra_bits for b in self.bits)


@dataclass
class ForwardState:
    """Intermediate tensors of one forward pass, kept for backprop: each
    layer's input and, for relu, its mask ``pre > 0`` (None for identity).
    The backward pass drops ``outputs`` and pops both lists as it goes."""

    layer_inputs: list[np.ndarray]
    masks: list[np.ndarray | None]
    outputs: np.ndarray | None


def init_layers(dims: list[int], rng: np.random.Generator, std: float) -> list[np.ndarray]:
    """Full-precision Gaussian layers for the width chain ``dims``."""
    if len(dims) < 2:
        raise InvalidParams("need at least input and output widths")
    return [rng.normal(0.0, std, size=(dims[l + 1], dims[l])) for l in range(len(dims) - 1)]


def quantize_model(
    layers: list[np.ndarray], bits: tuple[int, ...], rngs: list[np.random.Generator]
) -> tuple[list[qk.QuantizedTensor], list[np.ndarray], np.ndarray]:
    """Quantize each batched layer with fresh tanh codebooks, row r at ``bits[r]``.

    Returns the quantized layers, their dequantized values, and each
    row's ||eps||^2 summed over the layers.
    """
    model, values = [], []
    err_sq = np.zeros(len(bits))
    for w in layers:
        q, v = qk.fit_and_quantize(w, bits, "tanh", rngs)
        model.append(q)
        values.append(v)
        err_sq += qk.error_energy(v, w)
    return model, values, err_sq


def split_model(model: list[qk.QuantizedTensor]) -> list[list[qk.QuantizedTensor]]:
    """A batched model as one model per row (client), each layer the
    row's own tensor in its compact dtype."""
    return [list(m) for m in zip(*map(qk.unstack, model))]


def quantize_for_clients(layers: list[np.ndarray], bits: tuple[int, ...],
                         rngs: list[np.random.Generator]) -> tuple[list[list], np.ndarray]:
    """``layers`` quantized for each client r at ``bits[r]``, drawing from
    ``rngs[r]``: each client's model and its ||eps||^2 summed over layers.

    Rows are independent, so chunks of clients give the bytes of one
    batch of all and bound the working set. The one rule: a chunk holds
    about 2 * TANH_GUESS_MIN elements of the smallest layer, in whole
    clients split evenly, so a layer whose whole batch guesses its tanh
    brackets guesses them in every chunk. NonFiniteInput counts its row
    over all clients.
    """
    n = len(bits)
    chunks = -(-n // (2 * -(-qk.TANH_GUESS_MIN // min(w.size for w in layers))))
    cuts = [n * c // chunks for c in range(chunks + 1)]
    models, err_sq = [], np.empty(n)
    for a, b in zip(cuts, cuts[1:]):
        try:
            model, values, err_sq[a:b] = quantize_model(
                [np.broadcast_to(w, (b - a,) + w.shape) for w in layers], bits[a:b], rngs[a:b])
        except NonFiniteInput as e:
            e.row += a
            raise
        del values  # not held through the split: it would add a chunk's values to the working set
        models += split_model(model)
    return models, err_sq


def stack_samples(shards: list[DataShard]) -> np.ndarray:
    """The shards' samples adopted into one (C, rows, d) float64 array, copied
    in one shard at a time: each shard's ``samples`` becomes a view of its
    row, so no moment holds two copies of the data."""
    stack = np.empty((len(shards),) + shards[0].samples.shape)
    for row, shard in zip(stack, shards):
        row[...] = shard.samples
        shard.samples = row
    return stack


def start_clients(config: ClientConfig, init: list[np.ndarray], bits: dict[int, int],
                  rngs: dict[int, np.random.Generator], shards: dict[int, DataShard]) -> list[Cohort]:
    """The run's cohorts before their first round, keyed by client id in
    ``bits``, ``rngs`` and ``shards``: the shared ``init`` is quantized at
    each client's bitwidth from its stream, which then stays its own for
    training. Clients whose shards hold the same number of rows form
    cohorts in ascending id, as many per cohort as LOCKSTEP_ELEMENTS
    allows at ``config.batch_size``, the one batch size they ever train
    at. A minibatch cohort holds its shards' own sample arrays; a
    full-batch cohort adopts them into one stack, and each shard's
    ``samples`` becomes a view of its row, so a second call on the same
    shards leaves the first one's stacks viewed by no shard."""
    ids = sorted(bits)
    models, _ = quantize_for_clients(init, tuple(bits[k] for k in ids), [rngs[k] for k in ids])
    model_of = dict(zip(ids, models))
    by_size: dict[int, list[int]] = {}
    for k in ids:
        by_size.setdefault(shards[k].size, []).append(k)
    widest = max(max(w.shape) for w in init)
    cohorts = []
    for rows, same in by_size.items():
        size = min(config.batch_size or rows, rows)
        n = max(1, LOCKSTEP_ELEMENTS // (size * widest))
        for g in (same[i:i + n] for i in range(0, len(same), n)):
            own = [shards[k] for k in g]
            cohorts.append(Cohort(config, tuple(g), tuple(bits[k] for k in g), [rngs[k] for k in g],
                                  stack_samples(own) if size == rows else [s.samples for s in own],
                                  [model_of[k] for k in g]))
    return cohorts


def quantized_forward(batch: np.ndarray, weights: list[np.ndarray], cohort: Cohort) -> ForwardState:
    """Layer-by-layer forward pass on the step's weight values ``weights``.

    ``batch`` carries the cohort's client axis first, as each batched
    layer of ``weights`` does.
    When activation quantization is on, each layer output is passed
    through a fresh tanh codebook per client (one per layer per step,
    built over the client's whole batch tensor) and downstream layers
    see the dequantized values.
    """
    cfg = cohort.config
    a = np.asarray(batch, dtype=np.float64)
    inputs, masks = [], []
    for w in weights:
        if a.shape[-1] != w.shape[-1]:
            raise DimensionMismatch(
                f"batch width {a.shape[-1]} does not match layer input {w.shape[-1]}"
            )
        inputs.append(a)
        a = a @ w.mT
        masks.append(a > 0.0 if cfg.activation == "relu" else None)
        if masks[-1] is not None:
            np.maximum(a, 0.0, out=a)  # relu, in place
        if cfg.quantize_activations:
            _, a = qk.fit_and_quantize(a, cohort.bits, "tanh", cohort.rngs)
    return ForwardState(inputs, masks, a)


def quantized_backward(fstate: ForwardState, upstream: np.ndarray, weights: list[np.ndarray], cohort: Cohort):
    """Backpropagate and quantize gradients layer by layer.

    ``weights`` are the step's values, as the forward pass saw them.
    ``upstream`` is the loss gradient at the network output. It is
    compressed first; each layer then consumes the quantized activation
    gradient, producing a weight gradient (plus the per-layer Gram
    regularization term 2 W W^T W) and the next activation gradient,
    each put through a fresh quantile codebook per client at the
    client's gradient bitwidth. ``fstate`` is used up: its outputs end None and its lists
    empty, and the raw ``upstream`` is dropped once quantized.

    Returns (per-layer gradient values, ||eps_g||^2 summed over layers,
    ||g||^2 summed over layers), the energies one per client.
    """
    if upstream.shape != fstate.outputs.shape:
        raise StateMismatch(
            f"upstream shape {upstream.shape} does not match forward output {fstate.outputs.shape}"
        )
    fstate.outputs = None
    gbits = cohort.grad_bits
    g_act = qk.fit_and_quantize(upstream, gbits, "quantile", cohort.rngs)[1]
    del upstream
    grads: list = [None] * len(weights)
    eps_g_sq = np.zeros(len(gbits))
    grad_sq = np.zeros(len(gbits))
    for l in range(len(grads) - 1, -1, -1):
        w = weights[l]
        mask = fstate.masks.pop()
        if mask is not None:  # to the pre-activation; a bool multiplies as 1.0 or 0.0
            g_act = g_act * mask
        gw = g_act.mT @ fstate.layer_inputs.pop()
        wg = w @ (w.mT @ w)
        gw += 2.0 * wg
        grad_sq += (gw * gw).reshape(len(gbits), -1).sum(axis=1)
        _, grads[l] = qk.fit_and_quantize(gw, gbits, "quantile", cohort.rngs)
        eps_g_sq += qk.error_energy(grads[l], gw)
        if l > 0:
            g_act = g_act @ w
            _, g_act = qk.fit_and_quantize(g_act, gbits, "quantile", cohort.rngs)
    return grads, eps_g_sq, grad_sq


def local_update(weights: list[np.ndarray], grads: list[np.ndarray], lr: float,
                 cohort: Cohort) -> tuple[list[qk.QuantizedTensor], list[np.ndarray], np.ndarray]:
    """One SGD step on the step's weight values ``weights``, re-quantized.

    The tanh codebooks are rebuilt from the updated tensors every step,
    so they track the drifting weight range. Returns the quantized
    batched model, its values (the next step's weights) and each
    client's ||eps_w||^2.
    """
    return quantize_model([w - lr * g for w, g in zip(weights, grads)], cohort.bits, cohort.rngs)


def ssl_upstream(outputs: np.ndarray, cohort: Cohort) -> np.ndarray:
    """Gradient of the sampled SSL data term at the network output.

    For features z_i the data term is -(1/B) sum_i (z_i + xi_i)^T
    (z_i + xi'_i), giving -(2 z + xi + xi') / B. Noise is drawn fresh
    per sample from each client's stream; the Gram regularizer enters in
    the backward pass.
    """
    sigma = cohort.config.aug_sigma
    b = outputs.shape[1]
    g = 2.0 * outputs
    if sigma > 0.0:
        xi = np.empty((len(g), 2) + g.shape[1:])
        for xi_r, rng in zip(xi, cohort.rngs):
            rng.standard_normal(out=xi_r)  # both draws of the client, in order
        xi *= sigma
        xi += 0.0  # the bits of rng.normal(0.0, sigma), which is 0.0 + sigma * z
        g += xi[:, 0]
        g += xi[:, 1]
    g /= -b  # the bits of -g / b
    return g


def run_local_epochs(cohort: Cohort, lr: float) -> QuantErrorStats:
    """One communication round of local training, for a cohort in lockstep.

    Each client trains the config's E epochs of SGD at step size ``lr``
    on its own samples, starting from its stored model; every client
    takes the same steps and each step runs as one batch over the
    clients. Minibatches of the config's B rows are drawn by per-epoch
    permutation from each client's own stream into a reused buffer; B
    None or >= |D_k| means full-batch passes in natural order, on the
    cohort's stacked ``samples`` in place. Each step's weight values
    and batched model live only here; the trained models become
    ``cohort.models``.
    Returns the round's quantization-error statistics, a (3, clients,
    steps) array.
    """
    if not lr > 0:
        raise InvalidParams(f"step size must be positive, got {lr}")
    cfg = cohort.config
    xs = cohort.samples
    rows = xs[0].shape[0]
    weights = [np.array(layer) for layer in zip(*([qk.dequantize(w) for w in m] for m in cohort.models))]
    size = min(cfg.batch_size or rows, rows)
    per_epoch = -(-rows // size)
    stats = np.empty((3, len(xs), cfg.local_epochs * per_epoch))  # (eps_g_sq, eps_w_sq, g_sq), client, step
    # Minibatch rows are gathered into a reused buffer, one row block per client.
    buffers = ({rows: xs} if size == rows else
               {n: np.empty((len(xs), n, xs[0].shape[1])) for n in {size, rows % size or size}})
    for e in range(cfg.local_epochs):
        orders = None if size == rows else [rng.permutation(rows) for rng in cohort.rngs]
        for step, i in enumerate(range(0, rows, size), start=e * per_epoch):
            batch = buffers[min(size, rows - i)]
            if orders is not None:
                for x, order, block in zip(xs, orders, batch):
                    np.take(x, order[i:i + size], axis=0, out=block)
            fstate = quantized_forward(batch, weights, cohort)
            grads, eps_g_sq, g_sq = quantized_backward(fstate, ssl_upstream(fstate.outputs, cohort), weights, cohort)
            stats[0, :, step] = eps_g_sq
            model, weights, stats[1, :, step] = local_update(weights, grads, lr, cohort)
            stats[2, :, step] = g_sq
    cohort.models = split_model(model)
    return QuantErrorStats(stats)
