"""Per-client low-bitwidth local training.

One client = one fully-connected encoder whose weights live as
quantized index arrays between steps, plus the client's own RNG stream.
Each SGD step dequantizes the weights once, runs the forward/backward
pass on those values (optionally quantizing activations with fresh tanh
codebooks and gradients with fresh quantile codebooks), applies the
update in full precision, and immediately re-quantizes the result with
a tanh codebook rebuilt from the updated tensor. The energies of the
gradient- and weight-quantization errors are recorded per step; they
are the raw material of the variance probes in fedq.analysis.

The client keeps no clock. The round decides the step size alpha_t and
hands it to ``run_local_epochs``; all E local epochs use it.

The linear single-layer identity model is the theory path; deeper
encoders reuse the same loop with per-layer Gram regularization, which
reduces to the linear objective at one layer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantkit as qk
from .datagen import DataShard
from .errors import DimensionMismatch, InvalidParams, StateMismatch

ACTIVATIONS = ("identity", "relu")


@dataclass(frozen=True)
class LrSchedule:
    """Per-round step size: ``rate(t - 1)`` is alpha_t of round t.

    inverse_sqrt decays as base / sqrt(t); constant keeps base. Every
    local step of every client in round t uses alpha_t.
    """

    kind: str = "inverse_sqrt"
    base: float = 0.05

    def __post_init__(self):
        if self.kind not in ("constant", "inverse_sqrt"):
            raise InvalidParams(f"unknown schedule kind {self.kind!r}")
        if self.base <= 0:
            raise InvalidParams("base learning rate must be positive")

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.base
        return self.base / math.sqrt(t + 1.0)


@dataclass
class QuantErrorStats:
    """Per-step quantization error energies.

    One entry per local update: total ||eps_g||^2 over layers, total
    ||eps_w||^2, and the squared norm of the unquantized weight
    gradient.
    """

    grad_error_sq: list[float] = field(default_factory=list)
    weight_error_sq: list[float] = field(default_factory=list)
    grad_norm_sq: list[float] = field(default_factory=list)

    def append(self, eps_g_sq: float, eps_w_sq: float, g_sq: float):
        self.grad_error_sq.append(eps_g_sq)
        self.weight_error_sq.append(eps_w_sq)
        self.grad_norm_sq.append(g_sq)

    def extend(self, other: "QuantErrorStats"):
        self.grad_error_sq.extend(other.grad_error_sq)
        self.weight_error_sq.extend(other.weight_error_sq)
        self.grad_norm_sq.extend(other.grad_norm_sq)

    def __len__(self) -> int:
        return len(self.grad_error_sq)

    def mean_grad_error(self) -> float:
        return float(np.mean(self.grad_error_sq)) if self.grad_error_sq else 0.0

    def mean_weight_error(self) -> float:
        return float(np.mean(self.weight_error_sq)) if self.weight_error_sq else 0.0

    def max_grad_norm(self) -> float:
        return math.sqrt(max(self.grad_norm_sq)) if self.grad_norm_sq else 0.0


@dataclass(frozen=True)
class ClientConfig:
    """Bitwidths and toggles for one client's training loop.

    Weights and activations share ``bitwidth``; gradients get
    ``bitwidth + grad_extra_bits``. The quantize_* switches exist for
    oracle comparisons; production runs keep them on (activation
    quantization stays off for the linear theory path).
    """

    bitwidth: int
    grad_extra_bits: int = 2
    activation: str = "identity"
    aug_sigma: float = 0.1
    quantize_weights: bool = True
    quantize_gradients: bool = True
    quantize_activations: bool = False

    def __post_init__(self):
        if self.bitwidth < 1:
            raise InvalidParams("bitwidth must be >= 1")
        if self.grad_extra_bits < 0:
            raise InvalidParams("grad_extra_bits must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise InvalidParams(f"unknown activation {self.activation!r}")

    @property
    def grad_bitwidth(self) -> int:
        return self.bitwidth + self.grad_extra_bits


@dataclass
class ClientState:
    """A client: its model and its own RNG stream, carried across rounds.

    ``model`` holds one tensor per layer: QuantizedTensor at
    ``config.bitwidth`` when weight quantization is on (as
    ``start_client``, ``local_update`` and the server produce it),
    otherwise a plain array. The RNG stream is owned by the client,
    making training deterministic regardless of how clients are
    scheduled.
    """

    config: ClientConfig
    model: list
    rng: np.random.Generator

    def layer_values(self) -> list[np.ndarray]:
        """The model's weights as arrays: each quantized layer decoded once."""
        return [qk.dequantize(w) if isinstance(w, qk.QuantizedTensor) else w for w in self.model]


@dataclass
class ForwardState:
    """Intermediate tensors of one forward pass, kept for backprop."""

    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    outputs: np.ndarray


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    return pre


def _activate_deriv(pre: np.ndarray, kind: str) -> np.ndarray | None:
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    return None


def init_layers(dims: list[int], rng: np.random.Generator, std: float) -> list[np.ndarray]:
    """Full-precision Gaussian layers for the width chain ``dims``."""
    if len(dims) < 2:
        raise InvalidParams("need at least input and output widths")
    return [rng.normal(0.0, std, size=(dims[l + 1], dims[l])) for l in range(len(dims) - 1)]


def quantize_model(layers: list[np.ndarray], bits: int, rng: np.random.Generator) -> list[qk.QuantizedTensor]:
    """Quantize each layer with a fresh tanh codebook at ``bits``."""
    return [qk.fit_and_quantize(w, bits, "tanh", rng)[0] for w in layers]


def start_client(config: ClientConfig, init: list[np.ndarray], rng: np.random.Generator) -> ClientState:
    """A client before its first round: ``init`` quantized at its bitwidth.

    The codebooks draw from ``rng``, which then stays the client's own
    stream for training.
    """
    return ClientState(config, quantize_model(init, config.bitwidth, rng), rng)


def quantized_forward(
    weights: list[np.ndarray],
    batch: np.ndarray,
    cfg: ClientConfig,
    rng: np.random.Generator,
) -> ForwardState:
    """Layer-by-layer forward pass on the step's dequantized weights.

    When activation quantization is on, each layer output is passed
    through a fresh tanh codebook (one codebook per layer per step,
    built over the whole batch tensor) and downstream layers see the
    dequantized values.
    """
    a = np.asarray(batch, dtype=np.float64)
    inputs, preacts = [], []
    for w in weights:
        if a.shape[1] != w.shape[1]:
            raise DimensionMismatch(
                f"batch width {a.shape[1]} does not match layer input {w.shape[1]}"
            )
        inputs.append(a)
        pre = a @ w.T
        preacts.append(pre)
        a = _activate(pre, cfg.activation)
        if cfg.quantize_activations:
            _, a, _ = qk.fit_and_quantize(a, cfg.bitwidth, "tanh", rng)
    return ForwardState(inputs, preacts, a)


def quantized_backward(
    weights: list[np.ndarray],
    fstate: ForwardState,
    upstream: np.ndarray,
    cfg: ClientConfig,
    rng: np.random.Generator,
):
    """Backpropagate and quantize gradients layer by layer.

    ``upstream`` is the loss gradient at the network output. It is
    compressed first; each layer then consumes the quantized activation
    gradient, producing a weight gradient (plus the per-layer Gram
    regularization term 2 W W^T W) and the next activation gradient,
    each put through a fresh quantile codebook at the gradient
    bitwidth.

    Returns (per-layer gradient values, ||eps_g||^2 summed over layers,
    ||g||^2 summed over layers).
    """
    n_layers = len(weights)
    if upstream.shape != fstate.outputs.shape:
        raise StateMismatch(
            f"upstream shape {upstream.shape} does not match forward output {fstate.outputs.shape}"
        )
    gbits = cfg.grad_bitwidth
    g_act = upstream
    if cfg.quantize_gradients:
        _, g_act, _ = qk.fit_and_quantize(g_act, gbits, "quantile", rng)
    grads: list = [None] * n_layers
    eps_g_sq = 0.0
    grad_sq = 0.0
    for l in range(n_layers - 1, -1, -1):
        w = weights[l]
        deriv = _activate_deriv(fstate.preacts[l], cfg.activation)
        g_pre = g_act if deriv is None else g_act * deriv
        gw = g_pre.T @ fstate.layer_inputs[l]
        wg = w @ (w.T @ w)
        gw += 2.0 * wg
        grad_sq += float(np.sum(gw * gw))
        if cfg.quantize_gradients:
            _, grads[l], err_sq = qk.fit_and_quantize(gw, gbits, "quantile", rng)
            eps_g_sq += err_sq
        else:
            grads[l] = gw
        if l > 0:
            g_act = g_pre @ w
            if cfg.quantize_gradients:
                _, g_act, _ = qk.fit_and_quantize(g_act, gbits, "quantile", rng)
    return grads, eps_g_sq, grad_sq


def local_update(state: ClientState, weights: list[np.ndarray], grads: list[np.ndarray], lr: float) -> float:
    """One SGD step on the step's weight values, re-quantized into ``state.model``.

    The tanh codebook is rebuilt from the updated tensor every step, so
    the codebook tracks the drifting weight range. Returns the step's
    ||eps_w||^2 (zero when weight quantization is off).
    """
    eps_w_sq = 0.0
    new_model = []
    for w, g in zip(weights, grads):
        u = w - lr * g
        if state.config.quantize_weights:
            q, _, err_sq = qk.fit_and_quantize(u, state.config.bitwidth, "tanh", state.rng)
            eps_w_sq += err_sq
            new_model.append(q)
        else:
            new_model.append(u)
    state.model = new_model
    return eps_w_sq


def ssl_upstream(outputs: np.ndarray, cfg: ClientConfig, rng: np.random.Generator) -> np.ndarray:
    """Gradient of the sampled SSL data term at the network output.

    For features z_i the data term is -(1/B) sum_i (z_i + xi_i)^T
    (z_i + xi'_i), giving -(2 z + xi + xi') / B. Noise is drawn fresh
    per sample; the Gram regularizer enters in the backward pass.
    """
    b = outputs.shape[0]
    g = 2.0 * outputs
    if cfg.aug_sigma > 0.0:
        g = g + rng.normal(0.0, cfg.aug_sigma, size=outputs.shape)
        g = g + rng.normal(0.0, cfg.aug_sigma, size=outputs.shape)
    return -g / b


def run_local_epochs(
    state: ClientState,
    shard: DataShard,
    epochs: int,
    batch_size: int | None,
    lr: float,
) -> QuantErrorStats:
    """One communication round of local training: E epochs of SGD at step size ``lr``.

    Minibatches are drawn by per-epoch permutation from the client's own
    stream; ``batch_size`` None or >= |D_k| means full-batch passes in
    natural order. Returns the round's quantization-error statistics.
    """
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    if not lr > 0:
        raise InvalidParams(f"step size must be positive, got {lr}")
    x = shard.samples
    rows = x.shape[0]
    full = batch_size is None or batch_size >= rows
    stats = QuantErrorStats()
    cfg = state.config
    for _ in range(epochs):
        if full:
            batches = [x]
        else:
            order = state.rng.permutation(rows)
            batches = [x[order[i:i + batch_size]] for i in range(0, rows, batch_size)]
        for batch in batches:
            weights = state.layer_values()
            fstate = quantized_forward(weights, batch, cfg, state.rng)
            upstream = ssl_upstream(fstate.outputs, cfg, state.rng)
            grads, eps_g_sq, g_sq = quantized_backward(weights, fstate, upstream, cfg, state.rng)
            eps_w_sq = local_update(state, weights, grads, lr)
            stats.append(eps_g_sq, eps_w_sq, g_sq)
    return stats
