"""Per-client low-bitwidth local training.

One client = one fully-connected encoder whose weights live as
quantized index arrays between steps. Each SGD step dequantizes the
weights, runs the forward/backward pass (optionally quantizing
activations with fresh tanh codebooks and gradients with fresh quantile
codebooks), applies the update in full precision, and immediately
re-quantizes the result with a tanh codebook rebuilt from the updated
tensor. The energies of the gradient- and weight-quantization errors
are recorded per step; they are the raw material of the variance
probes in fedq.analysis.

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
    """Step-size rule; inverse_sqrt decays as base / sqrt(step + 1).

    With ``constant_within_round`` the step index is the communication
    round, so all local epochs of a round share one rate.
    """

    kind: str = "inverse_sqrt"
    base: float = 0.05
    constant_within_round: bool = True

    def __post_init__(self):
        if self.kind not in ("constant", "inverse_sqrt"):
            raise InvalidParams(f"unknown schedule kind {self.kind!r}")
        if self.base <= 0:
            raise InvalidParams("base learning rate must be positive")

    def rate(self, step: int) -> float:
        if self.kind == "constant":
            return self.base
        return self.base / math.sqrt(step + 1.0)


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
        if min(eps_g_sq, eps_w_sq, g_sq) < 0:
            raise InvalidParams("error energies must be nonnegative")
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
    """Everything one client carries across rounds.

    ``model`` holds one tensor per layer: QuantizedTensor at
    ``config.bitwidth`` when weight quantization is on, otherwise a
    plain array. The RNG stream is owned by the client, making training
    deterministic regardless of how clients are scheduled.
    """

    client_id: int
    config: ClientConfig
    model: list
    lr_schedule: LrSchedule
    rng: np.random.Generator
    epoch_counter: int = 0
    round_counter: int = 0

    def __post_init__(self):
        for layer in self.model:
            if isinstance(layer, qk.QuantizedTensor) and layer.codebook.rate != self.config.bitwidth:
                raise InvalidParams(
                    f"layer codebook rate {layer.codebook.rate} != bitwidth {self.config.bitwidth}"
                )

    @property
    def bitwidth(self) -> int:
        return self.config.bitwidth

    @property
    def grad_bitwidth(self) -> int:
        return self.config.grad_bitwidth

    def layer_values(self) -> list[np.ndarray]:
        return [_values(layer) for layer in self.model]


@dataclass
class ForwardState:
    """Intermediate tensors of one forward pass, kept for backprop."""

    batch: np.ndarray
    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    outputs: np.ndarray


def _values(layer) -> np.ndarray:
    if isinstance(layer, qk.QuantizedTensor):
        return qk.dequantize(layer)
    return layer


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


def quantized_forward(
    model: list,
    batch: np.ndarray,
    cfg: ClientConfig,
    rng: np.random.Generator,
) -> ForwardState:
    """Layer-by-layer forward pass on dequantized weights.

    When activation quantization is on, each layer output is passed
    through a fresh tanh codebook (one codebook per layer per step,
    built over the whole batch tensor) and downstream layers see the
    dequantized values.
    """
    a = np.asarray(batch, dtype=np.float64)
    inputs, preacts = [], []
    for layer in model:
        w = _values(layer)
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
    return ForwardState(np.asarray(batch, dtype=np.float64), inputs, preacts, a)


def quantized_backward(
    model: list,
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

    Returns (per-layer gradients, ||eps_g||^2 summed over layers,
    ||g||^2 summed over layers).
    """
    n_layers = len(model)
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
        w = _values(model[l])
        deriv = _activate_deriv(fstate.preacts[l], cfg.activation)
        g_pre = g_act if deriv is None else g_act * deriv
        gw = g_pre.T @ fstate.layer_inputs[l]
        wg = w @ (w.T @ w)
        gw += 2.0 * wg
        grad_sq += float(np.sum(gw * gw))
        if cfg.quantize_gradients:
            grads[l], _, err_sq = qk.fit_and_quantize(gw, gbits, "quantile", rng)
            eps_g_sq += err_sq
        else:
            grads[l] = gw
        if l > 0:
            g_act = g_pre @ w
            if cfg.quantize_gradients:
                _, g_act, _ = qk.fit_and_quantize(g_act, gbits, "quantile", rng)
    return grads, eps_g_sq, grad_sq


def local_update(state: ClientState, grads: list, lr: float) -> float:
    """One SGD step: dequantize, step, re-quantize each layer in place.

    The tanh codebook is rebuilt from the updated tensor every step, so
    the codebook tracks the drifting weight range. Returns the step's
    ||eps_w||^2 (zero when weight quantization is off); the state's
    model and epoch counter are updated.
    """
    if len(grads) != len(state.model):
        raise DimensionMismatch("gradient list does not match model layers")
    eps_w_sq = 0.0
    new_model = []
    for layer, g in zip(state.model, grads):
        u = _values(layer) - lr * _values(g)
        if state.config.quantize_weights:
            q, _, err_sq = qk.fit_and_quantize(u, state.config.bitwidth, "tanh", state.rng)
            eps_w_sq += err_sq
            new_model.append(q)
        else:
            new_model.append(u)
    state.model = new_model
    state.epoch_counter += 1
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
    batch_size: int | None = None,
) -> QuantErrorStats:
    """One communication round of local training: E epochs of SGD.

    Minibatches are drawn by per-epoch permutation from the client's own
    stream; ``batch_size`` None or >= |D_k| means full-batch passes in
    natural order. The learning rate follows the client's schedule
    (constant within the round by default). Returns the round's
    quantization-error statistics and advances the round counter.
    """
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    x = shard.samples
    rows = x.shape[0]
    full = batch_size is None or batch_size >= rows
    stats = QuantErrorStats()
    cfg = state.config
    for _ in range(epochs):
        if cfg.quantize_weights:
            _check_model_rate(state)
        if full:
            batches = [x]
        else:
            order = state.rng.permutation(rows)
            batches = [x[order[i:i + batch_size]] for i in range(0, rows, batch_size)]
        for batch in batches:
            step = state.round_counter if state.lr_schedule.constant_within_round else state.epoch_counter
            lr = state.lr_schedule.rate(step)
            fstate = quantized_forward(state.model, batch, cfg, state.rng)
            upstream = ssl_upstream(fstate.outputs, cfg, state.rng)
            grads, eps_g_sq, g_sq = quantized_backward(
                state.model, fstate, upstream, cfg, state.rng
            )
            eps_w_sq = local_update(state, grads, lr)
            stats.append(eps_g_sq, eps_w_sq, g_sq)
    state.round_counter += 1
    return stats


def _check_model_rate(state: ClientState):
    for layer in state.model:
        if not isinstance(layer, qk.QuantizedTensor):
            raise InvalidParams("quantize_weights is on but a layer is full precision")
        if layer.codebook.rate != state.config.bitwidth:
            raise InvalidParams("layer codebook rate drifted from client bitwidth")
