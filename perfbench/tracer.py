"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``fedq`` modules from outside
the package. Each wrapper is installed under the name its caller looks
up (for example ``experiment.aggregate`` as well as ``server.aggregate``,
because ``experiment`` imports it by name), records one span per call,
and is removed again by ``restore``.

A span is ``(id, parent, name, start, end, thread, round, attrs)``. The
parent is the innermost open span on the same thread; calls on pool
threads, which have no open span of their own, get the innermost open
span of the thread that created the tracer. ``round`` is 0 during
set-up and t while round t runs. ``attrs`` holds the counts taken at
the same boundary (elements, bytes, steps).
"""

import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._round = 0
        self._round_open = False
        self._round_lock = threading.Lock()
        self._patches = []
        self.names = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_round(self):
        with self._round_lock:
            if not self._round_open:
                self._round += 1
                self._round_open = True

    def _close_round(self):
        with self._round_lock:
            self._round_open = False

    def wrap(self, owner, attr, name, count=None, enter=None, leave=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or a class; the attribute must be defined
        on it directly, so a wrapper bound to a name nobody defines
        fails here. ``count(args, result)`` returns the span's attrs.
        """
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            if enter is not None:
                enter()
            rnd = tracer._round
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if leave is not None:
                leave()
            attrs = count(args, result) if count is not None else None
            tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident(), rnd, attrs))
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))
        self.names.append(name)

    def install(self):
        """Wrap every traced function of the fedq modules."""
        import fedq._kernels as kernels
        from fedq import analysis, cli, client, datagen, experiment, quantkit, server, sslcore

        w = self.wrap
        w(cli, "cli_dispatch", "cli.cli_dispatch")
        w(cli, "load_config", "config.load_config")
        w(cli, "run_experiment", "experiment.run_experiment")
        w(experiment, "generate_all_shards", "datagen.generate_all_shards",
          count=lambda a, r: {"rows": sum(s.size for s in r)})
        w(datagen, "empirical_covariance", "datagen.empirical_covariance")
        w(experiment, "aggregate", "server.aggregate")
        w(experiment, "moreau_grad_surrogate", "analysis.moreau_grad_surrogate")
        w(analysis, "prox_solve", "analysis.prox_solve")
        w(analysis.TheoryParams, "from_covariance", "analysis.TheoryParams.from_covariance")
        for fn in ("loss", "grad", "representability", "spectral_norm"):
            w(sslcore, fn, f"sslcore.{fn}")
        w(client, "run_local_epochs", "client.run_local_epochs",
          count=lambda a, r: {"steps": len(r)}, enter=self._enter_round)
        for fn in ("init_layers", "quantize_model", "quantized_forward", "ssl_upstream",
                   "quantized_backward", "local_update"):
            w(client, fn, f"client.{fn}")
        w(server.ServerState, "run_round", "server.run_round",
          count=_link_bytes, leave=self._close_round)
        for fn in ("dequantize_client_models", "aggregate", "requantize_for_client"):
            w(server, fn, f"server.{fn}")
        for fn in ("build_tanh_codebook", "build_quantile_codebook"):
            w(quantkit, fn, f"quantkit.{fn}",
              count=lambda a, r: {"degenerate": int(r.is_degenerate)})
        w(quantkit, "stochastic_quantize", "quantkit.stochastic_quantize",
          count=lambda a, r: {"elements": int(r.indices.size)})
        w(quantkit, "dequantize", "quantkit.dequantize")
        w(kernels, "stochastic_round", "kernels.stochastic_round", count=_kernel_bytes)

    def restore(self) -> bool:
        """Put every original back; True when all are identical again."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        ok = all(vars(owner)[attr] is raw for owner, attr, raw in self._patches)
        self._patches.clear()
        return ok


def _model_bytes(model) -> int:
    return sum(int(t.indices.nbytes + t.codebook.centers.nbytes) for t in model)


def _link_bytes(args, result) -> dict:
    client_models = args[1]
    return {
        "uplink_bytes": sum(_model_bytes(m) for m in client_models.values()),
        "downlink_bytes": sum(_model_bytes(m) for m in result.values()),
    }


def _kernel_bytes(args, result) -> dict:
    values, centers, uniforms = args[:3]
    n = int(result.shape[0])
    return {"elements": n, "bytes": int(values.nbytes + centers.nbytes + uniforms.nbytes + result.nbytes)}


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    return {
        s[0]: (s[4] - s[3]) - _union_length(children.get(s[0], ()), s[3], s[4])
        for s in spans
    }


LAYERS = ("experiment", "client", "quantkit", "kernels", "server", "analysis", "sslcore", "datagen")


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def dur(name):
        return sum((s[4] - s[3] for s in by_name[name]), 0.0)

    def calls(name):
        return len(by_name[name])

    def attr(name, key):
        return sum(s[7][key] for s in by_name[name])

    root = by_name["cli.cli_dispatch"][0]
    epochs = by_name["client.run_local_epochs"]
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[2].split(".", 1)[0]] += own[s[0]]

    per_round = defaultdict(list)
    for s in epochs:
        per_round[s[6]].append(s)
    client_phase = sum(max(s[4] for s in g) - min(s[3] for s in g) for g in per_round.values())
    workers = max((len({s[5] for s in g}) for g in per_round.values()), default=0)

    def under_prox(s):
        p = s[1]
        while p in by_id:
            if by_id[p][2] == "analysis.prox_solve":
                return True
            p = by_id[p][1]
        return False

    quant_names = [n for n in by_name if n.startswith("quantkit.")]
    quant_calls = sum(calls(n) for n in quant_names)
    codebooks = calls("quantkit.build_tanh_codebook") + calls("quantkit.build_quantile_codebook")
    degenerate = attr("quantkit.build_tanh_codebook", "degenerate") + attr(
        "quantkit.build_quantile_codebook", "degenerate")
    k_elems = attr("kernels.stochastic_round", "elements")
    m = {
        "run_s": root[4] - root[3],
        "setup_s": min(s[3] for s in epochs) - root[3],
        "client.busy_s": dur("client.run_local_epochs"),
        "client.steps": attr("client.run_local_epochs", "steps"),
        "client.forward_s": dur("client.quantized_forward"),
        "client.upstream_s": dur("client.ssl_upstream"),
        "client.backward_s": dur("client.quantized_backward"),
        "client.update_s": dur("client.local_update"),
        "quantkit.quantize_calls": calls("quantkit.stochastic_quantize"),
        "quantkit.quantize_s": dur("quantkit.stochastic_quantize"),
        "quantkit.us_per_call": 1e6 * sum(dur(n) for n in quant_names) / max(quant_calls, 1),
        "quantkit.tanh_codebooks": calls("quantkit.build_tanh_codebook"),
        "quantkit.tanh_codebook_s": dur("quantkit.build_tanh_codebook"),
        "quantkit.quantile_codebooks": calls("quantkit.build_quantile_codebook"),
        "quantkit.quantile_codebook_s": dur("quantkit.build_quantile_codebook"),
        "quantkit.dequantize_calls": calls("quantkit.dequantize"),
        "quantkit.dequantize_s": dur("quantkit.dequantize"),
        "quantkit.elements": attr("quantkit.stochastic_quantize", "elements"),
        "quantkit.degenerate_share": degenerate / codebooks if codebooks else 0.0,
        "kernels.round_calls": calls("kernels.stochastic_round"),
        "kernels.round_s": dur("kernels.stochastic_round"),
        "kernels.elements": k_elems,
        "kernels.ns_per_element": 1e9 * dur("kernels.stochastic_round") / max(k_elems, 1),
        "kernels.bytes_computed": attr("kernels.stochastic_round", "bytes"),
        "server.round_s": dur("server.run_round"),
        "server.dequantize_s": dur("server.dequantize_client_models"),
        "server.aggregate_s": dur("server.aggregate"),
        "server.requantize_s": dur("server.requantize_for_client"),
        "server.uplink_bytes": attr("server.run_round", "uplink_bytes"),
        "server.downlink_bytes": attr("server.run_round", "downlink_bytes"),
        "analysis.moreau_calls": calls("analysis.moreau_grad_surrogate"),
        "analysis.moreau_s": dur("analysis.moreau_grad_surrogate"),
        "analysis.prox_grad_evals": sum(1 for s in by_name["sslcore.grad"] if under_prox(s)),
        "sslcore.loss_calls": calls("sslcore.loss"),
        "sslcore.loss_s": dur("sslcore.loss"),
        "sslcore.grad_s": dur("sslcore.grad"),
        "sslcore.representability_s": dur("sslcore.representability"),
        "sslcore.spectral_norm_s": dur("sslcore.spectral_norm"),
        "datagen.generate_s": dur("datagen.generate_all_shards"),
        "datagen.covariance_s": dur("datagen.empirical_covariance"),
        "datagen.rows": attr("datagen.generate_all_shards", "rows"),
        "experiment.client_phase_s": client_phase,
        "experiment.pool_workers": workers,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def call_counts(spans) -> dict[str, int]:
    counts = defaultdict(int)
    for s in spans:
        counts[s[2]] += 1
    return dict(counts)
