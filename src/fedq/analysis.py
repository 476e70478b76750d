"""Computable diagnostics for the quantized-training theory.

Three families of checks live here:

- variance probes: short instrumented trainings that measure how the
  gradient/weight/re-quantization error energies scale with the rate,
  the step size, and the number of local epochs;
- a Moreau-envelope near-stationarity surrogate for the weakly convex
  global objective, plus the evaluable right-hand side of the
  convergence bound it satisfies;
- the finite-dimensional representability lower bound obtained from
  eigenvalue perturbation, compared against measured representability.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import client as cl
from . import sslcore
from .datagen import DataGenParams, DataShard, generate_shard
from .errors import InvalidParams, NoConvergence


@dataclass(frozen=True)
class TheoryParams:
    """Constants of the weak-convexity analysis, all read from lambda_1
    of the global covariance.

    ``rho`` = 4 lambda_1 (1 + 0.01) dominates four times the spectral
    norm. The smoothing parameter ``rho_bar`` = 1.1 rho: any value
    above rho is admissible, and keeping the margin small makes the
    surrogate sharp enough to separate the near-saddle start from the
    quantization-noise floor near the optimum. The gradient bound G and
    the noise scale G_q are measurements of a run, so
    ``convergence_bound_rhs`` takes them with each call.
    """

    lam1: float

    def __post_init__(self):
        if not (self.rho_bar > self.rho > 0.0):
            raise InvalidParams(f"need rho_bar > rho > 0, got lambda_1 = {self.lam1!r}")

    @property
    def rho(self) -> float:
        return 4.0 * self.lam1 * (1.0 + 0.01)

    @property
    def rho_bar(self) -> float:
        return 1.1 * self.rho

    @classmethod
    def from_covariance(cls, xbar: np.ndarray) -> "TheoryParams":
        """lambda_1 of ``xbar`` by power iteration (``sslcore.spectral_norm``)."""
        return cls(sslcore.spectral_norm(xbar))


@dataclass(frozen=True)
class ProxResult:
    point: np.ndarray
    envelope: float
    surrogate: float


def prox_solve(w: np.ndarray, xbar: np.ndarray, tp: TheoryParams) -> ProxResult:
    """Approximate prox point of the global objective at ``w``.

    Minimizes L(y) + (rho_bar / 2) ||y - w||^2 by gradient descent from
    y = w with step 1 / (rho_bar + 16 lambda_1); ``tp`` holds lambda_1,
    so it must come from ``xbar``. Steps that would
    increase the inner objective are rejected with a halved step; ten
    consecutive rejections raise NoConvergence, so accepted iterates are
    non-increasing by construction. At most 2000 steps; stops once a
    step would move y by less than 1e-10.

    Returns the prox point, the envelope value there, and the
    near-stationarity surrogate rho_bar * ||w - prox(w)||.
    """
    w = np.asarray(w, dtype=np.float64)
    rho_bar = tp.rho_bar
    step = 1.0 / (rho_bar + 16.0 * tp.lam1)
    half_rho = 0.5 * rho_bar
    add_all = partial(np.add.reduce, axis=None)  # ndarray.sum, less its Python wrapper
    r_sq = sslcore.residual(w, xbar)  # checks the shapes; a buffer from here on
    r, r_new = np.empty_like(r_sq), np.empty_like(r_sq)
    y, diff, y_new, diff_new, g, scaled, diff_sq = w.copy(), *(np.empty_like(w) for _ in range(6))

    # Each iterate's Gram residual and offset from w go into its slot's buffers, by the
    # operations of the unbuffered formulas; the gradient reuses them once it is accepted.
    def inner(yv: np.ndarray, r: np.ndarray, diff: np.ndarray) -> float:
        np.subtract(np.matmul(yv.T, yv, out=r), xbar, out=r)
        np.subtract(yv, w, out=diff)
        return (float(add_all(np.multiply(r, r, out=r_sq)))
                + half_rho * float(add_all(np.multiply(diff, diff, out=diff_sq))))

    obj = inner(y, r, diff)
    rejections = 0
    for _ in range(2000):
        if not rejections:  # a rejected step leaves y, r and diff, so g and ||g|| stand
            sslcore.grad(y, xbar, r, out=g)
            g += np.multiply(diff, rho_bar, out=scaled)
            gf = g.ravel()  # ||g|| exactly as np.linalg.norm forms it
            g_norm = math.sqrt(gf.dot(gf))
        if step * g_norm < 1e-10:
            break
        np.subtract(y, np.multiply(g, step, out=scaled), out=y_new)
        obj_new = inner(y_new, r_new, diff_new)
        if obj_new > obj:
            rejections += 1
            if rejections >= 10:
                raise NoConvergence("prox objective increased for 10 consecutive steps")
            step *= 0.5
            continue
        rejections = 0
        obj = obj_new
        y, r, diff, y_new, r_new, diff_new = y_new, r_new, diff_new, y, r, diff
    surrogate = rho_bar * float(np.linalg.norm(w - y))
    return ProxResult(y, obj, surrogate)


def moreau_grad_surrogate(w: np.ndarray, xbar: np.ndarray, tp: TheoryParams) -> float:
    """rho_bar * ||w - prox(w)||, the Moreau-envelope gradient norm."""
    return prox_solve(w, xbar, tp).surrogate


def convergence_bound_rhs(
    tp: TheoryParams,
    schedule: list[float],
    epochs: int,
    phi0: float,
    phi_min: float,
    G: float,
    G_q: float,
) -> float:
    """Evaluable right side of the convergence bound.

    ``schedule`` lists the per-round step sizes, ``epochs`` the local
    epochs per round, ``phi0`` the envelope at the quantized init and
    ``phi_min`` its (approximate) minimum; G bounds the gradient norm
    and G_q the quantization-noise scale. With measured G and G_q this
    upper-bounds the alpha-weighted average of the squared surrogate
    over the run.
    """
    if not schedule:
        raise InvalidParams("schedule must be nonempty")
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    if not phi0 >= phi_min:
        raise InvalidParams("phi0 must be >= phi_min")
    a = np.asarray(schedule, dtype=np.float64)
    if not np.all(a > 0):
        raise InvalidParams("step sizes must be positive")
    s1 = float(a.sum())
    s2 = float((a * a).sum())
    num = phi0 - phi_min + tp.rho_bar * (G**2 * s2 + 3.0 * G_q**2 * s1)
    return (epochs * tp.rho_bar / (tp.rho_bar - tp.rho)) * num / (tp.rho_bar * s1)


def weighted_running_average(values, weights) -> np.ndarray:
    """Running weighted mean A_t = sum_{s<=t} w_s v_s / sum_{s<=t} w_s."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.size == 0:
        raise InvalidParams("values and weights must be nonempty and aligned")
    return np.cumsum(w * v) / np.cumsum(w)


# Share of the recorded steps whose errors G_q must cover.
GQ_COVERAGE = 0.99


def gq_estimate(weight_error_sq, weight_alphas, requant_error_sq=(), requant_alphas=()) -> float:
    """Smallest noise scale G_q consistent with the recorded errors.

    Finds the smallest G_q such that ||eps_w||^2 <= alpha_t G_q^2 and
    ||eps_r||^2 <= alpha_t G_q^2 hold on at least ``GQ_COVERAGE`` of the
    recorded steps (both error families pooled).
    """
    err = np.concatenate([
        np.asarray(weight_error_sq, dtype=np.float64),
        np.asarray(requant_error_sq, dtype=np.float64),
    ])
    alpha = np.concatenate([
        np.asarray(weight_alphas, dtype=np.float64),
        np.asarray(requant_alphas, dtype=np.float64),
    ])
    if err.shape != alpha.shape or err.size == 0:
        raise InvalidParams("error and alpha records must be nonempty and aligned")
    if not np.all(alpha > 0):
        raise InvalidParams("step sizes must be positive")
    ratios = np.sort(err / alpha)
    k = math.ceil(GQ_COVERAGE * len(ratios)) - 1
    return float(np.sqrt(ratios[k]))


# ---------------------------------------------------------------------------
# Instrumented single-client probe runs
# ---------------------------------------------------------------------------


# The probe: one client on one shard. It runs long enough that every
# rate reaches its steady state; error means taken over trajectories
# that are still climbing at the coarsest rate conflate convergence
# speed with quantization error and distort the fitted slopes.
PROBE_CLIENT = cl.ClientConfig(grad_extra_bits=0, local_epochs=30)
PROBE_DATA = DataGenParams(n=1, d=8, frequent_count=256, seed=20240)
PROBE_WIDTH = 2
PROBE_LR = 0.02
PROBE_SEED = 77


def probe_run(rate: int, lr: float = PROBE_LR, shard: DataShard | None = None) -> cl.QuantErrorStats:
    """Train the probe client at the given rate and return its error stats.

    Data, initialization, and minibatch order are fixed by the probe
    seeds, so runs at different rates differ only through quantization.
    """
    if shard is None:
        shard = generate_shard(PROBE_DATA, 1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=PROBE_SEED, spawn_key=(rate,)))
    init_rng = np.random.default_rng(np.random.SeedSequence(entropy=PROBE_SEED, spawn_key=(0, 1)))
    layers = cl.init_layers([PROBE_DATA.d, PROBE_WIDTH], init_rng, 0.1 / math.sqrt(PROBE_DATA.d))
    (cohort,) = cl.start_clients(PROBE_CLIENT, layers, {1: rate}, {1: rng}, {1: shard})
    return cl.run_local_epochs(cohort, lr)[0]


def rate_sweep_probe(rates: list[int]) -> list[dict]:
    """Error energies vs quantization rate on matched runs.

    Returns one row per rate with the mean ||eps_g||^2 and
    mean ||eps_w||^2 over all recorded steps. The theory predicts both
    decay like 2^(-2R), i.e. a log2 slope near -2.
    """
    if len(rates) < 3:
        raise InvalidParams("need at least 3 rates to fit a slope")
    shard = generate_shard(PROBE_DATA, 1)
    rows = []
    for rate in rates:
        stats = probe_run(int(rate), shard=shard)
        rows.append(
            {
                "rate": int(rate),
                "mean_grad_error_sq": stats.mean_grad_error(),
                "mean_weight_error_sq": stats.mean_weight_error(),
            }
        )
    return rows


def alpha_sweep_probe(alphas: list[float], rate: int) -> list[dict]:
    """Mean ||eps_w||^2 under different constant step sizes at a fixed rate."""
    shard = generate_shard(PROBE_DATA, 1)
    rows = []
    for a in alphas:
        stats = probe_run(int(rate), lr=float(a), shard=shard)
        rows.append({"alpha": float(a), "mean_weight_error_sq": stats.mean_weight_error()})
    return rows


def fit_slope(x, y) -> float:
    """Least squares slope of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise InvalidParams("need at least two points")
    return float(np.polyfit(x, y, 1)[0])


def write_probe_csv(rows: list[dict], path) -> None:
    """Dump probe rows in the orchestrator CSV conventions (17 digits, LF)."""
    if not rows:
        raise InvalidParams("no probe rows")
    cols = list(rows[0])
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(
                f"{row[c]:.17g}" if isinstance(row[c], float) else str(row[c])
                for c in cols
            ) + "\n")


def rate_slope(rows: list[dict], key: str) -> float:
    """log2(error) per bit; the rate-distortion exponent estimate. Every error must be > 0."""
    bad = next((r for r in rows if not r[key] > 0), None)
    if bad is not None:
        raise InvalidParams(f"{key} must be > 0 to take its log2, got {bad[key]} at rate {bad['rate']}")
    return fit_slope([r["rate"] for r in rows], [math.log2(r[key]) for r in rows])


def loglog_slope(xs, ys) -> float:
    return fit_slope(np.log(xs), np.log(ys))


# ---------------------------------------------------------------------------
# Representability bounds
# ---------------------------------------------------------------------------


def representability_lower_bounds(x: np.ndarray, eig: sslcore.EigenDecomposition, w_opt: np.ndarray,
                                  eps: np.ndarray) -> np.ndarray:
    """Eigenvalue-perturbation lower bounds on the representability vector.

    For a model eps away from the optimum w* built from the full top
    spectrum of X, entry j of the representability vector is at least

        (X_jj + 2 (w*^T eps)_jj + ||eps e_j||^2)
        / (lambda_1(X) + ||2 w*^T eps + eps^T eps||_F),

    returned for every j in [0, d), with lambda_1(X) read from
    ``eig = sslcore.sym_eig(x)``. The denominator is formed once; each
    numerator is summed in the order written, term by term. The bound is
    certified when w* spans the full spectrum (m = d); for m < d it is
    reported but not guaranteed.
    """
    d = x.shape[0]
    if w_opt.shape[1] != d or eps.shape != w_opt.shape:
        raise InvalidParams("w_opt and eps must be m x d with d matching X")
    cross = w_opt.T @ eps
    pert = 2.0 * cross + eps.T @ eps
    lam1 = float(eig.eigenvalues[0])
    den = lam1 + float(np.linalg.norm(pert))
    num = [float(x[j, j]) + 2.0 * float(cross[j, j]) + float(eps[:, j] @ eps[:, j]) for j in range(d)]
    return np.array(num) / den


@dataclass(frozen=True)
class ReprRecord:
    scope: str           # "client <k>" or "global"
    coord: int           # 0-based coordinate
    measured: float
    bound: float
    eps_norm: float


def local_vs_global_representability_report(shards: list[DataShard], xbar: np.ndarray,
                                            eigs: list[sslcore.EigenDecomposition], m: int, eps_scale: float,
                                            rng: np.random.Generator) -> list[ReprRecord]:
    """Representability of perturbed local and global optima, with bounds.

    For every client covariance and for the global covariance ``xbar``,
    builds the rank-m optimum, perturbs it by a random matrix of norm
    eps_scale * ||w*||, and reports measured representability and the
    perturbation bound on the first n coordinates. ``eigs`` holds
    ``sslcore.sym_eig`` of each shard's covariance, in order, then of
    ``xbar``.
    """
    if not shards:
        raise InvalidParams("no shards")
    n = len(shards)
    scopes = [(f"client {s.client_id}", s.covariance()) for s in shards] + [("global", xbar)]
    records = []
    for (scope, cov), eig in zip(scopes, eigs, strict=True):
        w_opt = sslcore.closed_form_optimum(eig, m)
        if eps_scale > 0.0:
            eps = rng.standard_normal(w_opt.shape)
            # numpy scalars, so an overflowing scale obeys np.errstate
            eps *= eps_scale * np.linalg.norm(w_opt) / np.linalg.norm(eps)
        else:
            eps = np.zeros_like(w_opt)
        r = sslcore.representability(w_opt + eps)
        bounds = representability_lower_bounds(cov, eig, w_opt, eps)
        eps_norm = float(np.linalg.norm(eps))
        records.extend(ReprRecord(scope, j, float(r[j]), float(bounds[j]), eps_norm) for j in range(n))
    return records


def format_repr_report(records: list[ReprRecord]) -> str:
    lines = [f"{'scope':<12} {'coord':>5} {'measured':>12} {'bound':>12} {'|eps|':>10}"]
    for r in records:
        lines.append(
            f"{r.scope:<12} {r.coord + 1:>5} {r.measured:>12.6f} {r.bound:>12.6f} {r.eps_norm:>10.4f}"
        )
    return "\n".join(lines)
