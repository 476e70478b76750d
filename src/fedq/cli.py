"""Command-line entry point.

Subcommands:
    run        execute a configured experiment, writing metrics.csv
    quantprobe exact rate-distortion sweep of the tanh and quantile
               companders on clipped-Gaussian data
    oracle     closed-form optimum, loss floor, representability report
    report     summarize a metrics.csv and emit a long-format copy
"""

import argparse
import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, quantkit, sslcore
from .config import load_config, read_utf8
from .datagen import generate_all_shards, global_covariance
from .errors import FedqError, InvalidParams, ParseError
from .experiment import run_experiment


CLIP = 3.0  # quantprobe's N(0,1) samples are clipped to [-CLIP, CLIP]


def _parse_rates(expr: str) -> list[int]:
    """``lo..hi`` (inclusive) or a comma list of at least two distinct rates in [1, MAX_RATE]."""
    try:
        lo, dots, hi = expr.partition("..")
        rates = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in expr.split(",") if x]
    except ValueError as e:
        raise InvalidParams(f"--rates must be lo..hi or a comma list of integers, got {expr!r}") from e
    if len(set(rates)) < 2:
        raise InvalidParams(f"--rates must name at least two distinct rates, got {expr!r}")
    bad = [r for r in rates if not 1 <= r <= quantkit.MAX_RATE]
    if bad:
        raise InvalidParams(f"--rates must lie in [1, {quantkit.MAX_RATE}], got {bad[0]} in {expr!r}")
    return rates


def clipped_gaussian_mse_sweep(rates: list[int], samples: int, seed: int) -> list[dict]:
    """Expected MSE per rate of the tanh and quantile codebooks fitted to
    N(0,1) samples clipped to [-CLIP, CLIP], as training fits them.

    One ``{"rate", "tanh_mse", "quantile_mse"}`` row per rate, the
    probe-row format of ``analysis.write_probe_csv`` and
    ``analysis.rate_slope``. Each MSE is exact given the fit
    (``quantkit.expected_error``), so nothing is drawn after the samples.
    """
    data = np.clip(np.random.default_rng(seed).standard_normal((1, samples)), -CLIP, CLIP)

    def mse(rate: int, compander: str) -> float:
        return float(quantkit.expected_error(data, quantkit.fit_codebook(data, (rate,), compander))[0]) / samples

    return [{"rate": r, "tanh_mse": mse(r, "tanh"), "quantile_mse": mse(r, "quantile")} for r in rates]


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    result = run_experiment(cfg)
    last = result.records[-1]
    print(f"completed {cfg.rounds} rounds; metrics at {result.output_dir}/metrics.csv")
    print(f"global loss: {result.records[0].global_loss:.6g} -> {last.global_loss:.6g}")
    return 0


def _cmd_quantprobe(args) -> int:
    rates = _parse_rates(args.rates)
    # With no more samples than centers a fit can hold every sample: zero error, no slope.
    if args.samples <= 1 << max(rates):
        raise InvalidParams(f"--samples must exceed 2^{max(rates)} = {1 << max(rates)}, the centers "
                            f"of the highest rate in --rates, got {args.samples}")
    if args.seed < 0:
        raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
    rows = clipped_gaussian_mse_sweep(rates, args.samples, seed=args.seed)
    out = Path(args.out)
    analysis.write_probe_csv(rows, out)
    slopes = ", ".join(f"{c} {analysis.rate_slope(rows, f'{c}_mse'):.3f}" for c in ("tanh", "quantile"))
    print(f"wrote {out}; log2(mse) slope per bit: {slopes}")
    return 0


def _cmd_oracle(args) -> int:
    if not (math.isfinite(args.eps_scale) and args.eps_scale >= 0):
        raise InvalidParams(f"--eps-scale must be a finite number >= 0, got {args.eps_scale}")
    cfg = load_config(args.config)
    m = cfg.model_layers[-1]
    shards = generate_all_shards(cfg.data)
    xbar = global_covariance(shards)
    # One decomposition per covariance, each client's then the global one.
    eigs = [sslcore.sym_eig(x) for x in [s.covariance() for s in shards] + [xbar]]
    print(f"global covariance: d={cfg.data.d}, top eigenvalues "
          + ", ".join(f"{v:.6g}" for v in eigs[-1].eigenvalues[: min(6, cfg.data.d)]))
    print(f"optimal rank-{m} loss (trailing eigenvalue energy): {sslcore.optimal_loss(eigs[-1], m):.12g}")
    for s, eig in zip(shards, eigs):
        print(f"client {s.client_id}: optimal loss {sslcore.optimal_loss(eig, m):.12g}")
    # An overflowing perturbation would otherwise end in a misleading rank error.
    try:
        with np.errstate(over="raise", invalid="raise"):
            records = analysis.local_vs_global_representability_report(
                shards, xbar, eigs, m, eps_scale=args.eps_scale,
                rng=np.random.default_rng(cfg.training_seed),
            )
    except FloatingPointError as e:
        raise InvalidParams(f"--eps-scale {args.eps_scale} overflows float64 ({e})") from e
    print()
    print(analysis.format_repr_report(records))
    return 0


def _cmd_report(args) -> int:
    path = Path(args.metrics)
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    header = next(reader, [])
    twice = [col for i, col in enumerate(header) if col in header[:i]]
    if twice:  # a dict row would keep only the last of them
        raise ParseError(f"{path}: the header names column {twice[0]!r} twice")
    rows = []
    for fields in filter(None, reader):  # csv.DictReader's rule: blank lines are no rows
        if len(fields) != len(header):
            raise ParseError(f"{path}:{reader.line_num}: row has {len(fields)} fields, "
                             f"the header {len(header)}")
        rows.append(dict(zip(header, fields)))
    if not rows:
        raise ParseError(f"{path}: metrics file has no data rows")
    if "round" not in header:
        raise ParseError(f"{path}: the header has no round column")
    out = args.out or str(path.with_name(path.stem + "_long.csv"))
    if Path(out).exists() and path.samefile(out):
        raise InvalidParams(f"--out {out} is the --metrics file; its long copy would overwrite it")
    first, last = rows[0], rows[-1]
    print(f"rounds: {first['round']} .. {last['round']}")
    for col in rows[0]:
        if col == "round":
            continue
        try:
            a, b = float(first[col]), float(last[col])
        except ValueError:
            continue
        if not (math.isnan(a) and math.isnan(b)):
            print(f"{col:>24}: {a:.6g} -> {b:.6g}")
    with open(out, "w", newline="\n") as f:
        f.write("round,metric,value\n")
        for row in rows:
            for col, val in row.items():
                if col != "round":
                    f.write(f"{row['round']},{col},{val}\n")
    print(f"long-format copy: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedq", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override output_dir")
    run.set_defaults(fn=_cmd_run)

    qp = sub.add_parser("quantprobe", help="rate-distortion sweep")
    qp.add_argument("--rates", default="3..8", help="e.g. 3..8 or 3,5,7")
    qp.add_argument("--samples", type=int, default=1_000_000)
    qp.add_argument("--seed", type=int, default=0)
    qp.add_argument("--out", required=True)
    qp.set_defaults(fn=_cmd_quantprobe)

    orc = sub.add_parser("oracle", help="closed-form optimum report")
    orc.add_argument("--config", required=True)
    orc.add_argument("--eps-scale", type=float, default=0.0)
    orc.set_defaults(fn=_cmd_oracle)

    rep = sub.add_parser("report", help="summarize metrics.csv")
    rep.add_argument("--metrics", required=True)
    rep.add_argument("--out", default=None)
    rep.set_defaults(fn=_cmd_report)
    return p


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except FedqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
