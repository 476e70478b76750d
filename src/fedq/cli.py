"""Command-line entry point.

Subcommands:
    run        execute a configured experiment, writing metrics.csv
    datagen    write the synthetic shards of a config to disk
    quantprobe rate-distortion sweep on clipped-Gaussian data
    oracle     closed-form optimum, loss floor, representability report
    report     summarize a metrics.csv and emit a long-format copy
"""

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, quantkit, sslcore
from .config import load_config
from .datagen import generate_all_shards, global_covariance, write_dataset
from .errors import FedqError, InvalidParams
from .experiment import run_experiment


# quantprobe draws N(0,1) samples clipped to [-CLIP, CLIP].
CLIP = 3.0


def _parse_rates(expr: str) -> list[int]:
    """``lo..hi`` (inclusive) or a comma list, naming at least two distinct rates."""
    try:
        lo, dots, hi = expr.partition("..")
        rates = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in expr.split(",") if x]
    except ValueError as e:
        raise InvalidParams(f"--rates must be lo..hi or a comma list of integers, got {expr!r}") from e
    if len(set(rates)) < 2:
        raise InvalidParams(f"--rates must name at least two distinct rates, got {expr!r}")
    return rates


def clipped_gaussian_mse_sweep(rates: list[int], samples: int, seed: int, draws: int) -> list[dict]:
    """Uniform-codebook MSE per rate on N(0,1) samples clipped to [-CLIP, CLIP].

    One ``{"rate", "mse"}`` row per rate, the probe-row format of
    ``analysis.write_probe_csv`` and ``analysis.rate_slope``.
    """
    rng = np.random.default_rng(seed)
    data = np.clip(rng.standard_normal(samples), -CLIP, CLIP)
    rows = []
    for rate in rates:
        cb = quantkit.build_uniform_codebook(-CLIP, CLIP, rate)
        rows.append({"rate": rate, "mse": quantkit.empirical_mse(cb, data, rng, draws=draws)})
    return rows


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    result = run_experiment(cfg, data_dir=args.data)
    last = result.records[-1]
    print(f"completed {cfg.rounds} rounds; metrics at {result.output_dir}/metrics.csv")
    print(f"global loss: {result.records[0].global_loss:.6g} -> {last.global_loss:.6g}")
    return 0


def _cmd_datagen(args) -> int:
    cfg = load_config(args.config)
    paths = write_dataset(args.out, cfg.data)
    print(f"wrote {len(paths)} shard files to {args.out}")
    return 0


def _cmd_quantprobe(args) -> int:
    rates = _parse_rates(args.rates)
    if args.samples < 1:
        raise InvalidParams(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
    rows = clipped_gaussian_mse_sweep(rates, args.samples, seed=args.seed, draws=args.draws)
    out = Path(args.out)
    analysis.write_probe_csv(rows, out)
    slope = analysis.rate_slope(rows, "mse")
    print(f"wrote {out}; log2(mse) slope per bit: {slope:.3f}")
    return 0


def _cmd_oracle(args) -> int:
    if not (math.isfinite(args.eps_scale) and args.eps_scale >= 0):
        raise InvalidParams(f"--eps-scale must be a finite number >= 0, got {args.eps_scale}")
    cfg = load_config(args.config)
    shards = generate_all_shards(cfg.data)
    xbar = global_covariance(shards)
    eig = sslcore.sym_eig(xbar)
    floor = sslcore.optimal_loss(xbar, cfg.m)
    print(f"global covariance: d={cfg.data.d}, top eigenvalues "
          + ", ".join(f"{v:.6g}" for v in eig.eigenvalues[: min(6, cfg.data.d)]))
    print(f"optimal rank-{cfg.m} loss (trailing eigenvalue energy): {floor:.12g}")
    for s in shards:
        print(f"client {s.client_id}: optimal loss "
              f"{sslcore.optimal_loss(s.covariance(), cfg.m):.12g}")
    # An overflowing perturbation would otherwise end in a misleading rank error.
    try:
        with np.errstate(over="raise", invalid="raise"):
            records = analysis.local_vs_global_representability_report(
                shards, cfg.m, eps_scale=args.eps_scale,
                rng=np.random.default_rng(cfg.training_seed),
            )
    except FloatingPointError as e:
        raise InvalidParams(f"--eps-scale {args.eps_scale} overflows float64 ({e})") from e
    print()
    print(analysis.format_repr_report(records))
    return 0


def _cmd_report(args) -> int:
    path = Path(args.metrics)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        print("metrics file has no data rows", file=sys.stderr)
        return 1
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
    out = args.out or str(path.with_name(path.stem + "_long.csv"))
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
    run.add_argument("--data", default=None, help="load shards from a datagen directory")
    run.set_defaults(fn=_cmd_run)

    dg = sub.add_parser("datagen", help="write shard files")
    dg.add_argument("--config", required=True)
    dg.add_argument("--out", required=True)
    dg.set_defaults(fn=_cmd_datagen)

    qp = sub.add_parser("quantprobe", help="rate-distortion sweep")
    qp.add_argument("--rates", default="3..8", help="e.g. 3..8 or 3,5,7")
    qp.add_argument("--samples", type=int, default=1_000_000)
    qp.add_argument("--draws", type=int, default=4)
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
