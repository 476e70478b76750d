"""Config ingestion, experiment execution, metrics persistence, CLI."""

import json
import math

import numpy as np
import pytest

from fedq import server as sv
from fedq.cli import cli_dispatch
from fedq.config import config_from_dict, load_config
from fedq.errors import Diverged, NonFiniteInput, ParseError, ValidationError
from fedq.quantkit import MAX_RATE
from fedq.experiment import run_experiment


def minimal(**over):
    raw = {"n_clients": 2, "d": 32, "bitwidths": [4, 8], "rounds": 10}
    raw.update(over)
    return raw


def write_cfg(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(minimal(**over)))
    return path


class TestConfig:
    def test_minimal_defaults(self):
        cfg = config_from_dict(minimal())
        assert cfg.grad_extra_bits == 2
        assert cfg.local_epochs == 1
        assert cfg.batch_size == 64
        assert cfg.m == 2  # defaults to n_clients
        assert cfg.model_layers == (32, 2)
        assert cfg.lr_kind == "inverse_sqrt"
        assert cfg.lr_base is None
        assert cfg.data.frequent_count == 2000
        assert cfg.metrics.moreau and cfg.metrics.representability

    def test_bitwidth_length_mismatch(self):
        with pytest.raises(ValidationError, match="bitwidths length"):
            config_from_dict(minimal(bitwidths=[4]))

    def test_negative_rounds(self):
        with pytest.raises(ValidationError, match="rounds"):
            config_from_dict(minimal(rounds=-1))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            config_from_dict(minimal(typo_key=1))
        with pytest.raises(ValidationError, match="unknown key"):
            config_from_dict(minimal(lr={"speed": 0.1}))

    @pytest.mark.parametrize("key", ["moreau", "representability"])
    @pytest.mark.parametrize("value", ["false", 0, 1])
    def test_metric_flags_must_be_boolean(self, key, value):
        # bool("false") is True and bool(0) is False; neither may be coerced.
        with pytest.raises(ValidationError, match=f"metrics.{key} must be boolean"):
            config_from_dict(minimal(metrics={key: value}))

    def test_bitwidth_above_cap_rejected(self):
        # Validation only: a 2^32-center codebook is never built.
        with pytest.raises(ValidationError, match="bitwidths"):
            config_from_dict(minimal(bitwidths=[30, 4]))

    def test_gradient_rate_counts_toward_cap(self):
        cfg = config_from_dict(minimal(bitwidths=[MAX_RATE - 2, 4]))
        assert cfg.grad_extra_bits == 2
        config_from_dict(minimal(bitwidths=[MAX_RATE, 4], grad_extra_bits=0))
        with pytest.raises(ValidationError, match="grad_extra_bits"):
            config_from_dict(minimal(bitwidths=[MAX_RATE - 1, 4]))

    def test_layer_chain_must_match_dims(self):
        with pytest.raises(ValidationError, match="model.layers"):
            config_from_dict(minimal(model={"layers": [16, 2], "m": 2}))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_clients": 2,\n  "oops"\n}')
        with pytest.raises(ParseError, match=r"bad\.json:\d+:\d+"):
            load_config(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, seeds={"data": 5, "training": 6})
        monkeypatch.setenv("FEDQ_SEED", "99")
        cfg = load_config(path)
        assert cfg.data_seed == cfg.training_seed == 99
        assert cfg.data.seed == 99


def small_run_dict(tmp_path, **over):
    raw = {
        "n_clients": 2,
        "d": 8,
        "bitwidths": [5, 5],
        "rounds": 3,
        "local_epochs": 1,
        "batch_size": 32,
        "model": {"m": 2},
        "data": {"frequent_count": 64},
        "seeds": {"data": 11, "training": 12},
        "output_dir": str(tmp_path / "run"),
    }
    raw.update(over)
    return raw


class TestRunExperiment:
    def test_single_client_identity_path(self, tmp_path):
        cfg = config_from_dict(
            small_run_dict(
                tmp_path,
                n_clients=1,
                bitwidths=[16],
                rounds=1,
                data={"frequent_count": 64},
            )
        )
        res = run_experiment(cfg, write_artifacts=False)
        # single client: the aggregate IS the dequantized client model;
        # requantization at 16 bits perturbs it by a tiny relative error
        assert len(res.records) == 2
        eps_r = res.records[-1].eps_r[1]
        w = res.final_global[0]
        assert math.sqrt(eps_r) / np.linalg.norm(w) < 1e-4

    def test_metrics_row_shape_and_round0(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path))
        res = run_experiment(cfg)
        lines = (res.output_dir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 + 3  # header + init row + 3 rounds
        header = lines[0].split(",")
        assert header[0] == "round"
        assert "client1_eps_r" in header and "client2_eps_w" in header
        first = lines[1].split(",")
        assert first[0] == "0"
        # all rows same width as the header
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_config_echo_written(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path))
        res = run_experiment(cfg)
        echo = json.loads((res.output_dir / "config_echo.json").read_text())
        assert echo["lr"]["base"] is not None  # auto rate resolved
        assert echo["seeds"] == {"data": 11, "training": 12}

    def test_config_echo_reproduces_run(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, output_dir=str(tmp_path / "orig")))
        res = run_experiment(cfg)
        echo = json.loads((res.output_dir / "config_echo.json").read_text())
        echo["output_dir"] = str(tmp_path / "redo")
        res2 = run_experiment(config_from_dict(echo))
        assert (res.output_dir / "metrics.csv").read_bytes() == (
            res2.output_dir / "metrics.csv"
        ).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        a = run_experiment(config_from_dict(small_run_dict(tmp_path, output_dir=str(tmp_path / "a"))))
        b = run_experiment(config_from_dict(small_run_dict(tmp_path, output_dir=str(tmp_path / "b"))))
        ca = (a.output_dir / "metrics.csv").read_bytes()
        cb = (b.output_dir / "metrics.csv").read_bytes()
        assert ca == cb

    def test_crash_leaves_completed_rounds(self, tmp_path, monkeypatch):
        cfg = config_from_dict(small_run_dict(tmp_path, rounds=5))
        real = sv.ServerState.run_round
        calls = {"n": 0}

        def boom(self, models, counts):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected failure at round 3")
            return real(self, models, counts)

        monkeypatch.setattr(sv.ServerState, "run_round", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        # header + init + the two completed rounds
        assert len(lines) == 2 + 2
        assert lines[-1].split(",")[0] == "2"

    def test_heterogeneous_bitwidths_recorded(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, bitwidths=[4, 8], rounds=4))
        res = run_experiment(cfg, write_artifacts=False)
        e4 = np.mean([r.eps_w_mean[1] for r in res.records[1:]])
        e8 = np.mean([r.eps_w_mean[2] for r in res.records[1:]])
        assert e8 < e4

    def test_model_stays_quantized_between_rounds(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, rounds=2))
        res = run_experiment(cfg, write_artifacts=False)
        assert res.records[-1].round == 2

    def test_deep_relu_encoder_runs(self, tmp_path):
        cfg = config_from_dict(
            small_run_dict(
                tmp_path,
                rounds=2,
                quantize_activations=True,
                model={"layers": [8, 4, 2], "activation": "relu", "m": 2},
                lr={"base": 0.02},
            )
        )
        res = run_experiment(cfg, write_artifacts=False)
        # theory-path metrics are linear-model-only
        assert math.isnan(res.records[-1].global_loss)
        assert all(v >= 0.0 for v in res.records[-1].eps_w_mean.values())


def diverging_run_dict(tmp_path):
    return {
        "n_clients": 2,
        "d": 8,
        "bitwidths": [4, 8],
        "rounds": 3,
        "lr": {"base": 5},
        "output_dir": str(tmp_path / "run"),
    }


class TestDivergence:
    def test_error_names_round_and_client_and_keeps_rows(self, tmp_path):
        cfg = config_from_dict(diverging_run_dict(tmp_path))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged) as info:
                run_experiment(cfg)
        err = info.value
        assert (err.round, err.client, err.phase) == (1, 1, "client update")
        assert "round 1, client 1, during client update" in str(err)
        assert isinstance(err.__cause__, NonFiniteInput)
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("round,global_loss,")
        assert lines[1].startswith("0,")

    def test_cli_reports_location(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(diverging_run_dict(tmp_path)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_dispatch(["run", "--config", str(cfg_path)]) == 1
        assert "error: training diverged in round 1, client 1" in capsys.readouterr().err


class TestCli:
    def test_missing_required_arg_exits_2(self, capsys):
        assert cli_dispatch(["run"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert cli_dispatch(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path)))
        assert cli_dispatch(["run", "--config", str(cfg_path)]) == 0
        metrics = tmp_path / "run" / "metrics.csv"
        assert metrics.exists()
        capsys.readouterr()
        assert cli_dispatch(["report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "rounds: 0 .. 3" in out
        long_csv = tmp_path / "run" / "metrics_long.csv"
        assert long_csv.read_text().splitlines()[0] == "round,metric,value"

    def test_run_threads_flag_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path)))
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t2"), "--threads", "3"]) == 0
        assert (tmp_path / "t1" / "metrics.csv").read_bytes() == (tmp_path / "t2" / "metrics.csv").read_bytes()

    def test_datagen_then_run_from_disk(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path)))
        assert cli_dispatch(["datagen", "--config", str(cfg_path), "--out", str(tmp_path / "ds")]) == 0
        assert (tmp_path / "ds" / "client_001.fqds").exists()
        assert (tmp_path / "ds" / "datagen.json").exists()
        assert cli_dispatch([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / "fromdisk"),
            "--data", str(tmp_path / "ds"),
        ]) == 0
        # same shards on disk as generated: byte-identical metrics
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 0
        assert (tmp_path / "fromdisk" / "metrics.csv").read_bytes() == (
            tmp_path / "gen" / "metrics.csv"
        ).read_bytes()

    def test_quantprobe_csv_format(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        assert cli_dispatch([
            "quantprobe", "--rates", "3..6", "--samples", "20000", "--out", str(out)
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,mse"
        assert len(lines) == 5
        assert [int(l.split(",")[0]) for l in lines[1:]] == [3, 4, 5, 6]

    def test_oracle_reports_trailing_eigenvalue_sum(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path, d=8)))
        assert cli_dispatch(["oracle", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("optimal rank-2 loss"))
        reported = float(line.rsplit(":", 1)[1])
        from fedq import datagen as dg, sslcore as ssl
        cfg = load_config(cfg_path)
        xbar = dg.global_covariance(dg.generate_all_shards(cfg.data))
        tail = ssl.sym_eig(xbar).eigenvalues[2:]
        assert reported == pytest.approx(float(np.sum(tail**2)), rel=1e-8)
