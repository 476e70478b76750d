"""Config ingestion, experiment execution, metrics persistence, CLI."""

import itertools
import json
import math

import numpy as np
import pytest

from fedq import experiment as exp
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
        # the step size is decided per round; a client has no switch for it
        with pytest.raises(ValidationError, match="unknown key.*constant_within_round"):
            config_from_dict(minimal(lr={"constant_within_round": True}))

    @pytest.mark.parametrize("key", ["moreau", "representability"])
    @pytest.mark.parametrize("value", ["false", 0, 1])
    def test_metric_flags_must_be_boolean(self, key, value):
        # bool("false") is True and bool(0) is False; neither may be coerced.
        with pytest.raises(ValidationError, match=f"metrics.{key} must be boolean"):
            config_from_dict(minimal(metrics={key: value}))

    @pytest.mark.parametrize("over, key", [
        ({"aug_sigma": True}, "aug_sigma"),
        ({"aug_sigma": math.inf}, "aug_sigma"),
        ({"lr": {"base": True}}, "lr.base"),
        ({"lr": {"base": math.inf}}, "lr.base"),
        ({"data": {"frequent_count": 100.5}}, "data.frequent_count"),
        ({"data": {"infrequent_exponent": "0.3"}}, "data.infrequent_exponent"),
        ({"data": {"infrequent_exponent": math.nan}}, "data.infrequent_exponent"),
        ({"output_dir": 5}, "output_dir"),
        ({"seeds": {"data": -1}}, "seeds.data"),
        ({"seeds": {"training": -1}}, "seeds.training"),
        ({}, "FEDQ_SEED"),
        ({"lr": {"kind": "linear"}}, "lr.kind"),
        ({"model": {"activation": "tanh"}}, "model.activation"),
    ])
    def test_no_silent_coercion(self, over, key, monkeypatch):
        # JSON true loaded as 1.0, Infinity passed, 100.5 samples and
        # output_dir 5 reached the run, and a negative seed reached
        # np.random.SeedSequence; each must name its field instead. Config
        # is also the only check of lr.kind and model.activation.
        if key == "FEDQ_SEED":
            monkeypatch.setenv(key, "-1")
        with pytest.raises(ValidationError, match=f"^{key} must be"):
            config_from_dict(minimal(**over))

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
        res = run_experiment(cfg)
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

    @pytest.mark.parametrize("kind", ["inverse_sqrt", "constant"])
    def test_every_step_uses_its_rounds_alpha(self, tmp_path, monkeypatch, kind):
        # One clock: run_experiment decides alpha_t once per round, and every
        # local step of every client in round t takes exactly that value.
        real = exp.cl.local_update
        seen = []

        def spy(state, weights, grads, lr):
            seen.append(lr)
            return real(state, weights, grads, lr)

        monkeypatch.setattr(exp.cl, "local_update", spy)
        cfg = config_from_dict(small_run_dict(
            tmp_path, rounds=4, local_epochs=2, batch_size=16,
            lr={"kind": kind, "base": 0.02},
        ))
        res = run_experiment(cfg)
        assert res.round_alphas == {
            "inverse_sqrt": [0.02 / math.sqrt(t) for t in range(1, 5)],
            "constant": [0.02] * 4,
        }[kind]
        # several minibatches per epoch, two epochs per round
        assert all(n > 2 for steps in res.steps_per_round.values() for n in steps)
        expected = [
            res.round_alphas[t - 1]
            for t in range(1, cfg.rounds + 1)
            for k in sorted(res.steps_per_round)
            for _ in range(res.steps_per_round[k][t - 1])
        ]
        assert seen == expected

    def test_heterogeneous_bitwidths_recorded(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, bitwidths=[4, 8], rounds=4))
        res = run_experiment(cfg)
        e4 = np.mean([r.eps_w_mean[1] for r in res.records[1:]])
        e8 = np.mean([r.eps_w_mean[2] for r in res.records[1:]])
        assert e8 < e4

    def test_model_stays_quantized_between_rounds(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, rounds=2))
        res = run_experiment(cfg)
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
        res = run_experiment(cfg)
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
    # No np.errstate here: tier-1 turns RuntimeWarnings into errors, so an
    # overflow warning escaping the run would replace Diverged.
    def test_error_names_round_and_client_and_keeps_rows(self, tmp_path):
        cfg = config_from_dict(diverging_run_dict(tmp_path))
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
        assert (tmp_path / "run" / "timings.csv").read_text() == "round,wall_ms\n"

    def test_cli_reports_location(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(diverging_run_dict(tmp_path)))
        assert cli_dispatch(["run", "--config", str(cfg_path)]) == 1
        assert "error: training diverged in round 1, client 1" in capsys.readouterr().err

    def test_failed_run_keeps_completed_timing_rows(self, tmp_path, monkeypatch):
        real = exp.cl.run_local_epochs
        calls = itertools.count(1)

        def fail_in_round_2(state, *args):
            if next(calls) == 3:  # two clients per round: round 2, client 1
                raise RuntimeError("injected failure")
            return real(state, *args)

        monkeypatch.setattr(exp.cl, "run_local_epochs", fail_in_round_2)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(config_from_dict(small_run_dict(tmp_path)))
        lines = (tmp_path / "run" / "timings.csv").read_text().splitlines()
        assert lines[0] == "round,wall_ms"
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]
        assert float(lines[1].split(",")[1]) >= 0.0
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1"]

    def test_round_number_comes_from_the_server(self, tmp_path, monkeypatch):
        real = exp.cl.run_local_epochs
        calls = itertools.count(1)

        def diverge_in_round_3(state, *args):
            if next(calls) == 5:  # two clients per round: round 3, client 1
                raise NonFiniteInput("injected non-finite update")
            return real(state, *args)

        monkeypatch.setattr(exp.cl, "run_local_epochs", diverge_in_round_3)
        with pytest.raises(Diverged) as info:
            run_experiment(config_from_dict(small_run_dict(tmp_path, rounds=5)))
        assert (info.value.round, info.value.client, info.value.phase) == (3, 1, "client update")
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1", "2"]


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

    def test_run_threads_flag_deterministic(self, tmp_path, capsys):
        # Clients train in id order on one thread: CLI reruns are
        # byte-identical, and there is no thread-count flag to vary.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path)))
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t1")]) == 0
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t2")]) == 0
        assert (tmp_path / "t1" / "metrics.csv").read_bytes() == (tmp_path / "t2" / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert cli_dispatch(["run", "--config", str(cfg_path), "--threads", "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"seed"', '"sead"'),
        lambda text: text.replace('"n": 2', '"n": "2"'),
    ], ids=["truncated", "no seed", "string n"])
    def test_run_rejects_bad_dataset_sidecar(self, tmp_path, capsys, damage):
        cfg_path = write_cfg(tmp_path)
        sidecar = tmp_path / "ds" / "datagen.json"
        assert cli_dispatch(["datagen", "--config", str(cfg_path), "--out", str(sidecar.parent)]) == 0
        sidecar.write_text(damage(sidecar.read_text()))
        capsys.readouterr()
        assert cli_dispatch(["run", "--config", str(cfg_path), "--data", str(sidecar.parent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "datagen.json" in err

    def test_run_rejects_negative_env_seed(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_cfg(tmp_path, output_dir=str(tmp_path / "run"))
        monkeypatch.setenv("FEDQ_SEED", "-1")
        assert cli_dispatch(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "FEDQ_SEED" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rates", ["3..x", "a,b", "5", "8..3"])
    def test_quantprobe_rejects_bad_rates(self, tmp_path, capsys, rates):
        # A slope needs two distinct rates; fewer fail before any work.
        out = tmp_path / "probe.csv"
        assert cli_dispatch(["quantprobe", "--rates", rates, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--rates" in err and repr(rates) in err
        assert not out.exists()

    def test_quantprobe_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        argv = ["quantprobe", "--rates", "3..4", "--seed", "-1", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_quantprobe_rejects_bad_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "probe.csv"
        argv = ["quantprobe", "--rates", "3..4", "--samples", samples, "--out", str(out)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--samples" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("scale", ["-1", "nan", "inf", "1e300", "1.7e308"])
    def test_oracle_rejects_bad_eps_scale(self, tmp_path, capsys, scale):
        # 1e300 and 1.7e308 are finite, but the perturbations they ask for
        # overflow float64 (in the arithmetic, and in the scale itself).
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path, d=8)))
        assert cli_dispatch(["oracle", "--config", str(cfg_path), "--eps-scale", scale]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--eps-scale" in err
