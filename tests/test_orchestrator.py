"""Config ingestion, experiment execution, metrics persistence, CLI."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedq import client as cl
from fedq import experiment as exp
from fedq import server as sv
from fedq.cli import cli_dispatch
from fedq.config import config_from_dict, load_config
from fedq.datagen import DataShard
from fedq.errors import Diverged, NonFiniteInput, ParseError, ValidationError
from fedq.quantkit import MAX_RATE
from fedq.experiment import run_experiment


def minimal(**over):
    raw = {"n_clients": 2, "d": 32, "bitwidths": [4, 8], "rounds": 10}
    raw.update(over)
    return raw


# Keys a drawn config may leave to their defaults, as "section.key".
OPTIONAL = ["local_epochs", "batch_size", "aug_sigma", "quantize_activations", "lr.kind", "lr.base", "model.layers",
            "model.activation", "model.m", "data.frequent_count", "data.infrequent_exponent", "seeds.data",
            "seeds.training", "metrics.moreau", "metrics.representability", "output_dir"]


@st.composite
def raw_configs(draw):
    """A valid raw config; some optional keys are left out."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(n, 16))
    m = draw(st.integers(1, d))
    raw = {
        "n_clients": n,
        "d": d,
        "bitwidths": draw(st.lists(st.integers(1, MAX_RATE - 4), min_size=n, max_size=n)),
        "rounds": draw(st.integers(1, 50)),
        "grad_extra_bits": draw(st.integers(0, 4)),
        "local_epochs": draw(st.integers(1, 5)),
        "batch_size": draw(st.none() | st.integers(1, 256)),
        "aug_sigma": draw(st.integers(0, 3) | st.floats(0.0, 3.0)),
        "quantize_activations": draw(st.booleans()),
        "lr": {"kind": draw(st.sampled_from(["constant", "inverse_sqrt"])),
               "base": draw(st.none() | st.floats(1e-6, 1.0))},
        "model": {"layers": [d, *draw(st.lists(st.integers(1, 8), max_size=2)), m],
                  "activation": draw(st.sampled_from(cl.ACTIVATIONS)), "m": m},
        # at least n * d frequent samples cover n * ceil(d^beta) for any beta < 1
        "data": {"frequent_count": draw(st.integers(n * d, 4000)),
                 "infrequent_exponent": draw(st.floats(0.01, 0.99))},
        "seeds": {"data": draw(st.integers(0, 2**64)), "training": draw(st.integers(0, 2**64))},
        "metrics": {"moreau": draw(st.booleans()), "representability": draw(st.booleans())},
        "output_dir": draw(st.text(max_size=8)),
    }
    for path in draw(st.sets(st.sampled_from(OPTIONAL))):
        section, _, key = path.partition(".")
        del (raw[section] if key else raw)[key or section]
    return raw


def bad_values(full: dict) -> dict:
    """For each key of a complete config, values it must reject whatever the rest holds."""
    n, d, m = full["n_clients"], full["d"], full["model"]["m"]
    return {
        "n_clients": [0, True, 2.0, "2", None, d + 1],
        "d": [0, True, 8.5, "16", None, n - 1],
        "bitwidths": [None, "4", [0] * n, [True] * n, [2.5] * n, [4] * (n + 1), [MAX_RATE + 1] * n],
        "rounds": [0, True, 1.5, None],
        "grad_extra_bits": [-1, True, 0.5, None, MAX_RATE],
        "local_epochs": [0, True, 1.5, None],
        "batch_size": [0, True, 2.5, "64"],
        "aug_sigma": [-1.0, math.nan, math.inf, True, "0.1", None],
        "quantize_activations": [0, 1, "true", None],
        "lr": [None, 5, []],
        "lr.kind": ["linear", 1, None],
        "lr.base": [0, -0.1, True, math.nan, math.inf, "0.1"],
        "model.layers": [[], [d], "x", [d, 0], [d, True], [d, 2.5], [d + 1, m], [d, d + 1]],
        "model.activation": ["tanh", 1, None],
        "model.m": [0, d + 1, True, 1.5, None],
        "data.frequent_count": [0, -1, 2500.5, True, "100", None],
        "data.infrequent_exponent": [0.0, 1.0, 1.5, math.nan, "0.3", True, None],
        "seeds.data": [-1, True, 1.5, "0", None],
        "seeds.training": [-1, True, 1.5, None],
        "metrics.moreau": [0, 1, "false", None],
        "metrics.representability": [0, 1, "false", None],
        "output_dir": [5, None, ["a"]],
    }


def write_cfg(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(minimal(**over)))
    return path


class TestConfig:
    def test_minimal_defaults(self):
        cfg = config_from_dict(minimal())
        assert cfg.client == cl.ClientConfig(grad_extra_bits=2, activation="identity", aug_sigma=0.1,
                                             quantize_activations=False, local_epochs=1, batch_size=64)
        assert cfg.model_layers == (32, 2)  # m defaults to n_clients
        assert cfg.data.n == 2 and cfg.data.seed == 0
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
        ({"seeds": None}, "seeds"),
        ({"lr": {"kind": "linear"}}, "lr.kind"),
        ({"model": {"activation": "tanh"}}, "model.activation"),
        ({"seeds": [["data", 3]]}, "seeds"),
        ({"seeds": 5}, "seeds"),
        *[({section: value}, section)
          for section, pairs in (("lr", [["kind", "constant"]]), ("model", []),
                                 ("data", [["frequent_count", 300]]), ("metrics", [["moreau", False]]))
          for value in (None, pairs, 5)],
    ])
    def test_no_silent_coercion(self, over, key):
        # JSON true loaded as 1.0, Infinity passed, 100.5 samples and
        # output_dir 5 reached the run, and a negative seed reached
        # np.random.SeedSequence; each must name its JSON key instead,
        # whether config checks it (lr.kind, seeds.training, output_dir)
        # or the type that holds it (ClientConfig: aug_sigma and
        # model.activation; DataGenParams: data.* and seeds.data). A
        # section that is not a JSON object must not become one: dict()
        # raised TypeError on null or a number and took a list of pairs.
        with pytest.raises(ValidationError, match=f"^{key} must be"):
            config_from_dict(minimal(**over))

    @pytest.mark.parametrize("key, value, message", [
        ("local_epochs", 0, r"local_epochs must be an integer >= 1"),
        ("local_epochs", 1.5, r"local_epochs must be an integer >= 1"),
        ("batch_size", 0, r"batch_size must be None \(full batch\) or an integer >= 1"),
        ("batch_size", True, r"batch_size must be None \(full batch\) or an integer >= 1"),
    ], ids=["epochs-zero", "epochs-real", "batch-zero", "batch-bool"])
    def test_the_local_recipe_is_checked_before_its_client_config(self, key, value, message):
        # ClientConfig alone checks these, as it is built, so no client
        # config ever holds them; config re-raises its InvalidParams as a
        # ValidationError that names the JSON key.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            config_from_dict(minimal(**{key: value}))

    def test_bitwidth_above_cap_rejected(self):
        # Validation only: a 2^32-center codebook is never built.
        with pytest.raises(ValidationError, match="bitwidths"):
            config_from_dict(minimal(bitwidths=[30, 4]))

    def test_gradient_rate_counts_toward_cap(self):
        cfg = config_from_dict(minimal(bitwidths=[MAX_RATE - 2, 4]))
        assert cfg.client.grad_extra_bits == 2
        config_from_dict(minimal(bitwidths=[MAX_RATE, 4], grad_extra_bits=0))
        with pytest.raises(ValidationError, match="grad_extra_bits"):
            config_from_dict(minimal(bitwidths=[MAX_RATE - 1, 4]))

    def test_layer_chain_must_match_dims(self):
        with pytest.raises(ValidationError, match="model.layers"):
            config_from_dict(minimal(model={"layers": [16, 2], "m": 2}))

    def test_m_defaults_to_the_width_layers_ends_at(self):
        raw = {"n_clients": 2, "d": 8, "bitwidths": [4, 8], "rounds": 1, "model": {"layers": [8, 3]}}
        cfg = config_from_dict(raw)
        assert cfg.model_layers == (8, 3) and cfg.to_json_dict()["model"]["m"] == 3

    @pytest.mark.parametrize("model, message", [
        ({"layers": [8, 3], "m": 2}, "model.layers must end at the representation dim m"),
        ({"layers": [8, 16, 9]}, "model.m must be an integer in \\[1, d\\]"),
        ({"m": 9}, "model.m must be an integer in \\[1, d\\]"),
    ], ids=["disagree", "wider-than-d", "m-wider-than-d"])
    def test_m_and_layers_are_checked_together(self, model, message):
        with pytest.raises(ValidationError, match=message):
            config_from_dict({"n_clients": 2, "d": 8, "bitwidths": [4, 8], "rounds": 1, "model": model})

    @pytest.mark.parametrize("data, message", [
        ({"frequent_count": 0}, "data.frequent_count must be an integer >= 1"),
        ({"infrequent_exponent": 1.5}, r"data.infrequent_exponent must be in \(0, 1\)"),
        ({"frequent_count": 1},
         r"data.frequent_count must be at least the n \* ceil\(d\^infrequent_exponent\) = 6 infrequent samples"),
    ], ids=["no-frequent", "beta-past-one", "infrequent-exceeds-frequent"])
    def test_data_section_invalid_names_the_reason(self, data, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            config_from_dict(minimal(data=data))

    @settings(max_examples=100, deadline=None)
    @given(raw=raw_configs(), data=st.data())
    def test_a_config_echoes_itself_and_names_any_bad_key(self, raw, data):
        cfg = config_from_dict(raw)
        full = cfg.to_json_dict()
        assert config_from_dict(full) == cfg
        # One bad value must fail as a ValidationError; a TypeError,
        # ValueError or the types' own InvalidParams must not escape.
        bad = bad_values(full)
        path = data.draw(st.sampled_from(sorted(bad)))
        section, _, key = path.partition(".")
        (full[section] if key else full)[key or section] = data.draw(st.sampled_from(bad[path]))
        with pytest.raises(ValidationError):
            config_from_dict(full)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_clients": 2,\n  "oops"\n}')
        with pytest.raises(ParseError, match=r"bad\.json:\d+:\d+"):
            load_config(path)


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

        def boom(self, models):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected failure at round 3")
            return real(self, models)

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

        def spy(weights, grads, lr, cohort):
            seen.extend([lr] * len(cohort.rngs))  # one step per client in the cohort
            return real(weights, grads, lr, cohort)

        monkeypatch.setattr(exp.cl, "local_update", spy)
        cfg = config_from_dict(small_run_dict(
            tmp_path, rounds=4, local_epochs=2, batch_size=16,
            lr={"kind": kind, "base": 0.02},
        ))
        res = run_experiment(cfg)
        assert math.isnan(res.records[0].alpha)
        assert [r.alpha for r in res.records[1:]] == {
            "inverse_sqrt": [0.02 / math.sqrt(t) for t in range(1, 5)],
            "constant": [0.02] * 4,
        }[kind]
        # several minibatches per epoch, two epochs per round
        assert all(len(st) > 2 for r in res.records[1:] for st in r.stats.values())
        expected = [r.alpha for r in res.records[1:] for st in r.stats.values() for _ in range(len(st))]
        assert seen == expected

    def test_heterogeneous_bitwidths_recorded(self, tmp_path):
        cfg = config_from_dict(small_run_dict(tmp_path, bitwidths=[4, 8], rounds=4))
        res = run_experiment(cfg)
        e4 = np.mean([r.stats[1].mean_weight_error() for r in res.records[1:]])
        e8 = np.mean([r.stats[2].mean_weight_error() for r in res.records[1:]])
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
        assert all(st.mean_weight_error() >= 0.0 for st in res.records[-1].stats.values())


def diverging_run_dict(tmp_path):
    return {
        "n_clients": 2,
        "d": 8,
        "bitwidths": [4, 8],
        "rounds": 3,
        "lr": {"base": 5},
        "output_dir": str(tmp_path / "run"),
    }


    def test_auto_lr_rejects_a_zero_covariance(self):
        with pytest.raises(ValidationError, match="cannot auto-scale lr: global covariance is zero"):
            exp.resolve_lr_base(config_from_dict(minimal()), np.zeros((32, 32)))


class TestDivergence:
    # No np.errstate here: tier-1 turns RuntimeWarnings into errors, so an
    # overflow warning escaping the run would replace Diverged.
    def test_names_the_client_whose_shard_holds_inf(self):
        init = cl.init_layers([6, 3], np.random.default_rng(4), 0.3)
        shards = {}
        for k in (1, 2, 3):
            x = np.random.default_rng(k).normal(size=(20, 6))
            if k == 2:
                x[5, 1] = np.inf
            shards[k] = DataShard(k, x, np.zeros(20, dtype=np.uint32))
        bits = dict.fromkeys(shards, 4)
        cohorts = cl.start_clients(cl.ClientConfig(batch_size=8), init, bits,
                                   {k: np.random.default_rng(k) for k in shards}, shards)
        with pytest.raises(Diverged) as info:
            exp.step_round(cohorts, sv.ServerState(bits, dict.fromkeys(shards, 20), seed=0), 0.05)
        assert (info.value.round, info.value.client, info.value.phase) == (1, 2, "client update")
        assert isinstance(info.value.__cause__, NonFiniteInput)

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

        def fail_in_round_2(cohort, *args):
            if next(calls) == 2:  # both clients train in one lockstep call per round
                raise RuntimeError("injected failure")
            return real(cohort, *args)

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

        def diverge_in_round_3(cohort, *args):
            if next(calls) == 3:  # both clients train in one lockstep call per round
                raise NonFiniteInput("injected non-finite update")
            return real(cohort, *args)

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

    def test_report_of_a_header_only_file_exits_1(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("round,global_loss,moreau\n")
        assert cli_dispatch(["report", "--metrics", str(metrics)]) == 1
        assert "metrics file has no data rows" in capsys.readouterr().err

    def test_run_threads_flag_deterministic(self, tmp_path, capsys):
        # Clients train in id order on one thread: CLI reruns are
        # byte-identical, and there is no thread-count flag to vary.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_run_dict(tmp_path)))
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t1")]) == 0
        assert cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / "t2")]) == 0
        assert (tmp_path / "t1" / "metrics.csv").read_bytes() == (tmp_path / "t2" / "metrics.csv").read_bytes()
        # Nor a second source of shards: the config alone defines the run.
        for flag in (["--threads", "1"], ["--data", str(tmp_path)]):
            capsys.readouterr()
            assert cli_dispatch(["run", "--config", str(cfg_path), *flag]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_rejects_a_section_that_is_not_an_object(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, seeds=None, output_dir=str(tmp_path / "run"))
        assert cli_dispatch(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds must be a JSON object" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rates", ["3..x", "a,b", "5", "8..3", "0,3", "3..30"])
    def test_quantprobe_rejects_bad_rates(self, tmp_path, capsys, rates):
        # A slope needs two distinct rates, each a valid codebook rate;
        # anything else fails before any work.
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

    @pytest.mark.parametrize("draws", ["-1", "0"])
    def test_quantprobe_rejects_bad_draws(self, tmp_path, capsys, draws):
        out = tmp_path / "probe.csv"
        argv = ["quantprobe", "--rates", "3..4", "--draws", draws, "--out", str(out)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--draws" in err
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
