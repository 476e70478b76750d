"""Server round logic: exact de-quantization, weighted aggregation,
per-client re-quantization, and order independence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedq import client as cl
from fedq import quantkit as qk
from fedq import server as sv
from fedq.errors import Diverged, DimensionMismatch, InvalidParams, NonFiniteInput

from conftest import examples
from oracle import expected_sq_error, fit_and_quantize_one, quantize_one, tanh_codebook


def quantized(w, bits, seed):
    rng = np.random.default_rng(seed)
    return quantize_one(w, tanh_codebook(w, bits), rng)


def requantize(layers, bits, rng):
    """``requantize_for_client`` of one client: (model, ||eps_r||^2)."""
    (model,), eps_r_sq = sv.requantize_for_client(layers, (bits,), [rng])
    return model, float(eps_r_sq[0])


class TestDequantize:
    def test_single_client_matches_quantkit(self):
        rng = np.random.default_rng(1)
        q = quantized(rng.normal(size=(2, 4)), 5, 2)
        out = sv.dequantize_client_models([[q]])
        np.testing.assert_array_equal(out[0][0], qk.dequantize(q))

    def test_mixed_bitwidths_use_own_codebooks(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 4))
        q4, q8 = quantized(w, 4, 4), quantized(w, 8, 5)
        out = sv.dequantize_client_models([[q4], [q8]])
        np.testing.assert_array_equal(out[0][0], q4.codebook.centers[q4.indices].reshape(2, 4))
        np.testing.assert_array_equal(out[1][0], q8.codebook.centers[q8.indices].reshape(2, 4))

    def test_requantize_round_trip_on_centers(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 3))
        model, eps = requantize([w], 6, rng)
        w2 = [qk.dequantize(model[0])]
        again, eps2 = requantize(w2, 6, np.random.default_rng(7))
        assert eps2 == 0.0
        np.testing.assert_array_equal(qk.dequantize(again[0]), qk.dequantize(model[0]))

    def test_shape_mismatch(self):
        # the lookup takes any shapes; the round's aggregate rejects them
        rng = np.random.default_rng(8)
        a = quantized(rng.normal(size=(2, 4)), 4, 1)
        b = quantized(rng.normal(size=(2, 5)), 4, 1)
        server = sv.ServerState({1: 4, 2: 4}, {1: 10, 2: 10}, seed=0)
        with pytest.raises(DimensionMismatch, match="^model layer shapes disagree$"):
            server.run_round({1: [a], 2: [b]})


def shares(counts):
    """The FedAvg shares a server fixes for clients 1..n of ``counts``."""
    return sv.ServerState(dict.fromkeys(range(1, len(counts) + 1), 4), dict(enumerate(counts, start=1)), seed=0).shares


class TestAggregate:
    def test_identical_models_fixed_point(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = sv.aggregate([[w], [w], [w]], shares([10, 20, 30]))
        np.testing.assert_allclose(out[0], w, atol=1e-12)

    def test_equal_scalars(self):
        out = sv.aggregate([[np.array([[0.0]])], [np.array([[2.0]])]], shares([5, 5]))
        assert out[0][0, 0] == 1.0

    def test_three_one_weighting(self):
        out = sv.aggregate([[np.array([[0.0]])], [np.array([[4.0]])]], shares([3, 1]))
        assert out[0][0, 0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParams, match="^no models to aggregate$"):
            sv.aggregate([], ())

    def test_one_share_per_model_required(self):
        with pytest.raises(DimensionMismatch, match="^2 models but 1 shares$"):
            sv.aggregate([[np.zeros(2)], [np.zeros(2)]], (1.0,))


class TestRequantize:
    def test_error_zero_at_codebook_centers(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(2, 6))
        model, _ = requantize([w], 5, rng)
        w2 = [qk.dequantize(model[0])]
        again, eps = requantize(w2, 5, rng)
        assert eps == 0.0

    def test_high_rate_relative_error(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, 8))
        _, eps = requantize([w], 16, rng)
        assert eps < 1e-4 * np.sum(w * w)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 8))
        e4 = np.mean([requantize([w], 4, rng)[1] for _ in range(100)])
        e8 = np.mean([requantize([w], 8, rng)[1] for _ in range(100)])
        assert e8 < e4

    def test_unbiased_over_draws(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 5))
        n = 10_000
        acc = np.zeros_like(w)
        for _ in range(n):
            model, _ = requantize([w], 5, rng)
            acc += qk.dequantize(model[0])
        acc /= n
        cb = tanh_codebook(w, 5)
        var = expected_sq_error(w, cb.centers).reshape(w.shape)
        tol = 3.0 * np.sqrt(var / n) + 1e-12
        assert np.all(np.abs(acc - w) <= tol)


class TestServerState:
    @settings(max_examples=examples(300), deadline=None)
    @given(counts=st.dictionaries(st.integers(-50, 50), st.integers(1, 2**40), min_size=2, max_size=12)
           .filter(lambda counts: len(set(counts.values())) > 1))
    def test_shares_are_correctly_rounded_ratios(self, counts):
        server = sv.ServerState(dict.fromkeys(counts, 4), counts, seed=0)
        total = sum(counts.values())
        assert server.ids == tuple(sorted(counts))
        for k, share in zip(server.ids, server.shares, strict=True):
            assert share == counts[k] / total == float(Fraction(counts[k], total))
        # One-hot models: entry k of the aggregate is client k's share alone.
        n = len(counts)
        out = sv.aggregate([[np.eye(n)[k]] for k in range(n)], server.shares)[0]
        assert out.tolist() == list(server.shares)

    def test_fixes_the_client_layout_at_construction(self):
        server = sv.ServerState({5: 8, 2: 4, 9: 6}, {9: 1, 5: 1, 2: 2}, seed=0)
        assert (server.ids, server.bits, server.shares) == ((2, 5, 9), (4, 8, 6), (0.5, 0.25, 0.25))
        # The layout is the one holder: the inputs it came from are not kept.
        assert not hasattr(server, "client_bitwidths") and not hasattr(server, "sample_counts")
        with pytest.raises(TypeError):
            sv.ServerState({1: 4}, {1: 1}, seed=0, shares=(1.0,))

    @pytest.mark.parametrize("counts, message", [
        ({1: 50}, "missing sample counts of clients [2]"),
        ({1: 50, 2: 50, 3: 50, 5: 50}, "unexpected sample counts of clients [3, 5]"),
        ({1: 0, 2: 50}, "non-positive sample counts of clients [1]"),
        ({2: -3}, "missing sample counts of clients [1], non-positive sample counts of clients [2]"),
    ], ids=["missing", "unexpected", "zero", "missing-and-negative"])
    def test_names_the_wrong_sample_counts_at_construction(self, counts, message):
        # The shard sizes are fixed for the run: checked once, when the
        # server takes them, never again in a round.
        with pytest.raises(InvalidParams) as info:
            sv.ServerState({1: 6, 2: 6}, counts, seed=99)
        assert str(info.value) == ("the server needs one positive sample count per client and no other; "
                                   + message)

    def test_rounds_weight_by_the_counts_taken_at_construction(self):
        one, three = (quantized(np.full((1, 2), v), 6, 1) for v in (0.0, 4.0))
        server = sv.ServerState({1: 6, 2: 6}, {1: 3, 2: 1}, seed=99)
        server.run_round({1: [one], 2: [three]})
        assert server.global_model[0].tolist() == [[1.0, 1.0]]


class TestRunRound:
    def make_server(self, bitwidths):
        return sv.ServerState(dict(enumerate(bitwidths, start=1)), dict.fromkeys(range(1, len(bitwidths) + 1), 50),
                              seed=99)

    def test_single_client_reduces_to_requantize(self):
        rng = np.random.default_rng(13)
        q = quantized(rng.normal(size=(2, 4)), 6, 14)
        server = self.make_server([6])
        out = server.run_round({1: [q]})
        np.testing.assert_array_equal(server.global_model[0], qk.dequantize(q))
        # dequantized output lives on a tanh codebook over the same range
        assert out[1][0].codebook.plan.rates == (6,)
        assert server.round_counter == 1

    def test_missing_client(self):
        rng = np.random.default_rng(15)
        q = quantized(rng.normal(size=(2, 4)), 6, 16)
        server = self.make_server([6, 6])
        with pytest.raises(InvalidParams, match=r"^round requires all clients and no others; missing models of clients \[2\]$"):
            server.run_round({1: [q]})

    @pytest.mark.parametrize("ids, message", [
        ([1], "missing models of clients [2]"),
        ([1, 2, 3], "unexpected models of clients [3]"),
    ], ids=["missing", "unexpected"])
    def test_names_the_wrong_ids_of_each_kind(self, ids, message):
        q = quantized(np.random.default_rng(15).normal(size=(2, 4)), 6, 16)
        server = self.make_server([6, 6])
        with pytest.raises(InvalidParams) as info:
            server.run_round({k: [q] for k in ids})
        assert str(info.value) == f"round requires all clients and no others; {message}"
        assert server.round_counter == 0 and server.global_model is None

    def assert_each_client_fit_alone(self, bitwidths, shapes, seed):
        # The re-quantization gives every client, whatever its bitwidth,
        # exactly what a batch of one gives on its own stream: same
        # indices, centers and ||eps_r||^2.
        rng = np.random.default_rng(seed)
        models = {k: [quantized(rng.normal(size=s), b, k) for s in shapes] for k, b in bitwidths.items()}
        server = sv.ServerState(bitwidths, {k: 7 + 2 * i for i, k in enumerate(bitwidths)}, seed=5)
        streams = {k: server._round_rng(k) for k in bitwidths}
        out = server.run_round(models)
        assert list(out) == sorted(bitwidths)
        for k, b in bitwidths.items():
            eps_r_sq = 0.0
            for layer, got in zip(server.global_model, out[k]):
                want, _, err = fit_and_quantize_one(layer, b, "tanh", streams[k])
                assert got.indices.dtype == want.indices.dtype
                assert got.indices.tobytes() == want.indices.tobytes()
                assert got.codebook.centers.tobytes() == want.codebook.centers.tobytes()
                eps_r_sq += err
            assert server.requant_error[k] == eps_r_sq

    def test_each_client_gets_a_fit_of_its_own(self):
        # One chunk of four clients, on a small layer and a large one.
        self.assert_each_client_fit_alone({2: 4, 3: 8, 5: 4, 9: 6}, [(8, 32), (64, 64)], 29)

    def test_clients_beyond_one_chunk_each_get_a_fit_of_their_own(self, monkeypatch):
        # Eleven clients of 1024-element layers: chunks of 3, 4 and 4 rows.
        chunks = []
        quantize = cl.quantize_model

        def spy(batch, *args):
            chunks.append(len(batch[0]))
            return quantize(batch, *args)

        monkeypatch.setattr(cl, "quantize_model", spy)
        bitwidths = {k: b for k, b in zip((1, 2, 4, 6, 7, 10, 11, 13, 20, 21, 30), (4, 5, 6, 8, 3) * 3)}
        self.assert_each_client_fit_alone(bitwidths, [(16, 64), (32, 32)], 31)
        assert chunks == [3, 4, 4]

    def test_report_order_invariance(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(3, 5))
        models = {
            1: [quantized(w + 0.1, 4, 18)],
            2: [quantized(w - 0.2, 6, 19)],
            3: [quantized(w, 5, 20)],
        }
        counts = {1: 10, 2: 30, 3: 60}

        s1 = sv.ServerState({1: 4, 2: 6, 3: 5}, counts, seed=7)
        s1.run_round(dict(sorted(models.items())))
        s2 = sv.ServerState({1: 4, 2: 6, 3: 5}, counts, seed=7)
        s2.run_round(dict(sorted(models.items(), reverse=True)))
        np.testing.assert_allclose(s1.global_model[0], s2.global_model[0], atol=1e-12)

    def test_identical_center_aligned_clients_pass_through(self):
        # both clients report the same model whose values sit at tanh
        # codebook centers; aggregation preserves them and requantization
        # rebuilds the identical codebook, so outputs equal inputs
        rng = np.random.default_rng(25)
        w = rng.normal(size=(2, 4))
        q = quantized(w, 5, 26)
        vals = qk.dequantize(q)
        server = sv.ServerState({1: 5, 2: 5}, {1: 10, 2: 10}, seed=8)
        models = {
            1: [quantized(vals, 5, 27)],
            2: [quantized(vals, 5, 28)],
        }
        out = server.run_round(models)
        assert server.requant_error == {1: 0.0, 2: 0.0}
        for k in (1, 2):
            np.testing.assert_array_equal(qk.dequantize(out[k][0]), vals)

    def test_requant_error_logged_per_client(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=(2, 4))
        server = sv.ServerState({1: 4, 2: 8}, {1: 5, 2: 5}, seed=3)
        server.run_round({1: [quantized(w, 4, 22)], 2: [quantized(w, 8, 23)]})
        log = server.requant_error
        assert set(log) == {1, 2}
        assert log[1] >= 0.0 and log[2] >= 0.0

    def test_non_finite_aggregate_names_round_and_client(self):
        # Ids 3 and 7 at two bitwidths: the client is id 3, not row 0 + 1.
        cb = qk.Codebooks(qk.fit_plan(0, (1,)), np.array([0.0, np.inf]), np.array([False]))
        q = qk.QuantizedTensor((2,), np.array([0, 1], dtype=np.uint8), cb)
        server = sv.ServerState({3: 4, 7: 8}, {3: 5, 7: 5}, seed=3)
        with pytest.raises(Diverged, match="round 1, client 3") as info:
            server.run_round({7: [q], 3: [q]})
        assert (info.value.round, info.value.client, info.value.phase) == (
            1, 3, "server requantize")
        assert isinstance(info.value.__cause__, NonFiniteInput)

    def test_non_finite_aggregate_past_one_chunk_names_the_lowest_client(self):
        # Nine clients of a 1024-element layer re-quantize in chunks of 3.
        cb = qk.Codebooks(qk.fit_plan(0, (1,)), np.array([0.0, np.inf]), np.array([False]))
        q = qk.QuantizedTensor((32, 32), np.tile(np.array([0, 1], dtype=np.uint8), 512), cb)
        ids = (4, 6, 9, 12, 15, 17, 23, 25, 31)
        server = sv.ServerState(dict(zip(ids, (8, 5, 4) * 3)), dict.fromkeys(ids, 5), seed=3)
        with pytest.raises(Diverged, match="round 1, client 4") as info:
            server.run_round({k: [q] for k in reversed(ids)})
        assert (info.value.client, info.value.phase) == (4, "server requantize")
