"""Lockstep training: clients trained together as one batch over ragged
codebooks must get exactly the bytes each gets training alone, and a
cohort's step weights are always its quantized model's values."""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedq import client as cl
from fedq import experiment as exp
from fedq import quantkit as qk
from fedq.config import config_from_dict
from fedq.datagen import DataShard
from fedq.errors import NonFiniteInput
from fedq.experiment import step_round
from fedq.server import ServerState

from conftest import examples
from oracle import (fit_and_quantize_one, quantile_codebook, quantize_one, reference_bracket, start_client,
                    tanh_codebook)

D = 6


def _shard(k, rows, kind, seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(rows, D))
    if kind == "ties":  # repeated values and signed zeros
        x = np.round(x * 2.0) / 2.0
        x[x == 0.0] = r.choice([-0.0, 0.0], size=int((x == 0.0).sum()))
    elif kind == "zeros":  # zero data: an all-zero upstream gradient row
        x = np.zeros((rows, D))
    return DataShard(k, x)


def _assert_same_model(a: list[qk.QuantizedTensor], b: list[qk.QuantizedTensor]):
    for la, lb in zip(a, b, strict=True):
        assert la.indices.dtype == lb.indices.dtype
        assert la.indices.tobytes() == lb.indices.tobytes()
        assert la.codebook.plan.rates == lb.codebook.plan.rates
        assert la.codebook.centers.tobytes() == lb.codebook.centers.tobytes()


_local_update = cl.local_update


def _checked_update(weights, grads, lr, cohort: cl.Cohort):
    """``cl.local_update``, whose next step's weights are each its quantized
    layer's values, byte for byte."""
    model, values, eps_w_sq = _local_update(weights, grads, lr, cohort)
    for w, q in zip(values, model, strict=True):
        decoded = qk.dequantize(q)
        assert w.shape == decoded.shape and w.tobytes() == decoded.tobytes()
    return model, values, eps_w_sq


def _assert_same_stats(a: cl.QuantErrorStats, b: cl.QuantErrorStats):
    for field in ("grad_error_sq", "weight_error_sq", "grad_norm_sq"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@settings(max_examples=examples(25), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    kinds=st.lists(st.sampled_from(["normal", "ties", "zeros"]), min_size=4, max_size=4),
    sizes=st.sampled_from(["equal", "unequal"]),
    batch_size=st.sampled_from([None, 8]),
    model=st.sampled_from(["linear", "relu-actq"]),
    sigma=st.sampled_from([0.0, 0.1]),
    group_cap=st.sampled_from([cl.LOCKSTEP_ELEMENTS, 2 * 8 * D]),
)
def test_lockstep_round_matches_each_client_alone(seed, bits, kinds, sizes, batch_size, model, sigma,
                                                 group_cap):
    ids = list(range(1, len(bits) + 1))
    rows = {k: 20 if sizes == "equal" else 17 + 3 * (k % 2) for k in ids}
    shards = {k: _shard(k, rows[k], kinds[k - 1], seed + k) for k in ids}
    dims = [D, 3] if model == "linear" else [D, 5, 3]
    init = cl.init_layers(dims, np.random.default_rng(seed), 0.3)
    cfg = cl.ClientConfig(aug_sigma=sigma, activation="identity" if model == "linear" else "relu",
                          quantize_activations=model != "linear", local_epochs=2, batch_size=batch_size)
    bits = dict(zip(ids, bits))
    # A full-batch cohort adopts its shards' arrays, so the clients alone
    # train on copies of the shards, not on the shards the cohorts stack.
    alone = {k: start_client(cfg, bits[k], init, np.random.default_rng([seed, k]),
                             DataShard(k, shards[k].samples.copy())) for k in ids}

    saved = cl.LOCKSTEP_ELEMENTS
    cl.LOCKSTEP_ELEMENTS, cl.local_update = group_cap, _checked_update
    try:
        cohorts = cl.start_clients(cfg, init, bits, {k: np.random.default_rng([seed, k]) for k in ids}, shards)
        stats, sent = step_round(cohorts, ServerState(bits, {k: s.size for k, s in shards.items()}, seed=seed), 0.05)
        owns = {k: cl.run_local_epochs(alone[k], 0.05) for k in ids}
    finally:
        cl.LOCKSTEP_ELEMENTS, cl.local_update = saved, _local_update

    rngs = {k: rng for c in cohorts for k, rng in zip(c.ids, c.rngs)}
    for k in ids:
        assert len(owns[k]) == len(stats[k])
        _assert_same_stats(stats[k], owns[k][0])
        _assert_same_model(sent[k], alone[k].models[0])
        assert rngs[k].random() == alone[k].rngs[0].random()


def test_lockstep_returns_client_steps_summed():
    shards = {k: _shard(k, 20, "normal", k) for k in (1, 2, 3)}
    init = cl.init_layers([D, 3], np.random.default_rng(0), 0.3)
    bits = {1: 3, 2: 3, 3: 6}
    (cohort,) = cl.start_clients(cl.ClientConfig(local_epochs=2, batch_size=8), init, bits,
                                 {k: np.random.default_rng(b) for k, b in bits.items()}, shards)
    stats = cl.run_local_epochs(cohort, 0.05)
    assert stats.grad_error_sq.shape == (3, 6)  # three clients, 2 epochs of 3 batches
    assert len(stats) == 18


def test_start_clients_forms_cohorts_by_shard_size_in_id_order(monkeypatch):
    # Sizes 20, 21, 20, 20, 21: the 20-row shards form cohorts first (client
    # 1 has the lowest id), then the 21-row ones; a cap of two 20 x 6
    # activation batches splits 1, 3, 4 after two clients and leaves each
    # 21-row client alone.
    # Each call adopts shards of its own: a full-batch cohort stacks the
    # shards it is given, so a later call must not re-adopt them.
    sizes = {1: 20, 2: 21, 3: 20, 4: 20, 5: 21}
    shards = {k: _shard(k, n, "normal", k) for k, n in sizes.items()}
    init = cl.init_layers([D, 3], np.random.default_rng(0), 0.3)
    bits = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6}

    def copy(k):
        return DataShard(k, shards[k].samples.copy())

    def start(cap, given):
        monkeypatch.setattr(cl, "LOCKSTEP_ELEMENTS", cap)
        return cl.start_clients(cl.ClientConfig(batch_size=None), init, bits,
                                {k: np.random.default_rng(k) for k in bits}, given)

    for cap, ids in ((cl.LOCKSTEP_ELEMENTS, [(1, 3, 4), (2, 5)]), (2 * 20 * D, [(1, 3), (4,), (2,), (5,)])):
        given = {k: copy(k) for k in shards}
        cohorts = start(cap, given)
        assert [c.ids for c in cohorts] == ids
        for c in cohorts:
            assert all(np.shares_memory(given[k].samples, c.samples) for k in c.ids)
    for c in cohorts:
        assert c.bits == tuple(bits[k] for k in c.ids)
        assert [x.tobytes() for x in c.samples] == [shards[k].samples.tobytes() for k in c.ids]
        assert c.grad_bits == tuple(bits[k] + 2 for k in c.ids)
        for k, model, rng in zip(c.ids, c.models, c.rngs, strict=True):
            own = start_client(cl.ClientConfig(), bits[k], init, np.random.default_rng(k), copy(k))
            _assert_same_model(model, own.models[0])
            assert rng.random() == own.rngs[0].random()


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.sampled_from([1, 5, 12, 30]), min_size=1, max_size=6),
    dims=st.lists(st.integers(1, 12), min_size=2, max_size=3),
    batch_size=st.one_of(st.none(), st.integers(1, 40)),
    cap=st.integers(1, 2500),
)
def test_every_cohort_step_trains_within_the_cap(seed, sizes, dims, batch_size, cap):
    # Each step's batch (clients x step rows) times the widest layer holds
    # at most LOCKSTEP_ELEMENTS elements, or its cohort is one client: a
    # cohort trains only at the batch size its cap was checked at.
    rng = np.random.default_rng(seed)
    shards = {k: DataShard(k, rng.normal(size=(rows, dims[0])))
              for k, rows in enumerate(sizes, start=1)}
    init = cl.init_layers(dims, rng, 0.3)
    widest = max(max(w.shape) for w in init)
    steps = []
    forward = cl.quantized_forward

    def spy(batch, weights, cohort):
        steps.append((batch.shape, len(cohort.ids)))
        return forward(batch, weights, cohort)

    saved = cl.LOCKSTEP_ELEMENTS
    cl.LOCKSTEP_ELEMENTS, cl.quantized_forward = cap, spy
    try:
        cohorts = cl.start_clients(cl.ClientConfig(batch_size=batch_size), init, dict.fromkeys(shards, 3),
                                   {k: np.random.default_rng([seed, k]) for k in shards}, shards)
        # Random shards can diverge at this step size. As in step_round,
        # the quantizer reports it: that ends the cohort's training, after
        # the steps it took were recorded.
        with np.errstate(over="ignore", invalid="ignore"):
            for c in cohorts:
                try:
                    cl.run_local_epochs(c, 0.05)
                except NonFiniteInput:
                    pass
    finally:
        cl.LOCKSTEP_ELEMENTS, cl.quantized_forward = saved, forward
    assert sorted(k for c in cohorts for k in c.ids) == sorted(shards)
    assert len(steps) >= len(cohorts)
    for (clients, rows, _), members in steps:
        assert clients == members
        assert clients == 1 or clients * rows * widest <= cap, (clients, rows, widest, cap)


def _mixed_shards():
    """Clients 1, 3, 4 hold 20 rows, clients 2 and 5 hold 21: two cohorts."""
    return {k: _shard(k, n, "normal", k) for k, n in {1: 20, 2: 21, 3: 20, 4: 20, 5: 21}.items()}


def _start(shards, batch_size):
    init = cl.init_layers([D, 3], np.random.default_rng(0), 0.3)
    bits = {k: 2 + k for k in shards}
    return cl.start_clients(cl.ClientConfig(local_epochs=2, batch_size=batch_size), init, bits,
                            {k: np.random.default_rng(k) for k in bits}, shards)


def test_a_full_batch_cohort_holds_its_shards_samples_in_one_stack():
    shards = _mixed_shards()
    twins = {k: DataShard(k, s.samples.copy()) for k, s in shards.items()}
    cohorts = _start(shards, None)
    assert [c.ids for c in cohorts] == [(1, 3, 4), (2, 5)]
    for c in cohorts:
        assert c.samples.shape == (len(c.ids), shards[c.ids[0]].size, D) and c.samples.dtype == np.float64
        for r, k in enumerate(c.ids):
            # Each shard's samples is its row of the stack, with the bytes and
            # covariance it had as an array of its own.
            shard = shards[k]
            assert np.shares_memory(shard.samples, c.samples) and shard.samples.base is c.samples
            assert shard.samples.tobytes() == c.samples[r].tobytes() == twins[k].samples.tobytes()
            assert shard.covariance().tobytes() == twins[k].covariance().tobytes()


def test_a_minibatch_cohort_keeps_its_shards_arrays():
    shards = _mixed_shards()
    arrays = {k: s.samples for k, s in shards.items()}
    for c in _start(shards, 8):
        assert len(c.samples) == len(c.ids)
        for k, x in zip(c.ids, c.samples, strict=True):
            assert x is arrays[k] and shards[k].samples is arrays[k]


@pytest.mark.parametrize("batch_size", [None, 64])
def test_a_full_batch_step_trains_on_the_stack_in_place(batch_size, monkeypatch):
    # Every step's batch is the cohort's stack itself, not a copy, and no
    # step writes to it; a batch size of at least the shards' rows is full
    # batch too.
    shards = _mixed_shards()
    cohorts = _start(shards, batch_size)
    batches = []
    forward = cl.quantized_forward

    def spy(batch, weights, cohort):
        batches.append((batch, cohort))
        return forward(batch, weights, cohort)

    monkeypatch.setattr(cl, "quantized_forward", spy)
    for c in cohorts:
        cl.run_local_epochs(c, 0.05)
        assert all(np.shares_memory(shards[k].samples, c.samples) for k in c.ids)
    assert len(batches) == 2 * len(cohorts)
    for batch, cohort in batches:
        assert batch is cohort.samples
        for row, k in zip(batch, cohort.ids, strict=True):
            assert row.tobytes() == _shard(k, shards[k].size, "normal", k).samples.tobytes()


def test_a_trained_cohort_keeps_only_its_clients_compact_models(monkeypatch):
    shards = {k: _shard(k, 20, "normal", k) for k in (1, 2, 3)}
    init = cl.init_layers([D, 5, 3], np.random.default_rng(0), 0.3)
    bits = {1: 3, 2: 9, 3: 6}
    (cohort,) = cl.start_clients(cl.ClientConfig(local_epochs=2, batch_size=8), init, bits,
                                 {k: np.random.default_rng(k) for k in bits}, shards)
    last = []

    def spy(weights, grads, lr, cohort):
        model, values, eps_w_sq = _local_update(weights, grads, lr, cohort)
        last[:] = values
        return model, values, eps_w_sq

    monkeypatch.setattr(cl, "local_update", spy)
    cl.run_local_epochs(cohort, 0.05)
    assert len(cohort.models) == 3
    for r, (b, model) in enumerate(zip(cohort.bits, cohort.models)):
        # Row r of the last step's batch, in the dtype its bitwidth needs.
        for q, values, w in zip(model, last, init, strict=True):
            assert q.indices.dtype == (np.uint8 if b <= 8 else np.uint16)
            assert q.shape == w.shape and q.codebook.plan.rates == (b,)
            assert qk.dequantize(q).tobytes() == values[r].tobytes()


_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload, size", [("linear-minibatch", 4), ("linear-fullbatch-16c", 4), ("relu-actq", 4)])
def test_benchmark_workloads_train_in_cohorts_of(workload, size, monkeypatch, tmp_path):
    # cl.LOCKSTEP_ELEMENTS sets these: 4 x 64 x 32, 4 x 64 x 64 and four
    # full batches of 188 x 64 fit under it, five of 188 x 64 do not; each
    # workload has 4 or 16 clients. One round at full shapes.
    raw = dict(workloads.make_config(workload, workloads.DEFAULT_SEED), rounds=1, output_dir=str(tmp_path))
    sizes = []
    train = cl.run_local_epochs

    def spy(cohort, *args):
        sizes.append(len(cohort.ids))
        return train(cohort, *args)

    monkeypatch.setattr(cl, "run_local_epochs", spy)
    exp.run_experiment(config_from_dict(raw))
    assert set(sizes) == {size} and sum(sizes) == raw["n_clients"]


@pytest.mark.parametrize("clients, shapes, chunks", [
    (1, [(16, 64)], [1]),
    (4, [(16, 64)], [4]),
    (5, [(16, 64)], [2, 3]),
    (9, [(32, 32)], [3, 3, 3]),
    (16, [(16, 64)], [4, 4, 4, 4]),
    (17, [(16, 64), (32, 64)], [3, 3, 4, 3, 4]),
    (6, [(64, 64), (4, 64)], [6]),
    (40, [(8, 32)], [13, 13, 14]),
    (3, [(8, 32)], [3]),
], ids=["one", "one-chunk", "ragged", "even", "benchmark-16c", "ragged-two-layers", "small-layer", "small-rows",
        "under-one-chunk"])
def test_chunked_quantization_equals_each_client_alone(clients, shapes, chunks, monkeypatch):
    # Chunks of clients: each client gets the bytes of a batch of one on its
    # own stream, whichever chunk it lands in.
    rng = np.random.default_rng(clients)
    layers = [rng.normal(size=s) for s in shapes]
    bits = tuple(int(b) for b in rng.choice([2, 3, 5, 8], size=clients))
    rngs = [np.random.default_rng([clients, r]) for r in range(clients)]
    twins = copy.deepcopy(rngs)
    sizes = []
    quantize = cl.quantize_model

    def spy(batch, *args):
        sizes.append(len(batch[0]))
        return quantize(batch, *args)

    monkeypatch.setattr(cl, "quantize_model", spy)
    models, err_sq = cl.quantize_for_clients(layers, bits, rngs)
    assert sizes == chunks
    for r, (model, b) in enumerate(zip(models, bits)):
        eps = 0.0
        for got, w in zip(model, layers):
            want, values, err = fit_and_quantize_one(w, b, "tanh", twins[r])
            # The stored tensor: compact indices and a one-row codebook whose
            # read-only centers and degenerate flag are its row of the batch.
            cb = got.codebook
            assert got.indices.dtype == want.indices.dtype == np.uint8
            assert got.indices.tobytes() == want.indices.tobytes()
            assert cb.plan.rates == (b,) and cb.centers.size == 2**b and not cb.centers.flags.writeable
            assert cb.centers.tobytes() == want.codebook.centers.tobytes()
            assert cb.degenerate.tolist() == [bool(cb.centers[-1] - cb.centers[0] < qk.RANGE_EPS)]
            assert qk.dequantize(got).tobytes() == values.tobytes()
            eps += err
        assert err_sq[r] == eps
        assert rngs[r].random() == twins[r].random()


def test_chunked_quantization_counts_a_failing_row_over_all_clients(monkeypatch):
    # Nine clients of a 1024-element layer quantize in chunks of 3; a
    # failure at row 1 of the second chunk is client 4.
    quantize = cl.quantize_model

    def fails_in_chunk_two(batch, bits, rngs):
        if fails_in_chunk_two.calls == 1:
            raise NonFiniteInput("non-finite", row=1)
        fails_in_chunk_two.calls += 1
        return quantize(batch, bits, rngs)

    fails_in_chunk_two.calls = 0
    monkeypatch.setattr(cl, "quantize_model", fails_in_chunk_two)
    rngs = [np.random.default_rng(r) for r in range(9)]
    with pytest.raises(NonFiniteInput) as info:
        cl.quantize_for_clients([np.ones((32, 32))], (4,) * 9, rngs)
    assert info.value.row == 4


_BUILD = {"tanh": tanh_codebook, "quantile": quantile_codebook}


def _row(seed, kind, n):
    r = np.random.default_rng(seed)
    if kind == "normal":
        return r.normal(size=n) * 10.0 ** r.uniform(-3, 2)
    if kind == "cauchy":
        return r.standard_cauchy(size=n)
    if kind == "ties":
        return r.choice([-0.0, 0.0, 0.0, 1.0, -0.5, 2.5], size=n)
    if kind == "saturated":
        return r.uniform(18.0, 40.0, size=n)
    if kind == "collapsed":  # one outlier among equal values: the quantiles collapse
        return r.permutation(np.r_[np.zeros(n - 1), r.normal()])
    return np.full(n, r.normal())  # constant: a degenerate row


@settings(max_examples=examples(150), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    compander=st.sampled_from(["tanh", "quantile"]),
    rates=st.lists(st.integers(1, 10), min_size=1, max_size=5),
    kinds=st.lists(st.sampled_from(["normal", "cauchy", "ties", "saturated", "collapsed", "constant"]),
                   min_size=5, max_size=5),
    n=st.sampled_from([1, 7, 128, 129, 600]),
)
# Every row degenerate: nothing is drawn and the kernel is not called.
@example(seed=5, compander="tanh", rates=[3, 1, 6], kinds=["constant"] * 5, n=128)
# Degenerate rows between live ones: the live rows alone draw and round.
@example(seed=9, compander="quantile", rates=[4, 2, 7, 3, 5],
         kinds=["normal", "constant", "constant", "cauchy", "constant"], n=129)
def test_ragged_fit_matches_each_row_searched(seed, compander, rates, kinds, n):
    x = np.stack([_row(seed + r, kinds[r], n) for r in range(len(rates))])
    rngs = [np.random.default_rng([seed, r]) for r in range(len(rates))]
    twins = copy.deepcopy(rngs)
    q, values = qk.fit_and_quantize(x, tuple(rates), compander, rngs)
    err_sq = qk.error_energy(values, x)
    for r, (rate, row) in enumerate(zip(rates, qk.unstack(q))):
        cb = _BUILD[compander](x[r], rate)
        ref = quantize_one(x[r], cb, twins[r])  # brackets searched, not fitted
        ref_values = qk.dequantize(ref)
        assert row.codebook.centers.tobytes() == cb.centers.tobytes()
        assert row.codebook.degenerate.tolist() == cb.degenerate.tolist()
        assert row.indices.dtype == ref.indices.dtype
        assert row.indices.tobytes() == ref.indices.tobytes()
        assert values[r].tobytes() == ref_values.tobytes()
        assert err_sq[r] == float(np.sum((ref_values - x[r]) ** 2))
        assert rngs[r].random() == twins[r].random()


@settings(max_examples=examples(150), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    compander=st.sampled_from(["tanh", "quantile"]),
    rates=st.lists(st.integers(1, 10), min_size=1, max_size=4),
    kinds=st.lists(st.sampled_from(["normal", "cauchy", "ties", "saturated", "collapsed", "constant"]),
                   min_size=4, max_size=4),
    n=st.sampled_from([7, 128, 512, 2048]),
)
def test_fitted_brackets_stay_in_their_row(seed, compander, rates, kinds, n):
    # The kernel reads c[b - 1] and c[b] for bracket b without clamping
    # it, so every fitted bracket must be its row's count of centers <= x
    # kept in [1, K - 1], plus the row's offset.
    x = np.stack([_row(seed + r, kinds[r], n) for r in range(len(rates))])
    cbs, n_le = qk.fit_codebook(x, tuple(rates), compander)
    plan = cbs.plan
    assert n_le.dtype == np.intp and n_le.shape == x.shape
    assert (n_le >= plan.row_start + 1).all()
    assert (n_le <= plan.row_start + plan.ks[:, None] - 1).all()
    for r in range(len(rates)):
        if not cbs.degenerate[r]:
            centers = cbs.centers[plan.first[r]:plan.last[r] + 1]
            assert (n_le[r] - plan.first[r]).tobytes() == reference_bracket(centers, x[r]).tobytes()


@pytest.mark.parametrize("rates", [(1,), (1, 2), (3, 1)])
def test_quantile_centers_match_np_interp_at_sample_positions(rates):
    # n - 1 = 128: rates 1-6 put centers exactly on samples, where np.interp
    # returns the sample itself; here one of them is -0.0.
    row = np.concatenate([-np.arange(32.0, 0.0, -1.0), [-0.0], np.arange(1.0, 97.0)])
    x = np.stack([np.random.default_rng(r).permutation(row) for r in range(len(rates))])
    plan = qk.fit_plan(x.shape[1], rates)
    cbs = qk.build_quantile_codebook(x, qk.sort_rows(x, plan)[0], plan)
    for r, rate in enumerate(rates):
        k = 2**rate
        ref = np.interp((np.arange(k) + 0.5) / k * 128, np.arange(129.0), np.sort(x[r]))
        assert cbs.centers[plan.first[r]:plan.last[r] + 1].tobytes() == ref.tobytes()
