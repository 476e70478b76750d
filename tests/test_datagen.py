"""Synthetic-data construction, covariances, and the shard file format."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from fedq import datagen as dg
from fedq.cli import cli_dispatch
from fedq.config import load_config
from fedq.errors import DimensionMismatch, EmptyInput, InvalidParams

# README's FQDS header: magic, version u32, client u32, rows u64, d u64, little-endian.
FQDS_HEADER = struct.Struct("<4sIIQQ")


def read_fqds(path):
    """(client, samples, labels) of one exported shard file, parsed by README's layout."""
    raw = path.read_bytes()
    magic, version, k, rows, d = FQDS_HEADER.unpack_from(raw)
    assert (magic, version, len(raw)) == (b"FQDS", 1, FQDS_HEADER.size + rows * d * 8 + rows * 4)
    samples = np.frombuffer(raw, "<f8", rows * d, FQDS_HEADER.size).reshape(rows, d)
    return k, samples, np.frombuffer(raw, "<u4", rows, FQDS_HEADER.size + samples.nbytes)


def read_export(in_dir):
    """The DataGenParams that datagen.json rebuilds, and each client file read, in file order."""
    meta = json.loads((in_dir / "datagen.json").read_text())
    params = dg.DataGenParams(**{f.name: meta[f.name] for f in dataclasses.fields(dg.DataGenParams)})
    assert (meta["infrequent_count"], meta["tau"], meta["mu"]) == (params.infrequent_count, params.tau, params.mu)
    return params, [read_fqds(p) for p in sorted(in_dir.glob("client_*.fqds"))]


def test_scales_for_d32():
    p = dg.DataGenParams(n=2, d=32)
    assert p.tau == pytest.approx(2.0)
    assert p.mu == pytest.approx(0.5)
    assert p.tau * p.mu == pytest.approx(1.0, abs=1e-12)


def test_infrequent_count_ceiling():
    p = dg.DataGenParams(n=2, d=32, infrequent_exponent=0.3)
    assert p.infrequent_count == int(np.ceil(32**0.3))


def test_invalid_params():
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=5, d=4)
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=2, d=8, frequent_count=0)
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=4, d=256, frequent_count=10)  # infrequent exceeds frequent


def test_noise_free_construction():
    p = dg.DataGenParams(n=2, d=8, frequent_count=50, seed=1)
    shard = dg.generate_shard(p, 1, noise=False)
    class1 = shard.samples[shard.labels == 1]
    assert np.all(class1[:, 0] == 1.0)
    assert set(np.unique(class1[:, 1])) <= {0.0, -p.tau}
    class2 = shard.samples[shard.labels == 2]
    assert np.all(class2[:, 0] == -1.0)
    # infrequent class from the other client is a bare basis vector
    class3 = shard.samples[shard.labels == 3]
    np.testing.assert_array_equal(class3[:, 1], np.ones(len(class3)))


def test_class_count_audit():
    p = dg.DataGenParams(n=3, d=27, frequent_count=100, seed=5)
    k = 2
    shard = dg.generate_shard(p, k)
    counts = np.bincount(shard.labels, minlength=2 * p.n + 1)
    assert counts[2 * k - 1] == counts[2 * k] == p.frequent_count
    for i in range(1, p.n + 1):
        if i != k:
            assert counts[2 * i - 1] == p.infrequent_count
            assert counts[2 * i] == 0


def test_determinism_bit_identical():
    p = dg.DataGenParams(n=2, d=16, frequent_count=64, seed=77)
    a = dg.generate_shard(p, 2)
    b = dg.generate_shard(p, 2)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_clients_get_distinct_streams():
    p = dg.DataGenParams(n=2, d=16, frequent_count=64, seed=77)
    a = dg.generate_shard(p, 1)
    b = dg.generate_shard(p, 2)
    assert not np.array_equal(a.samples, b.samples)


class TestEmpiricalCovariance:
    def test_single_basis_sample(self):
        shard = dg.DataShard(1, np.eye(3)[:1], np.array([1], dtype=np.uint32))
        cov = dg.empirical_covariance(shard)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(cov, expected)

    def test_sign_cancels_in_outer_product(self):
        x = np.vstack([np.eye(3)[0], -np.eye(3)[0]])
        shard = dg.DataShard(1, x, np.array([1, 2], dtype=np.uint32))
        cov = dg.empirical_covariance(shard)
        assert cov[0, 0] == 1.0
        assert np.all(cov[1:, :] == 0.0)

    def test_interference_diagonal_scale(self):
        # Large-sample diagonal on a non-dominant support coordinate:
        # q ~ Uniform{0,1} gives tau^2/2 + mu^2 in expectation.
        p = dg.DataGenParams(n=2, d=32, frequent_count=20_000, seed=3)
        cov = dg.generate_shard(p, 1).covariance()
        target = p.tau**2 / 2 + p.mu**2
        assert abs(cov[1, 1] - target) / target < 0.1

    def test_cache_matches_direct(self):
        p = dg.DataGenParams(n=2, d=8, frequent_count=100, seed=9)
        shard = dg.generate_shard(p, 1)
        np.testing.assert_allclose(
            shard.covariance(), dg.empirical_covariance(shard), atol=1e-10
        )

    def test_psd(self):
        p = dg.DataGenParams(n=2, d=12, frequent_count=200, seed=4)
        cov = dg.generate_shard(p, 2).covariance()
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() > -1e-10


class TestGlobalCovariance:
    def test_single_shard_identity(self):
        p = dg.DataGenParams(n=1, d=8, frequent_count=100, seed=2)
        shard = dg.generate_shard(p, 1)
        np.testing.assert_allclose(
            dg.global_covariance([shard]), shard.covariance(), atol=1e-12
        )

    def test_two_equal_shards_mean(self):
        p = dg.DataGenParams(n=2, d=8, frequent_count=100, seed=2)
        shards = dg.generate_all_shards(p)
        got = dg.global_covariance(shards)
        np.testing.assert_allclose(
            got, 0.5 * (shards[0].covariance() + shards[1].covariance()), atol=1e-12
        )

    def test_pooled_equals_weighted(self):
        rng = np.random.default_rng(11)
        shards = [
            dg.DataShard(k, rng.normal(size=(50 * k, 6)), np.ones(50 * k, dtype=np.uint32))
            for k in (1, 2, 3)
        ]
        pooled = np.vstack([s.samples for s in shards])
        oracle = pooled.T @ pooled / pooled.shape[0]
        np.testing.assert_allclose(dg.global_covariance(shards), oracle, atol=1e-10)

    def test_dimension_mismatch(self):
        a = dg.DataShard(1, np.zeros((2, 3)), np.zeros(2, dtype=np.uint32))
        b = dg.DataShard(2, np.zeros((2, 4)), np.zeros(2, dtype=np.uint32))
        with pytest.raises(DimensionMismatch):
            dg.global_covariance([a, b])


def test_off_support_diagonal_is_noise_scale():
    p = dg.DataGenParams(n=2, d=32, frequent_count=4000, seed=6)
    cov = dg.generate_shard(p, 1).covariance()
    off_support = np.diag(cov)[p.n:]
    assert np.all(off_support <= 5 * p.mu**2)


def test_top_eigenvalues_dominate():
    p = dg.DataGenParams(n=2, d=32, frequent_count=1000, seed=8)
    cov = dg.generate_shard(p, 1).covariance()
    vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert vals[p.n - 1] >= (p.tau**2 / 4) * vals[p.n]


class TestShardIO:
    def test_round_trip(self, tmp_path):
        p = dg.DataGenParams(n=2, d=8, frequent_count=30, seed=10)
        shard = dg.generate_shard(p, 2)
        path = tmp_path / "c2.fqds"
        dg.write_shard(path, shard)
        k, samples, labels = read_fqds(path)
        assert k == 2
        np.testing.assert_array_equal(samples, shard.samples)
        np.testing.assert_array_equal(labels, shard.labels)

    def test_header_layout(self, tmp_path):
        p = dg.DataGenParams(n=1, d=4, frequent_count=5, seed=0)
        shard = dg.generate_shard(p, 1)
        path = tmp_path / "c1.fqds"
        dg.write_shard(path, shard)
        raw = path.read_bytes()
        assert raw[:4] == b"FQDS"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # client id
        assert int.from_bytes(raw[12:20], "little") == shard.size
        assert int.from_bytes(raw[20:28], "little") == 4

    def test_dataset_round_trip(self, tmp_path):
        p = dg.DataGenParams(n=2, d=8, frequent_count=20, seed=3)
        dg.write_dataset(tmp_path / "ds", p)
        params, files = read_export(tmp_path / "ds")
        assert params == p
        assert [k for k, _, _ in files] == [1, 2]
        np.testing.assert_array_equal(files[1][1], dg.generate_shard(p, 2).samples)


def test_datagen_command_exports_the_shards_a_run_generates(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_clients": 3, "d": 8, "bitwidths": [4, 5, 6], "rounds": 1,
                                    "data": {"frequent_count": 40}, "seeds": {"data": 11}}))
    cfg = load_config(cfg_path)
    assert cli_dispatch(["datagen", "--config", str(cfg_path), "--out", str(tmp_path / "ds")]) == 0
    params, files = read_export(tmp_path / "ds")
    assert params == cfg.data
    shards = dg.generate_all_shards(cfg.data)
    assert [k for k, _, _ in files] == [s.client_id for s in shards]
    for (_, samples, labels), shard in zip(files, shards):
        np.testing.assert_array_equal(samples, shard.samples)
        np.testing.assert_array_equal(labels, shard.labels)


@pytest.mark.parametrize("make, error, message", [
    (lambda: dg.DataGenParams(n=0), InvalidParams, "n must be an integer >= 1"),
    (lambda: dg.DataGenParams(n=True), InvalidParams, "n must be an integer >= 1"),
    (lambda: dg.DataGenParams(d=8.5), InvalidParams, "d must be an integer >= 1"),
    (lambda: dg.DataGenParams(n=5, d=4), InvalidParams, "n must be at most d = 4"),
    (lambda: dg.DataGenParams(frequent_count=2500.5), InvalidParams, "frequent_count must be an integer >= 1"),
    (lambda: dg.DataGenParams(n=4, d=256, frequent_count=10), InvalidParams,
     r"frequent_count must be at least the n \* ceil\(d\^infrequent_exponent\) = 24 infrequent samples"),
    # A negative seed would fail only later, inside SeedSequence, with a ValueError.
    (lambda: dg.DataGenParams(seed=-1), InvalidParams, "seed must be an integer >= 0"),
    (lambda: dg.DataGenParams(infrequent_exponent=0.0), InvalidParams, r"infrequent_exponent must be in \(0, 1\)"),
    (lambda: dg.DataGenParams(infrequent_exponent=1.0), InvalidParams, r"infrequent_exponent must be in \(0, 1\)"),
    (lambda: dg.DataShard(1, np.zeros(4), np.zeros(4)), InvalidParams, "samples must be a 2-D matrix"),
    (lambda: dg.DataShard(1, np.zeros((4, 2)), np.zeros(3)), InvalidParams, "labels length must equal sample count"),
    (lambda: dg.generate_shard(dg.DataGenParams(), 0), InvalidParams, r"client index 0 outside \[1, 4\]"),
    (lambda: dg.generate_shard(dg.DataGenParams(), 5), InvalidParams, r"client index 5 outside \[1, 4\]"),
    (lambda: dg.empirical_covariance(dg.DataShard(1, np.zeros((0, 3)), np.zeros(0))), EmptyInput,
     "shard has no samples"),
    (lambda: dg.global_covariance([]), EmptyInput, "no shards"),
], ids=["n-zero", "n-bool", "d-real", "n-past-d", "frequent-real", "infrequent-exceeds-frequent", "seed-negative",
        "beta-zero", "beta-one", "samples-1d", "labels-short", "client-zero", "client-past-n",
        "empty-shard", "no-shards"])
def test_rejects_bad_input_with_its_reason(make, error, message):
    with pytest.raises(error, match=message):
        make()
