"""Synthetic-data construction and covariances."""

import numpy as np
import pytest

from fedq import datagen as dg
from fedq.errors import DimensionMismatch, InvalidParams


def class_rows(p, k):
    """{class: row slice} of client k's shard, by the layout generate_shard documents:
    classes 2k-1 and 2k, then 2i-1 for each other client i in ascending i."""
    classes = [2 * k - 1, 2 * k] + [2 * i - 1 for i in range(1, p.n + 1) if i != k]
    counts = [p.frequent_count] * 2 + [p.infrequent_count] * (p.n - 1)
    ends = np.cumsum(counts)
    return {c: slice(end - count, end) for c, count, end in zip(classes, counts, ends)}


def test_scales_for_d32():
    p = dg.DataGenParams(n=2, d=32)
    assert p.tau == pytest.approx(2.0)
    assert p.mu == pytest.approx(0.5)
    assert p.tau * p.mu == pytest.approx(1.0, abs=1e-12)


def test_infrequent_count_ceiling():
    p = dg.DataGenParams(n=2, d=32)
    assert p.infrequent_count == int(np.ceil(32**0.3))


def test_invalid_params():
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=5, d=4)
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=2, d=8, frequent_count=0)
    with pytest.raises(InvalidParams):
        dg.DataGenParams(n=4, d=256, frequent_count=10)  # infrequent exceeds frequent


def test_noise_free_construction(monkeypatch):
    p = dg.DataGenParams(n=2, d=8, frequent_count=50, seed=1)
    # mu = 0 scales the Gaussian term away, exposing the bare class construction
    monkeypatch.setattr(dg.DataGenParams, "mu", property(lambda self: 0.0))
    shard = dg.generate_shard(p, 1)
    rows = class_rows(p, 1)
    class1 = shard.samples[rows[1]]
    assert np.all(class1[:, 0] == 1.0)
    assert set(np.unique(class1[:, 1])) <= {0.0, -p.tau}
    class2 = shard.samples[rows[2]]
    assert np.all(class2[:, 0] == -1.0)
    # infrequent class from the other client is a bare basis vector
    class3 = shard.samples[rows[3]]
    np.testing.assert_array_equal(class3, np.tile(np.eye(p.d)[1], (len(class3), 1)))


def test_class_count_audit(monkeypatch):
    p = dg.DataGenParams(n=3, d=27, frequent_count=100, seed=5)
    k = 2
    monkeypatch.setattr(dg.DataGenParams, "mu", property(lambda self: 0.0))
    samples = dg.generate_shard(p, k).samples
    rows = class_rows(p, k)
    assert len(samples) == 2 * p.frequent_count + (p.n - 1) * p.infrequent_count
    for c, r in rows.items():  # class 2i-1 sits at +e_i, class 2i at -e_i
        assert np.all(samples[r, (c + 1) // 2 - 1] == (1.0 if c % 2 else -1.0))
    for i in range(1, p.n + 1):
        if i != k:  # no row of class 2i: -1 at coordinate i appears nowhere
            assert not np.any(samples[:, i - 1] == -1.0)


def test_determinism_bit_identical():
    p = dg.DataGenParams(n=2, d=16, frequent_count=64, seed=77)
    a = dg.generate_shard(p, 2)
    b = dg.generate_shard(p, 2)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_clients_get_distinct_streams():
    p = dg.DataGenParams(n=2, d=16, frequent_count=64, seed=77)
    a = dg.generate_shard(p, 1)
    b = dg.generate_shard(p, 2)
    assert not np.array_equal(a.samples, b.samples)


class TestEmpiricalCovariance:
    def test_single_basis_sample(self):
        shard = dg.DataShard(1, np.eye(3)[:1])
        cov = dg.empirical_covariance(shard)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(cov, expected)

    def test_sign_cancels_in_outer_product(self):
        x = np.vstack([np.eye(3)[0], -np.eye(3)[0]])
        shard = dg.DataShard(1, x)
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
            dg.DataShard(k, rng.normal(size=(50 * k, 6)))
            for k in (1, 2, 3)
        ]
        pooled = np.vstack([s.samples for s in shards])
        oracle = pooled.T @ pooled / pooled.shape[0]
        np.testing.assert_allclose(dg.global_covariance(shards), oracle, atol=1e-10)

    def test_dimension_mismatch(self):
        a = dg.DataShard(1, np.zeros((2, 3)))
        b = dg.DataShard(2, np.zeros((2, 4)))
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


@pytest.mark.parametrize("make, error, message", [
    (lambda: dg.DataGenParams(n=0), InvalidParams, "n must be an integer >= 1"),
    (lambda: dg.DataGenParams(n=True), InvalidParams, "n must be an integer >= 1"),
    (lambda: dg.DataGenParams(d=8.5), InvalidParams, "d must be an integer >= 1"),
    # d ** 0.3 raised OverflowError for a d past float range.
    (lambda: dg.DataGenParams(d=10**399), InvalidParams, "d must be within float range"),
    (lambda: dg.DataGenParams(n=5, d=4), InvalidParams, "n must be at most d = 4"),
    (lambda: dg.DataGenParams(frequent_count=2500.5), InvalidParams, "frequent_count must be an integer >= 1"),
    (lambda: dg.DataGenParams(n=4, d=256, frequent_count=10), InvalidParams,
     r"frequent_count must be at least the n \* ceil\(d\^0.3\) = 24 infrequent samples"),
    # A negative seed would fail only later, inside SeedSequence, with a ValueError.
    (lambda: dg.DataGenParams(seed=-1), InvalidParams, "seed must be an integer >= 0"),
    (lambda: dg.DataShard(1, np.zeros(4)), InvalidParams, "samples must be a 2-D matrix"),
    (lambda: dg.generate_shard(dg.DataGenParams(), 0), InvalidParams, r"client index 0 outside \[1, 4\]"),
    (lambda: dg.generate_shard(dg.DataGenParams(), 5), InvalidParams, r"client index 5 outside \[1, 4\]"),
    (lambda: dg.empirical_covariance(dg.DataShard(1, np.zeros((0, 3)))), InvalidParams,
     "^shard has no samples$"),
    (lambda: dg.global_covariance([]), InvalidParams, "^no shards$"),
], ids=["n-zero", "n-bool", "d-real", "d-past-float-range", "n-past-d", "frequent-real", "infrequent-exceeds-frequent", "seed-negative",
        "samples-1d", "client-zero", "client-past-n",
        "empty-shard", "no-shards"])
def test_rejects_bad_input_with_its_reason(make, error, message):
    with pytest.raises(error, match=message):
        make()
