import numpy as np
import pytest

from lamedit import container
from lamedit.covariance import (
    const_stats,
    cov_per_language,
    cov_shared,
    request_keys,
)
from lamedit.errors import ShapeError
from lamedit.model import forward_batch

from test_model import random_model


def outer_product_oracle(keys):
    h, n = keys.shape
    total = np.zeros((h, h))
    for i in range(n):
        total += np.outer(keys[:, i], keys[:, i])
    return total


class TestRequestKeys:
    def test_single_request_equals_forward_key(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        x = rng.standard_normal(8)
        keys = request_keys(model, x[:, None], 2)
        _, expected = forward_batch(model, x[:, None])
        assert keys.shape == (12, 1)
        assert np.array_equal(keys, expected[1])

    def test_duplicate_requests_duplicate_columns(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        x = rng.standard_normal(8)
        keys = request_keys(model, np.column_stack([x, x]), 2)
        assert np.array_equal(keys[:, 0], keys[:, 1])

    def test_batch_matches_looped_singles(self):
        # gemm vs gemv BLAS paths round differently, so compare to a tight
        # tolerance rather than bitwise.
        rng = np.random.default_rng(2)
        model = random_model(rng)
        inputs = rng.standard_normal((8, 5))
        keys = request_keys(model, inputs, 3)
        for i in range(5):
            single = request_keys(model, inputs[:, i : i + 1], 3)
            assert np.allclose(keys[:, i], single[:, 0], rtol=1e-12, atol=1e-13)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        with pytest.raises(ShapeError):
            request_keys(model, np.zeros((8, 0)), 2)


class TestCovPerLanguage:
    def test_unit_column(self):
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(cov_per_language(e1), expected)

    def test_orthonormal_columns_spectrum(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        eigvals = np.sort(np.linalg.eigvalsh(cov_per_language(q)))
        assert np.allclose(eigvals, [0, 0, 0, 1, 1, 1], atol=1e-10)

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(5)
        keys = rng.standard_normal((6, 9))
        assert np.linalg.norm(cov_per_language(keys) - outer_product_oracle(keys)) <= 1e-10


class TestCovShared:
    def test_single_language_degenerates(self):
        rng = np.random.default_rng(6)
        keys = rng.standard_normal((5, 4))
        assert np.array_equal(cov_shared([keys]), cov_per_language(keys))

    def test_two_identical_batches_double(self):
        rng = np.random.default_rng(7)
        keys = rng.standard_normal((5, 4))
        assert np.allclose(cov_shared([keys, keys]), 2 * cov_per_language(keys), atol=1e-12)

    def test_matches_concatenation_oracle(self):
        rng = np.random.default_rng(8)
        batches = [rng.standard_normal((5, 3 + i)) for i in range(3)]
        concat = np.hstack(batches)
        assert np.linalg.norm(cov_shared(batches) - concat @ concat.T) <= 1e-10

    def test_partition_equals_whole(self):
        rng = np.random.default_rng(11)
        keys = rng.standard_normal((6, 12))
        parts = [keys[:, 4 * i : 4 * (i + 1)] for i in range(3)]
        assert np.linalg.norm(cov_shared(parts) - cov_per_language(keys)) <= 1e-10


class TestConstStats:
    def test_empty_preserved_gives_zero_stats(self):
        rng = np.random.default_rng(12)
        model = random_model(rng)
        cov, keys = const_stats(model, np.zeros((8, 0)), 2)
        assert np.array_equal(cov, np.zeros((12, 12)))
        assert keys.shape == (12, 0)

    def test_rank_bound(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        inputs = rng.standard_normal((8, 3))
        cov, _ = const_stats(model, inputs, 2)
        assert np.linalg.matrix_rank(cov) <= 3

    def test_roundtrip_through_container(self, tmp_path):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        inputs = rng.standard_normal((8, 5))
        cov, keys = const_stats(model, inputs, 2)
        path = tmp_path / "keys.lam"
        container.save_arrays(path, {"k_const": keys})
        loaded, _ = container.load_arrays(path)
        recomputed = loaded["k_const"] @ loaded["k_const"].T
        assert np.linalg.norm(recomputed - cov) <= 1e-12


class TestCovStatsInvariants:
    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            keys = rng.standard_normal((7, rng.integers(1, 12)))
            cov = cov_per_language(keys)
            scale = np.linalg.norm(cov)
            for _ in range(5):
                x = rng.standard_normal(7)
                assert x @ cov @ x >= -1e-8 * scale * (x @ x)
