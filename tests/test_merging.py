from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit import build_benchmark, merging
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.experiment import compute_delta_sets
from lamedit.errors import ConfigError, RankRatioError, ShapeError
from lamedit.merging import (
    MergeConfig,
    _retained_rank,
    _svd,
    apply_update,
    delta_factors,
    merge,
    merge_mean,
    merge_sum,
    merge_tsvm,
    truncate_svd,
)
from lamedit.solvers import DeltaSet

from test_model import random_model


def gesvd(m, full_matrices=False):
    return scipy.linalg.svd(m, full_matrices=full_matrices, lapack_driver="gesvd")


def reference_tsvm(mats, ratio, svd=np.linalg.svd):
    """Scripted truncate/concat/orthogonalize/reconstruct pipeline."""
    d, h = mats[0].shape
    k = min(int(np.floor(ratio * d)), d, h)
    lefts, sigmas, rights = [], [], []
    for m in mats:
        u, s, vt = svd(m, full_matrices=False)
        lefts.append(u[:, :k])
        sigmas.append(s[:k])
        rights.append(vt[:k, :])
    left_cat = np.hstack(lefts)
    sigma_cat = np.concatenate(sigmas)
    right_cat = np.vstack(rights)
    pu, _, qu = svd(left_cat, full_matrices=False)
    pv, _, qv = svd(right_cat, full_matrices=False)
    return ((pu @ qu) * sigma_cat) @ (pv @ qv)


def tsvm_of(mats, ratio):
    """``merge_tsvm`` of one layer's deltas, each factored by the merge's own SVD."""
    return merge_tsvm([_svd(m) for m in mats], ratio)


def delta_set_from(mats, cov_mode=PER_LANGUAGE, layer=2):
    return DeltaSet(
        cov_mode=cov_mode,
        layers=(layer,),
        language_ids=tuple(range(len(mats))),
        entries={(layer, lang): m for lang, m in enumerate(mats)},
    )


class TestSumAndMean:
    def test_sum_single_is_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 6))
        assert np.array_equal(merge_sum([m]), m)

    def test_sum_cancellation(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6))
        assert np.array_equal(merge_sum([m, -m]), np.zeros((4, 6)))

    def test_sum_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((4, 6)) for _ in range(3)]
        expected = np.zeros((4, 6))
        for m in mats:
            expected += m
        assert np.linalg.norm(merge_sum(mats) - expected) <= 1e-12

    def test_mean_is_sum_over_m(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((4, 6)) for _ in range(5)]
        total = merge_sum(mats)
        mean = merge_mean(mats)
        assert np.array_equal(mean, total / 5)

    def test_mean_of_copies_is_identity(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 6))
        assert np.allclose(merge_mean([m, m, m]), m, rtol=1e-15, atol=0)

    def test_shape_mismatch_rejected(self):
        mats = [np.zeros((4, 6)), np.zeros((4, 5))]
        with pytest.raises(ShapeError):
            merge_sum(mats)
        with pytest.raises(ShapeError):
            tsvm_of(mats, 0.5)
        for method in ("tsvm", "tsvm_cov"):
            cfg = MergeConfig(method, rank_ratio=0.5)
            with pytest.raises(ShapeError):
                merge(cfg, delta_set_from(mats, cov_mode=cfg.cov_mode))

    def test_sum_mean_commute_under_reordering(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((4, 6)) for _ in range(4)]
        perm = [2, 0, 3, 1]
        a = merge_sum(mats)
        b = merge_sum([mats[i] for i in perm])
        assert np.linalg.norm(a - b) <= 1e-10
        assert np.linalg.norm(merge_mean(mats) - merge_mean([mats[i] for i in perm])) <= 1e-10


class TestTruncateSvd:
    def test_full_ratio_reconstructs(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6))
        u, s, vt = truncate_svd(m, 1.0)
        err = np.linalg.norm((u * s) @ vt - m)
        assert err <= 1e-8 * np.linalg.norm(m)

    def test_rank_one_exact_at_any_ratio(self):
        rng = np.random.default_rng(7)
        m = np.outer(rng.standard_normal(6), rng.standard_normal(9))
        u, s, vt = truncate_svd(m, 0.34)  # k = 2
        assert np.linalg.norm((u * s) @ vt - m) <= 1e-10 * np.linalg.norm(m)

    def test_eckart_young_error_matches_discarded_spectrum(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            m = rng.standard_normal((8, 12))
            ratio = rng.choice([0.25, 0.5, 0.75])
            u, s, vt = truncate_svd(m, ratio)
            k = s.size
            full_s = np.linalg.svd(m, compute_uv=False)
            expected = np.sqrt(np.sum(full_s[k:] ** 2))
            err = np.linalg.norm((u * s) @ vt - m)
            assert abs(err - expected) <= 1e-8 * max(expected, 1.0)

    def test_zero_rank_rejected(self):
        with pytest.raises(RankRatioError):
            truncate_svd(np.zeros((8, 8)), 0.1)  # floor(0.8) = 0
        with pytest.raises(RankRatioError):
            truncate_svd(np.zeros((8, 8)), 0.0)

    def test_factor_shapes(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((8, 12))
        u, s, vt = truncate_svd(m, 0.5)
        assert u.shape == (8, 4) and s.shape == (4,) and vt.shape == (4, 12)
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-10
        assert np.linalg.norm(vt @ vt.T - np.eye(4)) <= 1e-10


class TestTsvm:
    def test_single_full_rank_identity_square_and_rect(self):
        rng = np.random.default_rng(10)
        for shape in ((6, 6), (6, 10)):
            m = rng.standard_normal(shape)
            merged = tsvm_of([m], 1.0)
            assert np.linalg.norm(merged - m) <= 1e-6 * np.linalg.norm(m)

    def test_zero_second_task_matches_reference(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        mats = [a, np.zeros((8, 8))]
        merged = tsvm_of(mats, 0.25)
        expected = reference_tsvm(mats, 0.25)
        assert np.linalg.norm(merged - expected) <= 1e-8 * max(np.linalg.norm(expected), 1e-12)

    def test_matches_scripted_reference(self):
        rng = np.random.default_rng(12)
        mats = [rng.standard_normal((8, 8)) for _ in range(2)]
        merged = tsvm_of(mats, 0.5)
        expected = reference_tsvm(mats, 0.5)
        assert np.linalg.norm(merged - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_factor_orthonormality_when_not_overcomplete(self):
        # m * k <= min(d, h) keeps the stacked factors slim enough for true
        # column/row orthonormality.
        rng = np.random.default_rng(13)
        d, h, m_langs, ratio = 12, 16, 3, 0.25  # k = 3, m*k = 9 <= 12
        mats = [rng.standard_normal((d, h)) for _ in range(m_langs)]
        k = int(np.floor(ratio * d))
        lefts, rights = [], []
        for m in mats:
            u, s, vt = truncate_svd(m, ratio)
            lefts.append(u)
            rights.append(vt)
        left_cat = np.hstack(lefts)
        right_cat = np.vstack(rights)
        pu, _, qu = np.linalg.svd(left_cat, full_matrices=False)
        u_merged = pu @ qu
        pv, _, qv = np.linalg.svd(right_cat, full_matrices=False)
        v_merged = pv @ qv
        mk = m_langs * k
        assert np.linalg.norm(u_merged.T @ u_merged - np.eye(mk)) <= 1e-8
        assert np.linalg.norm(v_merged @ v_merged.T - np.eye(mk)) <= 1e-8

    def test_permutation_sensitivity_measured(self):
        rng = np.random.default_rng(14)
        mats = [rng.standard_normal((6, 8)) for _ in range(3)]
        base = tsvm_of(mats, 0.5)
        permuted = tsvm_of([mats[2], mats[0], mats[1]], 0.5)
        sensitivity = np.linalg.norm(base - permuted) / np.linalg.norm(base)
        assert np.isfinite(sensitivity)
        print(f"tsvm language-order sensitivity (relative frobenius): {sensitivity:.3e}")

    def test_gesdd_failure_falls_back_to_gesdd_of_the_transpose(self, monkeypatch):
        rng = np.random.default_rng(15)
        mats = [rng.standard_normal((8, 12)) for _ in range(3)]
        single = rng.standard_normal((12, 16))
        real_svd = np.linalg.svd

        def transposed_svd(m, full_matrices=False):
            u, s, vt = real_svd(m.T, full_matrices=full_matrices)
            return vt.T, s, u.T

        expected_merge = reference_tsvm(mats, 0.5, svd=transposed_svd)
        calls = []

        def every_other_call_fails(matrix, full_matrices=True, **kwargs):
            calls.append(matrix.shape)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(matrix, full_matrices=full_matrices, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", every_other_call_fails)
        u, s, vt = _svd(mats[0])
        assert calls == [(8, 12), (12, 8)]
        for got, want in zip((u, s, vt), transposed_svd(mats[0])):
            assert np.array_equal(got, want)
        assert np.linalg.norm((u * s) @ vt - mats[0]) <= 1e-12 * np.linalg.norm(mats[0])
        assert np.allclose(u.T @ u, np.eye(8), atol=1e-12) and np.allclose(vt @ vt.T, np.eye(8), atol=1e-12)
        assert np.array_equal(tsvm_of(mats, 0.5), expected_merge)
        # criterion 3's tsvm identity: one full-rank delta at ratio 1 is kept.
        identity = tsvm_of([single], 1.0)
        assert np.linalg.norm(identity - single) <= 1e-6 * np.linalg.norm(single)
        assert len(calls) == 2 * (1 + 5 + 3)  # _svd, two tsvm merges' SVDs, each failing once

    def test_wide_alphaedit_deltas_factor_at_the_gesdd_failure_seed(self, pinned_config):
        # The wide-alphaedit benchmark (d=128, h=256, 6 languages, alphaedit at
        # rel_tol 1e-3) at seed 647892279, where gesdd fails to converge on one
        # shared-mode delta (layer 4, language 3, with numpy 2.4's bundled
        # OpenBLAS).  Whichever path each delta's SVD takes, its factors
        # reconstruct the delta and carry gesvd's singular values.
        config = replace(
            pinned_config,
            seed=647892279,
            dataset=replace(pinned_config.dataset, d=128, h=256, m_languages=6, seed=647892279),
            solver=replace(pinned_config.solver, method="alphaedit", rel_tol=1e-3),
        )
        dataset, model, _ = build_benchmark(config.dataset)
        delta_set = compute_delta_sets(model, dataset, config.solver, [SHARED])[SHARED]
        assert len(delta_set.entries) == 3 * 6
        for key, delta in delta_set.entries.items():
            u, s, vt = _svd(delta)
            want = gesvd(delta)[1]
            assert np.linalg.norm((u * s) @ vt - delta) <= 1e-12 * np.linalg.norm(delta), key
            assert np.abs(s - want).max() <= 1e-12 * want[0], key


def assert_merges_equal(got, want):
    assert got.keys() == want.keys()
    for layer in want:
        assert np.array_equal(got[layer], want[layer]), layer


class TestFactorDepth:
    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    def test_held_factors_merge_to_the_full_factors_bits(self, pinned_delta_sets, cov_mode):
        # Pinned shape, d=32: factors held 12 deep (tsvm's default ratio 0.375)
        # merge at every rank 1..12 to the bits of merges from each delta's
        # full thin SVD, and so do factors exactly as deep as the merge's rank.
        delta_set = pinned_delta_sets[cov_mode]
        method = "tsvm" if cov_mode == PER_LANGUAGE else "tsvm_cov"
        full = {layer: [_svd(m) for m in delta_set.layer_deltas(layer)] for layer in delta_set.layers}
        (held,) = delta_factors([delta_set], [12])
        for rank in range(1, 13):
            config = MergeConfig(method, rank_ratio=rank / 32)
            want = merge(config, delta_set, full)
            assert_merges_equal(merge(config, delta_set, held), want)
            assert_merges_equal(merge(config, delta_set), want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        d=st.integers(2, 16),
        h_extra=st.integers(0, 16),
        data=st.data(),
    )
    def test_rank_deficient_merges_from_held_factors_keep_their_bits(self, seed, m, d, h_extra, data):
        # Deltas of rank 1 to d, so the stacked factors can be rank deficient.
        rng = np.random.default_rng(seed)
        h = d + h_extra
        mats = [
            rng.standard_normal((d, r)) @ rng.standard_normal((r, h))
            for r in rng.integers(1, d, size=m, endpoint=True)
        ]
        depth = data.draw(st.integers(1, d), label="depth")
        rank = data.draw(st.integers(1, depth), label="rank")
        (held,) = delta_factors([delta_set_from(mats)], [depth])
        assert np.array_equal(merge_tsvm(held[2], rank / d), tsvm_of(mats, rank / d))

    def test_held_factors_own_their_data_at_their_depth(self):
        rng = np.random.default_rng(21)
        mats = [rng.standard_normal((6, 9)) for _ in range(3)]
        for depth in (1, 4, 6):
            (held,) = delta_factors([delta_set_from(mats)], [depth])
            for (u, s, vt), delta in zip(held[2], mats):
                assert (u.shape, s.shape, vt.shape) == ((6, depth), (depth,), (depth, 9))
                assert u.base is None and s.base is None and vt.base is None
                u_full, s_full, vt_full = _svd(delta)
                assert np.array_equal(u, u_full[:, :depth])
                assert np.array_equal(s, s_full[:depth])
                assert np.array_equal(vt, vt_full[:depth])

    def test_merge_without_factors_holds_its_own_depth(self, monkeypatch):
        rng = np.random.default_rng(22)
        delta_set = delta_set_from([rng.standard_normal((6, 9)) for _ in range(3)])
        calls = []
        real = merging.delta_factors

        def spy(delta_sets, depths):
            held = real(delta_sets, depths)
            calls.append((list(depths), held))
            return held

        monkeypatch.setattr(merging, "delta_factors", spy)
        merge(MergeConfig("tsvm", rank_ratio=0.5), delta_set)
        ((depths, (held,)),) = calls
        assert depths == [3]
        assert all(u.shape == (6, 3) and vt.shape == (3, 9) for u, _, vt in held[2])

    def test_factors_shallower_than_the_retained_rank_raise(self):
        rng = np.random.default_rng(23)
        delta_set = delta_set_from([rng.standard_normal((6, 9)) for _ in range(2)])
        (held,) = delta_factors([delta_set], [2])
        with pytest.raises(ShapeError, match="at least 3 deep"):
            merge(MergeConfig("tsvm", rank_ratio=0.5), delta_set, held)


class TestMergeIdentities:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        d=st.integers(1, 24),
        h=st.integers(1, 24),
    )
    def test_mean_is_sum_over_m(self, seed, m, d, h):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((d, h)) for _ in range(m)]
        assert np.array_equal(merge_mean(mats), merge_sum(mats) / m)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        r=st.integers(1, 6),
        d_extra=st.integers(0, 40),
        h_extra=st.integers(0, 40),
    )
    def test_tsvm_is_sum_for_orthogonal_deltas(self, seed, m, r, d_extra, h_extra):
        # Mutually orthogonal column spaces and row spaces, each delta of rank
        # r, kept whole at rank ratio r/d: the stacked factors are already
        # orthonormal, so re-orthogonalising them changes nothing.
        d, h = m * r + d_extra, m * r + h_extra
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.standard_normal((d, m * r)))
        right, _ = np.linalg.qr(rng.standard_normal((h, m * r)))
        mats = [
            (left[:, i * r : (i + 1) * r] * rng.uniform(0.5, 2.0, r)) @ right[:, i * r : (i + 1) * r].T
            for i in range(m)
        ]
        expected = merge_sum(mats)
        err = np.linalg.norm(tsvm_of(mats, r / d) - expected) / np.linalg.norm(expected)
        assert err <= 1e-10

    def test_ratio_r_over_d_retains_r(self):
        # (r / d) * d rounds just below r for these pairs; floor alone gave r - 1.
        for r, d in ((1, 49), (15, 22), (29, 100)):
            assert r / d * d < r
            assert _retained_rank((d, d), r / d) == r


class TestMergeDispatch:
    def test_cov_mode_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        ds = delta_set_from([rng.standard_normal((4, 6))], cov_mode=PER_LANGUAGE)
        with pytest.raises(ConfigError):
            merge(MergeConfig("sum_cov"), ds)
        ds_shared = delta_set_from([rng.standard_normal((4, 6))], cov_mode=SHARED)
        with pytest.raises(ConfigError):
            merge(MergeConfig("sum"), ds_shared)

    def test_single_language_sum_variants_equal_raw(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((4, 6))
        plain = merge(MergeConfig("sum"), delta_set_from([m], cov_mode=PER_LANGUAGE))
        shared = merge(MergeConfig("sum_cov"), delta_set_from([m], cov_mode=SHARED))
        assert np.array_equal(plain[2], m)
        assert np.array_equal(shared[2], m)

    def test_mean_cov_is_sum_cov_over_m(self):
        rng = np.random.default_rng(17)
        mats = [rng.standard_normal((4, 6)) for _ in range(3)]
        ds = delta_set_from(mats, cov_mode=SHARED)
        total = merge(MergeConfig("sum_cov"), ds)[2]
        mean = merge(MergeConfig("mean_cov"), ds)[2]
        assert np.array_equal(mean, total / 3)

    def test_full_pipeline_against_scripted_oracle(self):
        rng = np.random.default_rng(18)
        mats = [rng.standard_normal((6, 9)) for _ in range(2)]
        ds = delta_set_from(mats, cov_mode=PER_LANGUAGE)
        out = merge(MergeConfig("tsvm", rank_ratio=0.5), ds)[2]
        expected = reference_tsvm(mats, 0.5)
        assert np.linalg.norm(out - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MergeConfig("subtract")
        with pytest.raises(ConfigError):
            MergeConfig("tsvm", rank_ratio=0.0)
        with pytest.raises(ConfigError):
            MergeConfig("tsvm", rank_ratio=1.5)


class TestApplyUpdate:
    def test_zero_alpha_leaves_weights_bit_identical(self):
        rng = np.random.default_rng(19)
        model = random_model(rng)
        merged = merge(
            MergeConfig("sum"),
            delta_set_from([rng.standard_normal((8, 12))], cov_mode=PER_LANGUAGE),
        )
        out = apply_update(model, merged, 0.0)
        for l in range(1, model.n_layers + 1):
            assert np.array_equal(out.layer(l).w_out, model.layer(l).w_out)

    def test_zero_delta_leaves_weights_unchanged(self):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        merged = merge(
            MergeConfig("sum"), delta_set_from([np.zeros((8, 12))], cov_mode=PER_LANGUAGE)
        )
        out = apply_update(model, merged, 1.0)
        for l in range(1, model.n_layers + 1):
            assert np.array_equal(out.layer(l).w_out, model.layer(l).w_out)

    def test_alpha_two_equals_two_unit_applications(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        merged = merge(
            MergeConfig("sum"),
            delta_set_from([rng.standard_normal((8, 12)) * 0.1], cov_mode=PER_LANGUAGE),
        )
        once_twice = apply_update(apply_update(model, merged, 1.0), merged, 1.0)
        at_two = apply_update(model, merged, 2.0)
        for l in model.edit_layers:
            a, b = once_twice.layer(l).w_out, at_two.layer(l).w_out
            assert np.linalg.norm(a - b) <= 1e-15 * max(np.linalg.norm(a), 1.0)

    def test_layer_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)  # edit layers (2, 3)
        bad = merge(
            MergeConfig("sum"),
            delta_set_from([rng.standard_normal((8, 12))], cov_mode=PER_LANGUAGE, layer=1),
        )
        with pytest.raises(ShapeError):
            apply_update(model, bad, 1.0)

    def test_negative_alpha_rejected(self):
        rng = np.random.default_rng(23)
        model = random_model(rng)
        merged = merge(
            MergeConfig("sum"), delta_set_from([np.zeros((8, 12))], cov_mode=PER_LANGUAGE)
        )
        with pytest.raises(ConfigError):
            apply_update(model, merged, -0.5)

    def test_original_model_unchanged(self):
        rng = np.random.default_rng(24)
        model = random_model(rng)
        before = model.layer(2).w_out.copy()
        merged = merge(
            MergeConfig("sum"),
            delta_set_from([rng.standard_normal((8, 12))], cov_mode=PER_LANGUAGE),
        )
        apply_update(model, merged, 1.0)
        assert np.array_equal(model.layer(2).w_out, before)
