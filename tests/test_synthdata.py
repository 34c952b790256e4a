import numpy as np
import pytest

import lamedit as lm
from lamedit import container
from lamedit.errors import ConfigError
from lamedit.model import forward_batch, predict
from lamedit.synthdata import (
    GenConfig,
    build_benchmark,
    fit_initial_model,
    generate_dataset,
)


def tiny_cfg(**kwargs):
    base = dict(
        n_facts=8,
        m_languages=3,
        d=8,
        h=16,
        n_layers=4,
        edit_layers=(2, 3),
        overlap=0.8,
        rephrase_noise=0.2,
        n_preserved=16,
        vocab_size=48,
        seed=9,
    )
    base.update(kwargs)
    return GenConfig(**base)


class TestGenerate:
    def test_same_seed_byte_identical_serialization(self, tmp_path):
        cfg = tiny_cfg()
        a, b = tmp_path / "a.lam", tmp_path / "b.lam"
        container.save_dataset(a, generate_dataset(cfg))
        container.save_dataset(b, generate_dataset(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.lam", tmp_path / "b.lam"
        container.save_dataset(a, generate_dataset(tiny_cfg(seed=9)))
        container.save_dataset(b, generate_dataset(tiny_cfg(seed=10)))
        assert a.read_bytes() != b.read_bytes()

    def test_full_overlap_collapses_transforms(self):
        ds = generate_dataset(tiny_cfg(overlap=1.0))
        for i in range(1, ds.m_languages):
            assert np.allclose(ds.transforms[i], ds.transforms[0], atol=1e-12)
        assert np.allclose(ds.request_inputs(0), ds.request_inputs(1), atol=1e-12)

    def test_zero_noise_rephrase_equals_request(self):
        ds = generate_dataset(tiny_cfg(rephrase_noise=0.0))
        for i in range(ds.m_languages):
            assert np.array_equal(ds.rephrase_inputs(i), ds.request_inputs(i))

    def test_transform_orthogonality(self):
        ds = generate_dataset(tiny_cfg())
        d = ds.config.d
        for i in range(ds.m_languages):
            a = ds.transforms[i]
            assert np.linalg.norm(a.T @ a - np.eye(d)) <= 1e-8
        hop = ds.hop_transform
        assert np.linalg.norm(hop.T @ hop - np.eye(d)) <= 1e-8

    def test_overlap_monotone_key_similarity(self):
        # Average cross-language cosine of layer-2 keys is non-decreasing in
        # the overlap knob, measured on one fixed random backbone.
        rng = np.random.default_rng(0)
        from test_model import random_model

        model = random_model(rng, d=8, h=16, n_layers=4, vocab=48, edit_layers=(2, 3))

        def mean_cosine(overlap):
            ds = generate_dataset(tiny_cfg(overlap=overlap))
            keys = []
            for i in range(ds.m_languages):
                _, k = forward_batch(model, ds.request_inputs(i))
                keys.append(k[1] / np.maximum(np.linalg.norm(k[1], axis=0), 1e-12))
            cosines = []
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    cosines.append(np.mean(np.sum(keys[i] * keys[j], axis=0)))
            return float(np.mean(cosines))

        c0, c5, c1 = mean_cosine(0.0), mean_cosine(0.5), mean_cosine(1.0)
        assert c0 <= c5 <= c1
        assert c1 >= 0.999

    def test_fact_id_disjointness(self):
        ds = generate_dataset(tiny_cfg())
        assert not set(ds.request_fact_ids()) & set(ds.preserved_fact_ids())

    def test_tokens_distinct_where_promised(self):
        ds = generate_dataset(tiny_cfg())
        assert len(set(ds.old_tokens)) == ds.n_facts
        assert len(set(ds.new_tokens)) == ds.n_facts
        assert not set(ds.old_tokens) & set(ds.new_tokens)
        assert not set(ds.preserved_tokens) & (set(ds.old_tokens) | set(ds.new_tokens))

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(vocab_size=16)  # needs 2*8 + 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(overlap=1.5)
        with pytest.raises(ConfigError):
            tiny_cfg(n_facts=0)
        with pytest.raises(ConfigError):
            tiny_cfg(edit_layers=(3, 2))
        with pytest.raises(ConfigError):
            tiny_cfg(edit_layers=(5,))


class TestFit:
    def test_single_fact_single_language_recall(self):
        cfg = tiny_cfg(n_facts=1, m_languages=1, n_preserved=4, vocab_size=8)
        ds = generate_dataset(cfg)
        model, _ = fit_initial_model(cfg, ds)
        x = ds.request_inputs(0)[:, 0]
        assert predict(model, x) == int(ds.old_tokens[0])

    def test_fit_floor_on_small_config(self, small_cfg, small_bench):
        from lamedit.synthdata import _recall_stats

        dataset, model = small_bench
        req, pres = _recall_stats(model, dataset)
        assert req >= 0.95
        assert pres >= 0.95

    def test_noop_reedit_keeps_recall(self, small_bench):
        from lamedit.merging import MergeConfig, apply_update, merge
        from lamedit.solvers import LanguageRequests, edit_model
        from lamedit.synthdata import _recall_stats

        dataset, model = small_bench
        # Edit every language toward the tokens the model already recalls.
        reqs = [
            LanguageRequests(i, dataset.request_inputs(i), dataset.old_tokens)
            for i in range(dataset.m_languages)
        ]
        delta_set = edit_model(
            model, reqs, dataset.preserved_inputs_all(), method="memit", cov_mode="shared", lam=2.75
        )
        edited = apply_update(model, merge(MergeConfig("sum_cov"), delta_set), 1.0)
        req_before, pres_before = _recall_stats(model, dataset)
        req_after, pres_after = _recall_stats(edited, dataset)
        assert req_after >= req_before - 0.05
        assert pres_after >= pres_before - 0.05

    def test_build_benchmark_deterministic(self, tmp_path):
        cfg = tiny_cfg()
        ds1, model1, info1 = build_benchmark(cfg)
        ds2, model2, info2 = build_benchmark(cfg)
        a, b = tmp_path / "m1.lam", tmp_path / "m2.lam"
        container.save_model(a, model1)
        container.save_model(b, model2)
        assert a.read_bytes() == b.read_bytes()
        assert info1["attempt"] == info2["attempt"]

    def test_recall_computed_once_per_pass(self, monkeypatch):
        # The last pass's recall is the fit's and the benchmark's; nothing
        # recomputes it on the same model.
        from lamedit import synthdata

        calls = {"recall": 0, "solve": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(synthdata, "_recall_stats", counted("recall", synthdata._recall_stats))
        monkeypatch.setattr(synthdata, "solve_memit", counted("solve", synthdata.solve_memit))
        cfg = tiny_cfg()
        dataset, model, info = build_benchmark(cfg)
        assert info["attempt"] == 0
        assert calls["recall"] * len(cfg.edit_layers) == calls["solve"] > 0
        monkeypatch.undo()
        assert (info["request_recall"], info["preserved_recall"]) == synthdata._recall_stats(model, dataset)

    def test_no_pass_reports_the_seed_models_recall(self):
        from lamedit.synthdata import _recall_stats

        cfg = tiny_cfg()
        ds = generate_dataset(cfg)
        model, recall = fit_initial_model(cfg, ds, floor=0.0, max_passes=0)
        assert recall == _recall_stats(model, ds)

    def test_fit_error_carries_diagnostics(self):
        cfg = tiny_cfg()
        ds = generate_dataset(cfg)
        with pytest.raises(lm.FitError) as err:
            fit_initial_model(cfg, ds, floor=1.01, max_passes=1)
        assert "history" in err.value.diagnostics

    def test_build_benchmark_retries_then_raises(self):
        # An unreachable floor exhausts every attempt; the error reports them.
        with pytest.raises(lm.FitError) as err:
            build_benchmark(tiny_cfg(), retries=2, floor=1.01)
        assert len(err.value.diagnostics["failures"]) == 3

    def test_language_names_follow_benchmark_codes(self):
        assert tiny_cfg(m_languages=3).language_names() == ("en", "zh", "cz")
        names = GenConfig(
            n_facts=2, m_languages=14, d=4, h=8, n_layers=2, edit_layers=(1,),
            n_preserved=2, vocab_size=8, seed=0,
        ).language_names()
        assert names[:12] == ("en", "zh", "cz", "vi", "tr", "fr", "es", "de", "ru", "du", "pt", "th")
        assert len(names) == 14 and len(set(names)) == 14
