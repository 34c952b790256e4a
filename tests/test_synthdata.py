import copy

import numpy as np
import pytest

import lamedit as lm
from lamedit import container, synthdata
from lamedit.errors import ConfigError
from lamedit.metrics import accuracy
from lamedit.model import compute_prefix, forward_batch, predict_batch
from lamedit.synthdata import (
    GenConfig,
    _all_fact_inputs,
    _recall_stats,
    _unit_columns,
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


def recall_of(model, dataset):
    """``_recall_stats`` of ``model`` on its own prefix of every fact's inputs."""
    return _recall_stats(model, compute_prefix(model, _all_fact_inputs(dataset)[0]), dataset)


def reference_recall(model, dataset):
    """Old-token recall from one ``accuracy`` call per (language, family), pooled over languages."""
    req_hits = pres_hits = 0
    for i in range(dataset.m_languages):
        req_hits += round(accuracy(model, dataset.request_inputs(i), dataset.old_tokens) * dataset.n_facts)
        pres_hits += round(
            accuracy(model, dataset.preserved_inputs(i), dataset.preserved_tokens) * dataset.n_preserved
        )
    m = dataset.m_languages
    return req_hits / (m * dataset.n_facts), pres_hits / (m * dataset.n_preserved)


def loop_codebook(model, dataset, rng):
    """The fit's codebook anchored from one ``forward_batch`` per language, in language order."""
    d, vocab = dataset.config.d, dataset.config.vocab_size
    codebook = _unit_columns(rng.standard_normal((d, vocab)))
    sub_dim = max(2, d // synthdata.NEW_TOKEN_SUBSPACE_DIV)
    basis, _ = np.linalg.qr(rng.standard_normal((d, sub_dim)))
    low = basis @ rng.standard_normal((sub_dim, dataset.n_facts))
    codebook[:, dataset.new_tokens] = _unit_columns(
        low + synthdata.NEW_TOKEN_NOISE * rng.standard_normal((d, dataset.n_facts))
    )
    all_vectors = np.hstack([dataset.fact_vectors, dataset.preserved_vectors])
    all_tokens = np.concatenate([dataset.old_tokens, dataset.preserved_tokens])
    sums = np.zeros((d, vocab))
    counts = np.zeros(vocab)
    for i in range(dataset.m_languages):
        hidden, _ = forward_batch(model, dataset.transforms[i] @ all_vectors)
        np.add.at(sums.T, all_tokens, hidden[-1].T)
        np.add.at(counts, all_tokens, 1.0)
    used = counts > 0
    centroids = sums[:, used] / counts[used]
    norms = np.linalg.norm(centroids, axis=0)
    ok = norms > 1e-12
    codebook[:, np.where(used)[0][ok]] = centroids[:, ok] / norms[ok]
    return codebook


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
        x = ds.request_inputs(0)[:, :1]
        assert predict_batch(model, compute_prefix(model, x))[0] == int(ds.old_tokens[0])

    def test_fit_floor_on_small_config(self, small_cfg, small_bench):
        dataset, model = small_bench
        req, pres = recall_of(model, dataset)
        assert req >= 0.95
        assert pres >= 0.95

    def test_noop_reedit_keeps_recall(self, small_bench):
        from lamedit.merging import MergeConfig, apply_update, merge
        from lamedit.solvers import LanguageRequests

        from test_solvers import edit_requests

        dataset, model = small_bench
        # Edit every language toward the tokens the model already recalls.
        reqs = [
            LanguageRequests(i, dataset.request_inputs(i), dataset.old_tokens)
            for i in range(dataset.m_languages)
        ]
        delta_set = edit_requests(model, reqs, dataset.preserved_inputs_all(), 2.75, cov_mode="shared")
        edited = apply_update(model, merge(MergeConfig("sum_cov"), delta_set), 1.0)
        req_before, pres_before = recall_of(model, dataset)
        req_after, pres_after = recall_of(edited, dataset)
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
        assert info1 == info2
        assert ds1.config == cfg

    def test_recall_computed_once_per_pass(self, monkeypatch):
        # The last pass's recall is the fit's and the benchmark's; nothing
        # recomputes it on the same model.
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
        assert calls["recall"] * len(cfg.edit_layers) == calls["solve"] > 0
        monkeypatch.undo()
        assert (info["request_recall"], info["preserved_recall"]) == recall_of(model, dataset)

    @pytest.mark.parametrize(
        "cfg", [tiny_cfg(), tiny_cfg(seed=3, m_languages=2, overlap=0.3)], ids=["tiny", "low-overlap"]
    )
    def test_every_pass_recall_equals_per_language_accuracy(self, monkeypatch, cfg):
        # Each pass scores the fit's one prefix, a language block at a time;
        # the reference scores each language's facts from their raw inputs.
        seen = []

        def spy(model, prefix, dataset):
            seen.append((model, _recall_stats(model, prefix, dataset)))
            return seen[-1][1]

        monkeypatch.setattr(synthdata, "_recall_stats", spy)
        monkeypatch.setattr(synthdata, "FIT_FLOOR", 0.0)
        dataset = generate_dataset(cfg)
        _, recall = fit_initial_model(cfg, dataset)
        assert seen and recall == seen[-1][1]
        for model, stats in seen:
            assert stats == reference_recall(model, dataset)

    def test_codebook_equals_per_language_forward_anchors(self, monkeypatch):
        # The fit's codebook must carry the bits of one forward_batch per
        # language on its seed model.
        seen = {}
        original = synthdata._init_codebook

        def spy(model, prefix, tokens, dataset, rng):
            seen.update(model=model, rng=copy.deepcopy(rng))
            seen["codebook"] = original(model, prefix, tokens, dataset, rng)
            return seen["codebook"]

        monkeypatch.setattr(synthdata, "_init_codebook", spy)
        monkeypatch.setattr(synthdata, "FIT_FLOOR", 0.0)
        cfg = tiny_cfg()
        dataset = generate_dataset(cfg)
        model, _ = fit_initial_model(cfg, dataset)
        assert np.array_equal(model.codebook, seen["codebook"])
        assert np.array_equal(model.codebook, loop_codebook(seen["model"], dataset, seen["rng"]))

    def test_fit_error_names_passes_and_recalls(self, monkeypatch):
        monkeypatch.setattr(synthdata, "FIT_FLOOR", 1.01)
        monkeypatch.setattr(synthdata, "FIT_MAX_PASSES", 1)
        cfg = tiny_cfg()
        ds = generate_dataset(cfg)
        pattern = r"after pass 1: request recall \d\.\d{4}, preserved recall \d\.\d{4}$"
        with pytest.raises(lm.FitError, match=pattern):
            fit_initial_model(cfg, ds)

    def test_build_benchmark_error_names_seed(self, monkeypatch):
        # An unreachable floor fails the one fit; nothing retries it.
        monkeypatch.setattr(synthdata, "FIT_FLOOR", 1.01)
        calls = []
        monkeypatch.setattr(synthdata, "generate_dataset", lambda cfg: calls.append(cfg) or generate_dataset(cfg))
        with pytest.raises(lm.FitError, match="at seed 7 missed the recall floor 1.01"):
            build_benchmark(tiny_cfg(seed=7))
        assert calls == [tiny_cfg(seed=7)]

    def test_language_names_follow_benchmark_codes(self):
        assert tiny_cfg(m_languages=3).language_names() == ("en", "zh", "cz")
        names = GenConfig(
            n_facts=2, m_languages=14, d=4, h=8, n_layers=2, edit_layers=(1,),
            n_preserved=2, vocab_size=8, seed=0,
        ).language_names()
        assert names[:12] == ("en", "zh", "cz", "vi", "tr", "fr", "es", "de", "ru", "du", "pt", "th")
        assert len(names) == 14 and len(set(names)) == 14
