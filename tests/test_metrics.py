import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit.errors import ShapeError
from lamedit.merging import MergeConfig, apply_update, merge
from lamedit.metrics import (
    MetricsReport,
    MetricsRow,
    accuracy,
    evaluate,
    evaluate_all,
    probe_batch,
    run_mono,
)
from lamedit.model import ACTIVATIONS, NORMS, predict_batch
from lamedit.solvers import DeltaMatrix, DeltaSet, edit_model
from lamedit.synthdata import fit_initial_model, generate_dataset

from test_model import random_model
from test_synthdata import tiny_cfg


class TestAccuracy:
    def test_all_correct(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, vocab=16)
        inputs = rng.standard_normal((8, 10))
        expected = predict_batch(model, inputs)
        assert accuracy(model, inputs, expected) == 1.0

    def test_duplicated_probes_same_fraction(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, vocab=16)
        inputs = rng.standard_normal((8, 10))
        expected = rng.integers(0, 16, size=10)
        once = accuracy(model, inputs, expected)
        twice = accuracy(model, np.hstack([inputs, inputs]), np.concatenate([expected, expected]))
        assert once == twice

    def test_chance_level_on_untrained_codebook(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, d=8, h=12, vocab=256)
        n = 4096
        inputs = rng.standard_normal((8, n))
        expected = rng.integers(0, 256, size=n)
        acc = accuracy(model, inputs, expected)
        p = 1.0 / 256
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(acc - p) <= 3 * sigma

    def test_empty_probe_list_rejected(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        with pytest.raises(ShapeError):
            accuracy(model, np.zeros((8, 0)), np.zeros(0, dtype=int))


class TestEvaluate:
    def test_unedited_model_efficacy_near_zero_specificity_high(self, small_bench):
        dataset, model = small_bench
        rows = evaluate_all(model, dataset)
        for row in rows:
            assert row.efficacy <= 0.05
            assert row.specificity >= 0.95

    def test_zero_noise_generalization_equals_efficacy(self):
        cfg = tiny_cfg(rephrase_noise=0.0)
        ds = generate_dataset(cfg)
        model, _ = fit_initial_model(cfg, ds)
        delta_set = edit_model(
            model, ds.all_language_requests(), ds.preserved_inputs_all(),
            method="memit", cov_mode="shared", lam=2.75,
        )
        edited = apply_update(model, merge(MergeConfig("sum_cov"), delta_set), 1.0)
        for i in range(ds.m_languages):
            row = evaluate(edited, ds, i)
            assert row.generalization == row.efficacy

    def test_refit_on_new_tokens_reaches_high_efficacy(self):
        # A hypothetical perfect edit: refit the backbone with the new tokens
        # as the stored answers, then score it on the original probes.
        cfg = tiny_cfg()
        ds = generate_dataset(cfg)
        swapped = replace(ds, old_tokens=ds.new_tokens.copy(), new_tokens=ds.old_tokens.copy())
        refit, _ = fit_initial_model(cfg, swapped)
        eff = float(np.mean([evaluate(refit, ds, i).efficacy for i in range(ds.m_languages)]))
        assert eff >= 0.95

    def test_averaged_recomputes_bit_exactly(self):
        row = MetricsRow(efficacy=0.3, generalization=0.7, specificity=0.9, portability=0.1)
        assert row.averaged == (0.3 + 0.7 + 0.9 + 0.1) / 4
        assert row.as_dict()["averaged"] == row.averaged

    def test_range_validation(self):
        with pytest.raises(ShapeError):
            MetricsRow(efficacy=1.2, generalization=0.0, specificity=0.0, portability=0.0)

    def test_report_serialization_deterministic(self, small_bench):
        dataset, model = small_bench
        reports = []
        for _ in range(2):
            rows = evaluate_all(model, dataset)
            rep = MetricsReport(
                method="sum", cov_mode="per_language", alpha=1.0, rank_ratio=None,
                seed=dataset.config.seed, languages=dataset.languages, rows=rows,
            )
            reports.append(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_evaluate_all_equals_per_family_accuracy(self, small_bench, per_language_deltas):
        # One prediction over every probe family and language must score like
        # one accuracy call per (language, family).
        dataset, model = small_bench
        edited = apply_update(model, merge(MergeConfig("mean"), per_language_deltas), 1.0)
        for scored in (model, edited):
            reference = tuple(
                MetricsRow(
                    efficacy=accuracy(scored, dataset.request_inputs(i), dataset.new_tokens),
                    generalization=accuracy(scored, dataset.rephrase_inputs(i), dataset.new_tokens),
                    specificity=accuracy(
                        scored, dataset.unrelated_inputs(i), dataset.unrelated_expected(i)
                    ),
                    portability=accuracy(scored, dataset.hop_inputs(i), dataset.new_tokens),
                )
                for i in range(dataset.m_languages)
            )
            assert evaluate_all(scored, dataset) == reference
            assert tuple(evaluate(scored, dataset, i) for i in range(dataset.m_languages)) == reference

    def test_report_row_count_enforced(self, small_bench):
        dataset, model = small_bench
        rows = evaluate_all(model, dataset)
        with pytest.raises(ShapeError):
            MetricsReport(
                method="sum", cov_mode="per_language", alpha=1.0, rank_ratio=None,
                seed=0, languages=dataset.languages[:-1], rows=rows,
            )


@pytest.fixture(scope="module")
def per_language_deltas(small_bench):
    dataset, model = small_bench
    return edit_model(
        model, dataset.all_language_requests(), dataset.preserved_inputs_all(),
        method="memit", cov_mode="per_language", lam=2.75,
    )


class TestRunMono:
    def test_zero_alpha_equals_unedited_baseline(self, small_bench, per_language_deltas):
        dataset, model = small_bench
        for lang in range(dataset.m_languages):
            base = evaluate(model, dataset, lang)
            mono = run_mono(model, dataset, per_language_deltas, lang, alpha=0.0)
            assert mono == base

    def test_mono_efficacy_dominates_multilingual_sum(self, small_bench, per_language_deltas):
        dataset, model = small_bench
        edited = apply_update(model, merge(MergeConfig("sum"), per_language_deltas), 1.0)
        sum_eff = float(np.mean([evaluate(edited, dataset, i).efficacy for i in range(dataset.m_languages)]))
        mono_eff = float(np.mean([
            run_mono(model, dataset, per_language_deltas, i).efficacy
            for i in range(dataset.m_languages)
        ]))
        assert mono_eff >= sum_eff


def per_family_rows(model, dataset):
    """Each (language, family) scored by its own plain accuracy call."""
    return tuple(
        MetricsRow(
            efficacy=accuracy(model, dataset.request_inputs(i), dataset.new_tokens),
            generalization=accuracy(model, dataset.rephrase_inputs(i), dataset.new_tokens),
            specificity=accuracy(model, dataset.unrelated_inputs(i), dataset.unrelated_expected(i)),
            portability=accuracy(model, dataset.hop_inputs(i), dataset.new_tokens),
        )
        for i in range(dataset.m_languages)
    )


@pytest.fixture(scope="module")
def probe_dataset():
    return generate_dataset(tiny_cfg(n_layers=4))


class TestProbeBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        norm=st.sampled_from(NORMS),
        activation=st.sampled_from(ACTIVATIONS),
        edit_layers=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True).map(sorted),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        scale=st.floats(0.01, 2.0),
    )
    def test_prefix_scores_equal_plain_forward(
        self, probe_dataset, seed, norm, activation, edit_layers, alpha, scale
    ):
        dataset = probe_dataset
        rng = np.random.default_rng(seed)
        model = random_model(
            rng, d=8, h=16, n_layers=4, vocab=48, edit_layers=tuple(edit_layers),
            norm=norm, activation=activation,
        )
        deltas = {
            (layer, lang): DeltaMatrix(layer, lang, rng.standard_normal((8, 16)) * scale, "memit", "per_language")
            for layer in edit_layers
            for lang in range(dataset.m_languages)
        }
        delta_set = DeltaSet("memit", "per_language", tuple(edit_layers), tuple(range(dataset.m_languages)), deltas)
        probes = probe_batch(model, dataset)
        edited = apply_update(model, merge(MergeConfig("sum"), delta_set), alpha)

        columns = np.hstack([f(i) for i in range(dataset.m_languages) for f in (
            dataset.request_inputs, dataset.rephrase_inputs, dataset.unrelated_inputs, dataset.hop_inputs
        )])
        assert np.array_equal(predict_batch(edited, probes.prefix), predict_batch(edited, columns))
        assert evaluate_all(edited, probes) == per_family_rows(edited, dataset)
        for i in range(dataset.m_languages):
            own = {layer: delta_set.delta(layer, i).delta for layer in edit_layers}
            mono_edited = apply_update(model, own, alpha)
            assert run_mono(model, probes, delta_set, i, alpha) == evaluate(mono_edited, dataset, i)
            assert evaluate(mono_edited, probes, i) == per_family_rows(mono_edited, dataset)[i]

    def test_probe_batch_matches_dataset_shape(self, small_bench):
        dataset, model = small_bench
        probes = probe_batch(model, dataset)
        assert probes.prefix.n == 4 * dataset.n_facts * dataset.m_languages
        assert (probes.n_facts, probes.m_languages) == (dataset.n_facts, dataset.m_languages)
        assert probes.languages == dataset.languages
        one = probes.language(1)
        assert one.languages == (dataset.languages[1],)
        assert one.prefix.n == 4 * dataset.n_facts

    @pytest.mark.parametrize("changed", ["layer_1_w_in", "layer_1_w_out", "first_edit_w_in", "first_edit_norm"])
    def test_model_not_sharing_the_prefix_rejected(self, small_bench, changed):
        dataset, model = small_bench
        probes = probe_batch(model, dataset)
        layers = list(model.layers)
        first = model.edit_layers[0] - 1
        # Equal values in a new array: the prefix cannot tell them from an edit.
        if changed == "layer_1_w_in":
            layers[0] = replace(layers[0], w_in=layers[0].w_in.copy())
        elif changed == "layer_1_w_out":
            layers[0] = replace(layers[0], w_out=layers[0].w_out + 1e-3)
        elif changed == "first_edit_w_in":
            layers[first] = replace(layers[first], w_in=layers[first].w_in * 1.01)
        else:
            layers[first] = replace(layers[first], norm_scale=layers[first].norm_scale.copy())
        other = replace(model, layers=tuple(layers))
        with pytest.raises(ShapeError, match="does not share"):
            evaluate_all(other, probes)
        with pytest.raises(ShapeError, match="does not share"):
            evaluate(other, probes, 0)

    def test_edited_w_out_of_first_edit_layer_accepted(self, small_bench):
        dataset, model = small_bench
        probes = probe_batch(model, dataset)
        first = model.edit_layers[0]
        edited = model.with_w_out(first, model.layer(first).w_out * 1.1)
        assert evaluate_all(edited, probes) == evaluate_all(edited, dataset)
