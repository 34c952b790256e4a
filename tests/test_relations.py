"""Metamorphic relations of the merges, run through the CLI on tiny drawn benchmarks.

A metamorphic relation (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM Computing Surveys 2018) ties the outputs
of related runs together where no oracle gives either output alone:

* scale: ``mean`` and ``mean_cov`` at ``--alpha α·m`` give ``sum``'s and
  ``sum_cov``'s per-language rows at ``--alpha α``, since a mean is the sum
  over ``m`` languages scaled by ``1/m``;
* one language: at ``m_languages=1``, ``sum``, ``mean``, ``sum_cov`` and
  ``mean_cov``, and ``tsvm`` and ``tsvm_cov`` at ``--rank-ratio 1``, score
  as ``mono``, since every merge of one delta is that delta (tsvm's at full
  rank too) and the shared covariance of one language is its own;
* language order: a saved benchmark whose languages are permuted (the
  dataset's per-language arrays and the manifest's ``languages``) gives the
  same per-language rows of ``sum``, ``mean``, ``sum_cov``, ``mean_cov`` and
  ``mono``, in the permuted order.  tsvm is left out: at a rank ratio below
  one its rows moved by several hits per language in 5 of 23 drawn runs,
  since the basis its polar factor takes on a rank-deficient stack depends
  on the order of the stacked deltas;
* zero edit: :func:`lamedit.merging.apply_update` at ``alpha=0`` predicts as
  the unedited model.

Each relation runs with both solver methods and both covariance modes.  The
tolerance is fixed here, ahead of any run: hit counts must match exactly,
except that each (language, probe family) may move by as many hits as it has
probes whose top-two score margin is below :data:`MARGIN` under one of the
two models compared, since a rounding-level change in the update may flip
such a probe's prediction.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lamedit import cli, container, experiment, merging, metrics
from lamedit import model as model_core
from lamedit.errors import IllConditionedError
from lamedit.merging import MergeConfig

import make_golden

MARGIN = 1e-9
METHODS = ("memit", "alphaedit")

RELATION_SETTINGS = settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# The most facts per residual dimension a drawn benchmark asks its backbone
# to tell apart (see benchmark_docs).  With two to four languages, the fit
# failed in 630 of 1000 unbounded uniform draws and in 75 of 400 bounded
# ones.  It is the least bound at which n_preserved still reaches 16 (d=8,
# two facts).
LOAD = 2.25


@st.composite
def benchmark_docs(draw, m_languages):
    """A tiny config document: every field that sizes the benchmark drawn small.

    The backbone must tell apart each fact once per language whose keys it
    does not share (``n_facts * (1 + (m_languages - 1) * (1 - overlap))``)
    and each preserved fact.  ``n_preserved`` and ``overlap`` are drawn so
    that these come to at most :data:`LOAD` per dimension ``d``, where most
    fits succeed; each field still reaches its whole range.  ``h`` is drawn
    down from ``2 * d``, so that the wide models, on which the fit fails
    least, are the ones hypothesis favours: in bounded uniform draws the fit
    failed in 62 of 226 at ``h = d`` and in 37 of 233 at ``h = 2 * d``.
    """
    n_layers = draw(st.integers(2, 4))
    n_facts = draw(st.integers(2, 6))
    d = draw(st.integers(4, 8))
    m = draw(m_languages)
    budget = LOAD * d - n_facts
    n_preserved = draw(st.integers(2, min(16, int(budget))))
    unshared = (budget - n_preserved) / (n_facts * (m - 1)) if m > 1 else 1.0
    return {
        "schema_version": 1,
        "seed": draw(st.integers(0, 2**16)),
        "dataset": {
            "n_facts": n_facts,
            "m_languages": m,
            "d": d,
            "h": 2 * d - draw(st.integers(0, d)),
            "n_layers": n_layers,
            "edit_layers": sorted(draw(st.sets(st.integers(1, n_layers), min_size=1))),
            "overlap": draw(st.floats(max(0.0, 1.0 - unshared), 1.0)),
            "rephrase_noise": draw(st.floats(0.0, 0.5)),
            "n_preserved": n_preserved,
            "vocab_size": 2 * n_facts + 1 + draw(st.integers(0, 16)),
        },
        "solver": {"rel_tol": draw(st.sampled_from([1e-6, 1e-3, 0.05]))},
        "alpha": draw(st.floats(0.25, 2.0)),
    }


@contextlib.contextmanager
def generated(doc):
    """``(config_path, bench_dir, work_dir)`` of ``doc``'s benchmark, written by ``lamedit generate``.

    A draw whose backbone fit fails is rejected: the relations are about the
    edits of a benchmark that exists.
    """
    with tempfile.TemporaryDirectory() as work_dir:
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        bench = os.path.join(work_dir, "bench")
        assume(_cli(["generate", config_path, "--out", bench]) == 0)
        yield config_path, bench, work_dir


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def run_hits(config_path, bench, out_dir, method, alpha, merges, mono=False, rank_ratio=None):
    """``{method: {language: hits per family}}`` of one ``lamedit run``.

    None if the run stops with the numerical-failure exit code 3, as an edit
    whose system is singular or too steep does; any other failure fails the
    test.
    """
    argv = ["run", config_path, "--dataset", bench, "--out", out_dir, "--method", method, "--alpha", repr(alpha)]
    argv += [arg for name in merges for arg in ("--merge", name)]
    if rank_ratio is not None:
        argv += ["--rank-ratio", repr(rank_ratio)]
    code = _cli(argv if mono else [*argv, "--no-mono"])
    assert code in (0, 3), argv
    if code == 3:
        return None
    with open(config_path, encoding="utf-8") as fh:
        dataset = json.load(fh)["dataset"]
    return make_golden.hit_counts(out_dir, dataset["n_facts"], dataset["m_languages"])


def edited_model(config_path, bench, method, merge_name, alpha):
    """The dataset and the model ``lamedit run`` scores for one merge, or for mono, at ``alpha``.

    A tsvm merge keeps its full rank (ratio 1).
    """
    config = experiment.load_config(config_path)
    solver = replace(config.solver, method=method)
    dataset, model, _ = experiment.load_benchmark(bench, config)
    if merge_name == experiment.MONO_METHOD:
        (delta_set,) = experiment.compute_delta_sets(model, dataset, solver, ("per_language",)).values()
        merged = {layer: delta_set.delta(layer, 0) for layer in delta_set.layers}
    else:
        merge_config = MergeConfig(merge_name)
        delta_set = experiment.compute_delta_sets(model, dataset, solver, (merge_config.cov_mode,))
        merged = merging.merge(merge_config, delta_set[merge_config.cov_mode])
    return dataset, merging.apply_update(model, merged, alpha)


def margins(model, inputs):
    """The top-two score margin of each of ``inputs``' columns on ``model``."""
    scores = np.sort(model.codebook.T @ model_core.forward_batch(model, inputs)[0][-1], axis=0)
    return scores[-1] - scores[-2]


def near_ties(dataset, models, language):
    """Per probe family of ``language``, the probes whose margin is below MARGIN under any of ``models``."""
    language_id = dataset.languages.index(language)
    return [
        int(np.any([margins(model, inputs) < MARGIN for model in models], axis=0).sum())
        for inputs, _ in metrics._probe_families(dataset, language_id)
    ]


def assert_same_hits(got, want, tie_models):
    """Equal hit counts per (language, family), up to each family's near ties under ``tie_models()``."""
    assert got.keys() == want.keys()
    for language, hits in want.items():
        if got[language] == hits:
            continue
        dataset, models = tie_models()
        slack = near_ties(dataset, models, language)
        moved = [abs(a - b) for a, b in zip(got[language], hits)]
        assert all(m <= s for m, s in zip(moved, slack)), (language, got[language], hits, slack)


@RELATION_SETTINGS
@given(doc=benchmark_docs(st.integers(2, 4)))
def test_mean_at_alpha_times_m_scores_as_sum_at_alpha(doc):
    m = doc["dataset"]["m_languages"]
    alpha = doc["alpha"]
    with generated(doc) as (config_path, bench, work_dir):
        for method in METHODS:
            sums = run_hits(config_path, bench, os.path.join(work_dir, f"sum-{method}"), method, alpha, ("sum", "sum_cov"))
            means = run_hits(
                config_path, bench, os.path.join(work_dir, f"mean-{method}"), method, alpha * m, ("mean", "mean_cov")
            )
            # Both runs solve the same edits, so both fail or neither does.
            assert (sums is None) == (means is None), method
            if sums is None:
                continue
            for sum_name, mean_name in (("sum", "mean"), ("sum_cov", "mean_cov")):

                def tie_models():
                    dataset, summed = edited_model(config_path, bench, method, sum_name, alpha)
                    return dataset, (summed, edited_model(config_path, bench, method, mean_name, alpha * m)[1])

                assert_same_hits(means[mean_name], sums[sum_name], tie_models)


@RELATION_SETTINGS
@given(doc=benchmark_docs(st.just(1)))
def test_every_merge_of_one_language_scores_as_mono(doc):
    alpha = doc["alpha"]
    merges = ("sum", "mean", "sum_cov", "mean_cov", "tsvm", "tsvm_cov")
    with generated(doc) as (config_path, bench, work_dir):
        for method in METHODS:
            hits = run_hits(
                config_path, bench, os.path.join(work_dir, method), method, alpha, merges, mono=True, rank_ratio=1.0
            )
            if hits is None:
                continue
            for name in merges:

                def tie_models():
                    dataset, mono = edited_model(config_path, bench, method, experiment.MONO_METHOD, alpha)
                    return dataset, (mono, edited_model(config_path, bench, method, name, alpha)[1])

                assert_same_hits(hits[name], hits[experiment.MONO_METHOD], tie_models)


def permuted_copy(bench, dest, order):
    """A copy of the benchmark ``bench`` at ``dest`` whose languages come in ``order``."""
    shutil.copytree(bench, dest)
    path = os.path.join(dest, experiment.DATASET_FILE)
    arrays, meta = container.load_arrays(path)
    for name in ("transforms", "rephrase_offsets", "unrelated_index"):
        arrays[name] = arrays[name][list(order)]
    meta["languages"] = [meta["languages"][i] for i in order]
    container.save_arrays(path, arrays, meta=meta)
    manifest_path = os.path.join(dest, experiment.MANIFEST_FILE)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["languages"] = meta["languages"]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return dest


@RELATION_SETTINGS
@given(doc=benchmark_docs(st.integers(2, 4)), data=st.data())
def test_permuted_languages_permute_the_rows(doc, data):
    m = doc["dataset"]["m_languages"]
    order = data.draw(st.permutations(range(m)), label="order")
    if order == sorted(order):
        order.reverse()  # so that every drawn order moves the languages
    alpha = doc["alpha"]
    merges = ("sum", "mean", "sum_cov", "mean_cov")
    with generated(doc) as (config_path, bench, work_dir):
        permuted = permuted_copy(bench, os.path.join(work_dir, "permuted"), order)
        for method in METHODS:
            hits = run_hits(config_path, bench, os.path.join(work_dir, method), method, alpha, merges, mono=True)
            moved = run_hits(
                config_path, permuted, os.path.join(work_dir, f"permuted-{method}"), method, alpha, merges, mono=True
            )
            # Both runs solve the same edits, so both fail or neither does.
            assert (hits is None) == (moved is None), method
            if hits is None:
                continue
            for name in (*merges, experiment.MONO_METHOD):

                def tie_models():
                    dataset, edited = edited_model(config_path, bench, method, name, alpha)
                    return dataset, (edited, edited_model(config_path, permuted, method, name, alpha)[1])

                assert_same_hits(moved[name], hits[name], tie_models)


@pytest.mark.filterwarnings("ignore::lamedit.errors.EmptyNullSpaceWarning")
@RELATION_SETTINGS
@given(doc=benchmark_docs(st.integers(1, 3)))
def test_a_zero_weight_update_predicts_as_the_unedited_model(doc):
    with generated(doc) as (config_path, bench, _):
        config = experiment.load_config(config_path)
        dataset, model, _ = experiment.load_benchmark(bench, config)
        probes = metrics.probe_batch(model, dataset)
        (unedited,) = model_core.predict_stack([model], probes.prefix)
        for method in METHODS:
            solver = replace(config.solver, method=method)
            try:
                delta_sets = experiment.compute_delta_sets(model, dataset, solver, ("per_language", "shared"))
            except IllConditionedError:
                continue  # the edit `lamedit run` stops on with exit code 3
            for merge_config in experiment.default_merges():
                merged = merging.merge(merge_config, delta_sets[merge_config.cov_mode])
                (predicted,) = model_core.predict_stack([merging.apply_update(model, merged, 0.0)], probes.prefix)
                moved = predicted != unedited
                if moved.any():
                    families = [f for i in range(dataset.m_languages) for f in metrics._probe_families(dataset, i)]
                    inputs = np.hstack([inputs for inputs, _ in families])
                    assert np.all(margins(model, inputs)[moved] < MARGIN), (method, merge_config.method)
