import csv
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit import cli, container, covariance, experiment, merging, metrics, solvers, synthdata
from lamedit import model as model_mod
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.errors import ConfigError

from test_solvers import edit_requests

TINY_CONFIG = {
    "schema_version": 1,
    "seed": 9,
    "dataset": {
        "n_facts": 8,
        "m_languages": 3,
        "d": 8,
        "h": 16,
        "n_layers": 4,
        "edit_layers": [2, 3],
        "overlap": 0.8,
        "rephrase_noise": 0.2,
        "n_preserved": 16,
        "vocab_size": 48,
    },
    "solver": {"method": "memit", "lam_memit": 2.75},
    "alpha": 1.0,
    "rank_grid": [0.25, 0.5, 0.75, 1.0],
}


# Config documents for fuzzing: near-valid objects, nested ones too, with a
# few keys replaced by any JSON value, dropped or added.  JSON integers may
# exceed the float range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _mutated(base, nested=None):
    """``base`` with up to two keys replaced, and sometimes one dropped or one added."""
    nested = nested or {}
    keys = sorted(base)
    changed = st.lists(st.sampled_from(keys), max_size=2, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({k: nested.get(k, JSON_VALUES) for k in chosen})
    )
    dropped = st.one_of(st.just(()), st.just(()), st.lists(st.sampled_from(keys), max_size=1))
    added = st.one_of(st.just({}), st.just({}), st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=1))
    return st.builds(
        lambda changed, dropped, added: {
            **{k: v for k, v in base.items() if k not in dropped},
            **changed,
            **added,
        },
        changed,
        dropped,
        added,
    )


_SOLVER = dict(TINY_CONFIG["solver"], lam_alphaedit=0.1, rel_tol=1e-6, cond_limit=1e12)
_NESTED = {
    "solver": _mutated(_SOLVER) | JSON_VALUES,
    "merges": st.lists(_mutated({"method": "tsvm", "rank_ratio": 0.5}) | JSON_VALUES, max_size=3)
    | JSON_VALUES,
    "rank_grid": st.lists(JSON_VALUES, max_size=3) | JSON_VALUES,
}
CONFIG_DOCUMENTS = _mutated(
    {**TINY_CONFIG, "solver": _SOLVER, "merges": [{"method": "sum"}], "include_mono": True},
    nested={"dataset": _mutated(TINY_CONFIG["dataset"]) | JSON_VALUES, **_NESTED},
)

# Config documents for fuzzing ``lamedit generate``, which builds and fits a
# whole benchmark.  To keep each example fast, the fields that size it are
# always present and bounded: d <= 8, h <= 16, n_facts <= 6, m_languages <= 3,
# n_layers <= 4, n_preserved <= 12 and vocab_size <= 64.  They are drawn
# valid, and at times one of them is replaced by a bounded wrong value.  The
# other fields are fuzzed as in CONFIG_DOCUMENTS, or at times left as they
# are, so that a fair share of the examples generates a benchmark.
GENERATE_SIZES = {
    "d": (st.integers(2, 8), 8),
    "h": (st.integers(8, 16), 16),
    "n_facts": (st.integers(1, 6), 6),
    "m_languages": (st.integers(1, 3), 3),
    "n_layers": (st.integers(3, 4), 4),
    "n_preserved": (st.integers(1, 12), 12),
    "vocab_size": (st.integers(13, 64), 64),
}
_WRONG_SIZE = st.sampled_from(sorted(GENERATE_SIZES)).flatmap(
    lambda name: st.fixed_dictionaries(
        {
            name: st.integers(-1, GENERATE_SIZES[name][1])
            | st.floats(-1.0, GENERATE_SIZES[name][1])
            | st.none()
            | st.booleans()
            | st.text(max_size=3)
        }
    )
)
_GENERATE_REST = {k: v for k, v in TINY_CONFIG["dataset"].items() if k not in GENERATE_SIZES}
_GENERATE_DATASETS = st.builds(
    lambda rest, sized, wrong: {**rest, **sized, **wrong},
    st.just(_GENERATE_REST) | _mutated(_GENERATE_REST),
    st.fixed_dictionaries({name: valid for name, (valid, _) in GENERATE_SIZES.items()}),
    st.just({}) | _WRONG_SIZE,
)
_GENERATE_TOP = {k: v for k, v in TINY_CONFIG.items() if k != "dataset"} | {
    "solver": _SOLVER, "merges": [{"method": "sum"}], "include_mono": True,
}
GENERATE_DOCUMENTS = st.builds(
    lambda doc, dataset: {**doc, "dataset": dataset},
    st.just(_GENERATE_TOP) | _mutated(_GENERATE_TOP, nested=_NESTED),
    _GENERATE_DATASETS,
)

REPORT_ROW = {
    "efficacy": 0.0, "generalization": 0.0, "specificity": 1.0, "portability": 0.0, "averaged": 0.25,
}
REPORT = {
    "method": "sum", "cov_mode": "per_language", "alpha": 1.0, "rank_ratio": None, "seed": 5,
    "languages": ["en", "zh"], "per_language": {"en": REPORT_ROW, "zh": REPORT_ROW}, "mean": REPORT_ROW,
}
# metrics.json documents for fuzzing ``lamedit report``: reports with fields
# replaced, dropped or added at every level, and documents of any shape.
_REPORTS = st.lists(
    _mutated(
        REPORT,
        nested={
            "languages": st.lists(st.sampled_from(["en", "zh", "\ud800"]) | JSON_VALUES, max_size=3)
            | JSON_VALUES,
            "per_language": _mutated(REPORT["per_language"], nested={"zh": _mutated(REPORT_ROW)})
            | JSON_VALUES,
            "mean": _mutated(REPORT_ROW) | JSON_VALUES,
        },
    )
    | JSON_VALUES,
    max_size=3,
)
METRICS_DOCUMENTS = st.one_of(
    _mutated({"reports": [REPORT], "config": {"solver": {"method": "memit"}}}, nested={"reports": _REPORTS}),
    JSON_VALUES,
)


def write_config(tmp_path, doc=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else TINY_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    config_path = write_config(tmp)
    bench_dir = str(tmp / "bench")
    assert cli.main(["generate", config_path, "--out", bench_dir]) == 0
    return config_path, bench_dir, tmp


@pytest.fixture(scope="module")
def tiny_runs(tiny_setup):
    """``tiny_setup`` after two ``run``s of its config, into ``run1/`` and ``run2/``."""
    config_path, bench_dir, tmp = tiny_setup
    for name in ("run1", "run2"):
        assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(tmp / name)]) == 0
    return tiny_setup


@pytest.fixture(scope="module")
def other_shape_bench(tmp_path_factory):
    """A benchmark whose dataset and model have d=10 where the tiny one has d=8."""
    tmp = tmp_path_factory.mktemp("other")
    doc = dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], d=10))
    bench_dir = str(tmp / "bench")
    assert cli.main(["generate", write_config(tmp, doc), "--out", bench_dir]) == 0
    return bench_dir


COMMANDS = [["run"], ["sweep", "--axis", "alpha"], ["sweep", "--axis", "rank"]]


def _damaged_copy(bench_dir, dest, files=None):
    """A copy of a benchmark directory, its manifest naming ``files`` where given."""
    shutil.copytree(bench_dir, dest)
    if files:
        manifest_path = os.path.join(dest, experiment.MANIFEST_FILE)
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["files"].update(files)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
    return str(dest)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = experiment.config_from_dict({"seed": 3})
        assert cfg.alpha_grid == experiment.DEFAULT_ALPHA_GRID
        assert len(cfg.merges) == 6
        assert cfg.dataset.seed == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            experiment.config_from_dict({"seed": 1, "mystery": True})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            experiment.config_from_dict({"alpha_grid": [0.5, 0.5, 1.0]})
        with pytest.raises(ConfigError):
            experiment.config_from_dict({"alpha_grid": [0.5, 2.0]})  # missing 1.0
        with pytest.raises(ConfigError):
            experiment.config_from_dict({"rank_grid": [0.0, 1.0]})

    def test_missing_required_subfield_rejected(self):
        with pytest.raises(ConfigError):
            experiment.config_from_dict({"merges": [{"rank_ratio": 0.5}]})  # no method

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("include_mono", "false"),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, field, value):
        doc = dict(TINY_CONFIG, **{field: value})
        config_path = write_config(tmp_path, doc)
        assert cli.main(["generate", config_path, "--out", str(tmp_path / "b")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 5.9), ("seed", True)],
    )
    def test_non_integral_integer_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            experiment.config_from_dict(dict(TINY_CONFIG, **{field: value}))

    @pytest.mark.parametrize("field, value", [("n_facts", 8.5), ("d", True), ("edit_layers", [2, 2.5])])
    def test_non_integral_dataset_field_rejected(self, field, value):
        doc = dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], **{field: value}))
        with pytest.raises(ConfigError, match=field):
            experiment.config_from_dict(doc)

    def test_integral_float_accepted(self):
        cfg = experiment.config_from_dict(dict(TINY_CONFIG, seed=9.0))
        assert cfg.seed == 9 and isinstance(cfg.seed, int)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"workers": 2}, "unknown config fields: ['workers']"),
            ({"merges": [{"method": "sum", "alpha": 2.0}]}, "unknown merge fields: ['alpha']"),
            ({"merges": [{"method": "sum", "alpha": 0.0}]}, "unknown merge fields: ['alpha']"),
            ({"solver": {"method": "memit", "lam": 1.0}}, "unknown solver fields: ['lam']"),
            ({"dataset": dict(TINY_CONFIG["dataset"], width=4)}, "unknown dataset fields: ['width']"),
        ],
        ids=["workers", "merge-alpha", "merge-alpha-zero", "solver", "dataset"],
    )
    def test_unknown_field_exit_2(self, tmp_path, capsys, change, named):
        doc = {**TINY_CONFIG, **change}
        with pytest.raises(ConfigError, match=re.escape(named)):
            experiment.config_from_dict(doc)
        config_path = write_config(tmp_path, doc)
        assert cli.main(["generate", config_path, "--out", str(tmp_path / "b")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"alpha": "1.5"}, "alpha must be a number"),
            ({"alpha": 10**400}, "alpha is too large"),
            ({"alpha_grid": "0.5,1.0"}, "alpha_grid must be a JSON array"),
            ({"merges": {"method": "sum"}}, "merges must be a JSON array"),
            ({"merges": ["sum"]}, "merge must be a JSON object"),
            ({"solver": {"lam_memit": 10**400}}, "solver.lam_memit is too large"),
            ({"solver": {"lam_memit": True}}, "solver.lam_memit must be a number"),
            ({"dataset": dict(TINY_CONFIG["dataset"], overlap="0.5")}, "dataset.overlap must be a number"),
            ({"schema_version": [1]}, "unsupported config schema_version [1]"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
        ids=[
            "alpha-string", "alpha-huge", "grid-string", "merges-object", "merge-string",
            "lam-huge", "lam-bool", "overlap-string", "version-list", "seed-negative",
        ],
    )
    def test_malformed_value_rejected(self, change, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            experiment.config_from_dict({**TINY_CONFIG, **change})

    @pytest.mark.parametrize(
        "field, grid",
        [
            ("alpha_grid", [0.5, 1.0, float("nan")]),
            ("alpha_grid", [0.5, 1.0, float("inf")]),
            ("alpha_grid", [0.0, 1.0]),
            ("alpha_grid", [-0.5, 1.0]),
            ("rank_grid", [0.25, float("nan")]),
        ],
    )
    def test_invalid_grid_rejected(self, tmp_path, capsys, field, grid):
        with pytest.raises(ConfigError, match=field):
            experiment.config_from_dict(dict(TINY_CONFIG, **{field: grid}))
        config_path = write_config(tmp_path, dict(TINY_CONFIG, **{field: grid}))
        assert cli.main(["generate", config_path, "--out", str(tmp_path / "b")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("solver", "lam_memit", float("nan")),
            ("solver", "lam_alphaedit", float("nan")),
            ("solver", "rel_tol", float("nan")),
            ("solver", "cond_limit", float("nan")),
            ("solver", "cond_limit", float("inf")),
            ("solver", "lam_memit", float("inf")),
            ("dataset", "rephrase_noise", float("nan")),
            ("dataset", "rephrase_noise", float("inf")),
        ],
    )
    def test_non_finite_setting_exit_2(self, tiny_setup, tmp_path, capsys, section, field, value):
        _, bench_dir, _ = tiny_setup
        doc = dict(TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **{field: value})})
        with pytest.raises(ConfigError, match=field):
            experiment.config_from_dict(doc)
        config_path = write_config(tmp_path, doc)
        code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_roundtrip(self):
        cfg = experiment.config_from_dict(TINY_CONFIG)
        again = experiment.config_from_dict(experiment.config_to_dict(cfg))
        assert again == cfg

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            experiment.load_config(str(tmp_path / "absent.json"))

    @settings(max_examples=500, deadline=None)
    @given(doc=st.one_of(CONFIG_DOCUMENTS, JSON_VALUES))
    def test_fuzzed_document_parses_or_raises_config_error(self, doc):
        try:
            cfg = experiment.config_from_dict(doc)
        except ConfigError:
            return
        assert isinstance(cfg, experiment.ExperimentConfig)
        assert experiment.config_from_dict(experiment.config_to_dict(cfg)) == cfg


class TestComputeDeltaSets:
    @pytest.mark.parametrize("method", ["memit", "alphaedit"])
    def test_preserved_terms_shared_and_one_forward_per_step(self, small_bench, monkeypatch, method):
        dataset, model = small_bench
        solver = experiment.SolverSettings(method=method, rel_tol=0.02)
        modes = (PER_LANGUAGE, SHARED)
        # Reference: one edit per mode, each preparing its own requests and
        # preserved terms.
        fresh = {
            mode: edit_requests(
                model,
                dataset.all_language_requests(),
                dataset.preserved_inputs_all(),
                solver.lam,
                method=method,
                rel_tol=solver.rel_tol,
                cov_mode=mode,
            )
            for mode in modes
        }

        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(covariance, "const_stats")
        count(solvers, "edit_model")
        count(solvers, "nullspace_projector")
        count(model_mod, "forward_batch")
        count(model_mod, "keys_at")
        count(model_mod, "compute_prefix")
        count(model_mod, "keys_and_targets")
        count(model_mod, "keys_and_targets_stack")
        delta_sets = experiment.compute_delta_sets(model, dataset, solver, modes)

        n_layers, m = len(model.edit_layers), dataset.m_languages
        # One edit_model call edits in both modes.
        assert calls["edit_model"] == 1
        # One preserved walk gives every edit layer's keys, with no full trace.
        assert calls["const_stats"] == 0
        assert calls["nullspace_projector"] == (n_layers if method == "alphaedit" else 0)
        assert calls["keys_at"] == 1
        assert calls["forward_batch"] == 0
        # One request prefix per language, and one stacked walk of every
        # language at the first edit layer, shared by both modes; then one
        # stacked walk from the prefixes per (mode, later layer) step,
        # serving both keys and targets.  A dataset's languages share one
        # request count, so they stack as wide as STACK_BYTES allows.
        stacks = -(-m // (model_mod.STACK_BYTES // (8 * model.h * model.h)))
        assert calls["compute_prefix"] == m
        assert calls["keys_and_targets"] == 0
        assert calls["keys_and_targets_stack"] == stacks * (1 + len(modes) * (n_layers - 1))
        for mode in modes:
            for key, delta in fresh[mode].entries.items():
                assert np.array_equal(delta_sets[mode].entries[key], delta)


class ScipyCalled(Exception):
    pass


def _refuse_scipy_linalg(monkeypatch):
    """Make every scipy.linalg routine the solvers and merges could reach raise."""

    def refuse(*args, **kwargs):
        raise ScipyCalled

    for name in ("cho_factor", "cho_solve", "lu_factor", "lu_solve", "svd"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    for name in ("dpocon", "dgecon"):
        monkeypatch.setattr(scipy.linalg.lapack, name, refuse)


class TestMemitStaysInNumpy:
    # numpy and scipy bundle separate OpenBLAS builds whose thread pools stall
    # each other when calls alternate, so a memit op keeps to numpy's.
    def test_memit_run_and_sweeps_call_no_scipy_linalg(self, tiny_setup, monkeypatch):
        config_path, bench_dir, _ = tiny_setup
        config = experiment.load_config(config_path)
        dataset, model, _ = experiment.load_benchmark(bench_dir, config)
        _refuse_scipy_linalg(monkeypatch)
        # Delta sets in both cov modes, all six merges, evaluation and mono.
        assert len(experiment.run_experiment(config, dataset, model)) == len(config.merges) + 1
        for axis in ("alpha", "rank"):
            experiment.sweep(config, dataset, model, axis)

    def test_alphaedit_still_solves_in_scipy(self, small_bench, monkeypatch):
        # The guard bites: alphaedit's LU path goes through the refused routines.
        dataset, model = small_bench
        _refuse_scipy_linalg(monkeypatch)
        with pytest.raises(ScipyCalled):
            edit_requests(
                model, dataset.all_language_requests(), dataset.preserved_inputs_all(),
                solvers.DEFAULT_LAM_ALPHAEDIT, method="alphaedit", rel_tol=0.02,
            )


class TestGenerateCommand:
    def test_same_seed_byte_identical_files(self, tmp_path):
        config_path = write_config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["generate", config_path, "--out", a]) == 0
        assert cli.main(["generate", config_path, "--out", b]) == 0
        for name in ("dataset.lam", "model.lam", "manifest.json"):
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_overwrite_refused_without_force(self, tiny_setup, capsys):
        config_path, bench_dir, _ = tiny_setup
        assert cli.main(["generate", config_path, "--out", bench_dir]) == 2
        assert "--force" in capsys.readouterr().err
        assert cli.main(["generate", config_path, "--out", bench_dir, "--force"]) == 0

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["generate", str(bad), "--out", str(tmp_path / "x")]) == 2
        doc = dict(TINY_CONFIG)
        doc["dataset"] = dict(TINY_CONFIG["dataset"], vocab_size=4)
        bad2 = write_config(tmp_path, doc, name="bad2.json")
        assert cli.main(["generate", bad2, "--out", str(tmp_path / "y")]) == 2

    def test_summary_lines(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert cli.main(["generate", write_config(tmp_path), "--out", str(out)]) == 0
        with open(out / experiment.MANIFEST_FILE, encoding="utf-8") as fh:
            fit = json.load(fh)["fit"]
        assert sorted(fit) == ["preserved_recall", "request_recall"]
        assert capsys.readouterr().out.splitlines() == [
            f"benchmark written to {out}: 8 facts x 3 languages, 16 preserved facts, vocab 48",
            f"backbone fit: request recall {fit['request_recall']:.4f}, "
            f"preserved recall {fit['preserved_recall']:.4f}",
        ]

    def test_failed_fit_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synthdata, "FIT_FLOOR", 1.01)
        out = tmp_path / "bench"
        assert cli.main(["generate", write_config(tmp_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: backbone fit at seed 9 missed the recall floor 1.01")
        assert not (out / experiment.MANIFEST_FILE).exists()


class TestBlasThreadCount:
    def test_tiny_generate_and_run_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # At h <= 64 every BLAS kernel the pipeline calls gives the same bits
        # on one thread as on two; at h=256 several do not (see README,
        # Determinism).  The rank sweep makes the most merges.
        # Each thread count runs in its own process, because OpenBLAS reads
        # its thread count once, at load.
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiment.__file__)))
        config_path = write_config(tmp_path)
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            bench, run, rank = (tmp_path / f"{name}{threads}" for name in ("bench", "run", "rank"))
            for argv in (
                ["generate", config_path, "--out", str(bench)],
                ["run", config_path, "--dataset", str(bench), "--out", str(run)],
                ["sweep", config_path, "--dataset", str(bench), "--out", str(rank), "--axis", "rank"],
            ):
                done = subprocess.run(
                    [sys.executable, "-m", "lamedit.cli", *argv], env=env, capture_output=True, text=True
                )
                assert done.returncode == 0, done.stderr
            outputs[threads] = {
                name: (directory / name).read_bytes()
                for directory, names in (
                    (bench, ("dataset.lam", "model.lam", "manifest.json")),
                    (run, ("metrics.csv", "metrics.json")),
                    (rank, ("sweep_rank.csv", "sweep_rank.json", "sweep_rank.svg")),
                )
                for name in names
            }
        assert outputs["1"] == outputs["2"]


class TestEmptyNullSpaceWarning:
    # At the tiny shape the preserved keys span every direction at the default
    # rel_tol, so alphaedit's projector is zero on both edit layers.
    def test_run_and_sweep_name_the_empty_layers(self, tiny_setup, capsys):
        config_path, bench_dir, tmp = tiny_setup
        alpha_config = write_config(tmp, dict(TINY_CONFIG, solver={"method": "alphaedit"}), name="alpha.json")
        warning = (
            "warning: alphaedit's null space is empty at rel_tol 1e-06 on layers 2, 3, "
            "so their edits are exactly zero\n"
        )
        for argv in (
            ["run", config_path, "--dataset", bench_dir, "--out", str(tmp / "alpha-run"), "--method", "alphaedit"],
            ["sweep", alpha_config, "--dataset", bench_dir, "--out", str(tmp / "alpha-sweep"), "--axis", "alpha"],
        ):
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            assert err == warning
            assert "warning" not in out

    def test_no_warning_under_memit_or_with_a_null_space(self, tiny_setup, capsys):
        config_path, bench_dir, tmp = tiny_setup
        partial = dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02})
        for argv in (
            ["run", config_path, "--dataset", bench_dir, "--out", str(tmp / "memit-run")],
            ["run", write_config(tmp, partial, name="partial.json"), "--dataset", bench_dir,
             "--out", str(tmp / "partial-run")],
        ):
            assert cli.main(argv) == 0
            assert capsys.readouterr().err == ""


class TestRunCommand:
    def test_outputs_and_determinism(self, tiny_runs):
        _, _, tmp = tiny_runs
        out1, out2 = str(tmp / "run1"), str(tmp / "run2")
        for name in ("metrics.csv", "metrics.json"):
            with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_csv_columns_contract(self, tiny_runs):
        config_path, bench_dir, tmp = tiny_runs
        with open(os.path.join(str(tmp / "run1"), "metrics.csv")) as fh:
            header = fh.readline().strip()
        assert header == ",".join(experiment.CSV_COLUMNS)

    @pytest.mark.parametrize("d, code", [(TINY_CONFIG["dataset"]["d"], 0), (10, 2)])
    def test_manifest_with_retired_fields(self, tiny_setup, tmp_path, capsys, d, code):
        # Older benchmarks record `workers` and each merge's `alpha` in their
        # manifest; only its seed and dataset section are checked.
        config_path, bench_dir, _ = tiny_setup
        bench = tmp_path / "bench"
        shutil.copytree(bench_dir, bench)
        manifest_path = bench / experiment.MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["workers"] = 0
        for merge in manifest["config"]["merges"]:
            merge["alpha"] = 1.0
        manifest["config"]["dataset"]["d"] = d
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert cli.main(["run", config_path, "--dataset", str(bench), "--out", str(out)]) == code
        if code:
            assert f"dataset.d={TINY_CONFIG['dataset']['d']}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("{not json", "is not valid JSON"),
            ('{"config": {"seed": 9, "dataset": {}}}', "names no dataset and model files"),
            ("[1, 2]", "names no dataset and model files"),
        ],
        ids=["not-json", "no-files", "json-array"],
    )
    def test_malformed_manifest_exit_2(self, tiny_setup, tmp_path, capsys, text, named):
        config_path, bench_dir, _ = tiny_setup
        bench = tmp_path / "bench"
        shutil.copytree(bench_dir, bench)
        (bench / experiment.MANIFEST_FILE).write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", config_path, "--dataset", str(bench), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and experiment.MANIFEST_FILE in err
        assert not out.exists()

    def test_missing_dataset_exit_2(self, tiny_setup, tmp_path):
        config_path, _, _ = tiny_setup
        code = cli.main(["run", config_path, "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_truncated_model_exit_2(self, tiny_setup, tmp_path, capsys):
        _, bench_dir, _ = tiny_setup
        config_path = write_config(tmp_path)
        broken = tmp_path / "bench"
        shutil.copytree(bench_dir, broken)
        model_path = broken / experiment.MODEL_FILE
        raw = model_path.read_bytes()
        model_path.write_bytes(raw[: len(raw) // 2])
        code = cli.main(["run", config_path, "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truncated" in err

    @pytest.mark.parametrize("command", COMMANDS[:2], ids=["run", "sweep"])
    @pytest.mark.parametrize("role", ["dataset", "model"])
    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_lam_path_exit_2(self, tiny_setup, tmp_path, capsys, command, role, make):
        config_path, bench_dir, _ = tiny_setup
        bench = _damaged_copy(bench_dir, tmp_path / "bench", {role: "elsewhere"})
        if make == "directory":
            os.mkdir(os.path.join(bench, "elsewhere"))
        out = tmp_path / "o"
        code = cli.main([command[0], config_path, "--dataset", bench, "--out", str(out), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and os.path.join(bench, "elsewhere") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS[:2], ids=["run", "sweep"])
    def test_model_of_another_shape_exit_2(self, tiny_setup, other_shape_bench, tmp_path, capsys, command):
        # A d=10 backbone in a d=8 benchmark must be refused at load, naming the model file.
        config_path, bench_dir, _ = tiny_setup
        bench = _damaged_copy(bench_dir, tmp_path / "bench")
        model_path = os.path.join(bench, experiment.MODEL_FILE)
        shutil.copyfile(os.path.join(other_shape_bench, experiment.MODEL_FILE), model_path)
        out = tmp_path / "o"
        code = cli.main([command[0], config_path, "--dataset", bench, "--out", str(out), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and model_path in err and "d=10" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["generate", "{config}"], ["run", "{config}", "--dataset", "{bench}"], COMMANDS[1]],
        ids=["generate", "run", "sweep"],
    )
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_path_that_cannot_be_a_directory_exit_2(
        self, tiny_setup, tmp_path, capsys, monkeypatch, argv, under
    ):
        # run and sweep refuse the output path before any edit is computed.
        config_path, bench_dir, _ = tiny_setup

        def refuse(*args, **kwargs):
            raise AssertionError("edits computed before --out was checked")

        monkeypatch.setattr(experiment, "compute_delta_sets", refuse)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = str(blocker / "sub") if under else str(blocker)
        if argv[0] == "sweep":
            argv = ["sweep", "{config}", "--dataset", "{bench}", *argv[1:]]
        argv = [a.format(config=config_path, bench=bench_dir) for a in argv]
        assert cli.main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and out in err
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "file_name, array, meta_key",
        [
            (experiment.MODEL_FILE, "w_in_01", None),
            (experiment.MODEL_FILE, None, "edit_layers"),
            (experiment.MODEL_FILE, None, "n_layers"),
            (experiment.DATASET_FILE, "hop_transform", None),
            (experiment.DATASET_FILE, None, "config"),
        ],
    )
    def test_incomplete_container_exit_2(self, tiny_setup, tmp_path, capsys, file_name, array, meta_key):
        config_path, bench_dir, _ = tiny_setup
        broken = tmp_path / "bench"
        shutil.copytree(bench_dir, broken)
        path = str(broken / file_name)
        arrays, meta = container.load_arrays(path)
        arrays.pop(array, None)
        meta.pop(meta_key, None)
        container.save_arrays(path, arrays, meta=meta)
        code = cli.main(["run", config_path, "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error" in err
        assert repr(array or meta_key) in err

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda a, m: a.update(fact_vectors=a["fact_vectors"][:-1]), "'fact_vectors' has shape"),
            (lambda a, m: a.update(transforms=a["transforms"][:-1]), "'transforms' has shape"),
            (lambda a, m: a["unrelated_index"].__setitem__((0, 0), 16), "'unrelated_index' must hold"),
            (lambda a, m: a.update(rephrase_offsets=a["rephrase_offsets"][:, :, :-1]), "'rephrase_offsets'"),
            (lambda a, m: a["fact_vectors"].__setitem__((0, 0), np.nan), "'fact_vectors' must hold finite"),
            (lambda a, m: a["preserved_tokens"].__setitem__(0, -1), "'preserved_tokens' must hold"),
            (lambda a, m: a["new_tokens"].__setitem__(0, 48), "'new_tokens' must hold integers in [0, 48)"),
            (lambda a, m: a.update(old_tokens=a["old_tokens"][:-1]), "'old_tokens' has shape (7,)"),
            (lambda a, m: a.update(hop_transform=a["hop_transform"].astype(np.int64)), "'hop_transform'"),
            (lambda a, m: m.update(languages=m["languages"][:-1]), "names 2 languages, its config 3"),
            (lambda a, m: a.update(new_tokens=a["old_tokens"].copy()), "'old_tokens' and 'new_tokens' share"),
            (
                lambda a, m: a["new_tokens"].__setitem__(0, a["preserved_tokens"][3]),
                "'new_tokens' and 'preserved_tokens' share",
            ),
            (
                lambda a, m: a["old_tokens"].__setitem__(2, a["preserved_tokens"][0]),
                "'old_tokens' and 'preserved_tokens' share",
            ),
        ],
        ids=[
            "fact-vectors-wrong-d", "too-few-transforms", "unrelated-index-out-of-range",
            "rephrase-offsets-wrong-width", "nan-fact-vectors", "negative-preserved-token",
            "token-beyond-vocab", "short-old-tokens", "integer-hop-transform", "too-few-languages",
            "new-tokens-are-old-tokens", "new-token-is-preserved", "old-token-is-preserved",
        ],
    )
    def test_dataset_arrays_misfit_their_config_exit_2(self, tiny_setup, tmp_path, capsys, damage, named):
        # Each damaged dataset.lam is a well-formed container, refused at load.
        config_path, bench_dir, _ = tiny_setup
        broken = tmp_path / "bench"
        shutil.copytree(bench_dir, broken)
        path = str(broken / experiment.DATASET_FILE)
        arrays, meta = container.load_arrays(path)
        damage(arrays, meta)
        container.save_arrays(path, arrays, meta=meta)
        out = tmp_path / "o"
        code = cli.main(["run", config_path, "--dataset", str(broken), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:") and "Traceback" not in err
        assert named in err and path in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda a, m: m.update(activation="identity"), "activation 'identity'"),
            (lambda a, m: m.update(norm="identity"), "norm 'identity'"),
            (lambda a, m: a["norm_scale_02"].__setitem__(0, 2.0), "'norm_scale_02' must be all ones"),
            (lambda a, m: a["norm_bias_03"].__setitem__(1, 0.5), "'norm_bias_03' must be all zeros"),
            (lambda a, m: a["w_in_01"].__setitem__((0, 0), np.nan), "w_in contains non-finite entries"),
            (lambda a, m: a.update(codebook=2 * a["codebook"]), "codebook columns must have unit norm"),
            (lambda a, m: m.update(edit_layers=[3, 2]), "edit_layers must be strictly increasing"),
            (lambda a, m: m.update(n_layers=0), "model needs at least one layer"),
        ],
        ids=[
            "identity-activation", "identity-norm", "norm-scale-not-ones", "norm-bias-not-zeros",
            "nan-w-in", "codebook-scaled-by-2", "edit-layers-descending", "no-layers",
        ],
    )
    def test_model_of_another_architecture_exit_2(self, tiny_setup, tmp_path, capsys, damage, named):
        # The model has no place for another activation, norm or norm affine,
        # so a model.lam that names one is refused rather than scored as
        # relu/layernorm; so is one the layer and model constructors refuse.
        config_path, bench_dir, _ = tiny_setup
        broken = tmp_path / "bench"
        shutil.copytree(bench_dir, broken)
        path = str(broken / experiment.MODEL_FILE)
        arrays, meta = container.load_arrays(path)
        damage(arrays, meta)
        container.save_arrays(path, arrays, meta=meta)
        out = tmp_path / "o"
        code = cli.main(["run", config_path, "--dataset", str(broken), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:") and "Traceback" not in err
        assert named in err and path in err
        assert not out.exists()

    @pytest.mark.parametrize("swap", ["seed", "languages"])
    def test_dataset_of_another_benchmark_exit_2(self, tiny_setup, tmp_path, capsys, swap):
        # A dataset.lam of the same shape from a benchmark of another seed, or
        # with its languages in another order, would be scored and recorded as
        # this benchmark's; it is refused at load, with or without a config.
        config_path, bench_dir, _ = tiny_setup
        broken = tmp_path / "bench"
        shutil.copytree(bench_dir, broken)
        path = str(broken / experiment.DATASET_FILE)
        if swap == "seed":
            other, other_config = tmp_path / "other", write_config(tmp_path, dict(TINY_CONFIG, seed=11), "other.json")
            assert cli.main(["generate", other_config, "--out", str(other)]) == 0
            shutil.copyfile(other / experiment.DATASET_FILE, path)
        else:
            arrays, meta = container.load_arrays(path)
            meta["languages"] = meta["languages"][::-1]
            container.save_arrays(path, arrays, meta=meta)
        capsys.readouterr()
        out = tmp_path / "o"
        code = cli.main(["run", config_path, "--dataset", str(broken), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:") and "Traceback" not in err
        assert f"dataset has {swap}=" in err and path in err
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"dataset has {swap}="):
            experiment.load_benchmark(str(broken))

    @pytest.mark.parametrize("command", [["generate"], ["run", "--dataset", "{bench}"]], ids=["generate", "run"])
    def test_dataset_seed_exit_2(self, tiny_setup, tmp_path, capsys, command):
        # The dataset seed is the top-level seed; a dataset.seed is refused, not ignored.
        _, bench_dir, _ = tiny_setup
        doc = dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], seed=7))
        out = tmp_path / "o"
        argv = [command[0], write_config(tmp_path, doc), *command[1:], "--out", str(out)]
        code = cli.main([a.format(bench=bench_dir) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "dataset.seed" in err and "top-level seed" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, argv",
        [
            ({"merges": [{"method": "tsvm", "rank_ratio": 0.01}]}, ["run"]),
            ({"merges": [{"method": "sum"}, {"method": "tsvm_cov", "rank_ratio": 0.01}]}, ["run"]),
            ({}, ["run", "--rank-ratio", "0.01"]),
            ({"rank_grid": [0.01, 0.5, 1.0]}, ["sweep", "--axis", "rank"]),
        ],
        ids=["tsvm-merge", "tsvm-cov-merge", "rank-ratio-flag", "rank-grid"],
    )
    def test_infeasible_tsvm_rank_exit_2_before_any_edit(
        self, tiny_setup, tmp_path, capsys, monkeypatch, change, argv
    ):
        # floor(0.01 * d) = 0 at d=8: refused before any edit is computed.
        config_path, bench_dir, _ = tiny_setup

        def refuse(*args, **kwargs):
            raise AssertionError("edits computed before the rank ratio was checked")

        monkeypatch.setattr(experiment, "compute_delta_sets", refuse)
        config = write_config(tmp_path, {**TINY_CONFIG, **change})
        code = cli.main([argv[0], config, "--dataset", bench_dir, "--out", str(tmp_path / "o"), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert "rank_ratio 0.01 with d=8 floors to rank 0" in err

    def test_run_ignores_infeasible_rank_grid(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        config = write_config(tmp_path, {**TINY_CONFIG, "rank_grid": [0.01, 0.5, 1.0]})
        argv = ["run", config, "--dataset", bench_dir, "--out", str(tmp_path / "o"), "--merge", "sum", "--no-mono"]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "rank"]])
    @pytest.mark.parametrize(
        "change, named",
        [({"seed": 7}, "seed=7"), ({"dataset": dict(TINY_CONFIG["dataset"], h=24)}, "dataset.h=24")],
    )
    def test_config_must_match_benchmark_dataset(self, tmp_path, capsys, command, change, named):
        # A seed-5 benchmark run under a seed-7 config would record seed 7.
        bench_config = write_config(tmp_path, dict(TINY_CONFIG, seed=5), name="seed5.json")
        bench = str(tmp_path / "bench5")
        assert cli.main(["generate", bench_config, "--out", bench]) == 0
        other = write_config(tmp_path, {**TINY_CONFIG, "seed": 5, **change}, name="other.json")
        out = tmp_path / "o"
        code = cli.main([command[0], other, "--dataset", bench, "--out", str(out), *command[1:]])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_3(self, tiny_setup, tmp_path, capsys):
        _, bench_dir, _ = tiny_setup
        doc = dict(TINY_CONFIG)
        doc["solver"] = {"method": "memit", "lam_memit": 2.75, "cond_limit": 1.0}
        config_path = write_config(tmp_path, doc, name="illcond.json")
        code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("method", solvers.METHODS)
    def test_overflowing_preserved_covariance_exit_3(self, tmp_path, capsys, method):
        # A finite model whose first edit layer's w_in is scaled by 1e160 loads,
        # but its preserved keys' second moment overflows: both solvers refuse
        # it at the preserved statistics, in one line, with no RuntimeWarning
        # on the way (pytest.ini makes each one an error).
        doc = dict(TINY_CONFIG, seed=5, dataset=dict(TINY_CONFIG["dataset"], n_preserved=24, vocab_size=32))
        config_path = write_config(tmp_path, doc)
        bench = str(tmp_path / "overflow")
        assert cli.main(["generate", config_path, "--out", bench]) == 0
        model_path = os.path.join(bench, experiment.MODEL_FILE)
        model = container.load_model(model_path)
        layers = list(model.layers)
        index = model.edit_layers[0] - 1
        layers[index] = replace(layers[index], w_in=layers[index].w_in * 1e160)
        container.save_model(model_path, replace(model, layers=tuple(layers)))
        capsys.readouterr()
        argv = ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "o"), "--method", method]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure:") and "preserved covariance" in err
        assert f"edit layer {model.edit_layers[0]} " in err

    def test_overflowing_forward_pass_exit_3(self, tiny_setup, tmp_path, capsys):
        # Scaled by 1e300 the edits overflow the scored forward pass: the run
        # stops there in one line, with no RuntimeWarning and no metrics file.
        config_path, bench_dir, _ = tiny_setup
        out = tmp_path / "o"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(out), "--alpha", "1e300"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure:") and "forward pass overflows" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "metrics.csv").exists() and not (out / "metrics.json").exists()

    def test_overflowing_weight_scale_exit_3(self, tiny_setup, tmp_path, capsys):
        # At lam_memit 0.5 the summed edit has entries above 1, so the finite
        # scale 1.7e308 overflows the update itself, before any forward pass:
        # one line naming alpha and the layer, and no RuntimeWarning on the
        # way (pytest.ini makes each one an error).
        _, bench_dir, _ = tiny_setup
        config_path = write_config(tmp_path, dict(TINY_CONFIG, solver=dict(TINY_CONFIG["solver"], lam_memit=0.5)))
        capsys.readouterr()
        argv = ["run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o"), "--alpha", "1.7e308"]
        code = cli.main([*argv, "--merge", "sum"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: alpha 1.7e+308 overflows the update of layer ")

    def test_overflowing_memit_system_exit_3(self, tiny_setup, tmp_path, capsys):
        # lam_memit 1e308 is finite, but the system it weighs is not: refused
        # in one line naming the system, with no NaN condition estimate and no
        # RuntimeWarning on the way.
        _, bench_dir, _ = tiny_setup
        config_path = write_config(tmp_path, dict(TINY_CONFIG, solver=dict(TINY_CONFIG["solver"], lam_memit=1e308)))
        capsys.readouterr()
        code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o"), "--merge", "sum"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: normal-equation system at lam 1e+308 is not finite")

    def test_svd_failing_twice_exit_3(self, tiny_setup, tmp_path, capsys, monkeypatch):
        # gesdd fails on a delta and on its transpose: a tsvm run ends in one line, no traceback.
        config_path, bench_dir, _ = tiny_setup

        def failing_gesdd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_gesdd)
        capsys.readouterr()
        argv = ["run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o"), "--merge", "tsvm"]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numerical failure: SVD did not converge\n"

    def test_single_language_sum_matches_mono(self, tmp_path):
        doc = dict(TINY_CONFIG)
        doc["dataset"] = dict(TINY_CONFIG["dataset"], m_languages=1)
        doc["merges"] = [{"method": "sum"}]
        config_path = write_config(tmp_path, doc, name="mono.json")
        bench = str(tmp_path / "bench1")
        out = str(tmp_path / "run1")
        assert cli.main(["generate", config_path, "--out", bench]) == 0
        assert cli.main(["run", config_path, "--dataset", bench, "--out", out]) == 0
        with open(os.path.join(out, "metrics.json")) as fh:
            doc_out = json.load(fh)
        by_method = {rep["method"]: rep for rep in doc_out["reports"]}
        assert by_method["sum"]["per_language"] == by_method["mono"]["per_language"]

    def test_sum_cov_run_mono_equals_default_run_mono(self, tiny_setup, tmp_path):
        # A sum_cov-only run merges no per-language deltas; mono still needs them.
        config_path, bench_dir, _ = tiny_setup
        outs = {name: str(tmp_path / name) for name in ("default", "sum_cov")}
        assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", outs["default"]]) == 0
        assert cli.main([
            "run", config_path, "--dataset", bench_dir, "--out", outs["sum_cov"], "--merge", "sum_cov",
        ]) == 0
        mono = {}
        for name, out in outs.items():
            with open(os.path.join(out, "metrics.json")) as fh:
                reports = json.load(fh)["reports"]
            mono[name] = next(rep for rep in reports if rep["method"] == "mono")
        assert [rep["method"] for rep in reports] == ["sum_cov", "mono"]
        assert mono["sum_cov"] == mono["default"]

    def test_nan_alpha_override_exit_2(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        code = cli.main([
            "run", config_path, "--dataset", bench_dir, "--out", str(tmp_path / "o"), "--alpha", "nan",
        ])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["0", "-1", "inf"])
    def test_alpha_override_not_finite_positive_exit_2(self, tiny_setup, tmp_path, capsys, alpha):
        # nan: test_nan_alpha_override_exit_2.
        config_path, bench_dir, _ = tiny_setup
        out = tmp_path / "o"
        code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(out), "--alpha", alpha])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "alpha must be finite and positive" in err
        assert not out.exists()

    def test_merge_and_alpha_overrides(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        out = str(tmp_path / "override")
        code = cli.main([
            "run", config_path, "--dataset", bench_dir, "--out", out,
            "--merge", "sum", "--merge", "tsvm", "--alpha", "0.5", "--rank-ratio", "0.25",
            "--no-mono",
        ])
        assert code == 0
        with open(os.path.join(out, "metrics.json")) as fh:
            doc_out = json.load(fh)
        methods = [rep["method"] for rep in doc_out["reports"]]
        assert methods == ["sum", "tsvm"]
        assert all(rep["alpha"] == 0.5 for rep in doc_out["reports"])
        assert doc_out["reports"][1]["rank_ratio"] == 0.25


class TestSweepCommand:
    def test_overflowing_alpha_grid_point_exit_3(self, tiny_setup, tmp_path, capsys):
        # The grid point at 1e300 overflows the scored forward pass; the one at 1.0 does not.
        _, bench_dir, _ = tiny_setup
        config_path = write_config(tmp_path, dict(TINY_CONFIG, alpha_grid=[1.0, 1e300]))
        out = tmp_path / "o"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", str(out), "--axis", "alpha"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure:") and "forward pass overflows" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not any(out.iterdir())

    def test_overflowing_weight_scale_grid_point_exit_3(self, tiny_setup, tmp_path, capsys):
        # At lam_memit 0.5 the grid point 1.7e308 overflows the summed update itself.
        _, bench_dir, _ = tiny_setup
        solver = dict(TINY_CONFIG["solver"], lam_memit=0.5)
        config_path = write_config(tmp_path, dict(TINY_CONFIG, solver=solver, alpha_grid=[1.0, 1.7e308]))
        out = tmp_path / "o"
        capsys.readouterr()
        code = cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", str(out), "--axis", "alpha"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: alpha 1.7e+308 overflows the update of layer ")
        assert not any(out.iterdir())

    def test_sweep_points_equal_fresh_runs(self, tiny_setup):
        # A sweep computes the delta sets once; every grid point must equal a
        # run that computes them afresh at that point.
        config_path, bench_dir, _ = tiny_setup
        config = replace(experiment.load_config(config_path), include_mono=False)
        dataset, model, _ = experiment.load_benchmark(bench_dir)
        _, point_reports = experiment.sweep(config, dataset, model, "alpha")
        n = len(config.merges)
        for i, alpha in enumerate(config.alpha_grid):
            fresh = experiment.run_experiment(replace(config, alpha=alpha), dataset, model)
            assert point_reports[i * n : (i + 1) * n] == fresh
        tsvm_merges = [m for m in config.merges if m.base_rule == "tsvm"]
        _, point_reports = experiment.sweep(config, dataset, model, "rank")
        n = len(tsvm_merges)
        for i, rank in enumerate(config.rank_grid):
            merges = tuple(experiment.MergeConfig(m.method, rank_ratio=rank) for m in tsvm_merges)
            fresh = experiment.run_experiment(replace(config, merges=merges), dataset, model)
            assert point_reports[i * n : (i + 1) * n] == fresh

    @pytest.mark.parametrize("axis", [None, "alpha", "rank"], ids=["run", "alpha", "rank"])
    def test_each_delta_factored_once(self, tiny_setup, monkeypatch, axis):
        # A run, and either sweep axis, factors each delta of a tsvm mode once.
        config_path, bench_dir, _ = tiny_setup
        config = experiment.load_config(config_path)
        dataset, model, _ = experiment.load_benchmark(bench_dir, config)
        modes = sorted({m.cov_mode for m in config.merges if m.base_rule == "tsvm"})
        delta_sets = experiment.compute_delta_sets(model, dataset, config.solver, modes)
        factored = []
        original = merging._svd

        def counting_svd(matrix):
            factored.append(np.array(matrix))
            return original(matrix)

        monkeypatch.setattr(merging, "_svd", counting_svd)
        if axis is None:
            experiment.run_experiment(config, dataset, model)
        else:
            experiment.sweep(config, dataset, model, axis)
        # Per-delta SVDs, told apart from the polar-factor SVDs by their input.
        per_delta = Counter(
            (mode, key)
            for matrix in factored
            for mode in modes
            for key, delta in delta_sets[mode].entries.items()
            if np.array_equal(matrix, delta)
        )
        expected = {(mode, key) for mode in modes for key in delta_sets[mode].entries}
        assert set(per_delta) == expected
        assert all(count == 1 for count in per_delta.values())
        assert len(expected) == len(modes) * len(model.edit_layers) * dataset.m_languages

    @pytest.mark.parametrize("axis, depth", [(None, 3), ("alpha", 3), ("rank", 8)], ids=["run", "alpha", "rank"])
    def test_factors_held_as_deep_as_the_merges_read(self, tiny_setup, monkeypatch, axis, depth):
        # d=8: the default tsvm merges retain floor(0.375 * 8) = 3 triplets, at
        # every alpha, and the rank grid's 1.0 retains all 8.
        config_path, bench_dir, _ = tiny_setup
        config = experiment.load_config(config_path)
        dataset, model, _ = experiment.load_benchmark(bench_dir, config)
        calls = []
        real = merging.delta_factors

        def delta_factors(delta_sets, depths):
            held = real(delta_sets, depths)
            calls.append(([ds.cov_mode for ds in delta_sets], list(depths), held))
            return held

        monkeypatch.setattr(merging, "delta_factors", delta_factors)
        if axis is None:
            experiment.run_experiment(config, dataset, model)
        else:
            experiment.sweep(config, dataset, model, axis)
        ((modes, depths, held),) = calls
        assert modes == [PER_LANGUAGE, SHARED]
        assert depths == [depth, depth]
        shapes = {(u.shape, s.shape, vt.shape) for factors in held for svds in factors.values() for u, s, vt in svds}
        assert shapes == {((model.d, depth), (depth,), (depth, model.h))}

    def test_rank_sweep_covers_tsvm_family_only(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        out = str(tmp_path / "swr")
        assert cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", "rank"]) == 0
        with open(os.path.join(out, "sweep_rank.json")) as fh:
            doc = json.load(fh)
        methods = {r["method"] for r in doc["results"]}
        assert methods == {"tsvm", "tsvm_cov"}
        assert os.path.exists(os.path.join(out, "sweep_rank.svg"))

    def test_single_point_grid_degenerates_to_run(self, tiny_runs, tmp_path):
        config_path, bench_dir, tmp = tiny_runs
        doc = dict(TINY_CONFIG)
        doc["alpha_grid"] = [1.0]
        single = write_config(tmp_path, doc, name="single.json")
        out = str(tmp_path / "sw1")
        assert cli.main(["sweep", single, "--dataset", bench_dir, "--out", out, "--axis", "alpha"]) == 0
        with open(os.path.join(out, "sweep_alpha.json")) as fh:
            sweep_doc = json.load(fh)
        with open(os.path.join(str(tmp / "run1"), "metrics.json")) as fh:
            run_doc = json.load(fh)
        run_avg = {rep["method"]: rep["mean"]["averaged"] for rep in run_doc["reports"]}
        for res in sweep_doc["results"]:
            assert res["grid"] == [1.0]
            assert abs(res["values"][0] - run_avg[res["method"]]) <= 1e-12

    @pytest.mark.parametrize(
        "command, merges, named",
        [
            (["sweep", "--axis", "alpha"], [{"method": "sum"}, {"method": "sum"}, {"method": "tsvm"}], "sum"),
            (
                ["sweep", "--axis", "rank"],
                [{"method": "tsvm"}, {"method": "sum"}, {"method": "tsvm", "rank_ratio": 0.25}],
                "tsvm",
            ),
            (["run"], [{"method": "sum"}, {"method": "sum"}, {"method": "tsvm"}], "sum"),
            (["report"], None, "sum"),
        ],
        ids=["alpha", "rank", "run", "report"],
    )
    def test_repeated_merge_method_exit_2(self, tiny_setup, tmp_path, capsys, command, merges, named):
        # Run reports, sweep rows and comparison rows are keyed by method name,
        # so a method listed twice is refused at config load, and in a run
        # output that `report` reads, instead of writing one result twice or
        # one curve's values under the other's.
        config_path, bench_dir, _ = tiny_setup
        out = tmp_path / "out"
        if command == ["report"]:
            run_dir = tmp_path / "run"
            assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", str(run_dir)]) == 0
            capsys.readouterr()
            doc = json.loads((run_dir / "metrics.json").read_text())
            doc["reports"] += [rep for rep in doc["reports"] if rep["method"] == named]
            (run_dir / "metrics.json").write_text(json.dumps(doc))
            argv = ["report", str(run_dir), "--out", str(out)]
        else:
            config_path = write_config(tmp_path, dict(TINY_CONFIG, merges=merges))
            argv = [command[0], config_path, "--dataset", bench_dir, "--out", str(out), *command[1:]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"merge method {named} more than once" in err
        assert not out.exists()

    def test_argmax_tie_breaks_to_smallest(self):
        res = experiment.SweepResult(
            axis="alpha", method="sum", grid=(0.5, 1.0, 2.0),
            rows=tuple(metrics.MetricsRow(v, v, v, v) for v in (0.2, 0.5, 0.5)),
        )
        assert res.argmax_point == 1.0

    def test_sweep_svg_deterministic(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        a, b = str(tmp_path / "sa"), str(tmp_path / "sb")
        for out in (a, b):
            assert cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", "alpha"]) == 0
        with open(os.path.join(a, "sweep_alpha.svg"), "rb") as fa, open(os.path.join(b, "sweep_alpha.svg"), "rb") as fb:
            assert fa.read() == fb.read()


    @pytest.mark.parametrize("axis", ["alpha", "rank"])
    def test_json_values_are_csv_averaged_column(self, tiny_setup, tmp_path, axis):
        # The JSON curve, the CSV mean rows and the argmax are one computation.
        config_path, bench_dir, _ = tiny_setup
        out = str(tmp_path / "sw")
        assert cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", axis]) == 0
        with open(os.path.join(out, f"sweep_{axis}.json")) as fh:
            results = json.load(fh)["results"]
        with open(os.path.join(out, f"sweep_{axis}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(len(r["grid"]) for r in results)
        for r in results:
            curve = [row for row in rows if row["method"] == r["method"]]
            assert [float(row["point"]) for row in curve] == r["grid"]
            assert [float(row["averaged"]) for row in curve] == r["values"]
            assert all(row["axis"] == axis for row in curve)
            assert r["argmax_point"] == r["grid"][r["values"].index(max(r["values"]))]

class TestReportCommand:
    def test_single_run_table_matches_csv(self, tiny_runs, tmp_path):
        config_path, bench_dir, tmp = tiny_runs
        run_dir = str(tmp / "run1")
        out = str(tmp_path / "rep")
        assert cli.main(["report", run_dir, "--out", out]) == 0
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("method,en,zh,cz,avg")
        with open(os.path.join(run_dir, "metrics.json")) as fh:
            run_doc = json.load(fh)
        mono = next(rep for rep in run_doc["reports"] if rep["method"] == "mono")
        mono_line = next(l for l in lines if l.startswith("mono,"))
        assert repr(mono["mean"]["averaged"]) == mono_line.split(",")[-1]

    @pytest.mark.parametrize(
        "text, named",
        [("{not json", "is not valid JSON"), ("{}", "holds no reports list")],
        ids=["not-json", "no-reports"],
    )
    def test_malformed_metrics_json_exit_2(self, tmp_path, capsys, text, named):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text(text)
        assert cli.main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert named in err and "metrics.json" in err

    def test_rows_sorted_by_method_name(self, tiny_runs, tmp_path):
        _, _, tmp = tiny_runs
        out = str(tmp_path / "rep2")
        assert cli.main(["report", str(tmp / "run1"), str(tmp / "run2"), "--out", out, "--allow-mixed"]) == 0
        with open(os.path.join(out, "report.csv")) as fh:
            methods = [line.split(",")[0] for line in fh.read().strip().splitlines()[1:]]
        assert methods == sorted(methods)

    def test_regenerated_report_byte_identical(self, tiny_runs, tmp_path):
        _, _, tmp = tiny_runs
        a, b = str(tmp_path / "ra"), str(tmp_path / "rb")
        for out in (a, b):
            assert cli.main(["report", str(tmp / "run1"), "--out", out]) == 0
        for name in ("report.csv", "report.md"):
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_mixed_seeds_refused(self, tmp_path):
        for idx, seed in enumerate((1, 2)):
            run_dir = tmp_path / f"run{idx}"
            run_dir.mkdir()
            doc = {
                "reports": [
                    {
                        "method": "sum", "cov_mode": "per_language", "alpha": 1.0,
                        "rank_ratio": None, "seed": seed, "languages": ["en"],
                        "per_language": {"en": {"efficacy": 0.0, "generalization": 0.0,
                                                 "specificity": 1.0, "portability": 0.0,
                                                 "averaged": 0.25}},
                        "mean": {"efficacy": 0.0, "generalization": 0.0,
                                 "specificity": 1.0, "portability": 0.0, "averaged": 0.25},
                    }
                ]
            }
            (run_dir / "metrics.json").write_text(json.dumps(doc))
        dirs = [str(tmp_path / "run0"), str(tmp_path / "run1")]
        with pytest.raises(ConfigError):
            experiment.build_comparison(dirs)
        languages, rows = experiment.build_comparison(dirs, allow_mixed=True)
        assert languages == ("en",)

    def test_colliding_rows_refused(self, tiny_setup, tmp_path, capsys):
        # A memit sum run and an alphaedit sum run share the row key "sum".
        config_path, bench_dir, _ = tiny_setup
        doc = dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02})
        alpha_config = write_config(tmp_path, doc, name="alphaedit.json")
        runs = {}
        for name, path in (("memit", config_path), ("alphaedit", alpha_config)):
            runs[name] = str(tmp_path / name)
            code = cli.main([
                "run", path, "--dataset", bench_dir, "--out", runs[name], "--merge", "sum", "--no-mono",
            ])
            assert code == 0
        with pytest.raises(ConfigError) as err:
            experiment.build_comparison([runs["memit"], runs["alphaedit"]])
        assert runs["memit"] in str(err.value) and runs["alphaedit"] in str(err.value)
        assert cli.main(["report", runs["memit"], runs["alphaedit"], "--out", str(tmp_path / "rep")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_mixed_seed_rows_kept_apart(self, tmp_path):
        dirs = []
        for seed, averaged in ((1, 0.25), (2, 0.5)):
            run_dir = tmp_path / f"run{seed}"
            run_dir.mkdir()
            row = {"efficacy": 0.0, "generalization": 0.0, "specificity": 1.0, "portability": 0.0,
                   "averaged": averaged}
            report = {"method": "sum", "cov_mode": "per_language", "alpha": 1.0, "rank_ratio": None,
                      "seed": seed, "languages": ["en"], "per_language": {"en": row}, "mean": row}
            (run_dir / "metrics.json").write_text(json.dumps({"reports": [report]}))
            dirs.append(str(run_dir))
        languages, rows = experiment.build_comparison(dirs, allow_mixed=True)
        assert rows == {"sum@seed=1": [0.25, 0.25], "sum@seed=2": [0.5, 0.5]}

    def test_markdown_bolds_column_maxima(self):
        rows = {"a": [0.2, 0.5], "b": [0.4, 0.3]}
        text = experiment.comparison_markdown_text(("en",), rows)
        assert "**0.4000**" in text and "**0.5000**" in text

    @pytest.mark.parametrize(
        "reports, named",
        [
            ([{}], "report 0 lacks fields ['method', 'seed', 'languages', 'alpha', 'per_language', 'mean']"),
            ([1], "report 0 must be a JSON object, got 1"),
            (
                [REPORT, dict(REPORT, per_language={"en": REPORT_ROW})],
                "report 1 per_language lacks language 'zh'",
            ),
            ([dict(REPORT, seed="5")], "report 0 seed must be an integer"),
            ([dict(REPORT, method="\ud800")], "report 0 method must be a string"),
            ([dict(REPORT, mean={"averaged": [0.25]})], "report 0 mean.averaged must be a number"),
            ([], "hold no reports"),
            # Values no run writes, each refused by the rule that keeps runs from writing it.
            ([dict(REPORT, mean={"averaged": math.nan})], "report 0 mean.averaged must lie in [0, 1], got nan"),
            (
                [dict(REPORT, per_language={"en": {"averaged": 7.5}, "zh": REPORT_ROW})],
                "report 0 per_language.en.averaged must lie in [0, 1], got 7.5",
            ),
            (
                [dict(REPORT, per_language={"en": REPORT_ROW, "zh": {"averaged": -1.0}})],
                "report 0 per_language.zh.averaged must lie in [0, 1], got -1.0",
            ),
            ([dict(REPORT, alpha=math.nan)], "report 0 alpha must be finite and positive, got nan"),
            ([dict(REPORT, alpha=-2)], "report 0 alpha must be finite and positive, got -2.0"),
            ([dict(REPORT, rank_ratio=5)], "report 0 rank_ratio must lie in (0, 1], got 5.0"),
            (
                [dict(REPORT, languages=["en", "en", "cz"], per_language=dict.fromkeys(["en", "zh", "cz"], REPORT_ROW))],
                "report 0 languages lists a language more than once: ['en', 'en', 'cz']",
            ),
            (
                [dict(REPORT, languages=["en"], per_language={"en": REPORT_ROW, "zh": dict(REPORT_ROW, averaged=0.75)},
                      mean=dict(REPORT_ROW, averaged=0.5))],
                "report 0 per_language holds languages ['zh'] that languages does not list",
            ),
            (
                [dict(REPORT, mean=dict(REPORT_ROW, averaged=0.5))],
                "report 0 mean.averaged 0.5 is not the mean 0.25 of the listed languages' averaged accuracies",
            ),
        ],
        ids=[
            "empty-report", "not-an-object", "missing-language", "seed-string", "lone-surrogate",
            "mean-list", "no-reports", "mean-nan", "averaged-above-1", "averaged-negative", "alpha-nan",
            "alpha-negative", "rank-ratio-above-1", "repeated-language", "unlisted-language", "mean-not-the-mean",
        ],
    )
    def test_malformed_report_exit_2(self, tmp_path, capsys, reports, named):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text(json.dumps({"reports": reports}))
        assert cli.main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert named in err and str(run_dir) in err


class TestCsvText:
    # Hand-built reports, so every expected line is spelled out.
    EN = metrics.MetricsRow(1.0, 0.5, 0.75, 0.25)
    FR = metrics.MetricsRow(0.5, 0.5, 0.25, 0.25)
    THIRD = metrics.MetricsRow(1 / 3, 1 / 3, 1 / 3, 1 / 3)

    def _report(self, method, cov_mode, rank_ratio, rows, alpha=1.0):
        return metrics.MetricsReport(
            method=method, cov_mode=cov_mode, alpha=alpha, rank_ratio=rank_ratio,
            seed=5, languages=("en", "fr"), rows=rows,
        )

    def test_metrics_csv_text(self):
        reports = [
            self._report("tsvm", "per_language", 0.375, (self.EN, self.FR)),
            self._report("sum_cov", "shared", None, (self.THIRD, self.THIRD), alpha=0.1),
            self._report("mono", "per_language", None, (self.FR, self.EN)),
        ]
        assert experiment.metrics_csv_text(reports) == (
            "method,cov_mode,alpha,rank_ratio,language,efficacy,generalization,specificity,portability,averaged\n"
            "tsvm,per_language,1.0,0.375,en,1.0,0.5,0.75,0.25,0.625\n"
            "tsvm,per_language,1.0,0.375,fr,0.5,0.5,0.25,0.25,0.375\n"
            "tsvm,per_language,1.0,0.375,avg,0.75,0.5,0.5,0.25,0.5\n"
            "sum_cov,shared,0.1,,en,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333\n"
            "sum_cov,shared,0.1,,fr,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333\n"
            "sum_cov,shared,0.1,,avg,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333\n"
            "mono,per_language,1.0,,en,0.5,0.5,0.25,0.25,0.375\n"
            "mono,per_language,1.0,,fr,1.0,0.5,0.75,0.25,0.625\n"
            "mono,per_language,1.0,,avg,0.75,0.5,0.5,0.25,0.5\n"
        )

    def test_sweep_csv_text(self):
        results = [
            experiment.SweepResult(axis="rank", method="tsvm", grid=(0.25, 1.0), rows=(self.EN, self.THIRD)),
            experiment.SweepResult(axis="rank", method="tsvm_cov", grid=(0.25, 1.0), rows=(self.FR, self.EN)),
        ]
        assert experiment.sweep_csv_text(results) == (
            "method,axis,point,efficacy,generalization,specificity,portability,averaged\n"
            "tsvm,rank,0.25,1.0,0.5,0.75,0.25,0.625\n"
            "tsvm,rank,1.0,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333,0.3333333333333333\n"
            "tsvm_cov,rank,0.25,0.5,0.5,0.25,0.25,0.375\n"
            "tsvm_cov,rank,1.0,1.0,0.5,0.75,0.25,0.625\n"
        )

    def test_comparison_csv_text(self):
        rows = {"mono": [0.375, 0.625, 0.5], "tsvm(r=0.375)@a=0.5": [1 / 3, 0.1, 0.21666666666666667]}
        assert experiment.comparison_csv_text(("en", "fr"), rows) == (
            "method,en,fr,avg\n"
            "mono,0.375,0.625,0.5\n"
            "tsvm(r=0.375)@a=0.5,0.3333333333333333,0.1,0.21666666666666667\n"
        )

    def test_no_rows_writes_the_header_line(self):
        assert experiment.metrics_csv_text([]) == (
            "method,cov_mode,alpha,rank_ratio,language,efficacy,generalization,specificity,portability,averaged\n"
        )
        assert experiment.sweep_csv_text([]) == (
            "method,axis,point,efficacy,generalization,specificity,portability,averaged\n"
        )
        assert experiment.comparison_csv_text(("en", "fr"), {}) == "method,en,fr,avg\n"


# Bytes that no JSON file the CLI reads may hold, one per way decoding
# fails: not UTF-8, not JSON, an integer longer than Python's 4300-digit
# limit, and nesting deeper than the decoder's recursion limit.
UNDECODABLE = {
    "not-utf8": b"\xff\xfe{",
    "not-json": b"{not json",
    "long-int": b"9" * 5001,
    "deep": b"[" * 200000,
}


class TestUndecodableInput:
    # A config, a benchmark manifest, a run's metrics.json or a .lam header
    # that cannot be read (a directory in its place) or decoded ends the
    # command with exit 2 and one line naming the file, never a traceback.
    @pytest.mark.parametrize("content", [None, *UNDECODABLE.values()], ids=["unreadable", *UNDECODABLE])
    @pytest.mark.parametrize("target", ["config", "manifest", "metrics", "header"])
    def test_exit_2_naming_the_file(self, tiny_setup, tmp_path, capsys, target, content):
        config_path, bench_dir, _ = tiny_setup
        bench = _damaged_copy(bench_dir, tmp_path / "bench")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        path, argv = {
            "config": (str(tmp_path / "config.json"), ["generate", str(tmp_path / "config.json")]),
            "manifest": (os.path.join(bench, experiment.MANIFEST_FILE), ["run", config_path, "--dataset", bench]),
            "metrics": (str(run_dir / "metrics.json"), ["report", str(run_dir)]),
            "header": (os.path.join(bench, experiment.DATASET_FILE), ["run", config_path, "--dataset", bench]),
        }[target]
        if os.path.exists(path):
            os.remove(path)
        if content is None:
            os.mkdir(path)
        else:
            if target == "header":
                content = container.MAGIC + struct.pack("<Q", len(content)) + content
            with open(path, "wb") as fh:
                fh.write(content)
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and path in err


class TestCliFuzz:
    # Malformed inputs must end in a documented exit code, never a traceback.
    @settings(max_examples=40, deadline=None)
    @given(doc=METRICS_DOCUMENTS)
    def test_report_on_fuzzed_metrics_json(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "metrics.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert cli.main(["report", tmp, "--out", os.path.join(tmp, "rep")]) in (0, 2, 3)

    @settings(max_examples=20, deadline=None)
    @given(doc=CONFIG_DOCUMENTS)
    def test_run_on_fuzzed_config(self, tiny_setup, doc):
        _, bench_dir, _ = tiny_setup
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code = cli.main(["run", config_path, "--dataset", bench_dir, "--out", os.path.join(tmp, "run")])
            assert code in (0, 2, 3)

    @settings(max_examples=15, deadline=None)
    @given(doc=CONFIG_DOCUMENTS, axis=st.sampled_from(["alpha", "rank"]))
    def test_sweep_on_fuzzed_config(self, tiny_setup, doc, axis):
        _, bench_dir, _ = tiny_setup
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "sweep")
            code = cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", axis])
            assert code in (0, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(doc=GENERATE_DOCUMENTS)
    def test_generate_on_fuzzed_config(self, doc):
        # Sizes bounded as GENERATE_DOCUMENTS states, so each example stays fast.
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code = cli.main(["generate", config_path, "--out", os.path.join(tmp, "bench")])
            assert code in (0, 2, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        command=st.sampled_from(COMMANDS),
        damage=st.sampled_from(["name", "swap", "truncate", "other-shape"]),
        role=st.sampled_from(["dataset", "model"]),
        name=st.sampled_from(
            ["absent.lam", "subdir", "", experiment.DATASET_FILE, experiment.MODEL_FILE, experiment.MANIFEST_FILE]
        ),
        keep=st.floats(0.0, 1.0),
        out=st.sampled_from(["fresh", "file", "under-file"]),
    )
    def test_commands_on_damaged_benchmark(
        self, tiny_setup, other_shape_bench, command, damage, role, name, keep, out
    ):
        # Manifest entries naming missing files, directories or the wrong
        # file; the two .lam files swapped; one truncated; one taken from a
        # benchmark of another shape; an output path that cannot be a directory.
        config_path, bench_dir, _ = tiny_setup
        with tempfile.TemporaryDirectory() as tmp:
            bench = _damaged_copy(bench_dir, os.path.join(tmp, "bench"), {role: name} if damage == "name" else None)
            os.mkdir(os.path.join(bench, "subdir"))
            files = {"dataset": experiment.DATASET_FILE, "model": experiment.MODEL_FILE}
            target = os.path.join(bench, files[role])
            if damage == "swap":
                a, b = (os.path.join(bench, f) for f in files.values())
                os.rename(a, a + ".tmp")
                os.rename(b, a)
                os.rename(a + ".tmp", b)
            elif damage == "truncate":
                with open(target, "rb") as fh:
                    raw = fh.read()
                with open(target, "wb") as fh:
                    fh.write(raw[: int(len(raw) * keep)])
            elif damage == "other-shape":
                shutil.copyfile(os.path.join(other_shape_bench, files[role]), target)
            out_path = os.path.join(tmp, "out")
            if out != "fresh":
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write("taken")
                if out == "under-file":
                    out_path = os.path.join(out_path, "sub")
            code = cli.main([command[0], config_path, "--dataset", bench, "--out", out_path, *command[1:]])
            assert code in (0, 2, 3)
