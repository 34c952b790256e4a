import json
import os
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lamedit import cli, container, covariance, experiment, merging, solvers
from lamedit import model as model_mod
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.errors import ConfigError

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
            experiment.config_from_dict({"merges": [{"alpha": 1.0}]})  # no method

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("workers", "x"),
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
        [("seed", 5.9), ("seed", True), ("workers", 2.5), ("workers", False)],
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
        cfg = experiment.config_from_dict(dict(TINY_CONFIG, seed=9.0, workers=2.0))
        assert (cfg.seed, cfg.workers) == (9, 2)
        assert isinstance(cfg.seed, int) and isinstance(cfg.workers, int)

    @pytest.mark.parametrize(
        "field, grid",
        [
            ("alpha_grid", [0.5, 1.0, float("nan")]),
            ("alpha_grid", [0.5, 1.0, float("inf")]),
            ("rank_grid", [0.25, float("nan")]),
        ],
    )
    def test_non_finite_grid_rejected(self, tmp_path, capsys, field, grid):
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

    def test_workers_env_override(self, monkeypatch):
        cfg = experiment.config_from_dict({"workers": 2})
        monkeypatch.setenv("LAMEDIT_WORKERS", "5")
        assert experiment.effective_workers(cfg) == 5
        monkeypatch.setenv("LAMEDIT_WORKERS", "bogus")
        with pytest.raises(ConfigError):
            experiment.effective_workers(cfg)
        monkeypatch.delenv("LAMEDIT_WORKERS")
        assert experiment.effective_workers(cfg) == 2


class TestComputeDeltaSets:
    @pytest.mark.parametrize("method", ["memit", "alphaedit"])
    def test_preserved_terms_shared_and_one_forward_per_step(self, small_bench, monkeypatch, method):
        dataset, model = small_bench
        solver = experiment.SolverSettings(method=method, rel_tol=0.02)
        modes = (PER_LANGUAGE, SHARED)
        # Reference: one edit_model call per mode, each computing its own
        # preserved terms.
        fresh = {
            mode: solvers.edit_model(
                model,
                dataset.all_language_requests(),
                dataset.preserved_inputs_all(),
                method=method,
                cov_mode=mode,
                lam=solver.lam,
                rel_tol=solver.rel_tol,
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
        count(solvers, "nullspace_projector")
        count(model_mod, "forward_batch")
        delta_sets = experiment.compute_delta_sets(model, dataset, solver, modes)

        n_layers, m = len(model.edit_layers), dataset.m_languages
        assert calls["const_stats"] == n_layers
        assert calls["nullspace_projector"] == (n_layers if method == "alphaedit" else 0)
        # One preserved forward per edit layer, then one forward per
        # (mode, language, layer) step serving both keys and targets.
        assert calls["forward_batch"] == n_layers + len(modes) * m * n_layers
        for mode in modes:
            for key, dm in fresh[mode].entries.items():
                assert np.array_equal(delta_sets[mode].entries[key].delta, dm.delta)


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


class TestRunCommand:
    def test_outputs_and_determinism(self, tiny_setup):
        config_path, bench_dir, tmp = tiny_setup
        out1, out2 = str(tmp / "run1"), str(tmp / "run2")
        assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", out1]) == 0
        assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", out2]) == 0
        for name in ("metrics.csv", "metrics.json"):
            with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_csv_columns_contract(self, tiny_setup):
        config_path, bench_dir, tmp = tiny_setup
        with open(os.path.join(str(tmp / "run1"), "metrics.csv")) as fh:
            header = fh.readline().strip()
        assert header == ",".join(experiment.CSV_COLUMNS)

    def test_parallel_equals_serial(self, tiny_setup, monkeypatch):
        config_path, bench_dir, tmp = tiny_setup
        out_par = str(tmp / "run_par")
        monkeypatch.setenv("LAMEDIT_WORKERS", "2")
        assert cli.main(["run", config_path, "--dataset", bench_dir, "--out", out_par]) == 0
        monkeypatch.delenv("LAMEDIT_WORKERS")
        with open(os.path.join(str(tmp / "run1"), "metrics.json")) as fh:
            serial = json.load(fh)
        with open(os.path.join(out_par, "metrics.json")) as fh:
            parallel = json.load(fh)
        for rep_s, rep_p in zip(serial["reports"], parallel["reports"]):
            for lang, row in rep_s["per_language"].items():
                for key, value in row.items():
                    assert abs(value - rep_p["per_language"][lang][key]) <= 1e-10

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

    def test_rank_sweep_factors_each_delta_once(self, tiny_setup, monkeypatch):
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
        experiment.sweep(config, dataset, model, "rank")
        # Per-delta SVDs, told apart from the polar-factor SVDs by their input.
        per_delta = Counter(
            (mode, key)
            for matrix in factored
            for mode in modes
            for key, dm in delta_sets[mode].entries.items()
            if np.array_equal(matrix, dm.delta)
        )
        expected = {(mode, key) for mode in modes for key in delta_sets[mode].entries}
        assert set(per_delta) == expected
        assert all(count == 1 for count in per_delta.values())
        assert len(expected) == len(modes) * len(model.edit_layers) * dataset.m_languages

    def test_rank_sweep_covers_tsvm_family_only(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        out = str(tmp_path / "swr")
        assert cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", "rank"]) == 0
        with open(os.path.join(out, "sweep_rank.json")) as fh:
            doc = json.load(fh)
        methods = {r["method"] for r in doc["results"]}
        assert methods == {"tsvm", "tsvm_cov"}
        assert os.path.exists(os.path.join(out, "sweep_rank.svg"))

    def test_single_point_grid_degenerates_to_run(self, tiny_setup, tmp_path):
        config_path, bench_dir, tmp = tiny_setup
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

    def test_argmax_tie_breaks_to_smallest(self):
        res = experiment.SweepResult(
            axis="alpha", method="sum", grid=(0.5, 1.0, 2.0), values=(0.2, 0.5, 0.5),
            argmax_point=experiment._argmax_point((0.5, 1.0, 2.0), (0.2, 0.5, 0.5)),
        )
        assert res.argmax_point == 1.0

    def test_sweep_svg_deterministic(self, tiny_setup, tmp_path):
        config_path, bench_dir, _ = tiny_setup
        a, b = str(tmp_path / "sa"), str(tmp_path / "sb")
        for out in (a, b):
            assert cli.main(["sweep", config_path, "--dataset", bench_dir, "--out", out, "--axis", "alpha"]) == 0
        with open(os.path.join(a, "sweep_alpha.svg"), "rb") as fa, open(os.path.join(b, "sweep_alpha.svg"), "rb") as fb:
            assert fa.read() == fb.read()


class TestReportCommand:
    def test_single_run_table_matches_csv(self, tiny_setup, tmp_path):
        config_path, bench_dir, tmp = tiny_setup
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

    def test_rows_sorted_by_method_name(self, tiny_setup, tmp_path):
        _, _, tmp = tiny_setup
        out = str(tmp_path / "rep2")
        assert cli.main(["report", str(tmp / "run1"), str(tmp / "run2"), "--out", out, "--allow-mixed"]) == 0
        with open(os.path.join(out, "report.csv")) as fh:
            methods = [line.split(",")[0] for line in fh.read().strip().splitlines()[1:]]
        assert methods == sorted(methods)

    def test_regenerated_report_byte_identical(self, tiny_setup, tmp_path):
        _, _, tmp = tiny_setup
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
