"""Experiment orchestration: configs, the edit/merge/evaluate pipeline, sweeps.

A run starts from a generated benchmark directory (dataset + fitted model),
computes per-language delta sets once per covariance mode, then merges,
scales, applies, and scores each configured merge method plus the mono
baseline, which reads each language's own deltas from the per-language delta
set.  Sweeps compute the delta sets once: the scale axis reuses merges as
well, the rank axis recomputes merges only.

All emitted CSV/JSON is deterministic: fixed column orders, sorted JSON keys,
floats via ``repr``.  Grid points may be evaluated by a process pool; results
are assembled in grid order so parallel and serial runs agree.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from . import container, merging, metrics, solvers, synthdata
from .covariance import PER_LANGUAGE
from .errors import ConfigError
from .merging import MergeConfig
from .svgchart import line_chart

SCHEMA_VERSION = 1

DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
DEFAULT_RANK_GRID = (0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5, 0.75, 1.0)
DEFAULT_TSVM_RANK = 0.375

CSV_COLUMNS = (
    "method",
    "cov_mode",
    "alpha",
    "rank_ratio",
    "language",
    "efficacy",
    "generalization",
    "specificity",
    "portability",
    "averaged",
)

MONO_METHOD = "mono"

DATASET_FILE = "dataset.lam"
MODEL_FILE = "model.lam"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class SolverSettings:
    method: str = solvers.METHOD_MEMIT
    lam_memit: float = solvers.DEFAULT_LAM_MEMIT
    lam_alphaedit: float = solvers.DEFAULT_LAM_ALPHAEDIT
    rel_tol: float = solvers.DEFAULT_REL_TOL
    cond_limit: float = solvers.DEFAULT_COND_LIMIT

    def __post_init__(self):
        if self.method not in solvers.METHODS:
            raise ConfigError(f"unknown solver method {self.method!r}")
        if self.lam_memit < 0 or self.lam_alphaedit < 0:
            raise ConfigError("solver lam values must be nonnegative")

    @property
    def lam(self):
        return self.lam_memit if self.method == solvers.METHOD_MEMIT else self.lam_alphaedit


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; mirrors the JSON config document."""

    seed: int = 0
    dataset: synthdata.GenConfig = field(default_factory=synthdata.GenConfig)
    solver: SolverSettings = field(default_factory=SolverSettings)
    merges: tuple[MergeConfig, ...] = ()
    alpha: float = 1.0
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    rank_grid: tuple[float, ...] = DEFAULT_RANK_GRID
    include_mono: bool = True
    workers: int = 0

    def __post_init__(self):
        if not self.merges:
            object.__setattr__(self, "merges", default_merges())
        for grid, name in ((self.alpha_grid, "alpha_grid"), (self.rank_grid, "rank_grid")):
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            if not all(math.isfinite(v) for v in grid):
                raise ConfigError(f"{name} values must be finite, got {list(grid)}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if 1.0 not in self.alpha_grid:
            raise ConfigError("alpha_grid must contain 1.0")
        if self.rank_grid[0] <= 0 or self.rank_grid[-1] > 1:
            raise ConfigError("rank_grid values must lie in (0, 1]")
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if not isinstance(self.include_mono, bool):
            raise ConfigError(f"include_mono must be true or false, got {self.include_mono!r}")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.dataset.seed != self.seed:
            object.__setattr__(self, "dataset", replace(self.dataset, seed=self.seed))


def default_merges(rank_ratio=DEFAULT_TSVM_RANK):
    return tuple(
        MergeConfig(method, alpha=1.0, rank_ratio=rank_ratio if "tsvm" in method else 1.0)
        for method in merging.MERGE_METHODS
    )


# GenConfig fields that hold integers; edit_layers holds a list of them.
_DATASET_INTEGER_FIELDS = ("n_facts", "m_languages", "d", "h", "n_layers", "n_preserved", "vocab_size")


def _integer(name, value):
    """A JSON integer as ``int``; fractions, booleans and strings raise ConfigError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_from_dict(doc):
    """Build an ExperimentConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    known = {
        "schema_version",
        "seed",
        "dataset",
        "solver",
        "merges",
        "alpha",
        "alpha_grid",
        "rank_grid",
        "include_mono",
        "workers",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        seed = _integer("seed", doc.get("seed", 0))
        dataset_doc = dict(doc.get("dataset", {}))
        dataset_doc.pop("seed", None)
        for name in _DATASET_INTEGER_FIELDS:
            if name in dataset_doc:
                dataset_doc[name] = _integer(f"dataset.{name}", dataset_doc[name])
        if "edit_layers" in dataset_doc:
            dataset_doc["edit_layers"] = tuple(
                _integer("dataset.edit_layers", l) for l in dataset_doc["edit_layers"]
            )
        dataset = synthdata.GenConfig(seed=seed, **dataset_doc)
        solver = SolverSettings(**doc.get("solver", {}))
        merges = tuple(MergeConfig(**m) for m in doc.get("merges", [])) or default_merges()
        return ExperimentConfig(
            seed=seed,
            dataset=dataset,
            solver=solver,
            merges=merges,
            alpha=float(doc.get("alpha", 1.0)),
            alpha_grid=tuple(float(a) for a in doc.get("alpha_grid", DEFAULT_ALPHA_GRID)),
            rank_grid=tuple(float(r) for r in doc.get("rank_grid", DEFAULT_RANK_GRID)),
            include_mono=doc.get("include_mono", True),
            workers=_integer("workers", doc.get("workers", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_to_dict(config):
    from dataclasses import asdict

    dataset = asdict(config.dataset)
    dataset["edit_layers"] = list(dataset["edit_layers"])
    dataset.pop("seed")
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "dataset": dataset,
        "solver": asdict(config.solver),
        "merges": [
            {"method": m.method, "alpha": m.alpha, "rank_ratio": m.rank_ratio}
            for m in config.merges
        ],
        "alpha": config.alpha,
        "alpha_grid": list(config.alpha_grid),
        "rank_grid": list(config.rank_grid),
        "include_mono": config.include_mono,
        "workers": config.workers,
    }


def effective_workers(config):
    env = os.environ.get("LAMEDIT_WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"LAMEDIT_WORKERS must be an integer, got {env!r}") from exc
        if value < 0:
            raise ConfigError("LAMEDIT_WORKERS must be >= 0")
        return value
    return config.workers


# --- benchmark directory ---


def write_benchmark(config, out_dir, force=False):
    """Generate the dataset, fit the backbone, and write both to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    if os.path.exists(manifest_path) and not force:
        raise ConfigError(f"{out_dir} already holds a benchmark; pass --force to overwrite")
    dataset, model, info = synthdata.build_benchmark(config.dataset)
    container.save_dataset(os.path.join(out_dir, DATASET_FILE), dataset)
    container.save_model(os.path.join(out_dir, MODEL_FILE), model)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "benchmark",
        "config": config_to_dict(config),
        "languages": list(dataset.languages),
        "fit": {
            "attempt": info["attempt"],
            "effective_seed": info["seed"],
            "request_recall": info["request_recall"],
            "preserved_recall": info["preserved_recall"],
        },
        "files": {"dataset": DATASET_FILE, "model": MODEL_FILE},
    }
    _write_json(manifest_path, manifest)
    return dataset, model, manifest


def load_benchmark(bench_dir):
    manifest_path = os.path.join(bench_dir, MANIFEST_FILE)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"no benchmark at {bench_dir} (missing {MANIFEST_FILE}): {exc}") from exc
    dataset = container.load_dataset(os.path.join(bench_dir, manifest["files"]["dataset"]))
    model = container.load_model(os.path.join(bench_dir, manifest["files"]["model"]))
    return dataset, model, manifest


# --- pipeline ---


def compute_delta_sets(model, dataset, solver, cov_modes):
    """Per-language delta sets for each requested covariance mode.

    The preserved statistics (and alphaedit's null-space projectors) are
    computed once per edit layer and shared by every mode.
    """
    preserved_inputs = dataset.preserved_inputs_all()
    preserved = solvers.preserved_terms(
        model,
        preserved_inputs,
        solver.method,
        solver.rel_tol,
        preserved_ids=dataset.preserved_fact_ids(),
        request_ids=dataset.request_fact_ids(),
    )
    out = {}
    for mode in sorted(set(cov_modes)):
        out[mode] = solvers.edit_model(
            model,
            dataset.all_language_requests(),
            preserved_inputs,
            method=solver.method,
            cov_mode=mode,
            lam=solver.lam,
            cond_limit=solver.cond_limit,
            preserved=preserved,
        )
    return out


def _report_for_merged(model, dataset, merged, merge_cfg, alpha, seed):
    edited = merging.apply_update(model, merged, alpha)
    return metrics.MetricsReport(
        method=merge_cfg.method,
        cov_mode=merge_cfg.cov_mode,
        alpha=float(alpha),
        rank_ratio=merge_cfg.rank_ratio if merge_cfg.base_rule == "tsvm" else None,
        seed=seed,
        languages=dataset.languages,
        rows=metrics.evaluate_all(edited, dataset),
    )


def _merge_task(args):
    model, dataset, delta_set, merge_cfg, alpha, seed = args
    merged = merging.merge(merge_cfg, delta_set)
    return _report_for_merged(model, dataset, merged, merge_cfg, alpha, seed)


def _map_tasks(task_fn, tasks, workers):
    if workers and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task_fn, tasks))
    return [task_fn(t) for t in tasks]


def mono_report(model, dataset, delta_set, alpha, seed):
    """Mono baseline: each language edited with only its own per-language deltas."""
    rows = tuple(
        metrics.run_mono(model, dataset, delta_set, i, alpha) for i in range(dataset.m_languages)
    )
    return metrics.MetricsReport(
        method=MONO_METHOD,
        cov_mode=PER_LANGUAGE,
        alpha=float(alpha),
        rank_ratio=None,
        seed=seed,
        languages=dataset.languages,
        rows=rows,
    )


def run_experiment(config, dataset, model):
    """Score every configured merge method (plus mono) at the anchor alpha."""
    modes = [m.cov_mode for m in config.merges]
    if config.include_mono:
        modes.append(PER_LANGUAGE)
    delta_sets = compute_delta_sets(model, dataset, config.solver, modes)
    tasks = [
        (model, dataset, delta_sets[m.cov_mode], m, config.alpha, config.seed)
        for m in config.merges
    ]
    reports = _map_tasks(_merge_task, tasks, effective_workers(config))
    if config.include_mono:
        reports.append(
            mono_report(model, dataset, delta_sets[PER_LANGUAGE], config.alpha, config.seed)
        )
    return reports


# --- sweeps ---


@dataclass(frozen=True)
class SweepResult:
    """One method's curve along one axis, plus its argmax grid point."""

    axis: str
    method: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    argmax_point: float

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ConfigError("sweep grid and values must have equal length")


def _argmax_point(grid, values):
    best = max(values)
    for point, value in zip(grid, values):
        if value == best:
            return point
    return grid[0]


def _alpha_point_task(args):
    model, dataset, merged_by_method, merge_cfgs, alpha, seed = args
    return [
        _report_for_merged(model, dataset, merged_by_method[m.method], m, alpha, seed)
        for m in merge_cfgs
    ]


def _rank_point_task(args):
    model, dataset, delta_sets, merge_cfgs, rank, alpha, seed = args
    reports = []
    for m in merge_cfgs:
        cfg_r = MergeConfig(m.method, alpha=m.alpha, rank_ratio=rank)
        merged = merging.merge(cfg_r, delta_sets[m.cov_mode])
        reports.append(_report_for_merged(model, dataset, merged, cfg_r, alpha, seed))
    return reports


def sweep(config, dataset, model, axis):
    """Sweep the scale or rank axis over the configured merge methods.

    Returns ``(results, point_reports)`` where results hold one SweepResult
    per swept method and point_reports is the flat list of per-point
    MetricsReports in (grid point, method) order.
    """
    if axis == "alpha":
        grid = config.alpha_grid
        merge_cfgs = list(config.merges)
    elif axis == "rank":
        grid = config.rank_grid
        merge_cfgs = [m for m in config.merges if m.base_rule == "tsvm"]
        if not merge_cfgs:
            raise ConfigError("rank sweep needs at least one tsvm-family merge method")
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected 'alpha' or 'rank'")

    workers = effective_workers(config)
    modes = [m.cov_mode for m in merge_cfgs]
    delta_sets = compute_delta_sets(model, dataset, config.solver, modes)
    if axis == "alpha":
        merged_by_method = {m.method: merging.merge(m, delta_sets[m.cov_mode]) for m in merge_cfgs}
        tasks = [
            (model, dataset, merged_by_method, merge_cfgs, alpha, config.seed) for alpha in grid
        ]
        per_point = _map_tasks(_alpha_point_task, tasks, workers)
    else:
        tasks = [
            (model, dataset, delta_sets, merge_cfgs, rank, config.alpha, config.seed)
            for rank in grid
        ]
        per_point = _map_tasks(_rank_point_task, tasks, workers)

    results = []
    for idx, m in enumerate(merge_cfgs):
        values = tuple(float(reports[idx].mean_row().averaged) for reports in per_point)
        results.append(
            SweepResult(
                axis=axis,
                method=m.method,
                grid=tuple(grid),
                values=values,
                argmax_point=_argmax_point(grid, values),
            )
        )
    point_reports = [rep for reports in per_point for rep in reports]
    return results, point_reports


# --- deterministic writers ---


def _fmt_float(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def metrics_csv_text(reports):
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        rows = list(zip(rep.languages, rep.rows)) + [("avg", rep.mean_row())]
        for language, row in rows:
            lines.append(
                ",".join(
                    (
                        rep.method,
                        rep.cov_mode,
                        _fmt_float(rep.alpha),
                        _fmt_float(rep.rank_ratio),
                        language,
                        _fmt_float(row.efficacy),
                        _fmt_float(row.generalization),
                        _fmt_float(row.specificity),
                        _fmt_float(row.portability),
                        _fmt_float(row.averaged),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def write_run_outputs(out_dir, config, reports, manifest):
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "metrics.csv"), metrics_csv_text(reports))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(config),
        "benchmark_fit": manifest.get("fit", {}),
        "reports": [rep.to_json_dict() for rep in reports],
    }
    _write_json(os.path.join(out_dir, "metrics.json"), doc)


def sweep_csv_text(results, point_reports):
    lines = ["method,axis,point,efficacy,generalization,specificity,portability,averaged"]
    by_method = {}
    for rep in point_reports:
        by_method.setdefault(rep.method, []).append(rep)
    for result in results:
        reps = by_method[result.method]
        for point, rep in zip(result.grid, reps):
            mean = rep.mean_row()
            lines.append(
                ",".join(
                    (
                        result.method,
                        result.axis,
                        _fmt_float(point),
                        _fmt_float(mean.efficacy),
                        _fmt_float(mean.generalization),
                        _fmt_float(mean.specificity),
                        _fmt_float(mean.portability),
                        _fmt_float(mean.averaged),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def write_sweep_outputs(out_dir, config, axis, results, point_reports):
    os.makedirs(out_dir, exist_ok=True)
    base = f"sweep_{axis}"
    _write_text(os.path.join(out_dir, base + ".csv"), sweep_csv_text(results, point_reports))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "axis": axis,
        "config": config_to_dict(config),
        "results": [
            {
                "method": r.method,
                "grid": list(r.grid),
                "values": list(r.values),
                "argmax_point": r.argmax_point,
            }
            for r in results
        ],
    }
    _write_json(os.path.join(out_dir, base + ".json"), doc)
    axis_label = "weight scale" if axis == "alpha" else "rank ratio"
    chart = line_chart(
        [(r.method, list(r.grid), list(r.values)) for r in results],
        title=f"{axis_label} sweep",
        x_label=axis_label,
        y_label="averaged accuracy (cross-language mean)",
        y_range=(0.0, 1.0),
    )
    _write_text(os.path.join(out_dir, base + ".svg"), chart)


# --- comparison reports across runs ---


def build_comparison(run_dirs, allow_mixed=False):
    """Method-by-language grid of averaged accuracy from run directories.

    A row is keyed by merge method, tsvm rank ratio and alpha, plus the seed
    when mixed seeds are allowed.  Reports that share a key must be the same
    result (same solver settings and values, as from re-running one config);
    any other collision raises :class:`ConfigError` naming both run
    directories, so no row is dropped silently.
    """
    docs = []
    for run_dir in run_dirs:
        path = os.path.join(run_dir, "metrics.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append((run_dir, json.load(fh)))
        except OSError as exc:
            raise ConfigError(f"cannot read run output {path}: {exc}") from exc
    seeds = {rep["seed"] for _, doc in docs for rep in doc["reports"]}
    if len(seeds) > 1 and not allow_mixed:
        raise ConfigError(f"run dirs mix dataset seeds {sorted(seeds)}; pass --allow-mixed to combine")
    rows = {}
    sources = {}
    languages = None
    for run_dir, doc in docs:
        solver = doc.get("config", {}).get("solver")
        for rep in doc["reports"]:
            langs = tuple(rep["languages"])
            if languages is None:
                languages = langs
            elif languages != langs:
                raise ConfigError(f"language sets differ across runs: {languages} vs {langs}")
            key = rep["method"]
            if rep["method"] != MONO_METHOD and rep.get("rank_ratio") is not None:
                key = f"{rep['method']}(r={rep['rank_ratio']:g})"
            if float(rep["alpha"]) != 1.0:
                key = f"{key}@a={rep['alpha']:g}"
            if len(seeds) > 1:
                key = f"{key}@seed={rep['seed']}"
            values = [rep["per_language"][lang]["averaged"] for lang in languages] + [
                rep["mean"]["averaged"]
            ]
            if key in rows and (sources[key][1], rows[key]) != (solver, values):
                raise ConfigError(
                    f"runs {sources[key][0]} and {run_dir} give different results for "
                    f"report row {key!r}; report them separately"
                )
            rows[key] = values
            sources[key] = (run_dir, solver)
    return languages, dict(sorted(rows.items()))


def comparison_csv_text(languages, rows):
    header = ["method", *languages, "avg"]
    lines = [",".join(header)]
    for method, values in rows.items():
        lines.append(",".join([method, *(_fmt_float(v) for v in values)]))
    return "\n".join(lines) + "\n"


def comparison_markdown_text(languages, rows):
    header = ["method", *languages, "avg"]
    n_cols = len(header) - 1
    col_max = [max(values[i] for values in rows.values()) for i in range(n_cols)] if rows else []
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for method, values in rows.items():
        cells = [method]
        for i, value in enumerate(values):
            text = f"{value:.4f}"
            cells.append(f"**{text}**" if value == col_max[i] else text)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def write_comparison(out_dir, languages, rows):
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "report.csv"), comparison_csv_text(languages, rows))
    _write_text(os.path.join(out_dir, "report.md"), comparison_markdown_text(languages, rows))
