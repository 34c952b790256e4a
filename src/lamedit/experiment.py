"""Experiment orchestration: configs, the edit/merge/evaluate pipeline, sweeps.

A run and each sweep axis start from a generated benchmark directory
(dataset + fitted model) and score a list of ``(merge config, alpha)``
points through :func:`score_points`: the run's merges at the anchor alpha,
the scale axis's at each alpha, or the rank axis's tsvm merges at each rank
ratio.  It computes the per-language delta sets once per covariance mode,
merges each distinct config once (each tsvm mode's deltas factored once, by
:func:`lamedit.merging.delta_factors`, and held only as deep as its tsvm
configs read), and applies and scores every point, then the mono baseline
(each language edited with its own per-language deltas), from one probe
batch built on the unedited model (:func:`lamedit.metrics.probe_batch`).
The merges and the scoring form one phase with three
:func:`lamedit.blas.spread` calls, all from the main thread and none inside
another: every delta SVD of every tsvm-read mode, then an item per distinct
merge config, then the scoring, an item per stack of edited models (each
config's points side by side, and configs side by side where each has one
point) and per stack of mono languages.

:func:`score_points` builds each :class:`~lamedit.metrics.MetricsReport`
once.  A sweep keeps each method's curve as its cross-language mean rows
(:class:`SweepResult`); the sweep's CSV rows, JSON values, argmax and chart
all read those rows.  One writer emits every CSV.  All emitted CSV/JSON is
deterministic: fixed column orders, sorted JSON keys, floats via ``repr``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

from . import blas, container, merging, metrics, solvers, synthdata
from . import model as model_core
from .covariance import PER_LANGUAGE
from .errors import ConfigError, EmptyNullSpaceWarning
from .merging import MergeConfig
from .svgchart import line_chart

SCHEMA_VERSION = 1

DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
DEFAULT_RANK_GRID = (0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5, 0.75, 1.0)
DEFAULT_TSVM_RANK = 0.375

ACCURACY_COLUMNS = ("efficacy", "generalization", "specificity", "portability", "averaged")
CSV_COLUMNS = ("method", "cov_mode", "alpha", "rank_ratio", "language", *ACCURACY_COLUMNS)
SWEEP_CSV_COLUMNS = ("method", "axis", "point", *ACCURACY_COLUMNS)

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
        for name in ("lam_memit", "lam_alphaedit", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"solver {name} must be finite and nonnegative, got {value!r}")
        if not (math.isfinite(self.cond_limit) and self.cond_limit > 0):
            raise ConfigError(f"solver cond_limit must be finite and positive, got {self.cond_limit!r}")

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

    def __post_init__(self):
        if not self.merges:
            object.__setattr__(self, "merges", default_merges())
        _refuse_repeated_methods("merges", (m.method for m in self.merges))
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
        _check_alpha("alpha", self.alpha)
        for m in self.merges:
            if m.base_rule == "tsvm":
                # Refused here, not after every edit has been computed.
                merging._retained_rank((self.dataset.d, self.dataset.h), m.rank_ratio)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.include_mono, bool):
            raise ConfigError(f"include_mono must be true or false, got {self.include_mono!r}")
        if self.dataset.seed != self.seed:
            object.__setattr__(self, "dataset", replace(self.dataset, seed=self.seed))


def _check_alpha(name, alpha):
    """Raise ConfigError unless the weight scale ``alpha`` is finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"{name} must be finite and positive, got {alpha!r}")


def _refuse_repeated_methods(where, methods):
    """Raise ConfigError naming each method listed more than once.

    Run reports, sweep rows and comparison rows are keyed by method name, so
    a repeat would write one result twice or misalign another's.
    """
    methods = list(methods)
    repeated = sorted({name for name in methods if methods.count(name) > 1})
    if repeated:
        raise ConfigError(f"{where} lists merge method {', '.join(repeated)} more than once")


def default_merges(rank_ratio=DEFAULT_TSVM_RANK):
    return tuple(
        MergeConfig(method, rank_ratio=rank_ratio if "tsvm" in method else 1.0)
        for method in merging.MERGE_METHODS
    )


def _integer(name, value):
    """A JSON integer as ``int``; fractions, booleans and strings raise ConfigError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name, value):
    """A JSON number as ``float``; booleans, strings and overflowing integers raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _array(name, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a JSON array, got {value!r}")
    return value


# Parsers of the config dataclasses' field annotations; other fields pass
# through to their dataclass's own validation.
_PARSERS = {
    "int": _integer,
    "float": _number,
    "tuple[int, ...]": lambda name, v: tuple(_integer(name, x) for x in _array(name, v)),
    "tuple[float, ...]": lambda name, v: tuple(_number(name, x) for x in _array(name, v)),
}


def _section(name, doc, cls, **parsed):
    """``cls`` from one JSON object of the config, with ``parsed`` fields given.

    Unknown keys are named, and numbers are typed by the field annotation.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    kwargs = dict(doc, **parsed)
    for f in fields(cls):
        if f.name in doc and f.name not in parsed and f.type in _PARSERS:
            label = f.name if name == "config" else f"{name}.{f.name}"
            kwargs[f.name] = _PARSERS[f.type](label, doc[f.name])
    return cls(**kwargs)


def config_from_dict(doc):
    """Build an ExperimentConfig from a parsed JSON document; malformed ones raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc = dict(doc)
    try:
        version = doc.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version!r}")
        seed = _integer("seed", doc.get("seed", 0))
        if isinstance(doc.get("dataset"), dict) and "seed" in doc["dataset"]:
            raise ConfigError("dataset.seed is not a config field: the dataset seed is the top-level seed")
        return _section(
            "config",
            doc,
            ExperimentConfig,
            seed=seed,
            dataset=_section("dataset", doc.get("dataset", {}), synthdata.GenConfig, seed=seed),
            solver=_section("solver", doc.get("solver", {}), SolverSettings),
            merges=tuple(
                _section("merge", m, MergeConfig) for m in _array("merges", doc.get("merges", []))
            ),
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
    """The config as a JSON document that :func:`config_from_dict` reads back."""
    doc = asdict(config)
    doc["dataset"].pop("seed")
    return {"schema_version": SCHEMA_VERSION, **doc}


# --- benchmark directory ---


def write_benchmark(config, out_dir, force=False):
    """Generate the dataset, fit the backbone, and write both to ``out_dir``."""
    make_out_dir(out_dir)
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


def _recorded_gen_config(manifest):
    """The dataset config the benchmark manifest records, its seed the config seed."""
    recorded = manifest.get("config")
    if not isinstance(recorded, dict):
        raise ConfigError("benchmark manifest records no config")
    # Only these shaped the benchmark; other keys may be ones a later schema retired.
    return config_from_dict({k: recorded[k] for k in ("seed", "dataset") if k in recorded}).dataset


def check_benchmark_dataset(config, manifest):
    """Raise ConfigError unless ``config``'s dataset section is the benchmark's.

    The manifest records the config the benchmark was built from; a run under
    another seed or shape would record settings its numbers did not come from.
    The error names the first differing field.
    """
    built = _recorded_gen_config(manifest)
    for f in fields(built):
        ours, theirs = getattr(config.dataset, f.name), getattr(built, f.name)
        if ours != theirs:
            name = f.name if f.name == "seed" else f"dataset.{f.name}"
            raise ConfigError(f"config {name}={ours!r} differs from the benchmark's {theirs!r}")


def _check_dataset_fits_manifest(dataset, manifest, dataset_path):
    """Raise ConfigError unless the dataset is the one the manifest records.

    The dataset records the config it was generated under and its
    languages.  Its seed is the fit's effective seed, which a retried fit
    derives from the config seed, so the manifest's ``fit.effective_seed``
    stands in for the config seed.  A dataset from another benchmark of the
    same shape would otherwise be scored and recorded under this one's seed.
    """
    fit = manifest.get("fit")
    built = replace(_recorded_gen_config(manifest), seed=fit.get("effective_seed") if isinstance(fit, dict) else None)
    recorded = [(f.name, getattr(dataset.config, f.name), getattr(built, f.name)) for f in fields(built)]
    recorded.append(("languages", list(dataset.languages), manifest.get("languages")))
    for name, ours, theirs in recorded:
        if ours != theirs:
            raise ConfigError(f"{dataset_path}: dataset has {name}={ours!r}, the benchmark manifest records {theirs!r}")


def load_benchmark(bench_dir, config=None):
    """Dataset, model and manifest of a benchmark directory.

    With ``config``, its dataset section must match the benchmark's
    (:func:`check_benchmark_dataset`).  The dataset must be the one the
    manifest records, and the model must have the dataset config's shape;
    unreadable files, a dataset from another benchmark and a misfit model
    raise :class:`~lamedit.errors.ContainerError` or :class:`ConfigError`.
    A model of the right shape fitted for another benchmark is not detected:
    ``model.lam`` records no seed.
    """
    manifest_path = os.path.join(bench_dir, MANIFEST_FILE)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"no benchmark at {bench_dir} (missing {MANIFEST_FILE}): {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"benchmark manifest {manifest_path} is not valid JSON: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(files, dict) and all(isinstance(files.get(k), str) for k in ("dataset", "model"))):
        raise ConfigError(f"benchmark manifest {manifest_path} names no dataset and model files")
    if config is not None:
        check_benchmark_dataset(config, manifest)
    dataset_path = os.path.join(bench_dir, files["dataset"])
    dataset = container.load_dataset(dataset_path)
    _check_dataset_fits_manifest(dataset, manifest, dataset_path)
    model_path = os.path.join(bench_dir, files["model"])
    model = container.load_model(model_path)
    _check_model_fits_dataset(model, dataset.config, model_path)
    return dataset, model, manifest


def _check_model_fits_dataset(model, gen_config, model_path):
    """Raise ConfigError unless the model has the dataset config's shape.

    A backbone fitted for another benchmark would otherwise fail deep in the
    pipeline, or edit layers the dataset does not name.
    """
    shapes = (
        ("d", model.d, gen_config.d),
        ("h", model.h, gen_config.h),
        ("n_layers", model.n_layers, gen_config.n_layers),
        ("edit_layers", tuple(model.edit_layers), tuple(gen_config.edit_layers)),
        ("vocab_size", model.vocab_size, gen_config.vocab_size),
    )
    for name, ours, theirs in shapes:
        if ours != theirs:
            raise ConfigError(f"{model_path}: model has {name}={ours!r}, the benchmark's dataset {theirs!r}")


# --- pipeline ---


def compute_delta_sets(model, dataset, solver, cov_modes):
    """Per-language delta sets for each requested covariance mode, from one edit.

    The preserved statistics (and alphaedit's null-space projectors) are
    computed once on the unedited model, and one
    :func:`lamedit.solvers.edit_model` call edits in every mode, sharing
    each language's request prefix and first-layer targets between them.
    An alphaedit projector onto an empty null space warns
    (:class:`EmptyNullSpaceWarning`): its layer's edits are exactly zero.
    """
    preserved = solvers.preserved_terms(model, dataset.preserved_inputs_all(), solver.method, solver.rel_tol)
    if solver.method == solvers.METHOD_ALPHAEDIT:
        empty = [str(layer) for layer, term in preserved.items() if term.null_dim == 0]
        if empty:
            warnings.warn(
                f"alphaedit's null space is empty at rel_tol {solver.rel_tol:g} on layers "
                f"{', '.join(empty)}, so their edits are exactly zero",
                EmptyNullSpaceWarning,
            )
    return solvers.edit_model(
        model,
        dataset.all_language_requests(),
        preserved,
        solver.lam,
        method=solver.method,
        cov_modes=cov_modes,
        cond_limit=solver.cond_limit,
    )


def score_points(config, dataset, model, points, include_mono=False):
    """Reports of each ``(MergeConfig, alpha)`` point in order, then mono at the anchor alpha.

    Three :func:`lamedit.blas.spread` calls: one factors every delta of
    every covariance mode a tsvm config reads
    (:func:`lamedit.merging.delta_factors`), each mode's deltas to the
    deepest retained rank of its tsvm configs; one merges each distinct
    config; and one scores.  The factors die once every merge has read
    them.  The scoring's items are stacks of edited models, each scored
    through one walk (:func:`lamedit.metrics.evaluate_all`): the points in
    config order, so a config's weight scales sit side by side and so do
    configs of one point each, cut by :func:`lamedit.blas.chunks` into
    stacks of at most :func:`lamedit.model.stack_width` models; and the mono
    languages, cut the same way (:func:`lamedit.metrics.run_mono`).  One
    probe batch serves every stack.
    """
    modes = [m.cov_mode for m, _ in points]
    if include_mono:
        modes.append(PER_LANGUAGE)
    delta_sets = compute_delta_sets(model, dataset, config.solver, modes)
    alphas = {}  # each distinct config -> its points' alphas, in point order
    for merge_cfg, alpha in points:
        alphas.setdefault(merge_cfg, []).append(alpha)
    depths = {}  # each tsvm mode -> the deepest retained rank its configs read
    for m in alphas:
        if m.base_rule == "tsvm":
            rank = merging._retained_rank((model.d, model.h), m.rank_ratio)
            depths[m.cov_mode] = max(depths.get(m.cov_mode, 0), rank)
    tsvm_modes = sorted(depths)
    held = merging.delta_factors([delta_sets[mode] for mode in tsvm_modes], [depths[mode] for mode in tsvm_modes])
    factors = dict(zip(tsvm_modes, held))
    configs = list(alphas)
    merged = dict(
        zip(configs, blas.spread(lambda m: merging.merge(m, delta_sets[m.cov_mode], factors.get(m.cov_mode)), configs))
    )
    del held, factors
    probes = metrics.probe_batch(model, dataset)
    width = model_core.stack_width(model)

    def score(stack):
        return metrics.evaluate_all([merging.apply_update(model, merged[m], alpha) for m, alpha in stack], probes)

    def mono(language_ids):
        return metrics.run_mono(model, probes.select(language_ids), delta_sets[PER_LANGUAGE], config.alpha)

    scored = [(m, alpha) for m in configs for alpha in alphas[m]]
    stacks = blas.chunks(scored, width)
    tasks = [functools.partial(score, stack) for stack in stacks]
    if include_mono:
        tasks += [functools.partial(mono, ids) for ids in blas.chunks(probes.language_ids, width)]
    done = blas.spread(lambda task: task(), tasks)
    rows = dict(zip(scored, itertools.chain.from_iterable(done[: len(stacks)])))
    reports = [
        metrics.MetricsReport(
            method=m.method,
            cov_mode=m.cov_mode,
            alpha=float(alpha),
            rank_ratio=m.rank_ratio if m.base_rule == "tsvm" else None,
            seed=config.seed,
            languages=probes.languages,
            rows=rows[(m, alpha)],
        )
        for m, alpha in points
    ]
    if include_mono:
        # Each language edited with only its own per-language deltas.
        reports.append(
            metrics.MetricsReport(
                method=MONO_METHOD,
                cov_mode=PER_LANGUAGE,
                alpha=float(config.alpha),
                rank_ratio=None,
                seed=config.seed,
                languages=probes.languages,
                rows=tuple(itertools.chain.from_iterable(done[len(stacks) :])),
            )
        )
    return reports


def run_experiment(config, dataset, model):
    """Score every configured merge method (plus mono) at the anchor alpha."""
    points = [(m, config.alpha) for m in config.merges]
    return score_points(config, dataset, model, points, config.include_mono)


# --- sweeps ---


@dataclass(frozen=True)
class SweepResult:
    """One method's curve along one axis: its cross-language mean row at each grid point."""

    axis: str
    method: str
    grid: tuple[float, ...]
    rows: tuple[metrics.MetricsRow, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.rows):
            raise ConfigError("sweep grid and rows must have equal length")

    @property
    def values(self):
        """The curve: averaged accuracy at each grid point."""
        return tuple(row.averaged for row in self.rows)

    @property
    def argmax_point(self):
        """The first grid point of the curve's maximum."""
        values = self.values
        return self.grid[values.index(max(values))]


def sweep(config, dataset, model, axis):
    """Sweep the scale or rank axis over the configured merge methods.

    Returns ``(results, point_reports)`` where results hold one SweepResult
    per swept method and point_reports is the flat list of per-point
    MetricsReports in (grid point, method) order.
    """
    if axis == "alpha":
        grid = config.alpha_grid
        merge_cfgs = list(config.merges)
        points = [(m, alpha) for alpha in grid for m in merge_cfgs]
    elif axis == "rank":
        grid = config.rank_grid
        merge_cfgs = [m for m in config.merges if m.base_rule == "tsvm"]
        if not merge_cfgs:
            raise ConfigError("rank sweep needs at least one tsvm-family merge method")
        for rank in grid:
            # Refused before any edit is computed; `run` does not read the grid.
            merging._retained_rank((model.d, model.h), rank)
        points = [(replace(m, rank_ratio=rank), config.alpha) for rank in grid for m in merge_cfgs]
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected 'alpha' or 'rank'")
    point_reports = score_points(config, dataset, model, points)
    results = [
        SweepResult(
            axis=axis,
            method=m.method,
            grid=tuple(grid),
            rows=tuple(rep.mean_row() for rep in point_reports[idx :: len(merge_cfgs)]),
        )
        for idx, m in enumerate(merge_cfgs)
    ]
    return results, point_reports


# --- deterministic writers ---


def _fmt_float(value):
    if value is None:
        return ""
    return repr(float(value))


def make_out_dir(out_dir):
    """Create an output directory; a path that cannot be one raises ConfigError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _csv_text(header, rows):
    """CSV text of a header and rows of cells, one line each, newline-terminated."""
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def _accuracy_cells(row):
    """A MetricsRow's cells under ACCURACY_COLUMNS."""
    return [_fmt_float(getattr(row, name)) for name in ACCURACY_COLUMNS]


def metrics_csv_text(reports):
    return _csv_text(
        CSV_COLUMNS,
        (
            [rep.method, rep.cov_mode, _fmt_float(rep.alpha), _fmt_float(rep.rank_ratio), language]
            + _accuracy_cells(row)
            for rep in reports
            for language, row in [*zip(rep.languages, rep.rows), ("avg", rep.mean_row())]
        ),
    )


def write_run_outputs(out_dir, config, reports, manifest):
    make_out_dir(out_dir)
    _write_text(os.path.join(out_dir, "metrics.csv"), metrics_csv_text(reports))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(config),
        "benchmark_fit": manifest.get("fit", {}),
        "reports": [rep.to_json_dict() for rep in reports],
    }
    _write_json(os.path.join(out_dir, "metrics.json"), doc)


def sweep_csv_text(results):
    return _csv_text(
        SWEEP_CSV_COLUMNS,
        (
            [r.method, r.axis, _fmt_float(point)] + _accuracy_cells(row)
            for r in results
            for point, row in zip(r.grid, r.rows)
        ),
    )


def write_sweep_outputs(out_dir, config, axis, results):
    make_out_dir(out_dir)
    base = f"sweep_{axis}"
    _write_text(os.path.join(out_dir, base + ".csv"), sweep_csv_text(results))
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


class _ReportRow(NamedTuple):
    """The fields of one ``metrics.json`` report that a comparison reads."""

    method: str
    seed: int
    languages: tuple[str, ...]
    alpha: float
    rank_ratio: float | None
    values: list  # averaged accuracy per language, then the cross-language mean


def _is_text(value):
    """Whether ``value`` is a string the UTF-8 report files can hold.

    JSON escapes can spell lone surrogates, which no UTF-8 file can.
    """
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _report_row(path, index, rep):
    """Report ``index`` of run output ``path`` as a :class:`_ReportRow`.

    A missing or ill-typed field, or a value no run writes (an accuracy
    outside [0, 1], an alpha that is not finite and positive, a rank ratio
    outside (0, 1], a language listed twice or not at all, a ``per_language``
    entry for a language ``languages`` does not list, a ``mean`` more than
    1e-9 from the mean of the listed languages' ``averaged`` values), raises
    :class:`ConfigError` naming the file, the report and the field.
    """
    where = f"run output {path} report {index}"
    if not isinstance(rep, dict):
        raise ConfigError(f"{where} must be a JSON object, got {rep!r}")
    required = ("method", "seed", "languages", "alpha", "per_language", "mean")
    missing = [name for name in required if name not in rep]
    if missing:
        raise ConfigError(f"{where} lacks fields {missing}")
    if not _is_text(rep["method"]):
        raise ConfigError(f"{where} method must be a string, got {rep['method']!r}")
    languages = rep["languages"]
    if not (isinstance(languages, list) and all(_is_text(lang) for lang in languages)):
        raise ConfigError(f"{where} languages must be a list of strings, got {languages!r}")
    if len(set(languages)) != len(languages):
        raise ConfigError(f"{where} languages lists a language more than once: {languages!r}")
    if not isinstance(rep["per_language"], dict):
        raise ConfigError(f"{where} per_language must be a JSON object")

    def averaged(name, row):
        if not (isinstance(row, dict) and "averaged" in row):
            raise ConfigError(f"{where} {name} holds no averaged accuracy")
        value = _number(f"{where} {name}.averaged", row["averaged"])
        if not metrics.is_accuracy(value):
            raise ConfigError(f"{where} {name}.averaged must lie in [0, 1], got {value!r}")
        return value

    values = []
    for lang in languages:
        if lang not in rep["per_language"]:
            raise ConfigError(f"{where} per_language lacks language {lang!r}")
        values.append(averaged(f"per_language.{lang}", rep["per_language"][lang]))
    unlisted = sorted(set(rep["per_language"]) - set(languages))
    if unlisted:
        raise ConfigError(f"{where} per_language holds languages {unlisted} that languages does not list")
    if not languages:
        raise ConfigError(f"{where} languages lists no language")
    mean = averaged("mean", rep["mean"])
    listed_mean = sum(values) / len(values)
    if abs(mean - listed_mean) > 1e-9:
        raise ConfigError(
            f"{where} mean.averaged {mean!r} is not the mean {listed_mean!r} "
            f"of the listed languages' averaged accuracies"
        )
    values.append(mean)
    alpha = _number(f"{where} alpha", rep["alpha"])
    _check_alpha(f"{where} alpha", alpha)
    rank_ratio = rep.get("rank_ratio")
    if rank_ratio is not None:
        rank_ratio = _number(f"{where} rank_ratio", rank_ratio)
        merging.check_rank_ratio(rank_ratio, f"{where} rank_ratio")
    return _ReportRow(
        method=rep["method"],
        seed=_integer(f"{where} seed", rep["seed"]),
        languages=tuple(languages),
        alpha=alpha,
        rank_ratio=rank_ratio,
        values=values,
    )


def build_comparison(run_dirs, allow_mixed=False):
    """Method-by-language grid of averaged accuracy from run directories.

    A row is keyed by merge method, tsvm rank ratio and alpha, plus the seed
    when mixed seeds are allowed.  Reports that share a key must be the same
    result (same solver settings and values, as from re-running one config);
    any other collision raises :class:`ConfigError` naming both run
    directories, so no row is dropped silently.  So does a ``metrics.json``
    that is not a run's output: not JSON, no reports list, or a report with a
    missing or ill-typed field.
    """
    docs = []
    for run_dir in run_dirs:
        path = os.path.join(run_dir, "metrics.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read run output {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"run output {path} is not valid JSON: {exc}") from exc
        if not (isinstance(doc, dict) and isinstance(doc.get("reports"), list)):
            raise ConfigError(f"run output {path} holds no reports list")
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise ConfigError(f"run output {path} config must be a JSON object")
        reports = [_report_row(path, index, rep) for index, rep in enumerate(doc["reports"])]
        _refuse_repeated_methods(f"run output {path}", (rep.method for rep in reports))
        docs.append((run_dir, config.get("solver"), reports))
    seeds = {rep.seed for _, _, reports in docs for rep in reports}
    if not seeds:
        raise ConfigError(f"run outputs in {list(run_dirs)} hold no reports")
    if len(seeds) > 1 and not allow_mixed:
        raise ConfigError(f"run dirs mix dataset seeds {sorted(seeds)}; pass --allow-mixed to combine")
    rows = {}
    sources = {}
    languages = None
    for run_dir, solver, reports in docs:
        for rep in reports:
            if languages is None:
                languages = rep.languages
            elif languages != rep.languages:
                raise ConfigError(f"language sets differ across runs: {languages} vs {rep.languages}")
            key = rep.method
            if rep.method != MONO_METHOD and rep.rank_ratio is not None:
                key = f"{rep.method}(r={rep.rank_ratio:g})"
            if rep.alpha != 1.0:
                key = f"{key}@a={rep.alpha:g}"
            if len(seeds) > 1:
                key = f"{key}@seed={rep.seed}"
            if key in rows and (sources[key][1], rows[key]) != (solver, rep.values):
                raise ConfigError(
                    f"runs {sources[key][0]} and {run_dir} give different results for "
                    f"report row {key!r}; report them separately"
                )
            rows[key] = rep.values
            sources[key] = (run_dir, solver)
    return languages, dict(sorted(rows.items()))


def comparison_csv_text(languages, rows):
    return _csv_text(
        ["method", *languages, "avg"],
        ([method, *(_fmt_float(v) for v in values)] for method, values in rows.items()),
    )


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
    make_out_dir(out_dir)
    _write_text(os.path.join(out_dir, "report.csv"), comparison_csv_text(languages, rows))
    _write_text(os.path.join(out_dir, "report.md"), comparison_markdown_text(languages, rows))
