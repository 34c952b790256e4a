"""``lamedit`` command line: generate, run, sweep, report.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

import numpy as np

from . import experiment, merging, solvers
from .errors import (
    ConfigError,
    ContainerError,
    EmptyNullSpaceWarning,
    FitError,
    IllConditionedError,
    LameditError,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lamedit",
        description="Batch knowledge editing and merge-strategy experiments on a synthetic benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate the benchmark dataset and fit its backbone")
    gen.add_argument("config", help="experiment config (JSON)")
    gen.add_argument("--out", required=True, help="benchmark output directory")
    gen.add_argument("--force", action="store_true", help="overwrite an existing benchmark")

    run = sub.add_parser("run", help="edit, merge, and evaluate all configured methods")
    run.add_argument("config", help="experiment config (JSON)")
    run.add_argument("--dataset", required=True, help="benchmark directory from `lamedit generate`")
    run.add_argument("--out", required=True, help="run output directory")
    run.add_argument("--method", choices=solvers.METHODS, help="override solver method")
    run.add_argument(
        "--merge",
        action="append",
        choices=merging.MERGE_METHODS,
        help="restrict to these merge methods (repeatable)",
    )
    run.add_argument("--alpha", type=float, help="override the anchor weight scale")
    run.add_argument("--rank-ratio", type=float, help="override tsvm rank ratio")
    run.add_argument("--no-mono", action="store_true", help="skip the mono baseline")

    swp = sub.add_parser("sweep", help="sweep weight scale or rank ratio")
    swp.add_argument("config", help="experiment config (JSON)")
    swp.add_argument("--dataset", required=True, help="benchmark directory")
    swp.add_argument("--out", required=True, help="sweep output directory")
    swp.add_argument("--axis", choices=("alpha", "rank"), required=True)

    rep = sub.add_parser("report", help="combine run outputs into a comparison table")
    rep.add_argument("run_dirs", nargs="+", help="run directories holding metrics.json")
    rep.add_argument("--out", required=True, help="report output directory")
    rep.add_argument("--allow-mixed", action="store_true", help="allow runs from different seeds")
    return parser


def _apply_run_overrides(config, args):
    from dataclasses import replace

    if args.method:
        config = replace(config, solver=replace(config.solver, method=args.method))
    merges = list(config.merges)
    if args.merge:
        chosen = list(dict.fromkeys(args.merge))
        by_name = {m.method: m for m in merges}
        merges = [
            by_name.get(name, experiment.MergeConfig(name, rank_ratio=experiment.DEFAULT_TSVM_RANK))
            for name in chosen
        ]
    if args.rank_ratio is not None:
        merges = [
            replace(m, rank_ratio=args.rank_ratio) if m.base_rule == "tsvm" else m for m in merges
        ]
    config = replace(config, merges=tuple(merges))
    if args.alpha is not None:
        config = replace(config, alpha=args.alpha)
    if args.no_mono:
        config = replace(config, include_mono=False)
    return config


def cmd_generate(args):
    config = experiment.load_config(args.config)
    dataset, model, manifest = experiment.write_benchmark(config, args.out, force=args.force)
    fit = manifest["fit"]
    print(
        f"benchmark written to {args.out}: {dataset.n_facts} facts x {dataset.m_languages} languages, "
        f"{dataset.n_preserved} preserved facts, vocab {dataset.config.vocab_size}"
    )
    print(
        f"fit attempt {fit['attempt']}: request recall {fit['request_recall']:.4f}, "
        f"preserved recall {fit['preserved_recall']:.4f}"
    )
    return 0


def cmd_run(args):
    config = _apply_run_overrides(experiment.load_config(args.config), args)
    dataset, model, manifest = experiment.load_benchmark(args.dataset, config)
    experiment.make_out_dir(args.out)
    reports = experiment.run_experiment(config, dataset, model)
    experiment.write_run_outputs(args.out, config, reports, manifest)
    for rep in reports:
        mean = rep.mean_row()
        print(f"{rep.method:10s} averaged={mean.averaged:.4f} efficacy={mean.efficacy:.4f}")
    print(f"run outputs written to {args.out}")
    return 0


def cmd_sweep(args):
    config = experiment.load_config(args.config)
    dataset, model, manifest = experiment.load_benchmark(args.dataset, config)
    experiment.make_out_dir(args.out)
    results, point_reports = experiment.sweep(config, dataset, model, args.axis)
    experiment.write_sweep_outputs(args.out, config, args.axis, results, point_reports)
    for result in results:
        print(
            f"{result.method:10s} best {args.axis}={result.argmax_point:g} "
            f"averaged={max(result.values):.4f}"
        )
    print(f"sweep outputs written to {args.out}")
    return 0


def cmd_report(args):
    languages, rows = experiment.build_comparison(args.run_dirs, allow_mixed=args.allow_mixed)
    experiment.write_comparison(args.out, languages, rows)
    print(experiment.comparison_markdown_text(languages, rows), end="")
    return 0


def _show_warning(show, message, category, *args, **kwargs):
    """Print the package's warnings as one ``warning:`` line on stderr, others through ``show``."""
    if issubclass(category, EmptyNullSpaceWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, *args, **kwargs)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "report": cmd_report,
    }
    with warnings.catch_warnings():
        # Print each of the package's warnings every time it is issued, not once per process.
        warnings.simplefilter("always", EmptyNullSpaceWarning)
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        try:
            return handlers[args.command](args)
        except (ConfigError, ContainerError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (IllConditionedError, FitError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except LameditError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
