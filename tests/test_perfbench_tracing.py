"""The benchmark's tracer still fits the package it wraps.

``perfbench/tracing.py`` wraps lamedit functions by name and its observers
read their arguments, so renaming or deleting one of them, or changing what
an observer reads, breaks only a traced benchmark run.  These tests load the
tracer unmodified and drive the CLI paths the benchmark drives, traced.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os

import numpy as np
import pytest

from lamedit import cli, container, covariance, merging, solvers

from test_experiment import TINY_CONFIG, write_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(REPO_ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
COMMANDS = {"run": ["run"], "alpha": ["sweep", "--axis", "alpha"], "rank": ["sweep", "--axis", "rank"]}


@pytest.mark.parametrize("name", tracing._function_names())
def test_every_traced_function_resolves(name):
    module_name, fn_name = name.split(".")
    module = importlib.import_module(f"lamedit.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"lamedit.{name} is gone"


def test_traced_cli_paths_finish_and_observe(tmp_path):
    # generate, then run and both sweeps for each solver method, all traced;
    # an observer that no longer fits its function raises out of the call.
    configs = {
        method: write_config(
            tmp_path,
            dict(TINY_CONFIG, solver={"method": method, "rel_tol": 0.02}),
            name=f"{method}.json",
        )
        for method in ("memit", "alphaedit")
    }
    bench = str(tmp_path / "bench")
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        tracer.begin_op("generate")
        assert cli.main(["generate", configs["memit"], "--out", bench]) == 0
        for method, config_path in configs.items():
            for name, command in COMMANDS.items():
                tracer.begin_op(f"{method}-{name}")
                out = str(tmp_path / method / name)
                argv = [command[0], config_path, "--dataset", bench, "--out", out, *command[1:]]
                assert cli.main(argv) == 0, argv
        # Functions on the benchmark's list that no CLI path calls.
        tracer.begin_op("direct")
        model = container.load_model(os.path.join(bench, "model.lam"))
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((model.d, 3))
        layer = model.edit_layers[0]
        cov, _ = covariance.const_stats(model, inputs, layer)
        request = covariance.request_keys(model, inputs, layer)
        targets = rng.standard_normal((model.d, 3))
        w_out = model.layer(layer).w_out
        projector = solvers.nullspace_projector(cov)
        solvers.solve_memit(w_out, request, targets, np.eye(model.h), cov, 1.0)
        solvers.solve_alphaedit(w_out, request, targets, projector, cov, 0.1)
        merging.truncate_svd(w_out, 0.5)

    ops = [f"{method}-{name}" for method in configs for name in COMMANDS]
    for op in ops:
        assert "solvers.edit_model" in {span.name for span in tracer.op_spans(op)}, op
    assert set(tracing.OBSERVERS) <= {span.name for span in tracer.spans}
    for span in tracer.spans:
        assert span.error is None, span
        if span.name in tracing.OBSERVERS:
            assert span.extra, span
    # The benchmark's aggregation reads every observation.
    report = tracing.layer_report(
        [tracer.op_spans(op) for op in ops], tracer.op_spans("generate"), 0.0, 1.0
    )
    assert report["solvers.edit_model.calls"] >= 1
    json.dumps(report)
