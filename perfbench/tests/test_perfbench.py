"""Checks on the benchmark itself.

    python -m pytest perfbench/tests -q

One traced run per workload at the pinned seed (about a minute in all) backs
the call-count, repeated-work, stage-total and correctness checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Calls per op at seed 5; the shape of each workload's op.
EXPECTED_CALLS = {
    "pinned-run": {
        "solvers.edit_model": 14,
        "covariance.const_stats": 42,
        "solvers.solve_memit": 108,
        "merging.merge": 6,
        "metrics.evaluate_all": 6,
        "metrics.run_mono": 12,
    },
    "pinned-sweep": {
        "solvers.edit_model": 4,
        "solvers.solve_memit": 144,
        "merging.merge": 22,
        "merging.truncate_svd": 648,
        "metrics.evaluate_all": 64,
        "model.predict_batch": 3072,
    },
    "wide-alphaedit": {
        "solvers.edit_model": 8,
        "solvers.nullspace_projector": 24,
        "solvers.solve_alphaedit": 54,
        "metrics.run_mono": 6,
    },
}

# Distinct inputs over calls, per op.
EXPECTED_UNIQUE = {
    "pinned-run": {
        "covariance.const_stats.unique_ratio": (3, 42),
        "solvers.solve.unique_ratio": (72, 108),
    },
    "pinned-sweep": {
        "covariance.const_stats.unique_ratio": (3, 12),
        "solvers.solve.unique_ratio": (72, 144),
        "merging.truncate_svd.unique_ratio": (72, 648),
    },
    "wide-alphaedit": {
        "covariance.const_stats.unique_ratio": (3, 24),
        "solvers.solve.unique_ratio": (36, 54),
        "solvers.nullspace_projector.unique_ratio": (3, 24),
    },
}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    result, tracer = run.run_workload(request.param, workloads.PINNED_SEED, seconds=0, trace=True)
    return request.param, result, tracer


def _traced_ops(result):
    return [f"op{i}" for i in range(len(result["samples"]["traced_wall_s"]))]


def test_traced_ops_are_correct(traced):
    name, result, _ = traced
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["fail_ratio"] == 0
    assert set(result["sha256"]) == workloads.expected_files(workloads.WORKLOADS[name])


def test_call_counts_match_workload_shape(traced):
    name, result, tracer = traced
    for op in _traced_ops(result):
        calls = tracing.span_metrics(tracer.op_spans(op))
        got = {fn: calls[f"{fn}.calls"] for fn in EXPECTED_CALLS[name]}
        assert got == EXPECTED_CALLS[name], op
    for fn, count in EXPECTED_CALLS[name].items():
        assert result["metrics"][f"{fn}.calls"]["value"] == count


def test_unique_ratios(traced):
    name, result, _ = traced
    for metric, (distinct, calls) in EXPECTED_UNIQUE[name].items():
        assert result["metrics"][metric]["value"] == distinct / calls, metric


def test_stage_totals_add_up_to_op_wall_time(traced):
    _, result, _ = traced
    for coverage in result["samples"]["coverage"]:
        assert 0.95 <= coverage <= 1.05


def test_fit_solves_are_seen_under_setup(traced):
    """``synthdata`` binds ``solve_memit`` by name; the wrapper must still see the fit's solves."""
    _, _, tracer = traced
    spans = tracer.op_spans("setup")
    by_id = {s.id: s for s in spans}

    def under_fit(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "synthdata.fit_initial_model":
                return True
        return False

    fit_solves = [s for s in spans if s.name == "solvers.solve_memit" and under_fit(s)]
    assert fit_solves and len(fit_solves) % 3 == 0  # passes x edit layers
    assert all(s.op == "setup" for s in fit_solves)


def test_check_rejects_changed_outputs_and_wrong_hit_counts(tmp_path):
    workload = workloads.WORKLOADS["pinned-run"]
    reference = run.load_reference(workload.name)
    bench = run.Bench(workload, workloads.PINNED_SEED, str(tmp_path / "work"), reference)
    bench.setup()
    bench.op()
    assert bench.failures == []
    assert bench.check() is None

    csv_path = os.path.join(bench.out_dir, "metrics.csv")
    original = open(csv_path, "rb").read()
    with open(csv_path, "ab") as fh:
        fh.write(b"\n")
    assert "differ from the first op" in bench.check()
    with open(csv_path, "wb") as fh:
        fh.write(original)

    wrong = json.loads(json.dumps(reference))
    wrong["run"]["mono"]["en"][0] += 1
    bench.reference = wrong
    assert "hit counts differ" in bench.check()


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in ("run.py", "tracing.py", "workloads.py", "reference.json"):
        shutil.copy(os.path.join(BENCH_DIR, name), tmp_path / "perfbench")
    argv = [sys.executable, "perfbench/run.py", "--workload", "pinned-run", "--seed", "5"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
