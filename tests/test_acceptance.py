"""Acceptance suite: every release criterion at its stated tolerance.

Each test records one pass/fail line for the terminal summary (see conftest)
and asserts the criterion itself.  Criteria 5-10 run on the benchmark pinned
in configs/default.json.
"""

import os
import time

import numpy as np
import pytest

from lamedit import cli, experiment, metrics
from lamedit.merging import _svd, apply_update, merge, merge_mean, merge_sum, merge_tsvm, truncate_svd
from lamedit.solvers import nullspace_projector, solve_alphaedit, solve_memit

from test_solvers import descend_edit_objective, edit_objective, random_instance
from test_synthdata import recall_of

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def pinned_probes(pinned_bench):
    dataset, model = pinned_bench
    return metrics.probe_batch(model, dataset)


@pytest.fixture(scope="module")
def pinned_reports(pinned_config, pinned_bench, pinned_delta_sets, pinned_probes):
    dataset, model = pinned_bench
    reports = {}
    for mc in pinned_config.merges:
        merged = merge(mc, pinned_delta_sets[mc.cov_mode])
        edited = apply_update(model, merged, pinned_config.alpha)
        (rows,) = metrics.evaluate_all([edited], pinned_probes)
        reports[mc.method] = float(np.mean([r.averaged for r in rows]))
    return reports


@pytest.fixture(scope="module")
def pinned_mono(pinned_config, pinned_bench, pinned_delta_sets, pinned_probes):
    dataset, model = pinned_bench
    rows = metrics.run_mono(model, pinned_probes, pinned_delta_sets["per_language"], pinned_config.alpha)
    report = metrics.MetricsReport(
        method=experiment.MONO_METHOD,
        cov_mode="per_language",
        alpha=pinned_config.alpha,
        rank_ratio=None,
        seed=pinned_config.seed,
        languages=pinned_probes.languages,
        rows=tuple(rows),
    )
    return float(report.mean_row().averaged)


def test_criterion_1_memit_optimality(acceptance_log):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        w, keys, targets, k_const = random_instance(rng, d=16, h=32, n=8, p=64)
        lam = 1.0
        delta = solve_memit(w, keys, targets, k_const @ k_const.T, keys @ keys.T, lam)
        oracle = descend_edit_objective(w, keys, targets, k_const, lam)
        j_solver = edit_objective(w, delta, keys, targets, k_const, lam)
        j_oracle = edit_objective(w, oracle, keys, targets, k_const, lam)
        worst = max(worst, (j_solver - j_oracle) / j_oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60
    acceptance_log(1, ok, f"memit objective within {worst:.2e} of descent oracle on 20 instances ({elapsed:.1f}s)")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_2_alphaedit_preservation(acceptance_log):
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(20):
        w, keys, targets, k_const = random_instance(rng, d=16, h=32, n=8, p=12)
        projector = nullspace_projector(k_const @ k_const.T)
        delta = solve_alphaedit(w, keys, targets, projector, keys @ keys.T, 0.1)
        denom = np.linalg.norm(delta) * np.linalg.norm(k_const)
        assert denom > 0
        worst = max(worst, np.linalg.norm(delta @ k_const) / denom)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60
    acceptance_log(2, ok, f"preserved keys annihilated to {worst:.2e} relative on 20 instances ({elapsed:.1f}s)")
    assert worst <= 1e-8
    assert elapsed < 60


def test_criterion_3_merge_identities(acceptance_log):
    rng = np.random.default_rng(103)
    mats = [rng.standard_normal((12, 16)) for _ in range(5)]
    total = merge_sum(mats)
    mean = merge_mean(mats)
    mean_err = np.max(np.abs(mean - total / 5)) / max(np.max(np.abs(mean)), 1e-300)
    single = rng.standard_normal((12, 16))
    tsvm_err = np.linalg.norm(merge_tsvm([_svd(single)], 1.0) - single) / np.linalg.norm(single)
    # Orthonormality of the stacked factors in a non-overcomplete setting.
    d, h, m_langs, ratio = 12, 16, 3, 0.25
    k = int(np.floor(ratio * d))
    lefts, rights = [], []
    for m in [rng.standard_normal((d, h)) for _ in range(m_langs)]:
        u, s, vt = truncate_svd(m, ratio)
        lefts.append(u)
        rights.append(vt)
    pu, _, qu = np.linalg.svd(np.hstack(lefts), full_matrices=False)
    pv, _, qv = np.linalg.svd(np.vstack(rights), full_matrices=False)
    u_merged, v_merged = pu @ qu, pv @ qv
    mk = m_langs * k
    u_ortho = np.linalg.norm(u_merged.T @ u_merged - np.eye(mk))
    v_ortho = np.linalg.norm(v_merged @ v_merged.T - np.eye(mk))
    ok = mean_err <= 1e-15 and tsvm_err <= 1e-6 and u_ortho <= 1e-8 and v_ortho <= 1e-8
    acceptance_log(
        3, ok,
        f"mean=sum/m to {mean_err:.1e}, tsvm identity to {tsvm_err:.1e}, "
        f"factor orthonormality to {max(u_ortho, v_ortho):.1e}",
    )
    assert mean_err <= 1e-15
    assert tsvm_err <= 1e-6
    assert u_ortho <= 1e-8 and v_ortho <= 1e-8


def test_criterion_4_truncation_optimality(acceptance_log):
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(10):
        m = rng.standard_normal((rng.integers(6, 14), rng.integers(8, 20)))
        ratio = float(rng.choice([0.25, 0.5, 0.75]))
        k_floor = int(np.floor(ratio * m.shape[0]))
        if k_floor < 1:
            ratio = 0.75
        u, s, vt = truncate_svd(m, ratio)
        full_s = np.linalg.svd(m, compute_uv=False)
        expected = np.sqrt(np.sum(full_s[s.size :] ** 2))
        err = np.linalg.norm((u * s) @ vt - m)
        worst = max(worst, abs(err - expected) / max(expected, 1.0))
    ok = worst <= 1e-8
    acceptance_log(4, ok, f"reconstruction error matches discarded-spectrum bound to {worst:.1e} on 10 matrices")
    assert worst <= 1e-8


def test_criterion_5_merge_ordering_analog(acceptance_log, pinned_reports):
    start = time.perf_counter()
    s, m, sc = pinned_reports["sum"], pinned_reports["mean"], pinned_reports["sum_cov"]
    elapsed = time.perf_counter() - start
    ok = s < 0.1 and s < m < sc and (sc - m) >= 0.05
    acceptance_log(
        5, ok,
        f"averaged accuracy sum={s:.3f} < mean={m:.3f} < sum_cov={sc:.3f}, gap {sc - m:.3f} >= 0.05",
    )
    assert s < 0.1
    assert s < m < sc
    assert sc - m >= 0.05


def test_criterion_6_interference_gap(acceptance_log, pinned_reports, pinned_mono):
    best_method, best_value = max(pinned_reports.items(), key=lambda kv: kv[1])
    ok = pinned_mono > best_value
    acceptance_log(
        6, ok,
        f"mono {pinned_mono:.3f} exceeds best multilingual merge {best_method}={best_value:.3f} "
        f"by {pinned_mono - best_value:.3f}",
    )
    assert pinned_mono > best_value


def test_criterion_7_alpha_sweep_interior_max(acceptance_log, pinned_config, pinned_bench):
    dataset, model = pinned_bench
    results, _ = experiment.sweep(pinned_config, dataset, model, "alpha")
    by_method = {r.method: r for r in results}
    details = []
    ok = True
    for name in ("sum_cov", "tsvm"):
        res = by_method[name]
        idx = res.values.index(max(res.values))
        interior = 0 < idx < len(res.grid) - 1
        at_one = res.values[res.grid.index(1.0)]
        ge_one = max(res.values) >= at_one
        ok = ok and interior and ge_one
        details.append(f"{name}: argmax alpha={res.grid[idx]:g} ({max(res.values):.3f} vs {at_one:.3f} at 1.0)")
    acceptance_log(7, ok, "; ".join(details))
    for name in ("sum_cov", "tsvm"):
        res = by_method[name]
        idx = res.values.index(max(res.values))
        assert 0 < idx < len(res.grid) - 1, f"{name} alpha argmax at grid endpoint"
        assert max(res.values) >= res.values[res.grid.index(1.0)]


def test_criterion_8_rank_sweep_low_rank_optimum(acceptance_log, pinned_config, pinned_bench):
    dataset, model = pinned_bench
    results, _ = experiment.sweep(pinned_config, dataset, model, "rank")
    res = next(r for r in results if r.method == "tsvm")
    ok = res.argmax_point <= 0.5
    acceptance_log(
        8, ok,
        f"tsvm rank-sweep argmax r*={res.argmax_point:g} (curve max {max(res.values):.3f})",
    )
    assert res.argmax_point <= 0.5


def test_criterion_9_determinism(acceptance_log, pinned_config, pinned_benchmark_dir, tmp_path):
    config_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "default.json"
    )
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["run", config_path, "--dataset", pinned_benchmark_dir, "--out", out1]) == 0
    assert cli.main(["run", config_path, "--dataset", pinned_benchmark_dir, "--out", out2]) == 0
    byte_identical = True
    for name in ("metrics.csv", "metrics.json"):
        with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
            byte_identical = byte_identical and fa.read() == fb.read()
    acceptance_log(9, byte_identical, f"repeat runs byte-identical={byte_identical}")
    assert byte_identical


def test_criterion_10_pre_edit_sanity(acceptance_log, pinned_bench, pinned_probes):
    dataset, model = pinned_bench
    req_recall, _ = recall_of(model, dataset)
    specificity = float(np.mean([row.specificity for row in metrics.evaluate_all([model], pinned_probes)[0]]))
    ok = req_recall >= 0.95 and specificity >= 0.95
    acceptance_log(
        10, ok,
        f"pre-edit old-token recall {req_recall:.4f} and specificity {specificity:.4f} (floor 0.95)",
    )
    assert req_recall >= 0.95
    assert specificity >= 0.95
