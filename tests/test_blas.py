import contextlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit import blas, cli, experiment, merging, solvers, synthdata
from lamedit import model as model_mod
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.errors import IllConditionedError
from lamedit.merging import MergeConfig

from test_experiment import TINY_CONFIG, tiny_setup, write_config  # noqa: F401 (tiny_setup is a fixture)
from test_model import random_model
from test_solvers import random_preserved

PACKAGES = ("numpy", "scipy")
# The lookup itself, kept for reading counts while a test replaces it.
_thread_setter = blas._thread_setter


def _count(package):
    """The thread count of ``package``'s OpenBLAS, read by setting it and setting it back."""
    setter = _thread_setter(package)
    count = setter(1)
    setter(count)
    return count


def _reports_openblas_with_local_threads(module):
    """Whether ``module.show_config`` reports a scipy-openblas of at least 0.3.27."""
    try:
        blas_info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    if blas_info.get("name") != "scipy-openblas":
        return False
    version = tuple(int(part) for part in blas_info.get("version", "0").split(".")[:3])
    return version >= (0, 3, 27)


def test_bundled_libraries_are_found():
    # A lost library or symbol costs no bits, only the speed-up; this makes it show.
    if not all(_reports_openblas_with_local_threads(module) for module in (np, scipy)):
        pytest.skip("numpy or scipy does not bundle scipy-openblas >= 0.3.27")
    for package in PACKAGES:
        assert blas._thread_setter(package) is not None, package
        assert blas._pool_stopper(package) is not None, package


@pytest.fixture(params=[1, 2], ids=["caller-1", "caller-2"])
def caller_count(request):
    """Set both libraries to the caller's count for the test, then put them back."""
    setters = [_thread_setter(package) for package in PACKAGES]
    if None in setters:
        pytest.skip("a bundled OpenBLAS without openblas_set_num_threads_local")
    previous = [setter(request.param) for setter in setters]
    yield request.param
    for setter, count in zip(setters, previous):
        setter(count)


@contextlib.contextmanager
def numpy_at_scipys_count():
    """numpy's OpenBLAS at scipy's thread count for the body.

    The import-time state, one thread with the idle workers stopped, is put
    back in a ``finally``.
    """
    setter = _thread_setter("numpy")
    if setter is None or _thread_setter("scipy") is None:
        pytest.skip("a bundled OpenBLAS without openblas_set_num_threads_local")
    setter(_count("scipy"))
    try:
        yield
    finally:
        blas._numpy_on_one_thread()


def _os_threads():
    """The number of OS threads in this process, once it holds steady for 5 ms.

    A worker that a pool stop has joined can stay listed for a moment after
    the join returns, until the kernel reaps it.
    """
    count = len(os.listdir("/proc/self/task"))
    for _ in range(200):
        time.sleep(0.005)
        previous, count = count, len(os.listdir("/proc/self/task"))
        if count == previous:
            break
    return count


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")


class TestStopIdlePool:
    def test_counts_unchanged_after_a_stop(self, caller_count):
        matrix = np.random.default_rng(0).standard_normal((64, 64))
        np.linalg.inv(matrix)
        scipy.linalg.lu_factor(matrix)
        for package in PACKAGES:
            blas._stop_idle_pool(package)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    @linux_only
    @pytest.mark.parametrize("caller_count", [2], indirect=True, ids=["caller-2"])
    def test_idle_pools_stop_and_come_back_with_the_next_call(self, caller_count):
        # A pool keeps the workers of the largest count it ran at, so only
        # the direction of each change is machine-independent.  Nothing here
        # sets a count: setting one re-creates a stopped pool.
        matrix = np.random.default_rng(0).standard_normal((256, 256))
        np.linalg.inv(matrix)
        scipy.linalg.lu_factor(matrix)
        before = _os_threads()
        blas._stop_idle_pool("numpy")
        numpy_stopped = _os_threads()
        blas._stop_idle_pool("scipy")
        both_stopped = _os_threads()
        scipy.linalg.lu_factor(matrix)
        assert before > numpy_stopped > both_stopped
        assert _os_threads() == numpy_stopped

    def test_missing_stopper_does_nothing(self, caller_count, monkeypatch):
        monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        before = _os_threads() if sys.platform.startswith("linux") else None
        for package in PACKAGES:
            blas._stop_idle_pool(package)
        if before is not None:
            assert _os_threads() == before
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)


# The environment variables OpenBLAS reads its default thread count from.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Run in a fresh process: each library's thread count before and after
# ``import lamedit``, read by setting it to one and back, as ``_count`` does.
_COUNTS_AROUND_IMPORT = """
import ctypes, glob, json, os
import numpy, scipy, scipy.linalg

def count(module, pattern):
    root = os.path.dirname(os.path.dirname(module.__file__))
    setter = ctypes.CDLL(sorted(glob.glob(os.path.join(root, pattern)))[0]).openblas_set_num_threads_local
    previous = setter(1)
    setter(previous)
    return previous

def counts():
    return {
        "numpy": count(numpy, os.path.join("numpy.libs", "libscipy_openblas64_*")),
        "scipy": count(scipy, os.path.join("scipy.libs", "libscipy_openblas*")),
    }

before = counts()
import lamedit
print(json.dumps({"before": before, "after": counts()}))
"""


def _run_python(code, env, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this checkout's lamedit; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blas.__file__)))
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_puts_numpy_on_one_thread_and_leaves_scipy_at_its_default():
    if None in (_thread_setter("numpy"), _thread_setter("scipy")):
        pytest.skip("a bundled OpenBLAS without openblas_set_num_threads_local")
    env = {key: value for key, value in os.environ.items() if key not in THREAD_ENV}
    counts = json.loads(_run_python(_COUNTS_AROUND_IMPORT, env))
    assert counts["before"]["numpy"] == counts["before"]["scipy"] >= 1
    assert counts["after"] == {"numpy": 1, "scipy": counts["before"]["scipy"]}


@pytest.mark.parametrize(
    "command",
    [["generate"], ["run"], ["run", "--method", "alphaedit"], ["sweep", "--axis", "alpha"], ["sweep", "--axis", "rank"]],
    ids=["generate", "run", "run-alphaedit", "sweep-alpha", "sweep-rank"],
)
def test_thread_scope_entries_per_command(tiny_setup, monkeypatch, command):
    # numpy's count is set once, on import, and no command sets either
    # library's count again: setting it at all re-creates a stopped pool.
    # numpy's eigh, whose bits at h=256 depend on the count, is reached by
    # none of them either; the projector's eigh is scipy's.
    config_path, bench_dir, tmp = tiny_setup
    calls = []
    real = blas._thread_setter

    def setter_spy(package):
        setter = real(package)
        if setter is None:
            pytest.skip(f"{package}'s OpenBLAS has no openblas_set_num_threads_local")
        return lambda count: calls.append((package, count)) or setter(count)

    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy's eigh was called")

    monkeypatch.setattr(blas, "_thread_setter", setter_spy)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    dataset = [] if command[0] == "generate" else ["--dataset", bench_dir]
    argv = [command[0], config_path, *dataset, "--out", str(tmp / "-".join(command)), *command[1:]]
    assert cli.main(argv) == 0
    assert calls == []


@pytest.mark.parametrize(
    "command, spreads",
    [
        (["generate"], 0),
        # The merge-and-score phase: every delta SVD, then every merge, then
        # the scoring stacks.
        (["run"], 3),
        (["run", "--method", "alphaedit"], 3),
        (["sweep", "--axis", "alpha"], 3),
        (["sweep", "--axis", "rank"], 3),
    ],
    ids=["generate", "run", "run-alphaedit", "sweep-alpha", "sweep-rank"],
)
def test_spread_calls_per_command(tiny_setup, monkeypatch, command, spreads):
    # Two cores, so spread starts a worker and a spread inside an item would
    # be called off the main thread.  A spread per merge, per layer or per
    # mode would show in the count.
    config_path, bench_dir, tmp = tiny_setup
    on_main = []
    real_spread = blas.spread

    def spread(fn, items):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real_spread(fn, items)

    monkeypatch.setattr(blas, "spread", spread)
    _cores(monkeypatch, 2)
    dataset = [] if command[0] == "generate" else ["--dataset", bench_dir]
    argv = [command[0], config_path, *dataset, "--out", str(tmp / ("spread-" + "-".join(command))), *command[1:]]
    assert cli.main(argv) == 0
    assert on_main == [True] * spreads


def _record_stops(monkeypatch, events):
    """Append ``("stop", package)`` to ``events`` at every pool stop."""
    real_stop = blas._stop_idle_pool

    def stop(package):
        events.append(("stop", package))
        real_stop(package)

    monkeypatch.setattr(blas, "_stop_idle_pool", stop)


def _spy(monkeypatch, events, library, owner, name):
    """Append ``(library, name)`` to ``events`` at every call of ``owner.name``."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        events.append((library, name))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


# Every scipy routine lamedit calls, set-up's included.
SCIPY_ROUTINES = (
    (scipy.linalg, ("eigh", "lu_factor", "lu_solve", "cho_factor", "cho_solve", "logm", "expm", "svd")),
    (scipy.linalg.lapack, ("dgecon", "dpocon")),
)


def _watch(monkeypatch, events):
    """Append ``(kind, name, where)`` to ``events`` at every scipy call, pool stop and numpy norm or SVD.

    ``kind`` is "scipy", "stop" or "numpy".  ``where`` records the depth of
    :func:`blas.scipy_run` entries, whether the scipy lock is held, whether
    the call runs inside a :func:`blas.spread` item, and whether it runs on
    the main thread.  A ``scipy_run`` entered inside another fails the test
    before it could deadlock.
    """
    depth = [0]
    in_item = threading.local()
    real_run, real_spread, real_stop = blas.scipy_run, blas.spread, blas._stop_idle_pool

    def where():
        return {
            "depth": depth[0],
            "locked": blas._SCIPY_RUN.locked(),
            "item": getattr(in_item, "on", False),
            "main": threading.current_thread() is threading.main_thread(),
        }

    @contextlib.contextmanager
    def scipy_run():
        assert depth[0] == 0, "a scipy_run was entered inside another"
        with real_run():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

    def spread(fn, items):
        def item(x):
            in_item.on = True
            try:
                return fn(x)
            finally:
                in_item.on = False

        return real_spread(item, items)

    def stop(package):
        events.append(("stop", package, where()))
        real_stop(package)

    def spy(kind, owner, name):
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            events.append((kind, name, where()))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    monkeypatch.setattr(blas, "scipy_run", scipy_run)
    monkeypatch.setattr(blas, "spread", spread)
    monkeypatch.setattr(blas, "_stop_idle_pool", stop)
    for owner, names in SCIPY_ROUTINES:
        for name in names:
            spy("scipy", owner, name)
    for name in ("norm", "svd"):
        spy("numpy", np.linalg, name)


def _scipy_runs_left_spinning(events):
    """Indices of numpy calls that follow a scipy run with no scipy stop in between.

    The handover: each run of scipy calls ends in a stop of scipy's idle
    workers before numpy calls again, so they do not take the cores from
    numpy's one-thread kernels.  A run still open at the end counts as -1.
    """
    scipy_ran = False
    unstopped = []
    for index, event in enumerate(events):
        if event[0] == "scipy":
            scipy_ran = True
        elif event[:2] == ("stop", "scipy"):
            scipy_ran = False
        elif event[0] == "numpy" and scipy_ran:
            unstopped.append(index)
    return unstopped + [-1] * scipy_ran


def test_every_alphaedit_scipy_call_runs_inside_the_handover(tmp_path, monkeypatch):
    # alphaedit's projector eigh and each stack's solves in both covariance
    # modes are the only scipy calls, each inside exactly one scipy_run on the main
    # thread; memit makes none.  Two cores, so each spread starts a worker.
    config_path = write_config(tmp_path, dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02}))
    bench = str(tmp_path / "bench")
    assert cli.main(["generate", config_path, "--out", bench]) == 0
    _cores(monkeypatch, 2)
    events = []
    _watch(monkeypatch, events)
    alphaedit = {"eigh", "lu_factor", "dgecon", "lu_solve"}
    inside = {"depth": 1, "locked": True, "item": False, "main": True}
    for command, scipy_names in (
        (["run", "--method", "alphaedit"], alphaedit),
        (["run", "--method", "memit"], set()),
        (["sweep", "--axis", "alpha"], alphaedit),
        (["sweep", "--axis", "rank"], alphaedit),
    ):
        events.clear()
        out = str(tmp_path / "-".join(command))
        assert cli.main([command[0], config_path, "--dataset", bench, "--out", out, *command[1:]]) == 0
        scipy_calls = [event for event in events if event[0] == "scipy"]
        assert {name for _, name, _ in scipy_calls} == scipy_names, command
        assert all(where == inside for _, _, where in scipy_calls), command
        assert all(where["locked"] and where["main"] for kind, _, where in events if kind == "stop"), command
        assert _scipy_runs_left_spinning(events) == [], command
        # The spread items were watched: their SVDs ran, some off the main thread.
        items = [where for kind, name, where in events if (kind, name) == ("numpy", "svd") and where["item"]]
        assert items and not all(where["main"] for where in items), command


def test_handover_frees_the_lock_and_stops_the_pool_when_a_solve_raises(small_bench, monkeypatch):
    dataset, model = small_bench
    requests = dataset.all_language_requests()
    preserved = solvers.preserved_terms(model, dataset.preserved_inputs_all(), "alphaedit", rel_tol=0.02)
    events = []
    _record_stops(monkeypatch, events)
    _spy(monkeypatch, events, "scipy", scipy.linalg.lapack, "dgecon")
    with pytest.raises(IllConditionedError):
        solvers.edit_model(
            model, requests, preserved, solvers.DEFAULT_LAM_ALPHAEDIT, method="alphaedit", cond_limit=1.0
        )
    assert events == [("scipy", "dgecon"), ("stop", "scipy")]
    assert not blas._SCIPY_RUN.locked()


def test_alphaedit_scipy_stops_hold_the_scipy_lock(tmp_path, monkeypatch):
    # Each scipy stop is a scipy_run's, made with its lock held, so a
    # concurrent edit loop never stops scipy's pool under a run in flight.
    held = []
    real_stop = blas._stop_idle_pool

    def stop(package):
        if package == "scipy":
            held.append(blas._SCIPY_RUN.locked())
        real_stop(package)

    monkeypatch.setattr(blas, "_stop_idle_pool", stop)
    config_path = write_config(tmp_path, dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02}))
    bench = str(tmp_path / "bench")
    assert cli.main(["generate", config_path, "--out", bench]) == 0
    held.clear()
    argv = ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "run"), "--method", "alphaedit"]
    assert cli.main(argv) == 0
    # Per edit layer: one stop after the projector's eigh, and one after
    # each stack's solves in each covariance mode.  The tiny benchmark's
    # three languages at h=16 are one stack.
    layers = len(TINY_CONFIG["dataset"]["edit_layers"])
    assert held == [True] * (3 * layers)
    assert not blas._SCIPY_RUN.locked()


@pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
def test_alphaedit_runs_one_handover_per_stack_in_language_order(monkeypatch, cov_mode):
    # At h=192 STACK_BYTES holds two (h, h) systems, so three languages edit
    # as a stack of two and a stack of one.  Each stack's scipy calls run
    # inside one handover on the main thread, in language order, and a stop
    # of scipy's pool follows each; a shared system is factored and checked
    # once, inside the first stack's handover.
    h = 192
    assert model_mod.STACK_BYTES // (8 * h * h) == 2
    rng = np.random.default_rng(43)
    model = random_model(rng, d=16, h=h, n_layers=3, vocab=32, edit_layers=(2, 3))
    requests = [
        solvers.LanguageRequests(lang, rng.standard_normal((16, 8)), rng.integers(0, 32, 8)) for lang in range(3)
    ]
    preserved = random_preserved(rng, "alphaedit", h, model.edit_layers)
    events = []
    _watch(monkeypatch, events)
    watched_run, watched_solve = blas.scipy_run, scipy.linalg.lu_solve
    solutions = []

    @contextlib.contextmanager
    def scipy_run():
        events.append(("enter", "scipy", None))
        with watched_run():
            yield

    def lu_solve(*args, **kwargs):
        solutions.append(watched_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(blas, "scipy_run", scipy_run)
    monkeypatch.setattr(scipy.linalg, "lu_solve", lu_solve)
    (delta_set,) = solvers.edit_model(
        model, requests, preserved, solvers.DEFAULT_LAM_ALPHAEDIT, method="alphaedit", cov_modes=(cov_mode,)
    ).values()
    inside = {"depth": 1, "locked": True, "item": False, "main": True}
    handovers = []
    for kind, name, where in events:
        if kind == "enter":
            handovers.append([])
        elif kind == "scipy":
            assert where == inside, name
            handovers[-1].append(name)
        elif kind == "stop":
            assert name == "scipy" and where["locked"] and where["main"]
            handovers[-1].append("stop")
    if cov_mode == SHARED:
        layer = [["lu_factor", "dgecon", "lu_solve", "lu_solve", "stop"], ["lu_solve", "stop"]]
    else:
        layer = [["lu_factor", "dgecon", "lu_solve"] * 2 + ["stop"], ["lu_factor", "dgecon", "lu_solve", "stop"]]
    assert handovers == layer * len(model.edit_layers)
    assert _scipy_runs_left_spinning(events) == []
    # The k-th solve of a layer is the k-th language's delta.
    deltas = [delta_set.delta(layer, lang) for layer in model.edit_layers for lang in range(3)]
    assert len(solutions) == len(deltas)
    assert all(np.array_equal(solution, delta.T) for solution, delta in zip(solutions, deltas))
    assert not blas._SCIPY_RUN.locked()


def _gesdd_fails_every_other_call(monkeypatch):
    """Make ``np.linalg.svd`` raise on every other call of each thread, its first included.

    ``merging._svd`` makes both of its calls on one thread, so each of its
    factorisations fails once and then takes the fallback on the transpose.
    """
    real_svd = np.linalg.svd
    state = threading.local()

    def svd(*args, **kwargs):
        state.fail = not getattr(state, "fail", False)
        if state.fail:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)


def test_svd_fallback_calls_no_scipy_and_takes_no_lock(monkeypatch):
    class RefusedLock:
        def __getattr__(self, name):
            raise AssertionError(f"the fallback used the scipy lock's {name}")

    def refuse(*args, **kwargs):
        raise AssertionError("the fallback entered the scipy handover or stopped a pool")

    _gesdd_fails_every_other_call(monkeypatch)
    events = []
    for owner, names in SCIPY_ROUTINES:
        for name in names:
            _spy(monkeypatch, events, "scipy", owner, name)
    _spy(monkeypatch, events, "numpy", np.linalg, "svd")
    monkeypatch.setattr(blas, "scipy_run", refuse)
    monkeypatch.setattr(blas, "_stop_idle_pool", refuse)
    monkeypatch.setattr(blas, "_SCIPY_RUN", RefusedLock())
    matrix = np.random.default_rng(0).standard_normal((8, 12))
    u, s, vt = merging._svd(matrix)
    assert events == [("numpy", "svd"), ("numpy", "svd")]
    assert np.allclose((u * s) @ vt, matrix, rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from([64, 256]),
    rank_share=st.floats(0.05, 0.95),
    rel_tol=st.sampled_from([1e-12, solvers.DEFAULT_REL_TOL, 1e-3]),
)
def test_projector_equals_numpys_eigh_at_scipys_count(seed, h, rank_share, rel_tol):
    # The projector's eigh moved from numpy to scipy's dsyevd, the same LAPACK
    # routine; at the same thread count it gives numpy's bits.
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((h, max(1, int(rank_share * h))))
    cov = keys @ keys.T
    got = solvers.nullspace_projector(cov, rel_tol=rel_tol)
    with numpy_at_scipys_count():
        eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    mask = eigvals <= rel_tol * eigvals[-1]
    basis = eigvecs[:, mask]
    projector = basis @ basis.T
    assert 0 < got.null_dim == mask.sum() < h
    assert np.array_equal(got.projector, 0.5 * (projector + projector.T))


# Run in a fresh process on a saved benchmark: the sha256 of memit's deltas
# in both covariance modes.
_MEMIT_DELTA_DIGEST = """
import hashlib, sys
from lamedit import experiment
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.errors import IllConditionedError

dataset, model, _ = experiment.load_benchmark(sys.argv[1])
delta_sets = experiment.compute_delta_sets(model, dataset, experiment.SolverSettings(), [PER_LANGUAGE, SHARED])
digest = hashlib.sha256()
for mode, delta_set in sorted(delta_sets.items()):
    for key in sorted(delta_set.entries):
        digest.update(delta_set.entries[key].tobytes())
print(digest.hexdigest())
"""


def test_memit_deltas_at_h256_do_not_depend_on_the_thread_count(tmp_path):
    # memit inverts and Cholesky-checks its systems in numpy, whose inv and
    # cholesky give other bits at h=256 on one thread than on two; numpy runs
    # on one thread whatever OPENBLAS_NUM_THREADS says.  n_preserved > h, so
    # the preserved keys span every direction and memit's systems are definite.
    cfg = synthdata.GenConfig(
        n_facts=8, m_languages=2, d=128, h=256, n_preserved=320, vocab_size=32, seed=5
    )
    bench = str(tmp_path / "bench")
    experiment.write_benchmark(experiment.ExperimentConfig(seed=cfg.seed, dataset=cfg), bench)
    digests = {
        threads: _run_python(_MEMIT_DELTA_DIGEST, dict(os.environ, OPENBLAS_NUM_THREADS=threads), bench)
        for threads in ("1", "2")
    }
    assert digests["1"] == digests["2"]


def test_scoped_bits_equal_default_thread_bits_at_h256(tmp_path, monkeypatch):
    # h=256 is the shape where a thread-sensitive kernel changes bits (README,
    # Determinism); everything else is shrunk to keep this fast.  Both runs
    # go through the CLI's set-up and merge-and-score functions: one spreads
    # its merges and scores over two cores with numpy on its one thread, the
    # other runs them on one core with numpy at scipy's count, the default
    # count before numpy's was set on import.  Spies record every delta, SVD
    # and merge.
    cfg = synthdata.GenConfig(
        n_facts=8, m_languages=2, d=128, h=256, n_preserved=32, vocab_size=32, seed=5
    )
    config = experiment.ExperimentConfig(
        seed=cfg.seed, dataset=cfg, solver=experiment.SolverSettings(method="alphaedit")
    )
    points = [(m, 1.0) for m in (*experiment.default_merges(), MergeConfig("tsvm", rank_ratio=0.125))]
    real_edit, real_factors, real_merge = solvers.edit_model, merging.delta_factors, merging.merge

    def pipeline(bench_dir):
        dataset, model, _ = experiment.write_benchmark(config, str(bench_dir))
        arrays = {
            "transforms": dataset.transforms,
            "hop_transform": dataset.hop_transform,
            "codebook": model.codebook,
            **{f"w_out{i}": layer.w_out for i, layer in enumerate(model.layers)},
        }

        def edit_model(*args, **kwargs):
            delta_sets = real_edit(*args, **kwargs)
            for cov_mode, delta_set in delta_sets.items():
                for key, delta in delta_set.entries.items():
                    arrays[cov_mode, "delta", key] = delta
            return delta_sets

        def delta_factors(delta_sets, depths):
            all_factors = real_factors(delta_sets, depths)
            for delta_set, factors in zip(delta_sets, all_factors):
                for layer, svds in factors.items():
                    for lang, svd in zip(delta_set.language_ids, svds):
                        for name, array in zip("usv", svd):
                            arrays[delta_set.cov_mode, name, layer, lang] = array
            return all_factors

        def merge(merge_cfg, delta_set, factors=None):
            # Called from the task list's items, on any thread.
            merged = real_merge(merge_cfg, delta_set, factors)
            for layer, array in merged.items():
                arrays["merged", merge_cfg, layer] = array
            return merged

        monkeypatch.setattr(solvers, "edit_model", edit_model)
        monkeypatch.setattr(merging, "delta_factors", delta_factors)
        monkeypatch.setattr(merging, "merge", merge)
        reports = experiment.score_points(config, dataset, model, points, include_mono=True)
        return arrays, reports

    _cores(monkeypatch, 2)
    spread, spread_reports = pipeline(tmp_path / "spread")
    assert all(np.any(spread[key]) for key in spread if "delta" in key)  # real edits, not zeros
    # Every spy saw its calls: deltas and SVDs of both modes, and each merge.
    assert {(key[0], key[1]) for key in spread if len(key) == 3 and key[1] == "delta"} == {
        (PER_LANGUAGE, "delta"), (SHARED, "delta")
    }
    assert {key[0] for key in spread if len(key) == 4} == {PER_LANGUAGE, SHARED}
    assert len({key[1] for key in spread if key[0] == "merged"}) == len(points)
    _cores(monkeypatch, 1)
    with numpy_at_scipys_count():
        serial, serial_reports = pipeline(tmp_path / "serial")
    assert spread.keys() == serial.keys()
    for key, array in spread.items():
        assert np.array_equal(array, serial[key]), key
    assert spread_reports == serial_reports


def _cores(monkeypatch, n):
    """Make ``blas.spread`` see ``n`` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestSpread:
    def test_keeps_input_order(self, monkeypatch):
        _cores(monkeypatch, 4)
        threads = set()

        def slow_square(x):
            threads.add(threading.get_ident())
            time.sleep(0.001 * (x % 3))
            return x * x

        assert blas.spread(slow_square, range(30)) == [x * x for x in range(30)]
        assert len(threads) > 1

    def test_worker_error_keeps_its_type_after_every_worker_finished(self, monkeypatch):
        _cores(monkeypatch, 4)

        class FirstError(Exception):
            pass

        started = threading.active_count()
        finished = []

        def work(x):
            time.sleep(0.005)
            if threading.current_thread() is not threading.main_thread() and x >= 2:
                raise FirstError(x)
            finished.append(x)
            return x

        with pytest.raises(FirstError):
            blas.spread(work, range(40))
        assert threading.active_count() == started
        assert len(finished) < 40  # no item is taken after the first failure

    def test_raises_the_first_failure_in_input_order(self, monkeypatch):
        _cores(monkeypatch, 3)

        def work(x):
            time.sleep(0.01 if x == 3 else 0.0)
            if x == 3:
                raise KeyError(x)
            if x == 5:
                raise ValueError(x)
            return x

        with pytest.raises(KeyError):
            blas.spread(work, range(8))

    def test_each_item_runs_once_under_contention(self, monkeypatch):
        # More workers than cores and a short switch interval, so threads
        # interleave between taking an item and storing its result.
        _cores(monkeypatch, 8)
        calls = []
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: outcome.append(blas.spread(lambda x: calls.append(x) or 3 * x, range(2000)))
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome == [[3 * x for x in range(2000)]]
        assert sorted(calls) == list(range(2000))

    @pytest.mark.parametrize(
        "cores, n, width, lengths",
        [
            (2, 6, 3, [3, 3]),
            (2, 48, 3, [3] * 16),
            (2, 10, 8, [5, 5]),
            (2, 12, 3, [3, 3, 3, 3]),
            (1, 6, 3, [3, 3]),
            (1, 6, 8, [6]),
            (4, 3, 8, [1, 1, 1]),
            (2, 0, 3, []),
        ],
    )
    def test_chunks_are_even_runs_at_most_width_and_one_per_thread(self, monkeypatch, cores, n, width, lengths):
        _cores(monkeypatch, cores)
        runs = blas.chunks(range(n), width)
        assert [len(run) for run in runs] == lengths
        assert [x for run in runs for x in run] == list(range(n))

    def test_one_core_starts_no_thread(self, monkeypatch):
        _cores(monkeypatch, 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("spread started a thread on one core")

        monkeypatch.setattr(threading, "Thread", no_thread)
        callers = set()

        def work(x):
            callers.add(threading.get_ident())
            return -x

        assert blas.spread(work, range(5)) == [0, -1, -2, -3, -4]
        assert callers == {threading.get_ident()}

    def test_without_sched_getaffinity_it_counts_the_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threads = set()

        def work(x):
            threads.add(threading.get_ident())
            time.sleep(0.001)
            return x + 1

        assert blas.spread(work, range(20)) == list(range(1, 21))
        assert len(threads) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert blas.spread(work, range(20)) == list(range(1, 21))

    def test_without_numpys_thread_setter_starts_no_thread(self, monkeypatch):
        # numpy then stays at its default count, so an item's kernels may already use every core.
        _cores(monkeypatch, 4)
        monkeypatch.setattr(blas, "_thread_setter", lambda package: None)

        def no_thread(*args, **kwargs):
            raise AssertionError("spread started a thread without numpy's thread setter")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert blas.spread(lambda x: 2 * x, range(6)) == [0, 2, 4, 6, 8, 10]

    def test_no_worker_calls_scipy_or_stops_a_pool(self, tmp_path, monkeypatch):
        # gesdd is made to fail on every other call of each thread, so every
        # merge SVD, on whichever thread, takes the fallback on the transpose.
        config_path = write_config(tmp_path, dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02}))
        bench = str(tmp_path / "bench")
        assert cli.main(["generate", config_path, "--out", bench]) == 0
        _cores(monkeypatch, 2)
        _gesdd_fails_every_other_call(monkeypatch)
        events = []
        _watch(monkeypatch, events)
        for argv in (
            ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "run")],
            ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "sweep"), "--axis", "rank"],
        ):
            assert cli.main(argv) == 0
        fallbacks = [where for kind, name, where in events if (kind, name) == ("numpy", "svd") and where["item"]]
        assert any(not where["main"] for where in fallbacks), "no fallback ran on a worker, so the guard watched nothing"
        assert all(where["main"] and not where["item"] for kind, _, where in events if kind in ("scipy", "stop"))

    def test_spread_fallback_factors_equal_serial_ones(self, monkeypatch):
        rng = np.random.default_rng(3)
        layers, languages = (2, 3), (0, 1, 2, 3)
        delta_set = solvers.DeltaSet(
            cov_mode=PER_LANGUAGE,
            layers=layers,
            language_ids=languages,
            entries={
                (layer, lang): rng.standard_normal((24, 4)) @ rng.standard_normal((4, 40))
                for layer in layers
                for lang in languages
            },
        )
        real_svd = np.linalg.svd
        _gesdd_fails_every_other_call(monkeypatch)
        _cores(monkeypatch, 1)
        (serial,) = merging.delta_factors([delta_set], [24])
        _cores(monkeypatch, 4)
        (spread,) = merging.delta_factors([delta_set], [24])
        assert serial.keys() == spread.keys()
        for layer in layers:
            for lang, serial_svd, spread_svd in zip(languages, serial[layer], spread[layer]):
                u, s, vt = real_svd(delta_set.delta(layer, lang).T, full_matrices=False)
                for got, want, transposed in zip(spread_svd, serial_svd, (vt.T, s, u.T)):
                    assert np.array_equal(got, want)
                    assert np.array_equal(got, transposed)
