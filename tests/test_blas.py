import contextlib
import os
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from lamedit import blas, cli, experiment, merging, metrics, solvers, synthdata
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.merging import MergeConfig

from test_experiment import TINY_CONFIG, tiny_setup, write_config  # noqa: F401 (tiny_setup is a fixture)

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
            blas.stop_idle_pool(package)
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
        blas.stop_idle_pool("numpy")
        numpy_stopped = _os_threads()
        blas.stop_idle_pool("scipy")
        both_stopped = _os_threads()
        scipy.linalg.lu_factor(matrix)
        assert before > numpy_stopped > both_stopped
        assert _os_threads() == numpy_stopped

    def test_missing_stopper_does_nothing(self, caller_count, monkeypatch):
        monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        before = _os_threads() if sys.platform.startswith("linux") else None
        for package in PACKAGES:
            blas.stop_idle_pool(package)
        if before is not None:
            assert _os_threads() == before
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)


class TestQuiet:
    def test_one_thread_inside_and_the_callers_count_after(self, caller_count):
        with blas.quiet():
            assert (_count("numpy"), _count("scipy")) == (1, caller_count)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    def test_restored_after_an_exception(self, caller_count):
        with pytest.raises(ZeroDivisionError):
            with blas.quiet():
                1 / 0
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    @linux_only
    @pytest.mark.parametrize("caller_count", [2], indirect=True, ids=["caller-2"])
    def test_pool_stays_stopped_through_a_gesdd(self, caller_count):
        # Nothing inside reads a count: setting one, even from 1 to 1,
        # re-creates a stopped pool.
        rng = np.random.default_rng(0)
        np.linalg.inv(rng.standard_normal((256, 256)))
        matrix = rng.standard_normal((128, 256))
        before = _os_threads()
        with blas.quiet():
            inside = _os_threads()
            merging._svd(matrix)
            assert _os_threads() == inside
        assert before > inside

    @pytest.mark.parametrize("missing", ["library", "setter"])
    def test_missing_library_or_setter_does_nothing(self, caller_count, monkeypatch, missing):
        matrix = np.random.default_rng(0).standard_normal((24, 40))
        expected = np.linalg.svd(matrix, full_matrices=False)
        monkeypatch.setattr(blas, "_thread_setter", lambda package: None)
        if missing == "library":
            monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        before = _os_threads() if sys.platform.startswith("linux") else None
        with blas.quiet():
            if before is not None:
                assert _os_threads() == before
            assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)
            factors = merging._svd(matrix)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)
        for got, want in zip(factors, expected):
            assert np.array_equal(got, want)

    def test_missing_stopper_still_runs_on_one_thread(self, caller_count, monkeypatch):
        monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        with blas.quiet():
            assert (_count("numpy"), _count("scipy")) == (1, caller_count)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)


def _numpy_setter_calls(monkeypatch):
    """Record every count passed to numpy's thread setter, in the returned list."""
    real = blas._thread_setter
    setter = real("numpy")
    if setter is None:
        pytest.skip("numpy's OpenBLAS has no openblas_set_num_threads_local")
    calls = []

    def spy(count):
        calls.append(count)
        return setter(count)

    monkeypatch.setattr(blas, "_thread_setter", lambda package: spy if package == "numpy" else real(package))
    return calls


@pytest.mark.parametrize(
    "command, entries",
    [
        # Set-up: the rotations and the backbone fit, in one phase.
        (["generate"], 1),
        # The merge phase; memit's edit loop enters no scope.
        (["run"], 1),
        # alphaedit's edit loops, both covariance modes in one phase, then the merge phase.
        (["run", "--method", "alphaedit"], 1 + 1),
        # The merge phase, holding every grid point's merges.
        (["sweep", "--axis", "alpha"], 1),
        (["sweep", "--axis", "rank"], 1),
    ],
    ids=["generate", "run", "run-alphaedit", "sweep-alpha", "sweep-rank"],
)
def test_thread_scope_entries_per_command(tiny_setup, monkeypatch, command, entries):
    # Every scope sets numpy's count once on entry and once on exit.  A
    # scope per merge or per SVD (10 per tsvm merge here) would show here.
    config_path, bench_dir, tmp = tiny_setup
    calls = _numpy_setter_calls(monkeypatch)
    dataset = [] if command[0] == "generate" else ["--dataset", bench_dir]
    argv = [command[0], config_path, *dataset, "--out", str(tmp / "-".join(command)), *command[1:]]
    assert cli.main(argv) == 0
    assert len(calls) == 2 * entries


def _record_stops(monkeypatch, events):
    """Append ``("stop", package)`` to ``events`` at every ``blas.stop_idle_pool``."""
    real_stop = blas.stop_idle_pool

    def stop(package):
        events.append(("stop", package))
        real_stop(package)

    monkeypatch.setattr(blas, "stop_idle_pool", stop)


def _spy(monkeypatch, events, library, owner, name):
    """Append ``(library, name)`` to ``events`` at every call of ``owner.name``."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        events.append((library, name))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


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
        elif event == ("stop", "scipy"):
            scipy_ran = False
        elif event[0] == "numpy" and scipy_ran:
            unstopped.append(index)
    return unstopped + [-1] * scipy_ran


def test_every_alphaedit_scipy_call_runs_inside_the_handover(tmp_path, monkeypatch):
    # Covers alphaedit's phase 2 in both covariance modes, and the rank
    # sweep's merges after it.
    events = []
    _record_stops(monkeypatch, events)
    for library, owner, name in (
        ("numpy", np.linalg, "norm"),
        ("numpy", np.linalg, "svd"),
        ("scipy", scipy.linalg, "lu_factor"),
        ("scipy", scipy.linalg, "lu_solve"),
        ("scipy", scipy.linalg.lapack, "dgecon"),
    ):
        _spy(monkeypatch, events, library, owner, name)

    doc = dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02})
    config_path = write_config(tmp_path, doc)
    bench = str(tmp_path / "bench")
    assert cli.main(["generate", config_path, "--out", bench]) == 0
    events.clear()
    for argv in (
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "alpha"), "--method", "alphaedit"],
        ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "rank"), "--axis", "rank"],
    ):
        assert cli.main(argv) == 0
    assert {event for event in events if event[0] == "scipy"} == {
        ("scipy", name) for name in ("lu_factor", "lu_solve", "dgecon")
    }
    assert _scipy_runs_left_spinning(events) == []


def test_svd_fallback_runs_inside_the_handover(monkeypatch):
    events = []
    _record_stops(monkeypatch, events)

    def failing_gesdd(*args, **kwargs):
        events.append(("numpy", "svd"))
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_gesdd)
    _spy(monkeypatch, events, "scipy", scipy.linalg, "svd")
    merging._svd(np.random.default_rng(0).standard_normal((8, 12)))
    assert events == [("numpy", "svd"), ("scipy", "svd"), ("stop", "scipy")]
    assert _scipy_runs_left_spinning(events) == []


# numpy's kernels whose bits depend on the thread count at h=256 (README,
# Determinism).  scipy's run at scipy's default count, inside a scope or not.
SENSITIVE = ("inv", "cholesky", "eigh")


def test_no_thread_sensitive_kernel_runs_inside_a_scope(tmp_path, monkeypatch):
    # A quiet scope holds numpy on one thread, so none of numpy's sensitive
    # kernels may run in one; and no scope may be entered inside another,
    # since re-setting numpy's count re-creates the pool the outer one stopped.
    depth = [0]
    nested = []
    calls = []
    real_quiet = blas.quiet

    @contextlib.contextmanager
    def tracked():
        nested.append(depth[0] > 0)
        with real_quiet():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

    monkeypatch.setattr(blas, "quiet", tracked)
    for name in SENSITIVE:
        original = getattr(np.linalg, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, depth[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)

    config_path = write_config(tmp_path)
    bench = str(tmp_path / "bench")
    for argv in (
        ["generate", config_path, "--out", bench],
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "memit")],
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "alpha"), "--method", "alphaedit"],
        ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "sweep"), "--axis", "alpha"],
        ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "sweep"), "--axis", "rank"],
    ):
        assert cli.main(argv) == 0
    # Set-up, alphaedit's edit loops and four merge phases, one scope each.
    assert nested == [False] * 6
    # Every spied kernel was reached, so the guard watched real calls.
    assert {name for name, _ in calls} == set(SENSITIVE)
    assert [name for name, inside in calls if inside] == []


def test_scoped_bits_equal_default_thread_bits_at_h256(tmp_path, monkeypatch):
    # h=256 is the shape where a thread-sensitive kernel changes bits (README,
    # Determinism); everything else is shrunk to keep this fast.  Both runs
    # go through the CLI's set-up and merge-and-score functions: the scoped
    # run spreads its merges and scores over two cores, the other runs them
    # on one core at the default count, with no scope anywhere.  Spies
    # record every delta, SVD and merge, and the scope depth at set-up and
    # at each edit_model call.
    cfg = synthdata.GenConfig(
        n_facts=8, m_languages=2, d=128, h=256, n_preserved=32, vocab_size=32, seed=5
    )
    config = experiment.ExperimentConfig(
        seed=cfg.seed, dataset=cfg, solver=experiment.SolverSettings(method="alphaedit")
    )
    points = [(m, 1.0) for m in (*experiment.default_merges(), MergeConfig("tsvm", rank_ratio=0.125))]
    real_edit, real_factors, real_build = solvers.edit_model, merging.delta_factors, experiment.build_merges
    real_setup, real_quiet = synthdata.build_benchmark, blas.quiet
    depth = [0]

    @contextlib.contextmanager
    def tracked_quiet():
        with real_quiet():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

    def pipeline(bench_dir):
        depths = []

        def build_benchmark(gen_config):
            depths.append(("set-up", depth[0]))
            return real_setup(gen_config)

        monkeypatch.setattr(synthdata, "build_benchmark", build_benchmark)
        dataset, model, _ = experiment.write_benchmark(config, str(bench_dir))
        arrays = {
            "transforms": dataset.transforms,
            "hop_transform": dataset.hop_transform,
            "codebook": model.codebook,
            **{f"w_out{i}": layer.w_out for i, layer in enumerate(model.layers)},
        }

        def edit_model(*args, cov_mode, **kwargs):
            depths.append((cov_mode, depth[0]))
            delta_set = real_edit(*args, cov_mode=cov_mode, **kwargs)
            for key, delta in delta_set.entries.items():
                arrays[cov_mode, "delta", key] = delta
            return delta_set

        def delta_factors(delta_set):
            factors = real_factors(delta_set)
            for layer, svds in factors.items():
                for lang, svd in zip(delta_set.language_ids, svds):
                    for name, array in zip("usv", svd):
                        arrays[delta_set.cov_mode, name, layer, lang] = array
            return factors

        def build_merges(delta_sets, merge_cfgs):
            merged = real_build(delta_sets, merge_cfgs)
            for index, one in enumerate(merged.values()):
                for layer, array in one.items():
                    arrays["merged", index, layer] = array
            return merged

        monkeypatch.setattr(solvers, "edit_model", edit_model)
        monkeypatch.setattr(merging, "delta_factors", delta_factors)
        monkeypatch.setattr(experiment, "build_merges", build_merges)
        reports = experiment.score_points(config, dataset, model, points, include_mono=True)
        return arrays, reports, depths

    monkeypatch.setattr(blas, "quiet", tracked_quiet)
    _cores(monkeypatch, 2)
    scoped, scoped_reports, depths = pipeline(tmp_path / "scoped")
    # Set-up and alphaedit's edits of both modes ran in a scope, so the
    # comparison below covers them.
    assert depths == [("set-up", 1), (PER_LANGUAGE, 1), (SHARED, 1)]
    assert all(np.any(scoped[key]) for key in scoped if "delta" in key)  # real edits, not zeros
    # Every spy saw its calls: deltas and SVDs of both modes, and each merge.
    assert {(key[0], key[1]) for key in scoped if len(key) == 3 and key[1] == "delta"} == {
        (PER_LANGUAGE, "delta"), (SHARED, "delta")
    }
    assert {key[0] for key in scoped if len(key) == 4} == {PER_LANGUAGE, SHARED}
    assert len({key[1] for key in scoped if key[0] == "merged"}) == len(points)
    monkeypatch.setattr(blas, "quiet", contextlib.nullcontext)
    _cores(monkeypatch, 1)
    unscoped, unscoped_reports, depths = pipeline(tmp_path / "unscoped")
    assert depths == [("set-up", 0), (PER_LANGUAGE, 0), (SHARED, 0)]
    assert scoped.keys() == unscoped.keys()
    for key, array in scoped.items():
        assert np.array_equal(array, unscoped[key]), key
    assert scoped_reports == unscoped_reports


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
        # quiet is then a no-op, so an item's kernels may already use every core.
        _cores(monkeypatch, 4)
        monkeypatch.setattr(blas, "_thread_setter", lambda package: None)

        def no_thread(*args, **kwargs):
            raise AssertionError("spread started a thread without numpy's thread setter")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert blas.spread(lambda x: 2 * x, range(6)) == [0, 2, 4, 6, 8, 10]

    def test_no_worker_enters_quiet_or_stops_a_pool_outside_the_locked_fallback(
        self, tmp_path, monkeypatch
    ):
        # gesdd is made to fail, so every merge SVD, on whichever thread,
        # takes the gesvd fallback and stops scipy's pool.
        _cores(monkeypatch, 2)
        main = threading.main_thread()
        scopes = []
        stops = []
        owner = [None]
        real_quiet, real_stop, real_lock = blas.quiet, blas.stop_idle_pool, blas.SCIPY_RUN

        @contextlib.contextmanager
        def tracked_quiet():
            scopes.append(threading.current_thread() is main)
            with real_quiet():
                yield

        def tracked_stop(package):
            on_main = threading.current_thread() is main
            stops.append((package, on_main, owner[0] == threading.get_ident()))
            real_stop(package)

        class TrackedLock:
            def __enter__(self):
                real_lock.acquire()
                owner[0] = threading.get_ident()

            def __exit__(self, *exc):
                owner[0] = None
                real_lock.release()

        def failing_gesdd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(blas, "quiet", tracked_quiet)
        monkeypatch.setattr(blas, "stop_idle_pool", tracked_stop)
        monkeypatch.setattr(blas, "SCIPY_RUN", TrackedLock())
        config_path = write_config(tmp_path, dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02}))
        bench = str(tmp_path / "bench")
        assert cli.main(["generate", config_path, "--out", bench]) == 0
        monkeypatch.setattr(np.linalg, "svd", failing_gesdd)
        for argv in (
            ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "run")],
            ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "sweep"), "--axis", "rank"],
        ):
            assert cli.main(argv) == 0
        assert scopes and all(scopes)
        off_main = [stop for stop in stops if not stop[1]]
        assert off_main, "no fallback ran on a worker, so the guard watched nothing"
        assert all(package == "scipy" and locked for package, _, locked in off_main)

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
        running = [0]
        most = [0]
        count_lock = threading.Lock()
        real_svd = scipy.linalg.svd

        def failing_gesdd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        def counted_svd(*args, **kwargs):
            with count_lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.002)
                return real_svd(*args, **kwargs)
            finally:
                with count_lock:
                    running[0] -= 1

        monkeypatch.setattr(np.linalg, "svd", failing_gesdd)
        monkeypatch.setattr(scipy.linalg, "svd", counted_svd)
        _cores(monkeypatch, 1)
        serial = merging.delta_factors(delta_set)
        _cores(monkeypatch, 4)
        spread = merging.delta_factors(delta_set)
        assert most[0] == 1
        assert serial.keys() == spread.keys()
        for layer in layers:
            for serial_svd, spread_svd in zip(serial[layer], spread[layer]):
                for got, want in zip(spread_svd, serial_svd):
                    assert np.array_equal(got, want)
