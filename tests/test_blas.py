import contextlib
import os
import sys

import numpy as np
import pytest
import scipy.linalg

from lamedit import blas, cli, merging, solvers, synthdata
from lamedit.covariance import PER_LANGUAGE, SHARED

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


class TestOneThread:
    def test_one_thread_inside_and_the_callers_count_after(self, caller_count):
        with blas.one_thread():
            assert (_count("numpy"), _count("scipy")) == (1, caller_count)
        with blas.one_thread(scipy=True):
            assert (_count("numpy"), _count("scipy")) == (1, 1)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    def test_restored_after_an_exception(self, caller_count):
        with pytest.raises(ZeroDivisionError):
            with blas.one_thread(scipy=True):
                1 / 0
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    def test_restored_when_nested(self, caller_count):
        with blas.one_thread():
            with blas.one_thread(scipy=True):
                assert (_count("numpy"), _count("scipy")) == (1, 1)
            assert (_count("numpy"), _count("scipy")) == (1, caller_count)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    def test_missing_library_leaves_count_and_result_alone(self, caller_count, monkeypatch):
        matrix = np.random.default_rng(0).standard_normal((24, 40))
        expected = np.linalg.svd(matrix, full_matrices=False)
        monkeypatch.setattr(blas, "_thread_setter", lambda package: None)
        with blas.one_thread(scipy=True):
            assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)
            factors = merging._svd(matrix)
        for got, want in zip(factors, expected):
            assert np.array_equal(got, want)


def _os_threads():
    """The number of OS threads in this process."""
    return len(os.listdir("/proc/self/task"))


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")


class TestHandoverToScipy:
    def test_counts_unchanged_after_a_normal_exit_and_an_exception(self, caller_count):
        matrix = np.random.default_rng(0).standard_normal((64, 64))
        with blas.handover_to_scipy():
            scipy.linalg.lu_factor(matrix)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)
        with pytest.raises(ZeroDivisionError):
            with blas.handover_to_scipy():
                1 / 0
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    @linux_only
    @pytest.mark.parametrize("caller_count", [2], indirect=True, ids=["caller-2"])
    def test_idle_pools_stop_and_come_back_with_the_next_threaded_call(self, caller_count):
        # A pool keeps the workers of the largest count it ran at, so only
        # the direction of each change is machine-independent.  Nothing here
        # sets a count: setting one re-creates a stopped pool.
        matrix = np.random.default_rng(0).standard_normal((256, 256))
        np.linalg.inv(matrix)
        scipy.linalg.lu_factor(matrix)
        before = _os_threads()
        with blas.handover_to_scipy():
            inside = _os_threads()
        after = _os_threads()
        scipy.linalg.lu_factor(matrix)
        assert before > inside > after
        assert _os_threads() == inside

    def test_missing_library_does_nothing(self, caller_count, monkeypatch):
        monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        before = _os_threads() if sys.platform.startswith("linux") else None
        with blas.handover_to_scipy():
            pass
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

    def test_nested_scopes_leave_numpy_to_the_outer_one(self, caller_count):
        with blas.quiet():
            with blas.quiet():
                pass
            assert _count("numpy") == 1
            with blas.one_thread(scipy=True):
                assert (_count("numpy"), _count("scipy")) == (1, 1)
            assert (_count("numpy"), _count("scipy")) == (1, caller_count)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

    @linux_only
    @pytest.mark.parametrize("caller_count", [2], indirect=True, ids=["caller-2"])
    def test_pool_stays_stopped_through_nested_scopes_and_a_gesdd(self, caller_count):
        # Nothing inside reads a count: setting one, even from 1 to 1,
        # re-creates a stopped pool.
        rng = np.random.default_rng(0)
        np.linalg.inv(rng.standard_normal((256, 256)))
        matrix = rng.standard_normal((128, 256))
        before = _os_threads()
        with blas.quiet():
            inside = _os_threads()
            with blas.quiet():
                with blas.one_thread():
                    merging._svd(matrix)
                    assert _os_threads() == inside
            assert _os_threads() == inside
        assert before > inside

    @pytest.mark.parametrize("missing", ["library", "setter"])
    def test_missing_library_or_setter_does_nothing(self, caller_count, monkeypatch, missing):
        monkeypatch.setattr(blas, "_thread_setter", lambda package: None)
        if missing == "library":
            monkeypatch.setattr(blas, "_pool_stopper", lambda package: None)
        before = _os_threads() if sys.platform.startswith("linux") else None
        with blas.quiet():
            if before is not None:
                assert _os_threads() == before
            assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)
        assert (_count("numpy"), _count("scipy")) == (caller_count, caller_count)

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
        # Each edit layer's phase 1 (2 layers, 2 covariance modes), then one
        # scope per tsvm-family merge.
        (["run"], 4 + 2),
        # alphaedit's edit loop, once per covariance mode, then the merges;
        # the phase-1 scopes inside the loop leave numpy alone.
        (["run", "--method", "alphaedit"], 2 + 2),
        # The phase-1 scopes, then one scope around the whole merge phase.
        (["sweep", "--axis", "alpha"], 4 + 1),
        (["sweep", "--axis", "rank"], 4 + 1),
    ],
    ids=["run", "run-alphaedit", "sweep-alpha", "sweep-rank"],
)
def test_thread_scope_entries_per_command(tiny_setup, monkeypatch, command, entries):
    # Every scope sets numpy's count once on entry and once on exit.  A
    # scope per SVD (10 per tsvm merge here) or a set count inside a quiet
    # scope would show here.
    config_path, bench_dir, tmp = tiny_setup
    calls = _numpy_setter_calls(monkeypatch)
    argv = [command[0], config_path, "--dataset", bench_dir, "--out", str(tmp / "-".join(command)), *command[1:]]
    assert cli.main(argv) == 0
    assert len(calls) == 2 * entries


def _tracking_handover(depth):
    """A ``blas.handover_to_scipy`` that keeps in ``depth[0]`` how many scopes it is inside."""
    real = blas.handover_to_scipy

    @contextlib.contextmanager
    def tracked():
        with real():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

    return tracked


def test_every_alphaedit_scipy_call_runs_inside_the_handover(tmp_path, monkeypatch):
    # A scipy call outside the scope would meet numpy's idle workers still
    # spinning, or leave scipy's spinning against numpy's next call.
    depth = [0]
    calls = []
    monkeypatch.setattr(blas, "handover_to_scipy", _tracking_handover(depth))
    for owner, name in (
        (scipy.linalg, "lu_factor"),
        (scipy.linalg, "lu_solve"),
        (scipy.linalg.lapack, "dgecon"),
    ):
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, depth[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    doc = dict(TINY_CONFIG, solver={"method": "alphaedit", "rel_tol": 0.02})
    config_path = write_config(tmp_path, doc)
    bench = str(tmp_path / "bench")
    assert cli.main(["generate", config_path, "--out", bench]) == 0
    for argv in (
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "alpha"), "--method", "alphaedit"],
        ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "rank"), "--axis", "rank"],
    ):
        assert cli.main(argv) == 0
    assert {name for name, _ in calls} == {"lu_factor", "lu_solve", "dgecon"}
    assert [name for name, inside in calls if not inside] == []


def test_svd_fallback_runs_inside_the_handover(monkeypatch):
    depth = [0]
    inside = []
    monkeypatch.setattr(blas, "handover_to_scipy", _tracking_handover(depth))
    real_svd = scipy.linalg.svd

    def failing_gesdd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def spy(*args, **kwargs):
        inside.append(depth[0])
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_gesdd)
    monkeypatch.setattr(scipy.linalg, "svd", spy)
    matrix = np.random.default_rng(0).standard_normal((8, 12))
    merging._svd(matrix)
    assert inside == [1]


# Kernels whose bits depend on the thread count at h=256 (README, Determinism),
# by the library whose OpenBLAS runs them.
SENSITIVE = {
    "numpy": ((np.linalg, ("inv", "cholesky", "eigh")),),
    "scipy": (
        (scipy.linalg, ("cho_factor", "cho_solve", "lu_factor", "lu_solve")),
        (scipy.linalg.lapack, ("dgecon", "dpocon")),
    ),
}


def test_no_thread_sensitive_kernel_runs_inside_a_scope(tmp_path, monkeypatch):
    # A scope on numpy's library alone (a plain one_thread or quiet) may hold
    # scipy's kernels (the fit's Cholesky solves, alphaedit's LU), never numpy's.
    depth = dict.fromkeys(PACKAGES, 0)
    scopes = []
    calls = []

    def tracking(real):
        @contextlib.contextmanager
        def tracked(**kwargs):
            scoped = PACKAGES if kwargs.get("scipy") else ("numpy",)
            scopes.append((real.__name__, scoped))
            with real(**kwargs):
                for package in scoped:
                    depth[package] += 1
                try:
                    yield
                finally:
                    for package in scoped:
                        depth[package] -= 1

        return tracked

    monkeypatch.setattr(blas, "one_thread", tracking(blas.one_thread))
    monkeypatch.setattr(blas, "quiet", tracking(blas.quiet))
    for package, owners in SENSITIVE.items():
        for owner, names in owners:
            for name in names:
                original = getattr(owner, name)

                def spy(*args, _package=package, _name=name, _original=original, **kwargs):
                    calls.append((_name, depth[_package]))
                    return _original(*args, **kwargs)

                monkeypatch.setattr(owner, name, spy)

    config_path = write_config(tmp_path)
    bench = str(tmp_path / "bench")
    for argv in (
        ["generate", config_path, "--out", bench],
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "memit")],
        ["run", config_path, "--dataset", bench, "--out", str(tmp_path / "alpha"), "--method", "alphaedit"],
        ["sweep", config_path, "--dataset", bench, "--out", str(tmp_path / "rank"), "--axis", "rank"],
    ):
        assert cli.main(argv) == 0
    assert set(scopes) == {("one_thread", PACKAGES), ("one_thread", ("numpy",)), ("quiet", ("numpy",))}
    # Every spied library was reached, so the guard watched real calls.
    assert {name for name, _ in calls} >= {"inv", "cholesky", "eigh", "cho_factor", "lu_factor", "dgecon"}
    assert [name for name, inside in calls if inside] == []


def test_scoped_bits_equal_default_thread_bits_at_h256(monkeypatch):
    # h=256 is the shape where a thread-sensitive kernel changes bits (README,
    # Determinism); everything else is shrunk to keep this fast.
    cfg = synthdata.GenConfig(
        n_facts=8, m_languages=2, d=128, h=256, n_preserved=32, vocab_size=32, seed=5
    )

    def pipeline():
        dataset = synthdata.generate_dataset(cfg)
        model, _ = synthdata.fit_initial_model(cfg, dataset)
        preserved = solvers.preserved_terms(model, dataset.preserved_inputs_all(), "alphaedit")
        requests = [solvers.request_prefix(model, req) for req in dataset.all_language_requests()]
        arrays = {
            "transforms": dataset.transforms,
            "hop_transform": dataset.hop_transform,
            "codebook": model.codebook,
            **{f"w_out{i}": layer.w_out for i, layer in enumerate(model.layers)},
        }
        for mode in (PER_LANGUAGE, SHARED):
            delta_set = solvers.edit_model(
                model, requests, preserved, solvers.DEFAULT_LAM_ALPHAEDIT, method="alphaedit", cov_mode=mode
            )
            for key, delta in delta_set.entries.items():
                arrays[mode, "delta", key] = delta
            for layer, svds in merging.delta_factors(delta_set).items():
                for lang, svd in zip(delta_set.language_ids, svds):
                    for name, array in zip("usv", svd):
                        arrays[mode, name, layer, lang] = array
        return arrays

    scoped = pipeline()
    assert all(np.any(scoped[key]) for key in scoped if "delta" in key)  # real edits, not zeros
    monkeypatch.setattr(blas, "one_thread", lambda **kwargs: contextlib.nullcontext())
    monkeypatch.setattr(blas, "handover_to_scipy", contextlib.nullcontext)
    monkeypatch.setattr(blas, "quiet", contextlib.nullcontext)
    unscoped = pipeline()
    assert scoped.keys() == unscoped.keys()
    for key, array in scoped.items():
        assert np.array_equal(array, unscoped[key]), key
