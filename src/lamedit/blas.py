"""numpy's BLAS thread policy, scipy's idle-pool stop, and spreading
independent numpy work over the cores.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads.  Importing this module, as ``import lamedit`` does, sets
numpy's OpenBLAS to one thread for the whole process and stops its idle
workers, once.  The setting is made on import, not by the CLI, so library
callers, the benchmark harness and the CLI all get the same numpy bits.
Nothing sets numpy's count again: setting it at all, even from 1 to 1,
re-creates a stopped pool.  At the matrix sizes here most numpy kernels gain
nothing from a second BLAS thread and lose time to waking it: on a shared
2-core Xeon, 36 thin ``gesdd`` SVDs of rank-64 128x256 matrices took 0.37 s
on two threads and 0.20 s on one (medians of 7).

scipy stays at its default count.  So the thread count can decide bits only
through scipy's kernels: set-up's ``logm``, ``expm`` and Cholesky, the
null-space projector's ``eigh``, alphaedit's LU and the ``gesvd`` fallback.
Two tools work beside the setting, and neither changes an output bit:

* :func:`spread` uses the cores that numpy's one thread leaves idle: it
  works through independent items on the calling thread and one Python
  worker thread per other core.  The merge-and-score phase makes two calls,
  both from the main thread and neither inside another: every delta's SVD in
  ``delta_factors``, then one task list of an item per distinct merge config
  (its merge, tsvm's two polar factors included, and the scoring of each of
  its points) and an item per mono language.  On the same machine, 12 thin
  ``gesdd`` SVDs of rank-48 128x256 matrices took 56-61 ms on one core and
  41-49 ms spread over two (medians of 15).  Each item's result comes from
  the same kernels on the same operands and at the same count whichever
  thread runs it, so a spread gives the bits of a serial loop.
* :func:`stop_idle_pool` stops scipy's idle workers after a run of scipy
  calls at the default count.  After a threaded call a library's idle
  workers spin for about 0.1 s, and on 2 cores they would take the cores
  from numpy's next kernel.  alphaedit's solves and the ``gesvd`` fallback
  each end with scipy's pool stopped, and both hold :data:`SCIPY_RUN`
  through the run and its stop, so no thread stops scipy's pool while
  another thread's run is in flight.

Pools are stopped through OpenBLAS's ``blas_thread_shutdown_``, which
changes no bit of any kernel: the library's next threaded call re-creates
the workers at its count.  The count is set through
``openblas_set_num_threads_local``; in the pthreads builds the wheels
bundle, that count and the pool are the process's, not the calling
thread's.  A library or symbol that cannot be found leaves numpy at its
default count and makes :func:`stop_idle_pool` a no-op: that costs speed,
never bits.  Without numpy's thread setter :func:`spread` is a plain loop
too, since its items' kernels would not run on one thread each.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import numpy
import scipy

# Held through a run of scipy calls and the stop of scipy's pool after it (the
# gesvd fallback, alphaedit's solves), so no thread stops the pool while
# another's run is in flight.
SCIPY_RUN = threading.Lock()

# Each package's bundled OpenBLAS, relative to the directory holding the package.
_BUNDLED = {
    "numpy": (numpy, os.path.join("numpy.libs", "libscipy_openblas64_*")),
    "scipy": (scipy, os.path.join("scipy.libs", "libscipy_openblas*")),
}


@functools.cache
def _openblas_function(package, name, argtypes, restype):
    """``name`` in ``package``'s bundled OpenBLAS, typed, or None when it cannot be found."""
    module, pattern = _BUNDLED[package]
    paths = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(module.__file__)), pattern)))
    if not paths:
        return None
    try:
        function = getattr(ctypes.CDLL(paths[0]), name)
    except (OSError, AttributeError):
        return None
    function.argtypes = list(argtypes)
    function.restype = restype
    return function


def _thread_setter(package):
    """``openblas_set_num_threads_local`` of ``package``'s OpenBLAS, or None."""
    return _openblas_function(package, "openblas_set_num_threads_local", (ctypes.c_int,), ctypes.c_int)


def _pool_stopper(package):
    """``blas_thread_shutdown_`` of ``package``'s OpenBLAS, or None."""
    return _openblas_function(package, "blas_thread_shutdown_", (), ctypes.c_int)


def stop_idle_pool(package):
    """Stop the idle workers of ``package``'s OpenBLAS; its thread count stays as it is."""
    stopper = _pool_stopper(package)
    if stopper is not None:
        stopper()


def _numpy_on_one_thread():
    """Set numpy's OpenBLAS to one thread and stop its idle workers; a no-op without a setter."""
    setter = _thread_setter("numpy")
    if setter is not None:
        setter(1)
        stop_idle_pool("numpy")


_numpy_on_one_thread()


def _cores():
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spread(fn, items):
    """``[fn(x) for x in items]``, worked through by this thread and one worker per other core.

    Each thread takes the next item as it finishes one, so the results come
    back in input order whichever thread ran them.  There is one thread per
    core this process may run on, capped at the item count; on one core, or
    when numpy's OpenBLAS has no thread setter (so numpy stays at its default
    count and each kernel may use every core), the loop runs here and starts
    no thread.  After an item raises, no thread takes a new item, and once every
    worker has finished, the exception of the first failed item in input
    order is raised here, its type unchanged: the one a serial loop would
    raise, since every earlier item has run.
    """
    items = list(items)
    n_threads = min(_cores(), len(items)) if _thread_setter("numpy") is not None else 1
    results = [None] * len(items)
    failures = []
    pending = iter(enumerate(items))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                index, item = (None, None) if failures else next(pending, (None, None))
            if index is None:
                return
            try:
                results[index] = fn(item)
            except BaseException as exc:
                with lock:
                    failures.append((index, exc))

    workers = [threading.Thread(target=work, daemon=True) for _ in range(n_threads - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
