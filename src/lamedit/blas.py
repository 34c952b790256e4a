"""Keep numpy's and scipy's bundled OpenBLAS thread pools out of each other's way,
and spread independent numpy work over the cores.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads.  After a threaded call a library's idle workers spin for
about 0.1 s; on 2 cores the other library's workers, or the next one-thread
kernel, then wait for a scheduler slice.  Setting a library to one thread
does not stop the spin.  Three tools cut that cost, and none changes an
output bit:

* :func:`quiet` runs one numpy phase whose kernels need no numpy worker on
  one thread of numpy's OpenBLAS, with numpy's idle workers stopped on entry,
  and restores numpy's count on exit.  At the matrix sizes here most kernels
  gain nothing from a second BLAS thread and lose time to waking it: on a
  shared 2-core Xeon, 36 thin ``gesdd`` SVDs of rank-64 128x256 matrices
  took 0.37 s on two threads and 0.20 s on one (medians of 7).  Only
  ``lamedit.experiment`` enters it, once per phase and never inside another
  scope: set-up (the rotations and the backbone fit), alphaedit's edit
  loops of every covariance mode, and a command's whole merge-and-score
  phase.  Setting the count at all, even from 1 to 1, re-creates a stopped
  pool, so a scope per kernel, or one scope inside another, would bring the
  spinning workers back.
* :func:`spread` uses the cores that :func:`quiet` leaves idle: it works
  through independent items (each delta's SVD in ``delta_factors``, tsvm's
  polar factors, the scoring of each merge, grid point or mono language) on
  the calling thread and one Python worker thread per other core, each
  running one-thread kernels.  On the same machine, 12
  thin ``gesdd`` SVDs of rank-48 128x256 matrices took 56-61 ms on one core
  and 41-49 ms spread over two (medians of 15).  Workers never enter a
  scope and never stop a pool.
* :func:`stop_idle_pool` stops one library's idle workers, after a run of
  scipy calls at the default count: alphaedit's solves and the ``gesvd``
  fallback each end with scipy's pool stopped, so its workers do not take
  the cores from numpy's next kernel.  A run of scipy calls inside a
  :func:`spread` item holds :data:`SCIPY_RUN` through the run and its stop,
  so two items never stop scipy's pool under each other.

Pools are stopped through OpenBLAS's ``blas_thread_shutdown_``.  Stopping a
pool changes no bit of any kernel: the library's next threaded call
re-creates the workers at the count then set.

Only numpy kernels whose every bit is the same at any thread count belong in
a :func:`quiet` scope, or in a :func:`spread` item: matrix products (GEMM,
SYRK), norms, ``gesdd`` SVDs and QR.  Each item's result comes from the
same kernels on the same operands whichever thread runs it, so a spread
gives the bits of a serial loop.  numpy's ``inv``, ``cholesky`` and ``eigh``
give other bits at h=256 on one thread than on two, so they stay outside
every scope, at the default count, and set-up and the edit loops stay
serial.  scipy's kernels run at scipy's default count inside or outside a
scope.

The count is set through OpenBLAS's ``openblas_set_num_threads_local``.  In
the pthreads builds the wheels bundle, that count and the worker pool are the
process's, not the calling thread's.  So a scope is entered and left only on
the main thread, with no spread running, and a pool is stopped only while no
other call into that library is in flight.  A library or symbol that cannot
be found makes :func:`quiet` and :func:`stop_idle_pool` no-ops: they then
cost speed, never bits.  Without numpy's thread setter :func:`spread` is a
plain loop too, since its items' kernels would not run on one thread each.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy
import scipy

# Held by a spread item through a run of scipy calls and the stop of scipy's
# pool after it, so no item stops the pool while another's run is in flight.
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


@contextlib.contextmanager
def quiet():
    """Run the body on one thread of numpy's OpenBLAS with its idle workers stopped.

    Restores numpy's count on exit; its next threaded call then runs on
    re-created workers.  A no-op when numpy's OpenBLAS has no thread setter.
    """
    setter = _thread_setter("numpy")
    if setter is None:
        yield
        return
    previous = setter(1)
    stop_idle_pool("numpy")
    try:
        yield
    finally:
        setter(previous)


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
    when numpy's OpenBLAS has no thread setter (so :func:`quiet` is a no-op
    and each kernel may use every core), the loop runs here and starts no
    thread.  After an item raises, no thread takes a new item, and once every
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
