"""numpy's BLAS thread policy, the one handover into scipy, and spreading
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
through scipy's kernels: set-up's ``logm``, ``expm`` and Cholesky, and
alphaedit's null-space projector ``eigh`` and LU.  Two tools work beside the
setting, and neither changes an output bit:

* :func:`scipy_run` is the one way ``run`` and ``sweep`` call scipy: every
  scipy call they make (alphaedit's projector ``eigh``, and each stack's LU
  factors, condition estimates and solves at each edit layer) runs inside
  it, on the main thread, one run per projector and per stack's solves.  It
  holds one lock through the body and stops scipy's idle workers on the way
  out, whether the body returns or raises.  After a
  threaded call a library's idle workers spin for about 0.1 s, and on 2
  cores they would take the cores from numpy's next kernel.  The lock keeps
  a thread from stopping the pool while another thread's scipy run is in
  flight.  Set-up's scipy calls (the dataset's ``logm`` and ``expm``, the
  fit's Cholesky solves) stay outside it: on a shared 2-core Xeon, wrapping
  them too read ``pinned-run``'s median ``setup_s`` 16% higher, and lower
  in only 2 of 5 alternating pairs, so what the stop does there is
  unresolved.
* :func:`spread` uses the cores that numpy's one thread leaves idle: it
  works through independent items on the calling thread and one Python
  worker thread per other core.  The merge-and-score phase makes three
  calls, all from the main thread and none inside another: every delta's
  SVD in ``delta_factors`` (each item keeps owned copies of only the leading
  triplets the command's tsvm merges read, so the full factors die inside
  it), then an item per distinct merge config (tsvm's two polar factors
  included), then the scoring, an item per stack of edited models and per
  stack of mono languages (:func:`chunks` cuts them, so there are at least
  as many stacks as threads).  On the same machine, 12 thin
  ``gesdd`` SVDs of rank-48 128x256 matrices took 56-61 ms on one core and
  41-49 ms spread over two (medians of 15).  Each item's result comes from
  the same kernels on the same operands and at the same count whichever
  thread runs it, so a spread gives the bits of a serial loop.  No item
  calls scipy.

Pools are stopped through OpenBLAS's ``blas_thread_shutdown_``, which
changes no bit of any kernel: the library's next threaded call re-creates
the workers at its count.  The count is set through
``openblas_set_num_threads_local``; in the pthreads builds the wheels
bundle, that count and the pool are the process's, not the calling
thread's.  A library or symbol that cannot be found leaves numpy at its
default count and makes the pool stops no-ops: that costs speed, never
bits.  Without numpy's thread setter :func:`spread` is a plain loop too,
since its items' kernels would not run on one thread each.
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

# Held through a :func:`scipy_run` and its stop of scipy's pool, so no thread
# stops the pool while another's run is in flight.
_SCIPY_RUN = threading.Lock()

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


def _stop_idle_pool(package):
    """Stop the idle workers of ``package``'s OpenBLAS; its thread count stays as it is."""
    stopper = _pool_stopper(package)
    if stopper is not None:
        stopper()


@contextlib.contextmanager
def scipy_run():
    """Hold the scipy lock through the body, then stop scipy's idle workers, even if it raises."""
    with _SCIPY_RUN:
        try:
            yield
        finally:
            _stop_idle_pool("scipy")


def _numpy_on_one_thread():
    """Set numpy's OpenBLAS to one thread and stop its idle workers; a no-op without a setter."""
    setter = _thread_setter("numpy")
    if setter is not None:
        setter(1)
        _stop_idle_pool("numpy")


_numpy_on_one_thread()


def _cores():
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(n_items):
    """How many threads :func:`spread` runs ``n_items`` items on."""
    return min(_cores(), n_items) if _thread_setter("numpy") is not None else 1


def chunks(items, width):
    """``items`` cut into consecutive runs of at most ``width``, of near-equal lengths.

    There are as few runs as the width allows, but never fewer than the
    threads a :func:`spread` over ``items`` would run on, so a spread of the
    runs still keeps every core busy.
    """
    items = list(items)
    n, count = len(items), max(-(-len(items) // width), _threads(len(items)))
    return [items[n * i // count : n * (i + 1) // count] for i in range(count)]


def spread(fn, items):
    """``[fn(x) for x in items]``, worked through by this thread and one worker per other core.

    Each thread takes the next item as it finishes one, so the results come
    back in input order whichever thread ran them.  Larger items pass the
    interpreter lock between the threads less often per unit of work: the
    scoring spreads stacks of models (:func:`chunks`) rather than models.  There is one thread per
    core this process may run on, capped at the item count; on one core, or
    when numpy's OpenBLAS has no thread setter (so numpy stays at its default
    count and each kernel may use every core), the loop runs here and starts
    no thread.  After an item raises, no thread takes a new item, and once every
    worker has finished, the exception of the first failed item in input
    order is raised here, its type unchanged: the one a serial loop would
    raise, since every earlier item has run.
    """
    items = list(items)
    n_threads = _threads(len(items))
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
