"""Keep numpy's and scipy's bundled OpenBLAS thread pools out of each other's way.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads.  Three scopes cut the time those pools cost, and none changes
an output bit.

* :func:`one_thread` runs BLAS work whose bits do not depend on the thread
  count on one thread.  At the matrix sizes here most kernels gain nothing
  from a second thread and lose time to waking it: on a shared 2-core Xeon,
  36 thin ``gesdd`` SVDs of rank-64 128x256 matrices took 0.37 s on two
  threads and 0.20 s on one (medians of 7).  It serves short regions between
  threaded numpy calls: the backbone fit and rotations in set-up, and phase 1
  of each memit edit layer, whose phase 2 inverts in numpy at the default
  count right after.  Their workers stay up: stopping them there only has
  the next threaded call re-create them, and in prototypes that did, set-up
  ran about 10% and ``pinned-run`` 4-14% slower.
* :func:`quiet` runs a long numpy phase that needs no numpy worker at all:
  each tsvm merge and :func:`lamedit.merging.delta_factors` call, a sweep's
  whole merge phase and alphaedit's whole edit loop, whose solves run in
  scipy.  It sets numpy to one thread and stops numpy's idle workers on
  entry, and restores the count on exit.  An idle worker spins for about
  0.1 s after each threaded call, so through a phase of one-thread SVDs it
  doubled the CPU time for no wall time (``wide-alphaedit``'s merges: 0.30 s
  wall, 0.60 s CPU).  A :func:`quiet` or
  :func:`one_thread` inside it leaves numpy's count alone, since setting the
  count at all, even from 1 to 1, re-creates a stopped pool.
* :func:`handover_to_scipy` stops idle worker pools where a run of scipy
  calls begins and ends.  After a threaded call each library's idle workers
  spin; on 2 cores the other library's workers then wait for a scheduler
  slice.  Setting the idle library to one thread does not stop the spin.
  The scope stops numpy's idle workers on entry and scipy's on exit.

Pools are stopped through OpenBLAS's ``blas_thread_shutdown_``.

Only work whose every bit is the same at any thread count belongs in a
:func:`one_thread` or :func:`quiet` scope: matrix products (GEMM, SYRK),
norms, ``gesdd`` SVDs, QR, the Schur form and ``expm``/``logm``.  numpy's
``inv``, ``cholesky`` and ``eigh`` and scipy's ``cho_factor``,
``cho_solve``, ``lu_factor`` and ``lu_solve`` give other bits at h=256 on one
thread than on two, so numpy's stay outside every scope, at the default
thread count, and scipy's outside every scope on scipy's library.  Stopping
a pool changes no bit of any kernel: the library's next threaded call
re-creates the workers at the count then set.

The count is set through OpenBLAS's ``openblas_set_num_threads_local``.  In
the pthreads builds the wheels bundle, that count and the worker pool are the
process's, not the calling thread's.  So no scope may run while another BLAS
call is in flight; lamedit runs serially, so none is.  A library or symbol
that cannot be found makes a scope a no-op: it then costs speed, never bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy
import scipy

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


# True while a :func:`quiet` scope holds numpy's OpenBLAS on one thread with
# its pool stopped.  Module state, like the count and pool it tracks, which
# are the process's.
_quiet = False


@contextlib.contextmanager
def one_thread(scipy=False):
    """Run the body on one thread of numpy's OpenBLAS, and of scipy's if ``scipy``.

    Inside :func:`quiet` numpy is on one thread already and its count is left
    alone, so that its stopped pool stays stopped.
    """
    packages = ("numpy", "scipy") if scipy else ("numpy",)
    if _quiet:
        packages = packages[1:]
    setters = [setter for setter in map(_thread_setter, packages) if setter is not None]
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def _stop_idle_pool(package):
    stopper = _pool_stopper(package)
    if stopper is not None:
        stopper()


@contextlib.contextmanager
def handover_to_scipy():
    """Run the body's scipy calls with numpy's idle workers stopped, and stop scipy's after.

    The thread counts stay as they are; each library re-creates its workers
    at its next threaded call.
    """
    _stop_idle_pool("numpy")
    try:
        yield
    finally:
        _stop_idle_pool("scipy")


@contextlib.contextmanager
def quiet():
    """Run the body on one thread of numpy's OpenBLAS with its idle workers stopped.

    Restores numpy's count on exit; its next threaded call then runs on
    re-created workers.  A no-op inside another :func:`quiet`, and when
    numpy's OpenBLAS has no thread setter.
    """
    global _quiet
    setter = _thread_setter("numpy")
    if _quiet or setter is None:
        yield
        return
    previous = setter(1)
    _stop_idle_pool("numpy")
    _quiet = True
    try:
        yield
    finally:
        _quiet = False
        setter(previous)
