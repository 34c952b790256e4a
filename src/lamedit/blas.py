"""Keep numpy's and scipy's bundled OpenBLAS thread pools out of each other's way.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads.  Two mechanisms cut the time those pools cost, and neither
changes an output bit.

* :func:`one_thread` runs BLAS work whose bits do not depend on the thread
  count on one thread.  At the matrix sizes here most kernels gain nothing
  from a second thread and lose time to waking it: on a shared 2-core Xeon,
  36 thin ``gesdd`` SVDs of rank-64 128x256 matrices took 0.37 s on two
  threads and 0.20 s on one (medians of 7).  The scope restores the previous
  count on exit.
* :func:`handover_to_scipy` stops idle worker pools where a run of scipy
  calls begins and ends.  After a threaded call each library's idle workers
  spin for about 0.1 s; on 2 cores the other library's workers then wait for
  a scheduler slice.  Setting the idle library to one thread does not stop
  the spin.  The scope stops numpy's idle workers on entry and scipy's on
  exit through OpenBLAS's ``blas_thread_shutdown_``.

Only work whose every bit is the same at any thread count belongs in a
:func:`one_thread` scope: matrix products (GEMM, SYRK), norms, ``gesdd``
SVDs, QR, the Schur form and ``expm``/``logm``.  numpy's ``inv``,
``cholesky`` and ``eigh`` and scipy's ``cho_factor``, ``cho_solve``,
``lu_factor`` and ``lu_solve`` give other bits at h=256 on one thread than on
two, so they stay outside every such scope, at the default thread count.
Stopping a pool changes no bit of any kernel: it leaves the thread count
alone, and the library's next threaded call re-creates the workers at that
same count.

The count is set through OpenBLAS's ``openblas_set_num_threads_local``.  In
the pthreads builds the wheels bundle, that count and the worker pool are the
process's, not the calling thread's.  So neither scope may run while another
BLAS call is in flight; lamedit runs serially, so none is.  A library or
symbol that cannot be found makes a scope a no-op: it then costs speed, never
bits.
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


@contextlib.contextmanager
def one_thread(scipy=False):
    """Run the body on one thread of numpy's OpenBLAS, and of scipy's if ``scipy``."""
    packages = ("numpy", "scipy") if scipy else ("numpy",)
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
