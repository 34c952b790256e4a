"""Keep numpy's and scipy's bundled OpenBLAS thread pools out of each other's way.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads.  After a threaded call a library's idle workers spin for
about 0.1 s; on 2 cores the other library's workers, or the next one-thread
kernel, then wait for a scheduler slice.  Setting a library to one thread
does not stop the spin.  Two tools cut that cost, and neither changes an
output bit:

* :func:`quiet` runs one numpy phase whose kernels need no numpy worker on
  one thread of numpy's OpenBLAS, with numpy's idle workers stopped on entry,
  and restores numpy's count on exit.  At the matrix sizes here most kernels
  gain nothing from a second thread and lose time to waking it: on a shared
  2-core Xeon, 36 thin ``gesdd`` SVDs of rank-64 128x256 matrices took
  0.37 s on two threads and 0.20 s on one (medians of 7).  Each phase enters
  it once, never inside another scope: set-up's rotations, the backbone
  fit, alphaedit's whole edit loop, and a command's whole merge phase.
  Setting the count at all, even from 1 to 1, re-creates a stopped pool, so
  a scope per kernel, or one scope inside another, would bring the spinning
  workers back.
* :func:`stop_idle_pool` stops one library's idle workers, for a run of
  scipy calls at the default count inside a :func:`quiet` scope: alphaedit's
  solves and the ``gesvd`` fallback each end with scipy's pool stopped, so
  its workers do not take the cores from numpy's next kernel.

Pools are stopped through OpenBLAS's ``blas_thread_shutdown_``.  Stopping a
pool changes no bit of any kernel: the library's next threaded call
re-creates the workers at the count then set.

Only numpy kernels whose every bit is the same at any thread count belong in
a :func:`quiet` scope: matrix products (GEMM, SYRK), norms, ``gesdd`` SVDs
and QR.  numpy's ``inv``, ``cholesky`` and ``eigh`` give other bits at h=256
on one thread than on two, so they stay outside every scope, at the default
count.  scipy's kernels run at scipy's default count inside or outside one.

The count is set through OpenBLAS's ``openblas_set_num_threads_local``.  In
the pthreads builds the wheels bundle, that count and the worker pool are the
process's, not the calling thread's.  So no scope may run while another BLAS
call is in flight; lamedit runs serially, so none is.  A library or symbol
that cannot be found makes either tool a no-op: it then costs speed, never
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
