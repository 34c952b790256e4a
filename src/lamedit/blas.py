"""Run BLAS work whose bits do not depend on the thread count on one thread.

numpy and scipy each bundle their own OpenBLAS.  At the matrix sizes here
most of their kernels gain nothing from a second thread and lose time to
waking it: on a shared 2-core Xeon, 36 thin ``gesdd`` SVDs of rank-64
128x256 matrices took 0.37 s on two threads and 0.20 s on one (medians of 7).  :func:`one_thread` runs its
body on one OpenBLAS thread and restores the previous count on exit.

Only work whose every bit is the same at any thread count belongs in the
scope: matrix products (GEMM, SYRK), norms, ``gesdd`` SVDs, QR, the Schur
form and ``expm``/``logm``.  numpy's ``inv``, ``cholesky`` and ``eigh`` and
scipy's ``cho_factor``, ``cho_solve``, ``lu_factor`` and ``lu_solve`` give
other bits at h=256 on one thread than on two, so they stay outside every
scope, at the default thread count.

The count is set through OpenBLAS's ``openblas_set_num_threads_local``.  In
the pthreads builds the wheels bundle that count is the process's, not the
calling thread's; lamedit runs serially, so no other BLAS call overlaps a
scope.  A library or symbol that cannot be found leaves the count alone: the
scope then costs speed, never bits.
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
def _thread_setter(package):
    """``openblas_set_num_threads_local`` of ``package``'s OpenBLAS, or None."""
    module, pattern = _BUNDLED[package]
    paths = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(module.__file__)), pattern)))
    if not paths:
        return None
    try:
        setter = ctypes.CDLL(paths[0]).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


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
