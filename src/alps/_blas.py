"""One BLAS thread for the solver's small systems, scoped and restored.

A fit makes hundreds of Gram products, Cholesky factors and ``eigh``
calls, one set per section count, on systems of at most c x c. While c is
small, OpenBLAS's hand-off to its worker threads costs more than the extra
threads save; for large c the threads pay off. ``blas_threads_for(c)``
gives a scope that sets NumPy's and SciPy's OpenBLAS to one thread for
systems of at most ``ONE_THREAD_MAX_BASES`` basis functions, and
changes nothing for larger ones. Those two libraries are found through
the extension modules that call them (``find_openblas``); any other
OpenBLAS in the process is left alone, and where neither module links
OpenBLAS the scope changes nothing. Only the solver opens it, around each
design's profile and the refit; a model's bands run on the caller's
threads. Each library gets back the count it had when the last open scope
ends, also when the wrapped code raises. The count is process-wide, so
other threads of the caller run BLAS on one thread too while such a scope
is open.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import threading

# Extension modules whose BLAS the solver calls: NumPy's linalg (its OpenBLAS
# also runs NumPy's matmul) and SciPy's LAPACK wrappers (dpbtrf, eigh, ...).
_MODULES = ("numpy.linalg._umath_linalg", "scipy.linalg._flapack")

# (get, set) symbol pairs: NumPy's 64-bit-integer copy, SciPy's copy, and a
# system OpenBLAS with 64-bit or 32-bit integers.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def find_openblas() -> list:
    """(get, set) functions of each OpenBLAS that ``_MODULES`` link, resolved
    through the modules' own shared objects (importing SciPy's imports
    ``scipy.linalg``), one entry per getter address; empty if there is none.
    """
    found = {}
    for name in _MODULES:
        lib = ctypes.CDLL(importlib.import_module(name).__file__)
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.setdefault(ctypes.cast(get, ctypes.c_void_p).value, (get, set_))
                break
    return list(found.values())


class OneBlasThread:
    """Re-entrant, thread-safe scope.

    The outermost entry in the process saves each library's thread count
    and sets it to 1; the last exit restores the saved counts. Libraries
    are looked up once, at the first entry, through NumPy's and SciPy's
    extension modules (``find_openblas``).
    """

    def __init__(self, find=find_openblas):
        self._find = find
        self._libs = None
        self._saved = ()
        self._depth = 0
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._libs is None:
                    self._libs = self._find()
                self._saved = tuple(get() for get, _ in self._libs)
                for _, set_ in self._libs:
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(self._libs, self._saved):
                    set_(count)
        return False


one_blas_thread = OneBlasThread()

# Largest basis (c = m + p) solved on one thread. On a 2-core box, one
# section count's lambda search on an n = 1500 record is 1.2x faster on one
# thread than on two at c = 400-600, even at c = 800-900, and 1.1-1.3x
# slower from c = 1000 on (median of 5 runs each).
ONE_THREAD_MAX_BASES = 900


def blas_threads_for(n_bases: int):
    """The scope for numerics on a system of ``n_bases`` basis functions."""
    if n_bases <= ONE_THREAD_MAX_BASES:
        return one_blas_thread
    return contextlib.nullcontext()
