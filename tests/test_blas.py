"""The solver's small systems run on one BLAS thread, larger ones on the
caller's count, bands on the caller's count, and every call gives the
caller's OpenBLAS thread counts back when it returns or raises."""

import builtins
import ctypes
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import alps
from alps import _blas, core, fusion, outliers, solver
from alps._blas import OneBlasThread, find_openblas
from alps.basis import build_knot_vector, eval_basis
from alps.errors import OutOfDomainError
from alps.synth import fusion_suite, gramacy_lee_series
from alps.timeseries import write_timeseries

# Read apart from alps._blas, so that a library the scope misses shows up.
GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")
SETTERS = tuple(name.replace("_get_", "_set_") for name in GETTERS)


def _loaded_openblas():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    libs = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in zip(GETTERS, SETTERS):
            if hasattr(lib, get_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                libs[path] = (get, set_)
                break
    return libs


LIBS = _loaded_openblas()
needs_openblas = pytest.mark.skipif(not LIBS, reason="no OpenBLAS loaded in this process")


def counts():
    return {path: get() for path, (get, _) in LIBS.items()}


@pytest.fixture()
def two_threads():
    """Every OpenBLAS at 2 threads, so that 'one inside, restored after'
    is visible on any machine; the original counts come back afterwards."""
    original = counts()
    for _, set_ in LIBS.values():
        set_(2)
    try:
        yield counts()
    finally:
        for path, (_, set_) in LIBS.items():
            set_(original[path])


@pytest.fixture(scope="module")
def series():
    return gramacy_lee_series(n=40, noise_sd=0.05, seed=0)[0]


@pytest.fixture(scope="module")
def model(series):
    return core.fit(series)


def _address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_finds_every_loaded_openblas():
    assert len(find_openblas()) == len(LIBS)


def test_finds_one_entry_per_library_without_the_memory_map(monkeypatch):
    real_open = open

    def guarded(file, *args, **kwargs):
        if str(file) == "/proc/self/maps":
            raise AssertionError("find_openblas read the memory map")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded)
    found = find_openblas()
    addresses = [_address(get) for get, _ in found]
    assert len(set(addresses)) == len(addresses)
    assert set(addresses) == {_address(get) for get, _ in LIBS.values()}


@needs_openblas
def test_numpy_matmul_runs_on_the_library_found_through_numpy_linalg():
    # NumPy 2 moved its core extension from numpy.core to numpy._core.
    multiarray = (sys.modules.get("numpy._core._multiarray_umath")
                  or sys.modules["numpy.core._multiarray_umath"])
    lib = ctypes.CDLL(multiarray.__file__)
    getter = next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))
    assert _address(getter) in {_address(get) for get, _ in find_openblas()}


def _spy_on_eigh(monkeypatch):
    """Record (size, counts) at every eigh of the lambda search; the size
    is c on these distinct epochs until m nears n."""
    inside = []
    eigh = scipy.linalg.eigh

    def spy(a, b=None, **kwargs):
        inside.append((a.shape[0], counts()))
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return inside


@needs_openblas
def test_fit_searches_lambda_on_one_thread(monkeypatch, series, two_threads):
    inside = _spy_on_eigh(monkeypatch)
    core.fit(series)
    assert len(inside) == len(series) - 1
    assert all(set(c.values()) == {1} for _, c in inside)
    assert counts() == two_threads


@needs_openblas
def test_larger_systems_keep_the_callers_count(monkeypatch, series, two_threads):
    monkeypatch.setattr(_blas, "ONE_THREAD_MAX_BASES", 20)
    inside = _spy_on_eigh(monkeypatch)
    core.fit(series)
    small = [c for n_bases, c in inside if n_bases <= 20]
    large = [c for n_bases, c in inside if n_bases > 20]
    assert small and large
    assert all(set(c.values()) == {1} for c in small)
    assert all(c == two_threads for c in large)
    assert counts() == two_threads


# Loads a model and predicts, which loads no SciPy and opens no scope, then
# fits with every OpenBLAS mapped by then at 2 threads; prints the counts
# read inside each eigh of the lambda search and after. The scope looks its
# libraries up once, at its first entry, so a predict before the first fit
# must not make that lookup miss SciPy's copy.
_LOAD_PREDICT_FIT = """
import ctypes, json, sys
import numpy as np
from alps import core
from alps.timeseries import read_timeseries

def openblas():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name in %r:
            if hasattr(lib, get_name):
                get = getattr(lib, get_name)
                set_ = getattr(lib, get_name.replace("_get_", "_set_"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                libs.append((get, set_))
                break
    return libs

model = core.load_model("model.json")
core.predict(model, np.linspace(*model.domain, 50))
before_scipy = "scipy" in sys.modules
import scipy.linalg
libs = openblas()
for _, set_ in libs:
    set_(2)
start = [get() for get, _ in libs]
inside, eigh = [], scipy.linalg.eigh

def spy(a, b=None, **kwargs):
    inside.append([get() for get, _ in libs])
    return eigh(a, b, **kwargs)

scipy.linalg.eigh = spy
core.fit(read_timeseries("series.csv"))
print(json.dumps({"before_scipy": before_scipy, "start": start, "inside": inside,
                  "after": [get() for get, _ in libs]}))
""" % (GETTERS,)


@needs_openblas
def test_libraries_mapped_after_the_first_scope_are_set(tmp_path, series, model):
    core.save_model(model, tmp_path / "model.json")
    write_timeseries(tmp_path / "series.csv", series)
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LOAD_PREDICT_FIT], cwd=tmp_path, env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    seen = json.loads(out)
    assert not seen["before_scipy"]
    assert len(seen["inside"]) == len(series) - 1
    assert all(set(counts) == {1} for counts in seen["inside"])
    assert seen["after"] == seen["start"]


# Opens the scope in a fresh interpreter before anything has imported
# SciPy, imports scipy.linalg inside it, and prints the count of every
# OpenBLAS mapped by then, read inside the scope and after it.
_SCIPY_IMPORTED_INSIDE_THE_SCOPE = """
import ctypes, json, sys
from alps._blas import one_blas_thread

def getters():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        get = next(getattr(lib, name) for name in %r if hasattr(lib, name))
        get.argtypes, get.restype = [], ctypes.c_int
        yield get

before_scipy = "scipy" in sys.modules
with one_blas_thread:
    import scipy.linalg
    inside = [get() for get in getters()]
print(json.dumps({"before_scipy": before_scipy, "inside": inside,
                  "after": [get() for get in getters()]}))
""" % (GETTERS,)


@needs_openblas
def test_scipy_imported_inside_the_first_scope_runs_on_one_thread():
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _SCIPY_IMPORTED_INSIDE_THE_SCOPE], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    seen = json.loads(out)
    assert not seen["before_scipy"]
    assert len(seen["inside"]) == len(LIBS)
    assert set(seen["inside"]) == {1}
    assert set(seen["after"]) == {2}


def test_bands_of_a_loaded_model_open_no_scope(monkeypatch, tmp_path, model):
    core.save_model(model, tmp_path / "model.json")
    loaded = core.load_model(tmp_path / "model.json")
    entries = []
    enter = OneBlasThread.__enter__

    def spy(self):
        entries.append(1)
        return enter(self)

    monkeypatch.setattr(OneBlasThread, "__enter__", spy)
    epochs = np.linspace(*loaded.domain, 50)
    core.predict(loaded, epochs)
    core.predict_derivative(loaded, epochs)
    assert entries == []


# Fits a Gramacy-Lee series and hashes its document and its value and rate
# bands at 500 epochs. Every solve runs in the one-thread scope and c is far
# below the size where OpenBLAS's inversion depends on its thread count.
_FIT_AND_BAND = """
import hashlib, json
import numpy as np
from alps import core, synth

model = core.fit(synth.gramacy_lee_series(n=90)[0])
epochs = np.linspace(*model.domain, 500)
bands = b"".join(getattr(fn(model, epochs), field).tobytes()
                 for fn in (core.predict, core.predict_derivative)
                 for field in ("mean", "std", "half_width"))
print(json.dumps({"document": json.dumps(core.model_to_dict(model)),
                  "bands": hashlib.sha256(bands).hexdigest()}))
"""


def test_fits_and_bands_do_not_depend_on_the_thread_count():
    src = str(Path(alps.__file__).resolve().parents[1])
    seen = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _FIT_AND_BAND], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        seen.append(json.loads(out))
    assert seen[0] == seen[1]


@pytest.fixture(scope="module")
def design(series):
    """A basis on the series, for the solver's calls."""
    return eval_basis(build_knot_vector(series.times, 10, 4, "quantile"), series.times)


@needs_openblas
@pytest.mark.parametrize("call", [
    lambda s, m, d: core.fit(s),
    lambda s, m, d: core.predict(m, s.times),
    lambda s, m, d: core.predict_derivative(m, s.times),
    lambda s, m, d: outliers.detect_and_refit(s),
    lambda s, m, d: fusion.reconstruct(fusion.FusionInput(
        fusion_suite(seed=0).observations, fusion_suite(seed=0).dense_model)),
    lambda s, m, d: solver.minimize_gcv_lambda([d], s.values, 2),
    lambda s, m, d: solver.fit_penalized(d, s.values, 2, 1.0),
])
def test_counts_restored_after_return(call, series, model, design, two_threads):
    call(series, model, design)
    assert counts() == two_threads


@needs_openblas
def test_counts_restored_after_raise(model, two_threads):
    lo, hi = model.domain
    with pytest.raises(OutOfDomainError):
        core.predict(model, [hi + 1.0])
    assert counts() == two_threads


@needs_openblas
def test_counts_restored_after_raise_inside_the_scope(monkeypatch, series, two_threads):
    def broken(*args, **kwargs):
        assert set(counts().values()) == {1}
        raise FloatingPointError("eigh")

    monkeypatch.setattr(scipy.linalg, "eigh", broken)
    with pytest.raises(FloatingPointError):
        core.fit(series)
    assert counts() == two_threads


@needs_openblas
def test_concurrent_fits_restore_counts_and_match_sequential(two_threads):
    data = [gramacy_lee_series(n=40, noise_sd=0.05, seed=s)[0] for s in range(4)]
    expected = [json.dumps(core.model_to_dict(core.fit(d))) for d in data]
    got = [None] * len(data)

    def work(i):
        got[i] = json.dumps(core.model_to_dict(core.fit(data[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(data))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    assert counts() == two_threads


class FakeBlas:
    """A library whose thread count is a Python attribute."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads


def test_nested_scope_sets_one_thread_once_and_restores_on_raise():
    libs = [FakeBlas(3), FakeBlas(5)]
    lookups = []

    def find():
        lookups.append(1)
        return [(lib.get, lib.set) for lib in libs]

    scope = OneBlasThread(find)

    def inner():
        with scope:
            assert [lib.threads for lib in libs] == [7, 1]
            raise ValueError("inner")

    with scope:
        assert [lib.threads for lib in libs] == [1, 1]
        libs[0].threads = 7  # a nested entry neither saves nor sets this
        with pytest.raises(ValueError):
            inner()
        assert [lib.threads for lib in libs] == [7, 1]
    assert [lib.threads for lib in libs] == [3, 5]
    with scope:
        pass
    assert lookups == [1]


def test_concurrent_scopes_hold_one_thread_until_the_last_exits():
    lib = FakeBlas(4)
    scope = OneBlasThread(lambda: [(lib.get, lib.set)])
    seen = []

    def work():
        for _ in range(200):
            with scope:
                with scope:
                    seen.append(lib.threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert lib.threads == 4


def test_no_library_makes_the_scope_a_no_op(monkeypatch):
    monkeypatch.setattr(_blas, "_SYMBOLS", (("no_such_get", "no_such_set"),))
    assert find_openblas() == []
    scope = OneBlasThread(lambda: [])
    with scope:
        with scope:
            pass
    with pytest.raises(ZeroDivisionError):
        with scope:
            1 / 0

