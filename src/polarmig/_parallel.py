"""Deterministic execution of independent work units on a thread pool.

Imaging points, and the bins of synthesis and preprocessing (in the fixed
blocks of :func:`bin_blocks`), are independent, so tasks may run on any number
of threads; each writes a disjoint output slice with its sums in a fixed serial
order, making results bitwise independent of the schedule.  Every stage runs
under :func:`one_blas_thread`: its task threads have the cores, and each
OpenBLAS product, which rounds differently when OpenBLAS splits it over
threads, runs on the calling thread alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

ENV_THREADS = "POLARMIG_THREADS"

# Thread-count getters of numpy's bundled OpenBLAS, by build; each has a
# setter of the same name with ``set`` for ``get``.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads")

# The OpenBLAS thread count is one per process, so the holds on it are too:
# this lock guards the number of open holds and the count they restore.
_hold_lock = threading.Lock()
_holds = 0
_held_from = 1

# Receiver x bin cells per bin block: 4 bins at 61x61 receivers, a few MB per task.
_BLOCK_CELLS = 16_384


def thread_count() -> int:
    """``POLARMIG_THREADS``, else up to 4 of the CPUs this process may run on."""
    raw = os.environ.get(ENV_THREADS, "")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError(f"{ENV_THREADS} must be >= 1")
        return n
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return min(4, len(affinity(0)) if affinity else os.cpu_count() or 1)


def run_tasks(work, tasks) -> list:
    """``[work(task) for task in tasks]`` on up to ``thread_count()`` threads, in order."""
    n_threads = min(thread_count(), len(tasks))
    if n_threads <= 1:
        return [work(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(work, tasks))


def bin_blocks(n_rec: int, n_bins: int) -> list[slice]:
    """Slices of ``n_bins`` bins, all but the last of ``_BLOCK_CELLS // n_rec`` bins.

    The size never reads the thread count, so neither do a block walk's bits.
    """
    size = max(1, _BLOCK_CELLS // max(1, n_rec))
    return [slice(lo, min(lo + size, n_bins)) for lo in range(0, n_bins, size)]


@lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            get = getattr(lib, name, None)
            put = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                return get, put
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    funcs = _openblas()
    return None if funcs is None else int(funcs[0]())


def set_blas_threads(n: int) -> None:
    """Set the thread count of numpy's bundled OpenBLAS; does nothing without one."""
    funcs = _openblas()
    if funcs is not None:
        funcs[1](int(n))


@contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the body, then restore its count.

    Holds nest and may overlap across threads: the count read when the first
    opens is restored when the last closes, also when the body raises.  Does
    nothing where the library or its thread-count functions are missing.
    """
    global _holds, _held_from
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, put = funcs
    with _hold_lock:
        if _holds == 0:
            _held_from = get()
            put(1)
        _holds += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if _holds == 0:
                put(_held_from)


@one_blas_thread()
def run_bin_blocks(work, n_rec: int, n_bins: int) -> list:
    """``work(bins)`` per slice of :func:`bin_blocks` in order, on the task threads, BLAS held."""
    return run_tasks(work, bin_blocks(n_rec, n_bins))
