"""Deterministic execution of independent imaging work units on a thread pool.

Grid points are independent, so tasks may run on any number of threads; each
task writes a disjoint output slice and its internal sums run in a fixed
serial order, making results bitwise independent of the schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "POLARMIG_THREADS"


def thread_count() -> int:
    raw = os.environ.get(ENV_THREADS, "")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError(f"{ENV_THREADS} must be >= 1")
        return n
    return min(4, os.cpu_count() or 1)


def run_tasks(work, tasks) -> list:
    """``[work(task) for task in tasks]`` on up to ``thread_count()`` threads, in order."""
    n_threads = min(thread_count(), len(tasks))
    if n_threads <= 1:
        return [work(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(work, tasks))
