"""Closed-loop harness: one client, one job at a time.

A run is split over worker processes started one after another, so that
state fixed per process (memory layout, allocator and thread timing) is
sampled several times.  Each ``worker`` sets the workload up once and runs
jobs back to back while the next one is expected to end within its share of
the seconds, counted from process start (at least one job); a set-up-only
worker stops after set-up, to add a set-up time sample.  Worker 0 checks its
first job's outputs against the direct-sum oracle; every later job, in any
worker, must reproduce them bit for bit.  With ``trace`` on, untraced and
traced jobs alternate, the largest migrate call of one traced job is replayed
at one thread and at the default thread count, and per-layer numbers come
from the spans.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polarmig import _kernels, _parallel

from tracing import Tracer
from workloads import WORKLOADS, Check

_LAYER_SECONDS = [
    "config.parse_config", "forward.coherency_synthesize", "forward.response_synthesize",
    "stochastic.coherency_dataset", "preprocess", "dataset.write", "dataset.read",
    "glyphs.emit_glyphs",
]
_MIGRATE_SPANS = ["migrate.image", "migrate.recover_exact", "migrate.recover_fraunhofer"]


@dataclass
class Result:
    """A run's outcome: the metrics are end-to-end or, when traced, per-layer."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    env: dict
    checks: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    layer_split: dict = field(default_factory=dict)


def _blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, or -1 when it cannot be read."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    revision = "none (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (root / "src").rglob("*.py"))
    return {
        "polarmig_threads": _parallel.thread_count(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _fingerprint(outdir, results) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(outdir).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    for key in sorted(results):
        value = results[key]
        if isinstance(value, np.ndarray):
            h.update(key.encode())
            h.update(value.tobytes())
    return h.hexdigest()


def _layer_stats(tracer: Tracer, root, self_t) -> dict:
    stats: dict = {}
    for s in tracer.subtree(root):
        key = "pipeline.self" if s.name == "pipeline" else s.name
        stats[key + ".s"] = stats.get(key + ".s", 0.0) + self_t[s.span_id]
        for cname, cval in s.counts.items():
            ckey = f"{s.name}.{cname}"
            stats[ckey] = stats.get(ckey, 0) + cval
    return stats


def _per_layer(tracer: Tracer, env, oracle_gap, alpha_err, speedup, overhead) -> dict:
    self_t = tracer.self_times()
    setups = [_layer_stats(tracer, r, self_t) for r in tracer.roots("setup")]
    runs = [_layer_stats(tracer, r, self_t) for r in tracer.roots("run")]

    def job(key):
        # one set-up plus one job, each the median over its repetitions
        return sum(statistics.median([s.get(key, 0) for s in group])
                   for group in (setups, runs) if group)

    m = {}
    for name in _MIGRATE_SPANS:
        secs, triples = job(name + ".s"), job(name + ".triples")
        m[name + ".s"] = (secs, "s")
        m[name + ".ns_per_triple"] = (secs / triples * 1e9 if triples else 0.0, "ns")
    m["migrate.triples"] = (sum(job(n + ".triples") for n in _MIGRATE_SPANS), "count")
    m["migrate.oracle_rel_err"] = (oracle_gap, "ratio")
    m["migrate.alpha_rel_err"] = (alpha_err, "ratio")
    m["parallel.speedup"] = (speedup, "ratio")
    m["parallel.threads"] = (env["polarmig_threads"], "count")
    m["blas.threads"] = (env["blas_threads"], "count")
    for name in _LAYER_SECONDS:
        m[name + ".s"] = (job(name + ".s"), "s")
    m["pipeline.self.s"] = (job("pipeline.self.s"), "s")
    m["stochastic.bins"] = (job("stochastic.coherency_dataset.bins"), "count")
    cells = job("preprocess.cells")
    m["preprocess.regularized_ratio"] = (
        job("preprocess.regularized") / cells if cells else 0.0, "ratio")
    m["dataset.write.bytes"] = (job("dataset.write.bytes"), "bytes")
    m["dataset.header_bytes"] = (job("dataset.write.header_bytes"), "bytes")
    m["dataset.read.bytes"] = (job("dataset.read.bytes"), "bytes")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def _split(tracer: Tracer, job_s: float) -> dict:
    """Shares of the median traced job taken by migrate and by stochastic+preprocess."""
    self_t = tracer.self_times()
    runs = [_layer_stats(tracer, r, self_t) for r in tracer.roots("run")]

    def med(keys):
        return statistics.median([sum(s.get(k + ".s", 0.0) for k in keys) for s in runs])

    return {
        "traced job s": job_s,
        "migrate share": med(_MIGRATE_SPANS) / job_s,
        "stochastic+preprocess share": med(["stochastic.coherency_dataset", "preprocess"]) / job_s,
    }


def _replay(calls, one_thread: bool) -> float:
    """Time the recorded calls, at POLARMIG_THREADS=1 or as the environment has it."""
    saved = os.environ.get(_parallel.ENV_THREADS)
    if one_thread:
        os.environ[_parallel.ENV_THREADS] = "1"
    try:
        t = time.perf_counter()
        for fn, args, kwargs in calls:
            fn(*args, **kwargs)
        return time.perf_counter() - t
    finally:
        if saved is None:
            os.environ.pop(_parallel.ENV_THREADS, None)
        else:
            os.environ[_parallel.ENV_THREADS] = saved


def _thread_speedup(calls) -> float:
    """Migrate time at one thread over time at the default, on the same calls.

    Two rounds in opposite order, so a steady drift in machine speed cancels.
    """
    t_default = _replay(calls, False)
    t_one = _replay(calls, True) + _replay(calls, True)
    t_default += _replay(calls, False)
    return t_one / t_default


def _replay_reserve(seconds: float) -> float:
    """Upper bound on ``_thread_speedup`` for a call that took ``seconds`` traced."""
    return 2 * seconds * (1 + _parallel.thread_count())


def _nan_per_layer(name: str) -> dict:
    """Every per-layer metric with its unit, each NaN, for a run with no usable job."""
    nan = float("nan")
    empty = _per_layer(Tracer(name), {"polarmig_threads": nan, "blas_threads": nan},
                       nan, nan, nan, nan)
    return {k: (nan, unit) for k, (_, unit) in empty.items()}


def worker(name: str, seed: int, seconds: float, trace: bool, t0: float, root: Path,
           workdir: Path, sizes: dict | None = None, oracle: bool = True,
           jobs: bool = True) -> dict:
    """One worker process's share of a run: set up once, run jobs, check.

    ``t0`` is the process start as read by ``time.perf_counter``; set-up time
    runs from there to the moment the inputs are ready, and ``seconds`` is the
    worker's share counted from there too.  With ``jobs`` off the worker stops
    after set-up.  The returned dict is what the worker reports to the parent
    as JSON.
    """
    wl = WORKLOADS[name](seed, **(sizes or {}))
    tracer = Tracer(f"{name}-seed{seed}-setup") if trace else None
    if tracer:
        with tracer.installed(), tracer.span("setup"):
            wl.setup()
    else:
        wl.setup()
    setup_s = time.perf_counter() - t0
    if not jobs:
        return {"jobs": False, "setup_s": setup_s}

    workdir.mkdir(parents=True, exist_ok=True)
    walls, traced_walls, out_bytes, checks, gaps = [], [], [], [], []
    alpha_err = float("nan")
    runs_failed = 0
    first = None
    largest = None  # (fn, args, kwargs, seconds) of the largest recorded migrate call
    reserve = 0.0
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
        try:
            if traced:
                tracer.run_id = f"{name}-seed{seed}-job{i}"
                tracer.recorded_calls = [] if not traced_walls else None
                t = time.perf_counter()
                with tracer.installed(), tracer.span("run"):
                    results = wl.run(outdir)
                traced_walls.append(time.perf_counter() - t)
                if tracer.recorded_calls:
                    largest = max(tracer.recorded_calls, key=lambda c: c[3])
                    reserve = _replay_reserve(largest[3])
                tracer.recorded_calls = None
            else:
                t = time.perf_counter()
                results = wl.run(outdir)
                walls.append(time.perf_counter() - t)
            out_bytes.append(_dir_bytes(outdir))
            fp = _fingerprint(outdir, results)
            if first is None:
                first = fp
                if oracle:
                    new, alpha_err = wl.check(results, outdir)
                    checks += new
                    gaps = [c.gap for c in new]
            else:
                checks.append(Check(f"job {i} reproduces job 0", 0.0, fp == first))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            runs_failed += 1
        finally:
            results = None
            shutil.rmtree(outdir, ignore_errors=True)
        i += 1
        # start another job only if it, and the thread replay, are expected
        # to end within the share
        elapsed = time.perf_counter() - t0
        need = not walls or (tracer is not None and not traced_walls)
        if need and runs_failed and elapsed >= seconds:
            break
        if not need and elapsed + statistics.median(walls + traced_walls) + reserve > seconds:
            break

    part = {
        "jobs": True,
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "out_bytes": out_bytes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": first,
        "checks": [[c.label, c.gap, c.ok] for c in checks],
        "runs_failed": runs_failed,
        "env": environment(root),
        "per_layer": None,
        "split": {},
    }
    if tracer is not None and not (walls and traced_walls):
        part["per_layer"] = _nan_per_layer(name)
    elif tracer is not None:
        env = part["env"]
        part["per_layer"] = _per_layer(
            tracer,
            env,
            oracle_gap=max(gaps) if gaps else float("nan"),
            alpha_err=alpha_err,
            speedup=_thread_speedup([largest[:3]]) if largest else float("nan"),
            overhead=statistics.median(traced_walls) - statistics.median(walls),
        )
        part["split"] = _split(tracer, statistics.median(traced_walls))
        tracer.write_jsonl(str(workdir.parent / f"trace-{name}-seed{seed}.jsonl"),
                           {"workload": name, "seed": seed, "env": env})
    return part


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def combine(parts: list[dict]) -> Result:
    """Merge the workers' reports; job worker 0 ran the oracle, the rest must match it.

    ``setup_s`` is the median over every worker, set-up-only ones included.
    A run in which no job succeeded reports NaN for the metrics that need one.
    """
    runners = [p for p in parts if p["jobs"]]
    checks = [Check(*c) for p in runners for c in p["checks"]]
    for k, p in enumerate(runners[1:], 1):
        same = p["fingerprint"] is not None and p["fingerprint"] == runners[0]["fingerprint"]
        checks.append(Check(f"worker {k} reproduces worker 0", 0.0, same))
    walls = [w for p in runners for w in p["walls"]]
    jobs = len(walls) + sum(len(p["traced_walls"]) for p in runners)
    runs_failed = sum(p["runs_failed"] for p in runners)
    failed = runs_failed + sum(not c.ok for c in checks)
    if runners[0]["per_layer"] is not None:
        metrics = {k: tuple(v) for k, v in runners[0]["per_layer"].items()}
    else:
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(p["setup_s"] for p in parts), "s"),
            "peak_rss_mb": (_median(p["rss_mb"] for p in runners), "MB"),
            "output_bytes": (_median(b for p in runners for b in p["out_bytes"]), "bytes"),
        }
    return Result(correct=failed == 0 and bool(walls),
                  attempted=jobs + runs_failed + len(checks), failed=failed,
                  metrics=metrics, env=runners[0]["env"], checks=checks, walls=walls,
                  setups=[p["setup_s"] for p in parts], layer_split=runners[0]["split"])
