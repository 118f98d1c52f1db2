"""polarmig benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-reduced --seed 1 --seconds 36 --trace 0

Imports polarmig from ``src/`` of the checkout and runs the workload as a
closed loop (one job at a time) within ``--seconds``, split over worker
processes started one after another, then checks the outputs.  Up to four
job workers run first; set-up-only workers then fill the time left, to add
set-up time samples.  A worker is started only if it is expected to end in
time, judged by the longest one of its kind so far (worker 0, which also
runs the oracle check, only until another job worker has been timed).  It
prints one line per metric with its unit and, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one worker
that alternates untraced and traced jobs, reports the per-layer metrics and
writes the spans under ``.perfbench_out/``.  ``--workload all`` runs every
workload in turn and prints each one's metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("pipeline-reduced", "stochastic-61", "probe-61")
# an untraced run has at most this many job workers, then at most this many
# set-up-only workers
JOB_WORKERS = 4
SETUP_WORKERS = 8


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    part = harness.worker(args.workload, args.seed, args.seconds, bool(args.trace), T0,
                          ROOT, OUT / "jobs", oracle=args.worker == 0,
                          jobs=not args.setup_only)
    print(json.dumps(part))
    return 0


def _spawn(name, seed, share, trace, k, jobs):
    """Run one worker process; returns its report, or None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", repr(share), "--trace", str(trace),
           "--worker", str(k)] + ([] if jobs else ["--setup-only"])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} worker {k} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _measure(name, seed, seconds, trace):
    """Run the workers one after another; returns the combined Result or None."""
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    start = time.perf_counter()

    def left():
        return seconds - (time.perf_counter() - start)

    count = 1 if trace else JOB_WORKERS
    parts, took = [], []
    for k in range(count):
        # worker 0 also runs the oracle check, so it is left out once later
        # workers have been timed
        if took and max(took[1:] or took) > left():
            break
        t = time.perf_counter()
        part = _spawn(name, seed, left() / (count - k), trace, k, True)
        if part is None:
            return None
        took.append(time.perf_counter() - t)
        parts.append(part)
    if not trace:
        # a first guess for a set-up-only worker, before one has been timed
        took = [1.5 * max(p["setup_s"] for p in parts)]
        for k in range(len(parts), len(parts) + SETUP_WORKERS):
            if max(took) > left():
                break
            t = time.perf_counter()
            part = _spawn(name, seed, 0.0, trace, k, False)
            if part is None:
                return None
            took.append(time.perf_counter() - t)
            parts.append(part)
    return harness.combine(parts)


def _report(name, seed, trace, res) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}")
    print("untraced job walls s: " + " ".join(f"{w:.3f}" for w in res.walls))
    print("set-up s: " + " ".join(f"{w:.3f}" for w in res.setups))
    print("env " + json.dumps(res.env, sort_keys=True))
    for c in res.checks:
        if not c.ok or "reproduces" not in c.label:
            print(f"check {'ok  ' if c.ok else 'FAIL'} {c.label}  gap {c.gap:.3e}")
    for key, value in res.layer_split.items():
        print(f"split {key} = {value:.4f}")
    print(f"error_rate = {res.failed / res.attempted!r} ({res.failed}/{res.attempted})")
    for key, (value, unit) in res.metrics.items():
        print(f"{key} = {value!r} {unit}")


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "polarmig" / "__init__.py").is_file():
        print(f"error: no polarmig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker is not None:
        return _worker(args)
    if args.workload == "all":
        status = 0
        for name in NAMES:
            res = _measure(name, args.seed, args.seconds, args.trace)
            if res is None:
                status = 1
                continue
            _report(name, args.seed, args.trace, res)
            status |= 0 if res.correct else 1
        return status
    res = _measure(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    _report(args.workload, args.seed, args.trace, res)
    metrics = {k: {"value": float(v) if math.isfinite(float(v)) else None, "unit": u}
               for k, (v, u) in res.metrics.items()}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
