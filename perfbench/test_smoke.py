"""Smoke test of the benchmark at 9x9 receivers and 9 frequencies.

Runs the same harness path and oracle checks as the benchmark, and shows
that a perturbed output fails the check.  From the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import polarmig as pm  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "pipeline-reduced": {"receivers": 9, "frequencies": 9, "step": "5 lambda0"},
    "stochastic-61": {"receivers": 9, "bins": 9},
    "probe-61": {"receivers": 9, "frequencies": 9, "random_points": 5},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(name, trace, tmp_path, k=0, jobs=True):
    return harness.worker(name, seed=3, seconds=0, trace=bool(trace), t0=time.perf_counter(),
                          root=ROOT, workdir=tmp_path / "jobs", sizes=SMALL[name],
                          oracle=k == 0, jobs=jobs)


def _listed(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_harness_reports_every_metric(name, trace, tmp_path):
    parts = [_worker(name, trace, tmp_path, k) for k in range(1 if trace else 2)]
    if not trace:
        parts.append(_worker(name, trace, tmp_path, 2, jobs=False))
    res = harness.combine(parts)
    assert res.correct and res.failed == 0 and res.attempted > 1
    assert _listed(trace) == {k: unit for k, (_, unit) in res.metrics.items()}
    assert all(np.isfinite(v) for v, _ in res.metrics.values())
    if trace:
        assert res.metrics["migrate.oracle_rel_err"][0] <= 1e-9
        assert (tmp_path / f"trace-{name}-seed3.jsonl").is_file()
    else:
        assert len(res.setups) == 3 and len(res.walls) == 2
        parts[1]["fingerprint"] = "0" * 64
        assert harness.combine(parts).failed == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_harness_reports_failing_jobs(trace, tmp_path, monkeypatch):
    def broken(self, outdir):
        raise RuntimeError("job failed")

    monkeypatch.setattr(workloads.Probe61, "run", broken)
    res = harness.combine([_worker("probe-61", trace, tmp_path)])
    assert not res.correct and res.failed >= 1 and res.attempted >= res.failed
    assert _listed(trace) == {k: unit for k, (_, unit) in res.metrics.items()}


def test_oracle_flags_perturbed_slice_value(tmp_path):
    wl = workloads.PipelineReduced(3, **SMALL["pipeline-reduced"])
    wl.setup()
    results = wl.run(tmp_path)
    checks, _ = wl.check(results, tmp_path)
    assert checks and all(c.ok for c in checks)

    path = tmp_path / "slice00_alpha.pmds"
    field = pm.ImageField.read(path)
    idx = int(np.argmax(field.norms()))
    field.values[idx, 1, 0] *= 1 + 1e-7
    field.write(path)
    checks, _ = wl.check(results, tmp_path)
    assert [c.label for c in checks if not c.ok] == [f"slice00 point {idx} M/M[0,0]"]


def test_oracle_flags_perturbed_probe_value(tmp_path):
    wl = workloads.Probe61(3, **SMALL["probe-61"])
    wl.setup()
    results = wl.run(tmp_path)
    assert all(c.ok for c in wl.check(results, tmp_path)[0])

    results["fraunhofer"][-1, 0, 1] *= 1 + 1e-7
    failed = [c.label for c in wl.check(results, tmp_path)[0] if not c.ok]
    assert failed == [f"fraunhofer at point {len(wl.points) - 1}"]
