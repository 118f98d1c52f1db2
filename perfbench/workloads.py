"""The benchmark's workloads: inputs from a seed, one job, correctness checks.

Each workload has ``setup()`` (everything needed before the timed job),
``run(outdir)`` (the timed job; returns its in-memory results) and
``check(results, outdir)`` (oracle checks on the first job's outputs).  The
sizes default to the benchmark's and can be shrunk for the smoke test.
Layer functions are looked up on the ``polarmig`` package at call time, so a
``Tracer`` installed around ``run`` sees them.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

import polarmig as pm
from polarmig.emcore import CROSS_RANGE_BASIS

import oracle


@dataclass
class Check:
    label: str
    gap: float  # relative gap to the reference; 0 for exact comparisons
    ok: bool


def _oracle_check(label, value, reference) -> Check:
    gap = oracle.rel_gap(value, reference)
    return Check(label, gap, bool(gap <= oracle.TOLERANCE))


def alpha_rel_err(config, recovered) -> float:
    """max over scatterer cells of | |recovered| / |projected truth| - 1 |."""
    u_s = config.scene.source.basis()
    errs = [
        abs(np.linalg.norm(rec) / np.linalg.norm(CROSS_RANGE_BASIS.T @ sc.alpha @ u_s) - 1.0)
        for sc, rec in zip(config.scene.scatterers, recovered)
    ]
    return float(max(errs))


class PipelineReduced:
    """``run_pipeline`` on ``three-dipoles-reduced`` with two slices at step 1 lambda0.

    The band keeps every fourth of the preset's 65 samples (17), so one job
    takes seconds rather than half a minute; receivers, slices and the rest of
    the preset are unchanged.  The preset is deterministic: the seed only
    fills the config's ``seed`` field.
    """

    name = "pipeline-reduced"

    def __init__(self, seed: int, receivers: int = 31, frequencies: int = 17,
                 step: str = "1 lambda0"):
        self.seed = seed
        self.receivers = receivers
        self.frequencies = frequencies
        self.step = step

    def setup(self) -> None:
        raw = pm.preset("three-dipoles-reduced")
        raw["array"].update(n1=self.receivers, n2=self.receivers)
        raw["band"]["count"] = self.frequencies
        raw["slices"] = [
            {"normal_axis": 2, "offset": "100 lambda0", "step": self.step},
            {"normal_axis": 1, "offset": "-5 lambda0", "step": self.step},
        ]
        raw["seed"] = self.seed
        self.config = pm.parse_config(raw)

    def run(self, outdir) -> dict:
        return {"files": pm.run_pipeline(self.config, outdir).files}

    def check(self, results, outdir) -> tuple[list[Check], float]:
        cfg = self.config
        pre = pm.ArrayDataSet.read(os.path.join(outdir, "preprocessed.pmds"))
        checks = []

        rows = {}
        with open(os.path.join(outdir, "tensors.csv"), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                m = np.array([[complex(float(row[f"re_{i}{j}"]), float(row[f"im_{i}{j}"]))
                               for j in (1, 2)] for i in (1, 2)])
                rows[row["label"]] = m
        n_sc = len(cfg.scene.scatterers)
        written = [rows[f"recovered_{i}"] for i in range(n_sc)]
        direct = [oracle.direct(pre, p, ("exact",))["exact"]
                  for p in cfg.scene.scatterer_positions()]
        reference = pm.phase_correct(np.array(direct), cfg.delta_rel)
        for i in range(n_sc):
            checks.append(_oracle_check(f"tensors.csv recovered_{i}", written[i], reference[i]))

        # phase_correct scales each point by a common factor, so M / M[0,0]
        # is comparable with the uncorrected direct sum
        for si in range(len(cfg.slices)):
            field = pm.ImageField.read(os.path.join(outdir, f"slice{si:02d}_alpha.pmds"))
            for idx in np.argsort(field.norms())[-2:]:
                ref = oracle.direct(pre, field.points[idx], ("exact",))["exact"]
                got = field.values[idx]
                checks.append(_oracle_check(f"slice{si:02d} point {idx} M/M[0,0]",
                                            got / got[0, 0], ref / ref[0, 0]))
        return checks, alpha_rel_err(cfg, written)


class Stochastic61:
    """Random-source acquisition on ``stochastic-reduced`` (61x61 receivers).

    One job: stochastic synthesis with the seed as source seed, container
    write and read-back, preprocess, exact recovery at the scatterer cells
    and a write of the preprocessed dataset.
    """

    name = "stochastic-61"

    def __init__(self, seed: int, receivers: int = 61, bins: int = 128):
        self.seed = seed
        self.receivers = receivers
        self.bins = bins

    def setup(self) -> None:
        raw = pm.preset("stochastic-reduced")
        raw["array"].update(n1=self.receivers, n2=self.receivers)
        raw["band"]["count"] = self.bins
        raw["stochastic"]["band_count"] = self.bins
        raw["seed"] = self.seed
        self.config = pm.parse_config(raw)
        self.points = self.config.scene.scatterer_positions()

    def run(self, outdir) -> dict:
        ds = pm.simulate_stage(self.config)
        path = os.path.join(outdir, "coherency.pmds")
        ds.write(path)
        back = pm.ArrayDataSet.read(path)
        pre, _ = pm.preprocess(back)
        alpha = pm.recover_alpha_field(pre, self.points, mode="exact")
        pre.write(os.path.join(outdir, "preprocessed.pmds"))
        return {"coherency": ds.values, "read_back": back.values, "pre": pre, "alpha": alpha}

    def check(self, results, outdir) -> tuple[list[Check], float]:
        same = np.array_equal(results["coherency"], results["read_back"])
        checks = [Check("coherency container round trip", 0.0 if same else 1.0, same)]
        for i, p in enumerate(self.points):
            ref = oracle.direct(results["pre"], p, ("exact",))["exact"]
            checks.append(_oracle_check(f"exact recovery at scatterer {i}",
                                        results["alpha"][i], ref))
        return checks, alpha_rel_err(self.config, results["alpha"])


class Probe61:
    """Three migrate modes on a seeded point set over ``three-dipoles`` data.

    Set-up synthesizes and preprocesses the 61x61-receiver preset with every
    fourth of its 129 band samples (33).  The job images and recovers (exact
    and Fraunhofer) at 61 points drawn uniformly in the imaging window plus
    the 3 scatterer cells, and writes the three fields.
    """

    name = "probe-61"

    def __init__(self, seed: int, receivers: int = 61, frequencies: int = 33,
                 random_points: int = 61):
        self.seed = seed
        self.receivers = receivers
        self.frequencies = frequencies
        self.random_points = random_points

    def setup(self) -> None:
        raw = pm.preset("three-dipoles")
        raw["array"] = dict(raw["array"], n1=self.receivers, n2=self.receivers)
        raw["band"] = dict(raw["band"], count=self.frequencies)
        cfg = pm.parse_config(raw)
        bounds = cfg.scene.window.bounds
        rng = np.random.default_rng(self.seed)
        drawn = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random((self.random_points, 3))
        self.points = np.concatenate([drawn, cfg.scene.scatterer_positions()])
        ds = pm.coherency_synthesize(cfg.scene, cfg.band, cfg.second_born)
        self.pre, _ = pm.preprocess(ds)
        self.config = cfg

    def run(self, outdir) -> dict:
        results = {
            "image": pm.kirchhoff_band(self.pre, self.points),
            "exact": pm.recover_alpha_field(self.pre, self.points, mode="exact"),
            "fraunhofer": pm.recover_alpha_field(self.pre, self.points, mode="fraunhofer"),
        }
        for key, values in results.items():
            pm.ImageField(points=self.points, values=values, shape=(len(self.points),),
                          meta={"content": f"probe_{key}"}).write(
                os.path.join(outdir, f"probe_{key}.pmds"))
        return results

    def check(self, results, outdir) -> tuple[list[Check], float]:
        n_sc = len(self.config.scene.scatterers)
        # two drawn points and the scatterer cells
        picked = [0, 1] + list(
            range(len(self.points) - n_sc, len(self.points)))
        checks = []
        for idx in picked:
            ref = oracle.direct(self.pre, self.points[idx])
            for mode, value in ref.items():
                checks.append(_oracle_check(f"{mode} at point {idx}", results[mode][idx], value))
        return checks, alpha_rel_err(self.config, results["exact"][-n_sc:])


WORKLOADS = {w.name: w for w in (PipelineReduced, Stochastic61, Probe61)}
