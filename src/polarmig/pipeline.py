"""End-to-end experiment driver: simulate, preprocess, image, recover, report.

Every artifact is written with sorted JSON headers and round-trip float
formatting, so a rerun with the same configuration and seed reproduces the
output directory byte for byte regardless of thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, placement_report, regime_report
from .dataset import ArrayDataSet, ImageField
from .emcore import project
from .forward import coherency_synthesize, response_synthesize
from .glyphs import emit_glyphs
from .migrate import kirchhoff_band, phase_correct, plane_grid, recover_alpha_field
from .preprocess import PreprocessReport, preprocess
from .stochastic import stochastic_coherency_dataset


def _write_norms_csv(field: ImageField, path) -> None:
    lines = ["x1,x2,x3,frobenius_norm"]
    norms = field.norms()
    for p, n in zip(field.points, norms):
        lines.append(",".join(repr(float(v)) for v in (*p, n)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_tensor_table(rows, path) -> None:
    lines = [
        "label,x1,x2,x3,"
        + ",".join(
            f"{part}_{i}{j}" for part in ("re", "im") for i in (1, 2) for j in (1, 2)
        )
        + ",frobenius_norm"
    ]
    for label, pos, mat in rows:
        vals = [pos[0], pos[1], pos[2]]
        vals += [np.real(mat[i, j]) for i in range(2) for j in range(2)]
        vals += [np.imag(mat[i, j]) for i in range(2) for j in range(2)]
        vals.append(np.linalg.norm(mat))
        lines.append(label + "," + ",".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def simulate_stage(config: ExperimentConfig) -> ArrayDataSet:
    """Coherency dataset per the configuration (deterministic or stochastic)."""
    if config.stochastic is not None:
        return stochastic_coherency_dataset(
            config.scene,
            config.stochastic.process,
            band_count=config.stochastic.band_count,
            band_width=config.band.width,
            include_second_born=config.second_born,
        )
    return coherency_synthesize(config.scene, config.band, config.second_born)


def write_simulated(config: ExperimentConfig, outdir) -> tuple[ArrayDataSet, list[str]]:
    """Coherency data per the configuration, written as ``coherency.pmds``.

    A deterministic run with ``pipeline.emit_reference`` set also writes the 3x3
    response as ``response.pmds``.  Returns the dataset and the names written.
    """
    ds = simulate_stage(config)
    ds.write(os.path.join(outdir, "coherency.pmds"))
    if config.emit_reference and config.stochastic is None:
        ref = response_synthesize(config.scene, config.band, config.second_born)
        ref.write(os.path.join(outdir, "response.pmds"))
        return ds, ["coherency.pmds", "response.pmds"]
    return ds, ["coherency.pmds"]


def write_preprocessed(ds: ArrayDataSet, outdir) -> tuple[ArrayDataSet, PreprocessReport]:
    """Preprocess coherency data into ``preprocessed.pmds`` and ``preprocess.txt``."""
    pre, report = preprocess(ds)
    pre.write(os.path.join(outdir, "preprocessed.pmds"))
    Path(outdir, "preprocess.txt").write_text(report.summary() + "\n", encoding="utf-8")
    return pre, report


def write_slice(ds: ArrayDataSet, config: ExperimentConfig, index: int, outdir,
                recover: bool = True) -> tuple[ImageField, list[str]]:
    """Field on configured slice ``index``, written with its norms table.

    With ``recover`` the field is the phase-corrected recovered tensor field
    (``sliceNN_alpha.pmds``, ``sliceNN_norms.csv``), else the Kirchhoff image
    (``sliceNN_image.pmds``, ``sliceNN_image_norms.csv``).  Returns the field
    and the names of the files written to ``outdir``.
    """
    spec = config.slices[index]
    pts, shape, _ = plane_grid(config.scene.window, spec.normal_axis, spec.offset, spec.step)
    if recover:
        values = phase_correct(
            recover_alpha_field(ds, pts, mode=config.recover_mode), config.delta_rel
        )
        content, stem, table = "recovered_alpha_phase_corrected", "alpha", "norms"
    else:
        values = kirchhoff_band(ds, pts)
        content, stem, table = "kirchhoff_image", "image", "image_norms"
    meta = {"normal_axis": spec.normal_axis, "offset": spec.offset, "step": spec.step,
            "content": content}
    field = ImageField(points=pts, values=values, shape=shape, meta=meta)
    names = [f"slice{index:02d}_{stem}.pmds", f"slice{index:02d}_{table}.csv"]
    field.write(os.path.join(outdir, names[0]))
    _write_norms_csv(field, os.path.join(outdir, names[1]))
    return field, names


def write_tensors(ds: ArrayDataSet, config: ExperimentConfig, outdir) -> list:
    """Recovered and projected true tensors at the scatterer cells, as ``tensors.csv``.

    Returns the table rows ``(label, position, 2x2 tensor)``, recovered and
    projected true alternating per scatterer; writes nothing for a scene
    without scatterers.
    """
    if not config.scene.scatterers:
        return []
    pts = config.scene.scatterer_positions()
    alpha = phase_correct(
        recover_alpha_field(ds, pts, mode=config.recover_mode), config.delta_rel
    )
    u_s = config.scene.source.basis()
    rows = []
    for i, (sc, rec) in enumerate(zip(config.scene.scatterers, alpha)):
        rows.append((f"recovered_{i}", sc.position, rec))
        rows.append((f"projected_true_{i}", sc.position, project(sc.alpha, u_s)))
    _write_tensor_table(rows, os.path.join(outdir, "tensors.csv"))
    return rows


def report_text(config: ExperimentConfig, rows=()) -> str:
    """Text of ``report.txt``: regime diagnostics, placement, then tensor norms.

    ``rows`` are ``write_tensors`` rows; without them the text ends after the
    placement line.
    """
    lines = [regime_report(config).text(), "", placement_report(config), ""]
    if rows:
        lines.append("recovered tensor norms at scatterer cells:")
        for i, (rec, true) in enumerate(zip(rows[::2], rows[1::2])):
            lines.append(f"  scatterer {i}: |rec|={np.linalg.norm(rec[2]):.6g} "
                         f"|proj true|={np.linalg.norm(true[2]):.6g}")
    return "\n".join(lines) + "\n"


@dataclass
class PipelineResult:
    outdir: str
    files: list[str]


def run_pipeline(config: ExperimentConfig, outdir) -> PipelineResult:
    """Run the full chain and write a deterministic artifact directory."""
    os.makedirs(outdir, exist_ok=True)
    ds, files = write_simulated(config, outdir)
    pre, _ = write_preprocessed(ds, outdir)
    files += ["preprocessed.pmds", "preprocess.txt"]
    for si in range(len(config.slices)):
        field, names = write_slice(pre, config, si, outdir)
        files += names
        glyphs = [f"slice{si:02d}_glyphs.svg", f"slice{si:02d}_glyphs.csv"]
        try:
            emit_glyphs(field, config.glyph_threshold,
                        *(os.path.join(outdir, name) for name in glyphs))
        except ValueError:
            continue  # an all-zero slice has nothing to draw
        files += glyphs
    rows = write_tensors(pre, config, outdir)
    if rows:
        files.append("tensors.csv")
    Path(outdir, "report.txt").write_text(report_text(config, rows), encoding="utf-8")
    return PipelineResult(outdir=str(outdir), files=sorted(files + ["report.txt"]))
