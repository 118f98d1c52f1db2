"""Command line driver.

Subcommands mirror the pipeline stages: simulate, preprocess, image, recover,
report, glyphs.  ``simulate`` writes random-source data for a config with a
``stochastic`` section.  A subcommand takes only the config overrides that
change its output.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.  Set POLARMIG_THREADS to override the worker count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import ExperimentConfig, parse_config, preset, read_config
from .dataset import ArrayDataSet, ImageField
from .errors import ConfigError, NumericalError, PolarmigError
from .glyphs import DEFAULT_THRESHOLD, emit_glyphs
from .pipeline import report_text, write_preprocessed, write_simulated, write_slice, write_tensors


def _config_from_args(args) -> ExperimentConfig:
    if args.preset:
        raw = preset(args.preset)
    elif args.config:
        raw = read_config(args.config)
    else:
        raise ConfigError("either --config or --preset is required")
    return parse_config(_apply_overrides(raw, args))


def _apply_overrides(raw: dict, args) -> dict:
    if not isinstance(raw, dict) or not isinstance(raw.get("pipeline", {}), dict):
        return raw  # parse_config reports the malformed section
    pipe = raw.setdefault("pipeline", {})
    for key, node in (("seed", raw), ("second_born", pipe), ("delta_rel", pipe),
                      ("recover_mode", pipe), ("gamma", pipe)):
        if getattr(args, key, None) is not None:
            node[key] = getattr(args, key)
    return raw


def _add_config_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment configuration JSON")
    p.add_argument("--preset", help="built-in preset name instead of --config")


def cmd_simulate(args) -> None:
    cfg = _config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    write_simulated(cfg, args.out)


def cmd_preprocess(args) -> None:
    ds = ArrayDataSet.read(args.dataset)
    os.makedirs(args.out, exist_ok=True)
    _, report = write_preprocessed(ds, args.out)
    print(report.summary())


def _check_acquisition(ds: ArrayDataSet, cfg: ExperimentConfig) -> None:
    """Refuse a dataset that the configuration does not describe.

    Array, source position, reference point, wave speed and band must agree to
    1e-9 relative.  Random-source data holds ``stochastic.band_count`` bins of
    the transform grid inside the configured band, so only that is checked.
    """
    scene, band = cfg.scene, cfg.band
    fields = [
        ("array side", ds.geom.side, scene.geom.side),
        ("receiver counts", (ds.geom.n1, ds.geom.n2), (scene.geom.n1, scene.geom.n2)),
        ("source position", ds.source.position, scene.source.position),
        ("source reference point", ds.source.reference_point, scene.source.reference_point),
        ("wave speed", ds.wave_speed, scene.wave_speed),
    ]
    if cfg.stochastic is None:
        fields.append(("band center and width", (ds.band.center, ds.band.width),
                       (band.center, band.width)))
        fields.append(("band count", ds.band.count, band.count))
    else:
        edges = ds.omegas[[0, -1]]
        inside = np.clip(edges, band.center - band.width / 2, band.center + band.width / 2)
        fields.append(("band edges", edges, inside))
        fields.append(("band count", ds.band.count, cfg.stochastic.band_count))
    for name, got, want in fields:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max()):
            raise ConfigError(f"dataset and configuration disagree on the {name}: "
                              f"{got.tolist()} against {want.tolist()}")


def _read_migratable(path, stage: str, cfg: ExperimentConfig) -> ArrayDataSet:
    ds = ArrayDataSet.read(path)
    if ds.kind == "hermitian2x2":
        raise ConfigError(f"{stage} takes response or preprocessed data, not coherency data; "
                          "run preprocess first")
    _check_acquisition(ds, cfg)
    return ds


def cmd_image(args) -> None:
    cfg = _config_from_args(args)
    ds = _read_migratable(args.dataset, "imaging", cfg)
    os.makedirs(args.out, exist_ok=True)
    for si in range(len(cfg.slices)):
        write_slice(ds, cfg, si, args.out, recover=False)


def cmd_recover(args) -> None:
    cfg = _config_from_args(args)
    ds = _read_migratable(args.dataset, "recovery", cfg)
    os.makedirs(args.out, exist_ok=True)
    for si in range(len(cfg.slices)):
        write_slice(ds, cfg, si, args.out)
    write_tensors(ds, cfg, args.out)


def cmd_report(args) -> None:
    text = report_text(_config_from_args(args))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")


def cmd_glyphs(args) -> None:
    field = ImageField.read(args.field)
    os.makedirs(args.out, exist_ok=True)
    emit_glyphs(field, args.threshold, os.path.join(args.out, "glyphs.svg"),
                os.path.join(args.out, "glyphs.csv"))


@functools.cache  # once per process: building it costs far more than one parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarmig",
        description="Polarization-data Kirchhoff migration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize coherency data per the configuration")
    _add_config_opts(p)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--second-born", dest="second_born", action="store_const", const=True,
                   help="include double-scattering terms in synthesis")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("preprocess", help="map coherency data to response estimates")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("image", help="Kirchhoff images on configured slices")
    p.add_argument("dataset")
    _add_config_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_image)

    p = sub.add_parser("recover", help="projected tensor fields and tables")
    p.add_argument("dataset")
    _add_config_opts(p)
    p.add_argument("--delta-rel", dest="delta_rel", type=float,
                   help="override the phase-correction floor")
    p.add_argument("--recover-mode", dest="recover_mode",
                   choices=("exact", "fraunhofer"), help="override the recovery mode")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("report", help="regime and source-placement diagnostics")
    _add_config_opts(p)
    p.add_argument("--gamma", type=int, choices=(1, 3), help="override the cone factor")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("glyphs", help="tensor ellipse glyphs from a 2x2 field")
    p.add_argument("field")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(fn=cmd_glyphs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, PolarmigError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
