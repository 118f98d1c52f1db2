"""Experiment configuration: JSON parsing, presets, regime diagnostics.

Lengths may be plain numbers (meters) or strings like ``"20 lambda0"``, with
lambda0 the center wavelength of the configured band, so bench presets read
the way they are usually quoted.

One reader reads each field once and names it as ``section.key`` in any error.
A present key must parse, null included; only an absent key takes its default.
Numbers and lists are read as a container header's are, by the readers of :mod:`.dataset`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import _count, _list, _number, _numbers
from .errors import ConfigError
from .glyphs import DEFAULT_THRESHOLD
from .migrate import DEFAULT_DELTA_REL, region_check, region_slope
from .scene import (
    ArrayGeom,
    DEFAULT_WAVE_SPEED,
    FrequencyBand,
    ImagingWindow,
    Scatterer,
    Scene,
    SourceSpec,
    build_cube_scene,
)
from .stochastic import SourceProcessSpec

TWO_PI = 2.0 * math.pi


def _parse_length(value, where: str, lambda0: float) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, where)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2 and parts[1] in ("lambda0", "lam0"):
            try:
                return float(parts[0]) * lambda0
            except ValueError:
                pass
    raise ValueError(f"{where}: expected meters or '<number> lambda0', got {value!r}")


def _parse_flag(value, where: str) -> bool:
    """A JSON boolean; a string such as "false" is refused, not read by truthiness."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"{where}: expected true or false, got {value!r}")


def _parse_point(value, where: str, lambda0: float) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{where}: expected a 3-component point")
    return np.array([_parse_length(v, f"{where}[{i}]", lambda0) for i, v in enumerate(value)])


def _parse_matrix(entry, where: str) -> np.ndarray:
    if not isinstance(entry, dict) or "re" not in entry:
        raise ValueError(f"{where}: expected re/im matrix entries")
    re = _numbers(entry["re"], f"{where}.re")
    im = _numbers(entry["im"], f"{where}.im") if "im" in entry else 0.0
    try:
        with np.errstate(invalid="ignore"):  # 1j * inf is NaN + inf j, refused as not finite
            return re + 1j * im
    except ValueError as exc:
        raise ValueError(f"{where}: expected re/im matrix entries") from exc


def _checked(parse, ok, rule: str):
    """The parser ``parse`` refusing a parsed value that fails ``ok`` as ``where: rule``."""
    def read(value, where: str):
        parsed = parse(value, where)
        if not ok(parsed):
            raise ValueError(f"{where}: {rule}")
        return parsed
    return read


_POSITIVE = (lambda x: 0.0 < x < math.inf, "must be positive and finite")
_REQUIRED = object()


class _Fields:
    """One config object, read key by key; an error names the field as ``where.key``.

    A present key must parse, null included.  Only an absent key takes its default, and an
    absent key without one is refused as ``where: missing field 'key'``.  A parser's TypeError
    or ValueError, whose text starts with the field name, becomes a ConfigError with that text.
    """

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object, got {obj!r}")
        self.obj, self.where = obj, where

    def __call__(self, key: str, parse, default=_REQUIRED):
        if key in self.obj:
            try:
                return parse(self.obj[key], f"{self.where}.{key}" if self.where else key)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
        if default is _REQUIRED:
            raise ConfigError(f"{self.where or 'configuration'}: missing field {key!r}")
        return default


@dataclass
class SliceSpec:
    """One 2-d imaging slice: fixed axis, offset, grid step."""

    normal_axis: int
    offset: float
    step: float


@dataclass
class StochasticSpec:
    """Random-source acquisition: the source process and how many band bins it is read at."""

    process: SourceProcessSpec
    band_count: int


@dataclass
class ExperimentConfig:
    """Validated experiment description; :func:`parse_config` builds it."""

    scene: Scene
    band: FrequencyBand
    slices: list[SliceSpec]
    second_born: bool
    stochastic: StochasticSpec | None
    gamma: int
    delta_rel: float
    recover_mode: str
    glyph_threshold: float
    emit_reference: bool

    @property
    def lambda0(self) -> float:
        return TWO_PI * self.scene.wave_speed / self.band.center


@contextmanager
def _section(where: str):
    """Report a constructor's ValueError inside the block as a ConfigError naming ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a configuration dictionary, reporting the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    root = _Fields(raw, "")
    # checked before lambda0 = 2 pi wave_speed / center scales every length
    wave_speed = root("wave_speed", _checked(_number, *_POSITIVE), DEFAULT_WAVE_SPEED)
    fields = root("band", _Fields)
    with _section("band"):
        band = FrequencyBand(center=TWO_PI * fields("center_hz", _number),
                             width=TWO_PI * fields("width_hz", _number, 0.0),
                             count=fields("count", _count))
    lambda0 = TWO_PI * wave_speed / band.center
    length = partial(_parse_length, lambda0=lambda0)
    point = partial(_parse_point, lambda0=lambda0)

    fields = root("array", _Fields)
    with _section("array"):
        geom = ArrayGeom(side=fields("side", length), n1=fields("n1", _count),
                         n2=fields("n2", _count))
    fields = root("window", _Fields)
    with _section("window"):
        window = ImagingWindow(center=fields("center", point),
                               cross_range=fields("cross_range", length),
                               range_extent=fields("range_extent", length))
    fields = root("source", _Fields)
    with _section("source"):
        source = SourceSpec(
            position=fields("position", point),
            reference_point=fields("reference_point", point, window.center),
            coherency=fields("coherency", _parse_matrix, np.eye(2, dtype=complex)),
        )

    scatterers: list[Scatterer] = []
    for i, entry in enumerate(root("scatterers", _list, [])):
        fields = _Fields(entry, f"scatterers[{i}]")
        cube = fields("cube", _Fields, None)
        with _section(fields.where):
            if cube is not None:
                scatterers.extend(build_cube_scene(
                    cube("center", point), cube("side", length), cube("spacing", length),
                    cube("alpha", _parse_matrix)))
            else:
                scatterers.append(Scatterer(position=fields("position", point),
                                            alpha=fields("alpha", _parse_matrix)))
    with _section("scene"):
        scene = Scene(source=source, geom=geom, window=window, scatterers=tuple(scatterers),
                      wave_speed=wave_speed)

    slices = []
    for i, entry in enumerate(root("slices", _list, [])):
        fields = _Fields(entry, f"slices[{i}]")
        slices.append(SliceSpec(
            normal_axis=fields("normal_axis", _checked(_count, lambda a: a in (0, 1, 2),
                                                       "must be 0, 1 or 2")),
            offset=fields("offset", _checked(length, math.isfinite, "must be finite")),
            step=fields("step", _checked(length, *_POSITIVE)),
        ))

    pipe = root("pipeline", _Fields, _Fields({}, "pipeline"))
    seed = root("seed", _count, 0)
    stoch = None
    fields = root("stochastic", _Fields, None)
    if fields is not None:
        with _section("stochastic"):
            stoch = StochasticSpec(
                process=SourceProcessSpec(
                    correlation_time=fields("correlation_time", _number),
                    center=band.center,
                    half_duration=fields("half_duration", _number),
                    samples=fields("samples", _count),
                    seed=seed,
                ),
                band_count=fields("band_count", _count, band.count),
            )

    return ExperimentConfig(
        scene=scene, band=band, slices=slices, stochastic=stoch,
        second_born=pipe("second_born", _parse_flag, False),
        gamma=pipe("gamma", _checked(_count, lambda g: g in (1, 3), "must be 1 or 3"), 3),
        delta_rel=pipe("delta_rel", _checked(_number, lambda d: 0.0 <= d < math.inf,
                                             "must be nonnegative and finite"), DEFAULT_DELTA_REL),
        recover_mode=pipe("recover_mode", _checked(
            lambda v, _: v, lambda m: m in ("exact", "fraunhofer"),
            "must be 'exact' or 'fraunhofer'"), "exact"),
        glyph_threshold=pipe("glyph_threshold", _checked(
            _number, lambda t: 0.0 <= t <= 1.0, "must lie in [0, 1]"), DEFAULT_THRESHOLD),
        emit_reference=pipe("emit_reference", _parse_flag, True),
    )


def read_config(path):
    """Configuration dictionary from a JSON file, unvalidated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Regime diagnostics
# ---------------------------------------------------------------------------

# factor used to read "much smaller than"
_MUCH_LESS = 0.1


@dataclass
class RegimeReport:
    """Computed far-field scaling diagnostics with honest pass/fail flags."""

    values: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (label, ok)

    def text(self) -> str:
        lines = ["far-field regime diagnostics"]
        for key, val in self.values.items():
            lines.append(f"  {key} = {val:.6g}")
        for label, ok in self.checks:
            lines.append(f"  [{'pass' if ok else 'FLAG'}] {label}")
        return "\n".join(lines)


def regime_report(config: ExperimentConfig) -> RegimeReport:
    """Fresnel-number and propagation diagnostics at the band center.

    Flags record whether each scaling assumption holds numerically; values
    are always printed as computed, including failing ones.
    """
    scene = config.scene
    k = config.band.center / scene.wave_speed
    a = scene.geom.side
    b = scene.window.cross_range
    h = scene.window.range_extent
    big_l = float(scene.window.center[2])
    theta_a = k * a**2 / big_l
    theta_b = k * b**2 / big_l
    theta_h = k * h**2 / big_l
    kl = k * big_l
    kh = k * h
    rep = RegimeReport(
        values={
            "k": k,
            "kL": kl,
            "kh": kh,
            "theta_a (k a^2 / L)": theta_a,
            "theta_b (k b^2 / L)": theta_b,
            "theta_h (k h^2 / L)": theta_h,
            "region slope c": region_slope(scene.geom, scene.window),
        }
    )
    rep.checks = [
        ("kL >> 1", kl > 1.0 / _MUCH_LESS),
        ("theta_a << kL", theta_a < _MUCH_LESS * kl),
        ("theta_b << kL", theta_b < _MUCH_LESS * kl),
        ("theta_h << kL", theta_h < _MUCH_LESS * kl),
        ("theta_b << 1", theta_b < _MUCH_LESS),
        ("1 << theta_a", theta_a > 1.0 / _MUCH_LESS),
        ("theta_a << (L/a)^2", theta_a < _MUCH_LESS * (big_l / a) ** 2),
        ("kh = O(1)", kh <= TWO_PI),
    ]
    return rep


def placement_report(config: ExperimentConfig) -> str:
    check = region_check(
        config.scene.geom, config.scene.window, config.scene.source.position, config.gamma
    )
    return check.summary()


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------


def preset(name: str) -> dict:
    """Configuration dictionaries for the bench experiments.

    ``three-dipoles`` is the deterministic microwave scene (full array);
    ``three-dipoles-reduced`` shrinks the array and band for quick runs;
    ``cube`` is the extended-scatterer lattice; ``stochastic-reduced`` drives the
    three-dipole scene with the random source.
    """
    base = {
        "band": {"center_hz": 2.4e9, "width_hz": 2.4e9, "count": 129},
        "array": {"side": "20 lambda0", "n1": 61, "n2": 61},
        "window": {
            "center": [0, 0, "100 lambda0"],
            "cross_range": "30 lambda0",
            "range_extent": "30 lambda0",
        },
        "source": {
            "position": ["50 lambda0", 0, f"{100 * (1 - math.sqrt(3) / 2)!r} lambda0"],
            "reference_point": [0, 0, "100 lambda0"],
        },
        "slices": [
            {"normal_axis": 2, "offset": "100 lambda0", "step": "0.5 lambda0"},
            {"normal_axis": 2, "offset": "106 lambda0", "step": "0.5 lambda0"},
            {"normal_axis": 1, "offset": "-5 lambda0", "step": "0.5 lambda0"},
            {"normal_axis": 1, "offset": "8 lambda0", "step": "0.5 lambda0"},
        ],
        "pipeline": {"gamma": 3},
        "seed": 0,
    }
    dipoles = [
        {
            "position": ["-6 lambda0", "-5 lambda0", "100 lambda0"],
            "alpha": {
                "re": [[2, 0, 1], [0, 1, 0], [1, 0, 1]],
                "im": [[1, -1, 0], [-1, 2, 1], [0, 1, 1]],
            },
        },
        {
            "position": ["7 lambda0", "-5 lambda0", "100 lambda0"],
            "alpha": {
                "re": [[2, -1, 0], [-1, 1, 0], [0, 0, 1]],
                "im": [[2, 1, 0.5], [1, 2, 0], [0.5, 0, 0]],
            },
        },
        {
            "position": ["5 lambda0", "8 lambda0", "106 lambda0"],
            "alpha": {
                "re": [[2, 1, 0], [1, 1, 0.5], [0, 0.5, 0]],
                "im": [[-2, 1, 0], [1, 2, -0.5], [0, -0.5, 1]],
            },
        },
    ]
    # base and dipoles are built afresh on every call, so edits stay local
    cfg = dict(base, scatterers=dipoles)
    if name == "three-dipoles":
        return cfg
    if name == "three-dipoles-reduced":
        cfg["array"].update(n1=31, n2=31)
        cfg["band"]["count"] = 65
        return cfg
    if name == "cube":
        cfg["scatterers"] = [
            {
                "cube": {
                    "center": [0, 0, "100 lambda0"],
                    "side": "5 lambda0",
                    "spacing": "0.25 lambda0",
                    "alpha": {
                        "re": [[2, 3, 0], [3, -1, 0], [0, 0, 1]],
                        "im": [[-1, 2, 0], [2, 0, 0], [0, 0, 0]],
                    },
                }
            }
        ]
        cfg["slices"] = [
            {"normal_axis": 2, "offset": "100 lambda0", "step": "0.5 lambda0"},
            {"normal_axis": 1, "offset": 0, "step": "0.5 lambda0"},
        ]
        return cfg
    if name == "stochastic-reduced":
        cfg["band"]["count"] = 128
        cfg["stochastic"] = {
            "correlation_time": 1e-9,
            "half_duration": 266e-9,
            "samples": 8001,
            "band_count": 128,
        }
        return cfg
    raise ConfigError(
        f"unknown preset {name!r}; available: three-dipoles, three-dipoles-reduced, "
        "cube, stochastic-reduced"
    )
