"""Experiment configuration: JSON parsing, presets, regime diagnostics.

Lengths may be plain numbers (meters) or strings like ``"20 lambda0"``, with
lambda0 the center wavelength of the configured band, so bench presets read
the way they are usually quoted.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .migrate import region_check, region_slope
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


def _parse_length(value, lambda0: float, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2 and parts[1] in ("lambda0", "lam0"):
            try:
                return float(parts[0]) * lambda0
            except ValueError:
                pass
    raise ConfigError(f"{where}: expected meters or '<number> lambda0', got {value!r}")


def _parse_count(value, where: str) -> int:
    """An integral number; a fraction, bool or string is refused, not truncated."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _parse_number(value, where: str) -> float:
    """A JSON number; a bool or string is refused, not coerced."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _parse_flag(value, where: str) -> bool:
    """A JSON boolean; a string such as "false" is refused, not read by truthiness."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected true or false, got {value!r}")


def _parse_point(value, lambda0: float, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where}: expected a 3-component point")
    return np.array([_parse_length(v, lambda0, f"{where}[{i}]") for i, v in enumerate(value)])


def _parse_matrix(entry: dict, where: str) -> np.ndarray:
    try:
        re = np.asarray(entry["re"], dtype=float)
        im = np.asarray(entry.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected re/im matrix entries") from exc
    return re + 1j * im


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
    """Validated experiment description consumed by the pipeline."""

    scene: Scene
    band: FrequencyBand
    slices: list[SliceSpec]
    second_born: bool = False
    stochastic: StochasticSpec | None = None
    gamma: int = 3
    delta_rel: float = 1e-6
    recover_mode: str = "exact"
    glyph_threshold: float = 0.5
    emit_reference: bool = True

    @property
    def lambda0(self) -> float:
        return TWO_PI * self.scene.wave_speed / self.band.center


@contextmanager
def _section(where: str):
    """Report a malformed field inside the block as a ConfigError naming ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a configuration dictionary, reporting the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    with _section("wave_speed"):
        wave_speed = _parse_number(raw.get("wave_speed", DEFAULT_WAVE_SPEED), "wave_speed")
    # checked before lambda0 = 2 pi wave_speed / center scales every length
    if not 0.0 < wave_speed < math.inf:
        raise ConfigError("wave_speed: must be positive and finite")
    with _section("band"):
        band_raw = raw["band"]
        band = FrequencyBand(
            center=TWO_PI * _parse_number(band_raw["center_hz"], "band.center_hz"),
            width=TWO_PI * _parse_number(band_raw.get("width_hz", 0.0), "band.width_hz"),
            count=_parse_count(band_raw["count"], "band.count"),
        )
    lambda0 = TWO_PI * wave_speed / band.center

    with _section("array"):
        arr = raw["array"]
        geom = ArrayGeom(
            side=_parse_length(arr["side"], lambda0, "array.side"),
            n1=_parse_count(arr["n1"], "array.n1"),
            n2=_parse_count(arr["n2"], "array.n2"),
        )

    with _section("window"):
        win_raw = raw["window"]
        window = ImagingWindow(
            center=_parse_point(win_raw["center"], lambda0, "window.center"),
            cross_range=_parse_length(win_raw["cross_range"], lambda0, "window.cross_range"),
            range_extent=_parse_length(win_raw["range_extent"], lambda0, "window.range_extent"),
        )

    with _section("source"):
        src_raw = raw["source"]
        coh = src_raw.get("coherency")
        source = SourceSpec(
            position=_parse_point(src_raw["position"], lambda0, "source.position"),
            reference_point=_parse_point(
                src_raw.get("reference_point", win_raw["center"]),
                lambda0,
                "source.reference_point",
            ),
            coherency=_parse_matrix(coh, "source.coherency") if coh else np.eye(2, dtype=complex),
        )

    scatterers: list[Scatterer] = []
    with _section("scatterers"):
        for i, entry in enumerate(raw.get("scatterers", [])):
            where = f"scatterers[{i}]"
            with _section(where):
                if "cube" in entry:
                    cube = entry["cube"]
                    scatterers.extend(
                        build_cube_scene(
                            _parse_point(cube["center"], lambda0, f"{where}.cube.center"),
                            _parse_length(cube["side"], lambda0, f"{where}.cube.side"),
                            _parse_length(cube["spacing"], lambda0, f"{where}.cube.spacing"),
                            _parse_matrix(cube["alpha"], f"{where}.cube.alpha"),
                        )
                    )
                else:
                    scatterers.append(
                        Scatterer(
                            position=_parse_point(entry["position"], lambda0, f"{where}.position"),
                            alpha=_parse_matrix(entry["alpha"], f"{where}.alpha"),
                        )
                    )

    with _section("scene"):
        scene = Scene(
            source=source,
            geom=geom,
            window=window,
            scatterers=tuple(scatterers),
            wave_speed=wave_speed,
        )

    slices = []
    with _section("slices"):
        for i, s in enumerate(raw.get("slices", [])):
            where = f"slices[{i}]"
            with _section(where):
                spec = SliceSpec(
                    normal_axis=_parse_count(s["normal_axis"], f"{where}.normal_axis"),
                    offset=_parse_length(s["offset"], lambda0, f"{where}.offset"),
                    step=_parse_length(s["step"], lambda0, f"{where}.step"),
                )
            if spec.normal_axis not in (0, 1, 2):
                raise ConfigError(f"{where}.normal_axis: must be 0, 1 or 2")
            if not 0 < spec.step < math.inf:
                raise ConfigError(f"{where}.step: must be positive and finite")
            if not math.isfinite(spec.offset):
                raise ConfigError(f"{where}.offset: must be finite")
            slices.append(spec)

    with _section("pipeline"):
        pipe = raw.get("pipeline", {})
        gamma = _parse_count(pipe.get("gamma", 3), "pipeline.gamma")
        mode = pipe.get("recover_mode", "exact")
        delta_rel = _parse_number(pipe.get("delta_rel", 1e-6), "pipeline.delta_rel")
        glyph_threshold = _parse_number(pipe.get("glyph_threshold", 0.5),
                                        "pipeline.glyph_threshold")
        second_born = _parse_flag(pipe.get("second_born", False), "pipeline.second_born")
        emit_reference = _parse_flag(pipe.get("emit_reference", True), "pipeline.emit_reference")
    if gamma not in (1, 3):
        raise ConfigError("pipeline.gamma: must be 1 or 3")
    if mode not in ("exact", "fraunhofer"):
        raise ConfigError("pipeline.recover_mode: must be 'exact' or 'fraunhofer'")
    if not 0.0 <= delta_rel < math.inf:
        raise ConfigError("pipeline.delta_rel: must be nonnegative and finite")
    if not 0.0 <= glyph_threshold <= 1.0:
        raise ConfigError("pipeline.glyph_threshold: must lie in [0, 1]")
    with _section("seed"):
        seed = _parse_count(raw.get("seed", 0), "seed")

    stoch = None
    if raw.get("stochastic"):
        with _section("stochastic"):
            st_raw = raw["stochastic"]
            stoch = StochasticSpec(
                process=SourceProcessSpec(
                    correlation_time=_parse_number(st_raw["correlation_time"],
                                                   "stochastic.correlation_time"),
                    center=band.center,
                    half_duration=_parse_number(st_raw["half_duration"],
                                                "stochastic.half_duration"),
                    samples=_parse_count(st_raw["samples"], "stochastic.samples"),
                    seed=seed,
                ),
                band_count=_parse_count(
                    st_raw.get("band_count", band.count), "stochastic.band_count"),
            )

    return ExperimentConfig(
        scene=scene,
        band=band,
        slices=slices,
        second_born=second_born,
        stochastic=stoch,
        gamma=gamma,
        delta_rel=delta_rel,
        recover_mode=mode,
        glyph_threshold=glyph_threshold,
        emit_reference=emit_reference,
    )


def read_config(path):
    """Configuration dictionary from a JSON file, unvalidated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return parse_config(read_config(path))


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
