"""On-disk container for array data, image fields and time signals.

Layout (language neutral, streamable, bit exact):

* magic string ``POLARMIG1`` followed by a newline,
* 8-byte little-endian unsigned header byte count,
* UTF-8 JSON header with keys ``kind``, ``dtype``, ``shape`` and ``meta``,
* raw little-endian payload in C order.

Complex payloads are stored as float64 pairs (re, im interleaved), which is
the native complex128 layout.  Array datasets are indexed
``(receiver_row, receiver_col, frequency, i, j)``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DatasetFormatError
from .scene import ArrayGeom, FrequencyBand, SourceSpec

MAGIC = b"POLARMIG1\n"

#: kind tag -> (payload dtype, trailing matrix size or None)
KINDS = {
    "coherency2x2": ("complex128", 2),
    "response3x3": ("complex128", 3),
    "preprocessed3x3": ("complex128", 3),
    "image2x2": ("complex128", 2),
    "image3x3": ("complex128", 3),
    "timeseries": ("float64", None),
}


def _write_container(path, kind: str, values: np.ndarray, meta: dict) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind tag {kind!r}")
    dtype, _ = KINDS[kind]
    values = np.ascontiguousarray(values, dtype=np.dtype(dtype).newbyteorder("<"))
    header = {
        "kind": kind,
        "dtype": dtype,
        "shape": list(values.shape),
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(values.tobytes(order="C"))


def _read_container(path) -> tuple[str, np.ndarray, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise DatasetFormatError(
            f"bad magic at offset 0: expected {MAGIC!r}, got {data[:len(MAGIC)]!r}"
        )
    off = len(MAGIC)
    if len(data) < off + 8:
        raise DatasetFormatError(f"truncated header length field at offset {off}")
    hlen = int.from_bytes(data[off : off + 8], "little")
    off += 8
    if len(data) < off + hlen:
        raise DatasetFormatError(f"truncated header at offset {off}: need {hlen} bytes")
    try:
        header = json.loads(data[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"unparseable header at offset {off}: {exc}") from exc
    off += hlen
    if not isinstance(header, dict):
        raise DatasetFormatError("header is not a JSON object")
    kind = header.get("kind")
    if kind not in KINDS:
        raise DatasetFormatError(f"header key 'kind' holds unknown kind tag {kind!r}")
    if header.get("dtype") != KINDS[kind][0]:
        raise DatasetFormatError(f"header key 'dtype' must be {KINDS[kind][0]!r} for {kind}")
    dtype = np.dtype(header["dtype"]).newbyteorder("<")
    shape = _header_field(header, "shape", _dims)
    if not isinstance(header.get("meta"), dict):
        raise DatasetFormatError("header key 'meta' is missing or not an object")
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if len(data) - off != nbytes:
        raise DatasetFormatError(
            f"payload size mismatch at offset {off}: header declares {nbytes} bytes, "
            f"file holds {len(data) - off}"
        )
    values = np.frombuffer(data, dtype=dtype, count=int(np.prod(shape)), offset=off)
    return kind, values.reshape(shape).copy(), header["meta"]


def _geometry_meta(geom: ArrayGeom, source: SourceSpec, band: FrequencyBand,
                   wave_speed: float) -> dict:
    return {
        "array": {"side": geom.side, "n1": geom.n1, "n2": geom.n2},
        "source": {
            "position": source.position.tolist(),
            "reference_point": source.reference_point.tolist(),
            "coherency_re": np.real(source.coherency).tolist(),
            "coherency_im": np.imag(source.coherency).tolist(),
        },
        "band": {"center": band.center, "width": band.width, "count": band.count},
        "wave_speed": wave_speed,
    }


def _dims(value) -> tuple:
    return tuple(operator.index(n) for n in value)


def _numbers(value) -> np.ndarray:
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    return np.asarray(value, dtype=float)


def _header_field(node: dict, path: str, convert=float):
    """Header value at a dotted ``path`` below ``node``, passed through ``convert``.

    A missing or ill-typed key raises DatasetFormatError naming the path.
    """
    try:
        for key in path.split("."):
            node = node[key]
        return convert(node)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"header key {path!r} is missing or ill-typed: {exc}") from exc


def _geometry_from_meta(meta: dict):
    get = partial(_header_field, meta)
    count = operator.index
    geom = ArrayGeom(side=get("array.side"), n1=get("array.n1", count), n2=get("array.n2", count))
    coh = get("source.coherency_re", _numbers) + 1j * get("source.coherency_im", _numbers)
    source = SourceSpec(
        position=get("source.position", _numbers),
        reference_point=get("source.reference_point", _numbers),
        coherency=coh,
    )
    fb = FrequencyBand(
        center=get("band.center"), width=get("band.width"), count=get("band.count", count)
    )
    return geom, source, fb, get("wave_speed")


@dataclass
class ArrayDataSet:
    """Per-receiver, per-frequency matrix field with its acquisition geometry.

    ``values`` has shape (n1, n2, nfreq, d, d) with d = 2 or 3 depending on
    the kind tag.
    """

    kind: str
    values: np.ndarray
    geom: ArrayGeom
    source: SourceSpec
    band: FrequencyBand
    wave_speed: float

    def __post_init__(self):
        dtype, d = KINDS.get(self.kind, (None, None))
        if dtype != "complex128":
            raise ValueError(f"kind {self.kind!r} is not an array-data kind")
        expect = (self.geom.n1, self.geom.n2, self.band.count, d, d)
        v = np.asarray(self.values, dtype=complex)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape} does not match metadata {expect}")
        if not np.isfinite(v).all():
            raise ValueError(f"{self.kind} values must be finite (NaN or inf found)")
        if not 0 < self.wave_speed < np.inf:
            raise ValueError("wave speed must be positive and finite")
        self.values = v

    @property
    def omegas(self) -> np.ndarray:
        return self.band.omegas()

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.band.wavenumbers(self.wave_speed)

    def write(self, path) -> None:
        _write_container(
            path,
            self.kind,
            self.values,
            _geometry_meta(self.geom, self.source, self.band, self.wave_speed),
        )

    @staticmethod
    def read(path) -> "ArrayDataSet":
        kind, values, meta = _read_container(path)
        if kind == "timeseries":
            raise DatasetFormatError("file holds a time signal, not an array dataset")
        geom, source, band, wave_speed = _geometry_from_meta(meta)
        if kind in ("image2x2", "image3x3"):
            raise DatasetFormatError("file holds an image field, use ImageField.read")
        return ArrayDataSet(kind, values, geom, source, band, wave_speed)


@dataclass
class ImageField:
    """Matrix-valued field on an imaging grid plus its Frobenius norms.

    ``points`` is (npts, 3); ``values`` is (npts, d, d); ``shape`` restores the
    logical grid (its product equals npts).  ``meta`` keeps slice orientation
    and provenance for exports.
    """

    points: np.ndarray
    values: np.ndarray
    shape: tuple
    meta: dict

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (npts, 3)")
        if self.values.shape[0] != self.points.shape[0]:
            raise ValueError("points/values length mismatch")
        if int(np.prod(self.shape)) != self.points.shape[0]:
            raise ValueError("grid shape does not match point count")
        for name, arr in (("points", self.points), ("values", self.values)):
            if not np.isfinite(arr).all():
                raise ValueError(f"image field {name} must be finite (NaN or inf found)")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=(-2, -1))

    def write(self, path) -> None:
        kind = f"image{self.dim}x{self.dim}"
        meta = dict(self.meta)
        meta["points"] = self.points.tolist()
        meta["grid_shape"] = list(self.shape)
        _write_container(path, kind, self.values, meta)

    @staticmethod
    def read(path) -> "ImageField":
        kind, values, meta = _read_container(path)
        if not kind.startswith("image"):
            raise DatasetFormatError(f"file holds kind {kind!r}, not an image field")
        points = _header_field(meta, "points", _numbers)
        shape = _header_field(meta, "grid_shape", _dims)
        del meta["points"], meta["grid_shape"]
        return ImageField(points=points, values=values, shape=shape, meta=meta)
