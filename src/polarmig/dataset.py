"""On-disk container for array data and image fields.

Layout (language neutral, streamable, bit exact):

* magic string ``POLARMIG1`` followed by a newline,
* 8-byte little-endian unsigned header byte count,
* UTF-8 JSON header with keys ``kind``, ``dtype``, ``shape`` and ``meta``,
* raw little-endian payload in C order.

Every kind holds complex ``d x d`` matrices, stored as float64 pairs (re, im
interleaved), which is the native complex128 layout.  Array datasets are indexed
``(receiver_row, receiver_col, frequency, i, j)``.
Preprocessed data ``U_par C u_s^H`` holds its 2x2 core C alone, in memory and in
its container of kind ``preprocessed2x2``; ``preprocessed3x3`` names the in-memory
kind, and a container of that kind is refused.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .emcore import embed
from .errors import DatasetFormatError
from .scene import ArrayGeom, FrequencyBand, SourceSpec

MAGIC = b"POLARMIG1\n"

#: payload dtype of every kind
_DTYPE = np.dtype("<c16")

#: array-data kind -> size d of its stored d x d matrices (the 2x2 core of preprocessed data)
ARRAY_KINDS = {"coherency2x2": 2, "response3x3": 3, "preprocessed3x3": 2}
#: image-field kinds
IMAGE_KINDS = ("image2x2", "image3x3")
#: container kind of preprocessed data, which stores its 2x2 core
_CORE_KIND = "preprocessed2x2"
#: every container kind tag; a preprocessed3x3 container is known only to be refused
_TAGS = (*ARRAY_KINDS, *IMAGE_KINDS, _CORE_KIND)


def _write_container(path, kind: str, values: np.ndarray, meta: dict) -> None:
    if kind not in _TAGS:
        raise ValueError(f"unknown kind tag {kind!r}")
    values = np.ascontiguousarray(values, dtype=_DTYPE)
    header = {
        "kind": kind,
        "dtype": _DTYPE.name,
        "shape": list(values.shape),
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(values)  # the C-contiguous buffer itself: no copy of the payload


def _read_container(path) -> tuple[str, np.ndarray, dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DatasetFormatError(f"bad magic at offset 0: expected {MAGIC!r}, got {magic!r}")
        off = len(MAGIC)
        field = fh.read(8)
        if len(field) < 8:
            raise DatasetFormatError(f"truncated header length field at offset {off}")
        hlen = int.from_bytes(field, "little")
        off += 8
        if size < off + hlen:
            raise DatasetFormatError(f"truncated header at offset {off}: need {hlen} bytes")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DatasetFormatError(f"unparseable header at offset {off}: {exc}") from exc
        off += hlen
        if not isinstance(header, dict):
            raise DatasetFormatError("header is not a JSON object")
        kind = header.get("kind")
        if kind not in _TAGS:
            raise DatasetFormatError(f"header key 'kind' holds unknown kind tag {kind!r}")
        if header.get("dtype") != _DTYPE.name:
            raise DatasetFormatError(f"header key 'dtype' must be {_DTYPE.name!r} for {kind}")
        shape = _header_field(header, "shape", _dims)
        if not isinstance(header.get("meta"), dict):
            raise DatasetFormatError("header key 'meta' is missing or not an object")
        # Python ints: a numpy product of large entries wraps around
        count = math.prod(shape)
        if size - off != count * _DTYPE.itemsize:
            raise DatasetFormatError(
                f"payload size mismatch at offset {off}: header key 'shape' declares "
                f"{count * _DTYPE.itemsize} bytes, file holds {size - off}"
            )
        # checked against the file size first, so the payload is read once, in place
        values = np.empty(count, dtype=_DTYPE)
        fh.readinto(values.view(np.uint8))
    try:
        values = values.reshape(shape)
    except ValueError as exc:  # an empty payload whose other dimensions are too large
        raise DatasetFormatError(f"header key 'shape' is out of range: {exc}") from exc
    return kind, values, header["meta"]


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


def _number(value) -> float:
    """A JSON number; a bool or string is refused, not coerced."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _count(value) -> int:
    """A JSON integer; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _dims(value) -> tuple:
    """Nonnegative integer dimensions, each read by :func:`_count`."""
    dims = tuple(_count(n) for n in value)
    if any(n < 0 for n in dims):
        raise ValueError(f"negative dimension in {value!r}")
    return dims


def _numbers(value) -> np.ndarray:
    """Nested JSON arrays as a float array, each entry read by :func:`_number`."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    # a ragged array keeps lists as entries, which _number refuses
    entries = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in entries.flat], dtype=float).reshape(entries.shape)


def _header_field(node: dict, path: str, convert=_number):
    """Header value at a dotted ``path`` below ``node``, passed through ``convert``.

    A missing, ill-typed or out-of-range key raises DatasetFormatError naming the path.
    """
    try:
        for key in path.split("."):
            node = node[key]
        return convert(node)
    # an integer beyond the float range overflows in float()
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"header key {path!r} is missing or ill-typed: {exc}") from exc


def _geometry_from_meta(meta: dict):
    get = partial(_header_field, meta)
    geom = ArrayGeom(side=get("array.side"), n1=get("array.n1", _count), n2=get("array.n2", _count))
    coh = get("source.coherency_re", _numbers) + 1j * get("source.coherency_im", _numbers)
    source = SourceSpec(
        position=get("source.position", _numbers),
        reference_point=get("source.reference_point", _numbers),
        coherency=coh,
    )
    fb = FrequencyBand(
        center=get("band.center"), width=get("band.width"), count=get("band.count", _count)
    )
    return geom, source, fb, get("wave_speed")


@dataclass
class ArrayDataSet:
    """Per-receiver, per-frequency matrix field with its acquisition geometry.

    ``matrices`` has shape (n1, n2, nfreq, d, d) with d from :data:`ARRAY_KINDS`;
    it is the one stored array, and what is written and migrated.  Preprocessed
    data stores the 2x2 core C of ``U_par C u_s^H``, so ``dataclasses.replace``
    keeps C; its ``values`` are that 3x3 lift, formed afresh on each access.
    """

    kind: str
    matrices: np.ndarray
    geom: ArrayGeom
    source: SourceSpec
    band: FrequencyBand
    wave_speed: float

    def __post_init__(self):
        d = ARRAY_KINDS.get(self.kind)
        if d is None:
            raise ValueError(f"kind {self.kind!r} is not an array-data kind")
        expect = (self.geom.n1, self.geom.n2, self.band.count, d, d)
        v = np.asarray(self.matrices, dtype=complex)
        if v.shape != expect:
            raise ValueError(f"{self.kind} shape {v.shape} does not match metadata {expect}")
        if not np.isfinite(v).all():
            raise ValueError(f"{self.kind} values must be finite (NaN or inf found)")
        if not 0 < self.wave_speed < np.inf:
            raise ValueError("wave speed must be positive and finite")
        self.matrices = v

    @property
    def values(self) -> np.ndarray:
        """The (n1, n2, nfreq, d, d) field: ``matrices``, or the 3x3 lift of a preprocessed core."""
        if self.kind != "preprocessed3x3":
            return self.matrices
        return embed(self.matrices, self.source.basis())

    @property
    def omegas(self) -> np.ndarray:
        return self.band.omegas()

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.band.wavenumbers(self.wave_speed)

    def write(self, path) -> None:
        kind = _CORE_KIND if self.kind == "preprocessed3x3" else self.kind
        _write_container(path, kind, self.matrices,
                         _geometry_meta(self.geom, self.source, self.band, self.wave_speed))

    @staticmethod
    def read(path) -> "ArrayDataSet":
        kind, values, meta = _read_container(path)
        if kind in IMAGE_KINDS:
            raise DatasetFormatError("file holds an image field, use ImageField.read")
        if kind == "preprocessed3x3":
            raise DatasetFormatError(f"a {kind} container holds no 2x2 core; rerun preprocess")
        geom, source, band, wave_speed = _geometry_from_meta(meta)
        if kind == _CORE_KIND:
            if values.shape != (geom.n1, geom.n2, band.count, 2, 2):
                raise DatasetFormatError(f"{kind} shape {values.shape} does not match the metadata")
            kind = "preprocessed3x3"
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
        n = self.points.shape[0]
        if self.values.shape not in ((n, 2, 2), (n, 3, 3)):
            raise ValueError(f"values must be ({n}, d, d) with d 2 or 3, got {self.values.shape}")
        # negative entries are refused here as they are when a container is read
        if any(n < 0 for n in self.shape) or math.prod(self.shape) != self.points.shape[0]:
            raise ValueError("grid shape must be nonnegative and match the point count")
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
        if kind not in IMAGE_KINDS:
            raise DatasetFormatError(f"file holds kind {kind!r}, not an image field")
        if values.shape[1:] != (int(kind[5]),) * 2:
            raise DatasetFormatError(f"{kind} payload shape {values.shape} is not (npts, d, d)")
        points = _header_field(meta, "points", _numbers)
        shape = _header_field(meta, "grid_shape", _dims)
        del meta["points"], meta["grid_shape"]
        return ImageField(points=points, values=values, shape=shape, meta=meta)
