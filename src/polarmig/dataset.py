"""On-disk container for array data and image fields.

Layout (language neutral, streamable, bit exact):

* magic string ``POLARMIG1`` followed by a newline,
* 8-byte little-endian unsigned header byte count,
* UTF-8 JSON header with keys ``kind``, ``dtype``, ``shape`` and ``meta``,
* raw little-endian payload in C order.

Array datasets are indexed ``(receiver_row, receiver_col, frequency, i, j)``.  Each kind is
named by its container tag, in memory and on disk: ``hermitian2x2`` coherency data,
``response3x3`` responses and ``preprocessed2x2`` preprocessed data, which holds the 2x2 core
C of ``U_par C u_s^H``.  Every kind but ``hermitian2x2`` holds complex ``d x d`` matrices as
float64 (re, im) pairs, the complex128 layout; coherency data is Hermitian, and its container
holds (n1, n2, nfreq, 4) float64 ``[Psi11, Psi22, Re Psi12, Im Psi12]``, packed in chunks.  A
container with a retired tag, ``coherency2x2`` or ``preprocessed3x3``, is refused before its
payload is read.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import one_blas_thread
from .emcore import embed
from .errors import DatasetFormatError
from .scene import ArrayGeom, FrequencyBand, SourceSpec

MAGIC = b"POLARMIG1\n"

#: payload dtypes: complex matrices, and the four reals of a hermitian2x2 matrix
_DTYPE, _REAL = np.dtype("<c16"), np.dtype("<f8")
_CHUNK = 16_384  # matrices per chunk of a packed payload: 512 KB packed

#: array-data kind -> size d of its stored d x d matrices (the 2x2 core of preprocessed data)
ARRAY_KINDS = {"hermitian2x2": 2, "response3x3": 3, "preprocessed2x2": 2}
#: image-field kinds
IMAGE_KINDS = ("image2x2", "image3x3")
#: retired container tag -> why a container with it is refused
_RETIRED = {"coherency2x2": "holds all four complex entries; rerun simulate",
            "preprocessed3x3": "holds no 2x2 core; rerun preprocess"}

#: [Psi11, Psi22, Re Psi12, Im Psi12], which fix a Hermitian 2x2 matrix, in its row of reals
#: [Re11, Im11, Re12, Im12, Re21, Im21, Re22, Im22]
_PACKED = [0, 6, 2, 3]
# Unpacking is a product with a 0 / +-1 matrix: exact, as each output is one input, its
# negative or zero (a zero reads back as +0), and faster than numpy's strided copies.
_UNPACK = np.eye(8)[_PACKED]
_UNPACK[[2, 3], [4, 5]] = 1.0, -1.0  # Psi21 = conj(Psi12)


def _write_container(path, kind: str, values: np.ndarray, meta: dict) -> None:
    hermitian = kind == "hermitian2x2"
    values = np.ascontiguousarray(values, dtype=_DTYPE)
    header = {
        "kind": kind,
        "dtype": (_REAL if hermitian else _DTYPE).name,
        "shape": list(values.shape[:-2] + (4,) if hermitian else values.shape),
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        if not hermitian:
            fh.write(values)  # the C-contiguous buffer itself: no copy of the payload
            return
        reals, rows = values.view(np.float64).reshape(-1, 8), values.reshape(-1, 4)
        packed = np.empty((_CHUNK, 4))
        for lo in range(0, len(reals), _CHUNK):
            part, row = reals[lo:lo + _CHUNK], rows[lo:lo + _CHUNK]  # [Psi11, Psi12, Psi21, Psi22]
            if part[:, 1::6].any() or not np.array_equal(row[:, 2], np.conj(row[:, 1])):
                fh.close()
                os.remove(path)  # no partial container is left behind
                raise ValueError("coherency data must be exactly Hermitian")
            out = packed[:len(part)]
            np.take(part, _PACKED, axis=1, out=out, mode="clip")  # "raise" would buffer ``out``
            out += 0.0  # a zero is stored as +0, as it reads back
            fh.write(out)


@one_blas_thread()  # OpenBLAS threads woken here would spin on and slow the next stage by 40 %
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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # nested too deep
            raise DatasetFormatError(f"unparseable header at offset {off}: {exc}") from exc
        off += hlen
        if not isinstance(header, dict):
            raise DatasetFormatError("header is not a JSON object")
        kind = header.get("kind")
        if kind not in [*ARRAY_KINDS, *IMAGE_KINDS, *_RETIRED]:  # a list: kind may be unhashable
            raise DatasetFormatError(f"header key 'kind' holds unknown kind tag {kind!r}")
        if kind in _RETIRED:  # refused before its payload, which may be large or cut short
            raise DatasetFormatError(f"a {kind} container {_RETIRED[kind]}")
        hermitian = kind == "hermitian2x2"
        dtype = _REAL if hermitian else _DTYPE
        if header.get("dtype") != dtype.name:
            raise DatasetFormatError(f"header key 'dtype' must be {dtype.name!r} for {kind}")
        shape = _header_field(header, "shape", _dims)
        if hermitian and shape[-1:] != (4,):
            raise DatasetFormatError(f"header key 'shape' must end in 4 for {kind}, got {shape}")
        if not isinstance(header.get("meta"), dict):
            raise DatasetFormatError("header key 'meta' is missing or not an object")
        # Python ints: a numpy product of large entries wraps around
        count = math.prod(shape)
        if size - off != count * dtype.itemsize:
            raise DatasetFormatError(
                f"payload size mismatch at offset {off}: header key 'shape' declares "
                f"{count * dtype.itemsize} bytes, file holds {size - off}"
            )
        # checked against the file size first, so the payload is read once, in place
        if hermitian:
            values, packed = np.empty((count // 4, 8)), np.empty((_CHUNK, 4), _REAL)
            with np.errstate(invalid="ignore"):  # 0 * inf: non-finite data is refused later
                for lo in range(0, count // 4, _CHUNK):
                    part = packed[:fh.readinto(packed) // _REAL.itemsize // 4]
                    np.matmul(part, _UNPACK, out=values[lo:lo + _CHUNK])
            values, shape = values.view(_DTYPE), shape[:-1] + (2, 2)
        else:
            values = np.empty(count, dtype=_DTYPE)
            fh.readinto(values.view(np.uint8))
    try:
        values = values.reshape(shape)
    except ValueError as exc:  # an empty payload whose other dimensions are too large
        raise DatasetFormatError(f"header key 'shape' is out of range: {exc}") from exc
    return kind, values, header["meta"]


def table_text(header, rows) -> str:
    """CSV text of every table the package writes: the ``header`` names, then one line per row.

    Lines end in LF, the last one too.  String fields, the leading labels, are written as given
    and every other field as ``repr(float(v))``, which reads back to the same float.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


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


def _number(value, where: str) -> float:
    """A JSON number as a float; a bool, a string or an integer beyond the float range is refused.

    These readers read each value from outside, in a config or a container header, and raise
    TypeError or ValueError with a message that starts with ``where``, the field name.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where}: integer beyond the float range") from None
    raise TypeError(f"{where}: expected a number, got {value!r}")


def _count(value, where: str) -> int:
    """An integral JSON number, 3 or 3.0; a fraction, bool or string is refused, not truncated."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise TypeError(f"{where}: expected an integer, got {value!r}")


def _list(value, where: str):
    if isinstance(value, (list, tuple)):
        return value
    raise TypeError(f"{where}: expected a list, got {value!r}")


def _dims(value, where: str) -> tuple:
    """Nonnegative integer dimensions, each read by :func:`_count` and named by its index."""
    dims = tuple(_count(n, f"{where}[{i}]") for i, n in enumerate(_list(value, where)))
    if any(n < 0 for n in dims):
        raise ValueError(f"{where}: negative dimension in {value!r}")
    return dims


def _numbers(value, where: str) -> np.ndarray:
    """Nested JSON arrays as a float array, each entry read by :func:`_number`.

    An error names the first bad entry, as ``where[1][0]``.  Names are built only after a failure
    and floats skip the ABC check: either would slow a 128-bin coherency table several fold.
    """
    try:
        entries = np.asarray(_list(value, where), dtype=object)  # ragged: lists as entries
        flat = [v if type(v) is float else _number(v, where) for v in entries.flat]
        return np.array(flat, dtype=float).reshape(entries.shape)
    except (TypeError, ValueError, RuntimeError):  # RuntimeError: beyond numpy's dimension limit
        for i, v in enumerate(_list(value, where)):
            (_numbers if isinstance(v, (list, tuple)) else _number)(v, f"{where}[{i}]")
    raise ValueError(f"{where}: expected a rectangular array of numbers")


def _header_field(node: dict, path: str, read=_number):
    """Header value at a dotted ``path`` below ``node``, read by one of the readers above.

    A missing or refused value raises DatasetFormatError; a refused one keeps the reader's
    text: ``header key 'source.coherency_re'[1][0]: expected a number, got True``.
    """
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise DatasetFormatError(f"header key {path!r} is missing")
        node = node[key]
    try:
        return read(node, repr(path))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"header key {exc}") from exc


def _geometry_from_meta(meta: dict):
    get = partial(_header_field, meta)
    geom = ArrayGeom(side=get("array.side"), n1=get("array.n1", _count), n2=get("array.n2", _count))
    with np.errstate(invalid="ignore"):  # 1j * inf is NaN + inf j, refused as not finite
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

    ``kind`` is a key of :data:`ARRAY_KINDS`, the container tag it is written under.
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
        # two reductions per receiver row, in cache for the second; no boolean table. NaN fails both
        if not all(r.max() < np.inf and r.min() > -np.inf for r in v[..., None].view(float)):
            raise ValueError(f"{self.kind} values must be finite (NaN or inf found)")
        if not 0 < self.wave_speed < np.inf:
            raise ValueError("wave speed must be positive and finite")
        self.matrices = v

    @property
    def values(self) -> np.ndarray:
        """The (n1, n2, nfreq, d, d) field: ``matrices``, or the 3x3 lift of a preprocessed core."""
        if self.kind != "preprocessed2x2":
            return self.matrices
        return embed(self.matrices, self.source.basis())

    @property
    def omegas(self) -> np.ndarray:
        return self.band.omegas()

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.band.wavenumbers(self.wave_speed)

    def write(self, path) -> None:
        """Write the container; coherency data that is not exactly Hermitian is refused."""
        _write_container(path, self.kind, self.matrices,
                         _geometry_meta(self.geom, self.source, self.band, self.wave_speed))

    @staticmethod
    def read(path) -> "ArrayDataSet":
        kind, values, meta = _read_container(path)
        if kind in IMAGE_KINDS:
            raise DatasetFormatError("file holds an image field, use ImageField.read")
        try:  # a payload that disagrees with its header, or a header value out of range
            return ArrayDataSet(kind, values, *_geometry_from_meta(meta))
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc


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
        try:  # non-finite values, or a grid shape or points that disagree with the payload
            return ImageField(points=points, values=values, shape=shape, meta=meta)
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc
