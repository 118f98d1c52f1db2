"""Container format tests: round trips and corruption handling."""

import json

import numpy as np
import pytest

import polarmig as pm
from polarmig.cli import main as cli_main
from polarmig.dataset import MAGIC, _read_container

from conftest import band, bench_scene, three_dipole_scene


def _small_dataset(rng) -> pm.ArrayDataSet:
    scene = three_dipole_scene(n=4)
    fb = band(3)
    values = rng.standard_normal((4, 4, 3, 2, 2)) + 1j * rng.standard_normal((4, 4, 3, 2, 2))
    values = values + np.conj(np.swapaxes(values, -1, -2))
    return pm.ArrayDataSet(
        kind="coherency2x2",
        values=values,
        geom=scene.geom,
        source=scene.source,
        band=fb,
        wave_speed=scene.wave_speed,
    )


def test_roundtrip_bit_exact(tmp_path, rng):
    ds = _small_dataset(rng)
    path = tmp_path / "data.pmds"
    ds.write(path)
    back = pm.ArrayDataSet.read(path)
    assert back.kind == ds.kind
    assert np.array_equal(back.values, ds.values)
    assert back.geom == ds.geom
    assert np.array_equal(back.source.position, ds.source.position)
    assert np.array_equal(back.source.coherency, ds.source.coherency)
    assert back.band == ds.band
    # writing again produces identical bytes
    path2 = tmp_path / "data2.pmds"
    back.write(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_per_frequency_coherency_roundtrip(tmp_path, rng):
    scene = bench_scene([], n=4)
    fb = band(3)
    js = np.stack([((1 + i) * np.eye(2)).astype(complex) for i in range(3)])
    src = pm.SourceSpec(
        position=scene.source.position,
        reference_point=scene.source.reference_point,
        coherency=js,
    )
    values = np.zeros((4, 4, 3, 2, 2), dtype=complex)
    ds = pm.ArrayDataSet("coherency2x2", values, scene.geom, src, fb, scene.wave_speed)
    path = tmp_path / "t.pmds"
    ds.write(path)
    back = pm.ArrayDataSet.read(path)
    assert np.array_equal(back.source.coherency, js)


def test_corrupt_magic_names_offset(tmp_path, rng):
    ds = _small_dataset(rng)
    path = tmp_path / "data.pmds"
    ds.write(path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(pm.DatasetFormatError, match="offset 0"):
        pm.ArrayDataSet.read(path)


def test_truncated_payload_rejected(tmp_path, rng):
    ds = _small_dataset(rng)
    path = tmp_path / "data.pmds"
    ds.write(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-17])
    with pytest.raises(pm.DatasetFormatError, match="size mismatch"):
        pm.ArrayDataSet.read(path)


def test_oversized_payload_rejected(tmp_path, rng):
    ds = _small_dataset(rng)
    path = tmp_path / "data.pmds"
    ds.write(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(pm.DatasetFormatError, match="size mismatch"):
        pm.ArrayDataSet.read(path)


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "bad.pmds"
    path.write_bytes(MAGIC + (200).to_bytes(8, "little") + b"\x01" * 10)
    with pytest.raises(pm.DatasetFormatError, match="truncated header"):
        pm.ArrayDataSet.read(path)


def test_values_shape_validation(rng):
    scene = three_dipole_scene(n=4)
    with pytest.raises(ValueError, match="shape"):
        pm.ArrayDataSet(
            kind="coherency2x2",
            values=np.zeros((4, 4, 2, 2, 2), dtype=complex),
            geom=scene.geom,
            source=scene.source,
            band=band(3),
            wave_speed=scene.wave_speed,
        )


def test_image_field_roundtrip(tmp_path, rng):
    pts = rng.uniform(-1, 1, (12, 3))
    vals = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
    field = pm.ImageField(points=pts, values=vals, shape=(3, 4), meta={"offset": 1.5})
    path = tmp_path / "field.pmds"
    field.write(path)
    back = pm.ImageField.read(path)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.points, field.points)
    assert back.shape == (3, 4)
    assert back.meta["offset"] == 1.5
    assert np.allclose(back.norms(), np.linalg.norm(vals, axis=(1, 2)))
    # a shape a container read would refuse is refused before it is written
    with pytest.raises(ValueError, match="grid shape must be nonnegative"):
        pm.ImageField(points=pts, values=vals, shape=(-3, -4), meta={})


def test_kind_cross_reads_rejected(tmp_path, rng):
    ds = _small_dataset(rng)
    dpath = tmp_path / "d.pmds"
    ds.write(dpath)
    with pytest.raises(pm.DatasetFormatError):
        pm.ImageField.read(dpath)
    sig = pm.TimeSignal(samples=rng.standard_normal((2, 64)), dt=0.5)
    spath = tmp_path / "s.pmds"
    sig.write(spath)
    with pytest.raises(pm.DatasetFormatError):
        pm.ArrayDataSet.read(spath)
    back = pm.TimeSignal.read(spath)
    assert np.array_equal(back.samples, sig.samples)
    assert back.dt == sig.dt


@pytest.mark.parametrize("dt, t0, message", [
    (np.nan, 0.0, "sample interval"),
    (np.inf, 0.0, "sample interval"),
    (0.5, np.inf, "start time"),
    (0.5, np.nan, "start time"),
])
def test_time_signal_refuses_non_finite_times(tmp_path, dt, t0, message):
    # times() returned NaN or inf for these; json reads a NaN token, so the
    # container path has to refuse them too
    with pytest.raises(ValueError, match=message):
        pm.TimeSignal(np.ones((3, 8)), dt=dt, t0=t0)
    good, bad = tmp_path / "good.pmds", tmp_path / "bad.pmds"
    pm.TimeSignal(np.ones((3, 8)), dt=0.5).write(good)
    _rewrite_header(good, bad, lambda h: h["meta"].update(dt=dt, t0=t0))
    with pytest.raises(ValueError, match=message):
        pm.TimeSignal.read(bad)


def test_array_read_of_an_image_field_names_it(tmp_path, rng, capsys):
    field = pm.ImageField(rng.uniform(-1, 1, (6, 3)), np.ones((6, 2, 2)), (2, 3), {})
    path = tmp_path / "slice00_alpha.pmds"
    field.write(path)
    with pytest.raises(pm.DatasetFormatError, match="image field"):
        pm.ArrayDataSet.read(path)
    argv = ["preprocess", str(path), "--out", str(tmp_path / "out")]
    _assert_cli_rejects(capsys, argv, "file holds an image field")


def _rewrite_header(src, dst, edit) -> None:
    """Copy a container, passing its JSON header through ``edit`` on the way."""
    blob = src.read_bytes()
    off = len(MAGIC)
    hlen = int.from_bytes(blob[off : off + 8], "little")
    header = json.loads(blob[off + 8 : off + 8 + hlen])
    edit(header)
    new = json.dumps(header).encode()
    dst.write_bytes(MAGIC + len(new).to_bytes(8, "little") + new + blob[off + 8 + hlen :])


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_DROP = object()


def _set(header, path, value) -> None:
    node = header
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def _assert_cli_rejects(capsys, argv, key) -> None:
    assert cli_main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid input: ") and key in lines[0]


def test_malformed_dataset_header_exits_2(tmp_path, rng, capsys):
    good = tmp_path / "good.pmds"
    _small_dataset(rng).write(good)
    _, _, meta = _read_container(good)
    paths = [(key,) for key in ("kind", "dtype", "shape", "meta")]
    paths += [("meta",) + p for p in _key_paths(meta)]
    assert ("meta", "source", "coherency_im") in paths and len(paths) == 18
    ill_typed = [
        (("dtype",), 5), (("shape",), "abc"), (("meta",), [1]),
        (("meta", "array", "n1"), 2.5), (("meta", "source", "position"), "x"),
        (("meta", "band", "center"), None), (("meta", "wave_speed"), [1.0]),
    ]
    cases = [(p, _DROP) for p in paths] + ill_typed
    for i, (path, value) in enumerate(cases):
        bad = tmp_path / f"bad{i}.pmds"
        _rewrite_header(good, bad, lambda h: _set(h, path, value))
        argv = ["preprocess", str(bad), "--out", str(tmp_path / "out")]
        _assert_cli_rejects(capsys, argv, path[-1])


def test_malformed_image_header_exits_2(tmp_path, rng, capsys):
    pts = rng.uniform(-1, 1, (6, 3))
    vals = rng.standard_normal((6, 2, 2)) + 0j
    good = tmp_path / "field.pmds"
    pm.ImageField(points=pts, values=vals, shape=(2, 3), meta={}).write(good)
    cases = [(("meta", "points"), _DROP), (("meta", "grid_shape"), _DROP),
             (("meta", "points"), 7), (("meta", "grid_shape"), [2, "3"])]
    for i, (path, value) in enumerate(cases):
        bad = tmp_path / f"bad{i}.pmds"
        _rewrite_header(good, bad, lambda h: _set(h, path, value))
        _assert_cli_rejects(capsys, ["glyphs", str(bad), "--out", str(tmp_path / "g")], path[-1])


@pytest.mark.parametrize("shape, nbytes", [
    ([4294967296, 4294967296], 0),  # an int64 product wraps around to 0
    ([-1, -16], 256),
    ([True, 16], 256),
    ([2**62, 0], 0),
])
def test_container_shape_out_of_range_exits_2(tmp_path, rng, capsys, shape, nbytes):
    good, bad = tmp_path / "good.pmds", tmp_path / "bad.pmds"
    _small_dataset(rng).write(good)
    _rewrite_header(good, bad, lambda h: _set(h, ("shape",), shape))
    blob = bad.read_bytes()
    hlen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    bad.write_bytes(blob[:len(MAGIC) + 8 + hlen] + bytes(nbytes))
    with pytest.raises(pm.DatasetFormatError, match="'shape'"):
        _read_container(bad)
    _assert_cli_rejects(capsys, ["preprocess", str(bad), "--out", str(tmp_path / "out")], "'shape'")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_dataset_exits_2(tmp_path, rng, capsys, bad):
    ds = _small_dataset(rng)
    values = ds.values.copy()
    values[1, 2, 0, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        pm.ArrayDataSet(ds.kind, values, ds.geom, ds.source, ds.band, ds.wave_speed)
    good, poisoned = tmp_path / "good.pmds", tmp_path / "nan.pmds"
    ds.write(good)
    blob = good.read_bytes()
    payload = values.astype("<c16").tobytes()
    poisoned.write_bytes(blob[: len(blob) - len(payload)] + payload)
    argv = ["preprocess", str(poisoned), "--out", str(tmp_path / "out")]
    _assert_cli_rejects(capsys, argv, "finite")
    # the same value in the header's geometry, band, wave speed and coherency
    bad_point = complex(bad).real + complex(bad).imag
    for path in (("array", "side"), ("band", "center"), ("band", "width"), ("wave_speed",)):
        _rewrite_header(good, poisoned, lambda h: _set(h["meta"], path, bad_point))
        _assert_cli_rejects(capsys, argv, "must be positive")
    coherency = ("source", "coherency_re", 0, 0)
    _rewrite_header(good, poisoned, lambda h: _set(h["meta"], coherency, bad_point))
    _assert_cli_rejects(capsys, argv, "source coherency must be finite")
    assert not (tmp_path / "out" / "preprocessed.pmds").exists()
    # an image field, poisoned in its payload and in its header's points
    field = pm.ImageField(rng.uniform(-1, 1, (6, 3)), np.ones((6, 2, 2)), (2, 3), {})
    values = field.values.copy()
    values[4, 0, 1] = bad
    with pytest.raises(ValueError, match="values must be finite"):
        pm.ImageField(field.points, values, field.shape, {})
    field.write(good)
    blob = good.read_bytes()
    poisoned.write_bytes(blob[: len(blob) - values.nbytes] + values.astype("<c16").tobytes())
    argv = ["glyphs", str(poisoned), "--out", str(tmp_path / "glyphs")]
    _assert_cli_rejects(capsys, argv, "image field values must be finite")
    _rewrite_header(good, poisoned, lambda h: h["meta"]["points"][2].__setitem__(1, bad_point))
    _assert_cli_rejects(capsys, argv, "image field points must be finite")
    assert not (tmp_path / "glyphs" / "glyphs.svg").exists()


def test_pinned_corruption_sweep_keeps_the_exit_contract(tmp_path):
    # fixed byte values over every fifth header byte, then fixed cuts; each
    # corrupted container goes through the preprocess stage in process
    scene = bench_scene([], n=3)
    path = tmp_path / "coherency.pmds"
    pm.coherency_synthesize(scene, band(3)).write(path)
    blob = path.read_bytes()
    payload = len(MAGIC) + 8 + int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    variants = []
    for offset in range(0, payload, 5):
        for value in (0x00, 0x20, 0x22, 0x2C, 0x2D, 0x39, 0x5D, 0xFF):
            if blob[offset] != value:
                variants.append(blob[:offset] + bytes([value]) + blob[offset + 1:])
    for cut in (0, 5, len(MAGIC), len(MAGIC) + 7, payload - 1, payload, payload + 1,
                payload + 33, len(blob) - 1):
        variants.append(blob[:cut])
    codes = []
    for i, corrupt in enumerate(variants):
        path.write_bytes(corrupt)
        codes.append(cli_main(["preprocess", str(path), "--out", str(tmp_path / f"out{i}")]))
    assert set(codes) <= {0, 2, 3}
    assert codes.count(2) > len(variants) // 2
