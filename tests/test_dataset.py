"""Container format tests: round trips and corruption handling."""

import ast
import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polarmig as pm
from polarmig import _parallel, dataset
from polarmig.cli import main as cli_main
from polarmig.dataset import MAGIC, _read_container, _write_container
from polarmig.preprocess import _coherency

from conftest import (assert_cli_rejects, band, bench_scene, exactly_hermitian,
                      three_dipole_scene)


def _small_dataset(rng) -> pm.ArrayDataSet:
    scene = three_dipole_scene(n=4)
    fb = band(3)
    values = rng.standard_normal((4, 4, 3, 2, 2)) + 1j * rng.standard_normal((4, 4, 3, 2, 2))
    values = values + np.conj(np.swapaxes(values, -1, -2))
    return pm.ArrayDataSet(
        kind="hermitian2x2",
        matrices=values,
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


@pytest.mark.parametrize("kind", [*dataset.ARRAY_KINDS, *dataset.IMAGE_KINDS])
def test_every_kind_reads_back_with_its_kind_and_bytes(tmp_path, rng, kind):
    d = int(kind[-1])

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind in dataset.IMAGE_KINDS:
        data = pm.ImageField(rng.uniform(-1, 1, (6, 3)), noise(6, d, d), (2, 3), {"offset": 1.5})
    else:
        scene = three_dipole_scene(n=4)
        values = noise(4, 4, 3, d, d)
        if kind == "hermitian2x2":
            values = _coherency(values, np.eye(2))
        data = pm.ArrayDataSet(kind, values, scene.geom, scene.source, band(3), scene.wave_speed)
    path, again = tmp_path / "data.pmds", tmp_path / "again.pmds"
    data.write(path)
    assert _read_container(path)[0] == kind
    back = type(data).read(path)
    assert np.array_equal(back.values, data.values)
    back.write(again)
    assert again.read_bytes() == path.read_bytes()
    if kind in dataset.IMAGE_KINDS:
        return
    assert back.kind == kind
    # a header shape of the payload's size that disagrees with the metadata, (4, 3, 4) receivers
    # by bins for (4, 4, 3), is refused as a malformed container whatever the kind
    bad = tmp_path / "bad.pmds"
    _rewrite_header(path, bad, lambda h: _set(h, ("shape",), [4, 3, 4, *h["shape"][3:]]))
    with pytest.raises(pm.DatasetFormatError, match=f"{kind} shape .* does not match"):
        pm.ArrayDataSet.read(bad)


def test_kind_tags_in_the_source_are_the_container_tags():
    # every kind-like string literal in the package is a live or a retired container tag,
    # and only the container module names a retired one
    live = {*dataset.ARRAY_KINDS, *dataset.IMAGE_KINDS}
    found = {}
    for module in sorted(Path(dataset.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Constant) and re.fullmatch(r"[a-z]+[23]x[23]", str(node.value)):
                found.setdefault(node.value, set()).add(module.name)
    assert set(dataset.ARRAY_KINDS) <= set(found)
    assert set(found) <= live | set(dataset._RETIRED), found
    for tag in dataset._RETIRED:
        assert found.get(tag, set()) <= {"dataset.py"}, (tag, found[tag])


def test_table_text_is_a_header_then_one_lf_line_per_row_that_reads_back_bitwise():
    numbers = [0.1, -0.0, 5e-324, 1e308, np.float64(2.0) / 3]
    text = dataset.table_text(["label", "part", *"abcde"],
                              [("recovered_0", "re", *numbers), ("7", "im", 1, -2, 0.5, 0, 3)])
    lines = text.split("\n")
    assert "\r" not in text and len(lines) == 4 and lines[-1] == ""  # the last line ends in LF
    assert lines[0] == "label,part,a,b,c,d,e"
    first = lines[1].split(",")
    assert first[:2] == ["recovered_0", "re"]  # labels verbatim
    assert np.array_equal(np.array([float(f) for f in first[2:]]).view(np.uint64),
                          np.array(numbers, dtype=float).view(np.uint64))
    assert lines[2] == "7,im,1.0,-2.0,0.5,0.0,3.0"
    assert dataset.table_text(["x1"], []) == "x1\n"


def _repr_float_sites(node, where=""):
    """Name of the function around each ``repr(float(...))`` call below ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = node.name
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr" and node.args:
        inner = node.args[0]
        if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "float":
            yield where
    for child in ast.iter_child_nodes(node):
        yield from _repr_float_sites(child, where)


def test_table_fields_are_formatted_only_by_table_text():
    # every CSV the package writes gets its round-trip field text from one formatter
    found = set()
    for module in sorted(Path(dataset.__file__).parent.glob("*.py")):
        sites = _repr_float_sites(ast.parse(module.read_text()))
        found |= {(module.name, where) for where in sites}
    assert found == {("dataset.py", "table_text")}


@pytest.mark.parametrize("case, message", [
    ("header", "header is not a JSON object"),
    ("shape", "header key 'shape' is out of range"),
    ("points", "points must be (npts, 3)"),
])
def test_container_refusals_exit_2(tmp_path, rng, capsys, case, message):
    bad = tmp_path / "bad.pmds"
    if case == "points":  # image points with two coordinates
        with pytest.raises(ValueError, match=re.escape(message)):
            pm.ImageField(np.zeros((6, 2)), np.ones((6, 2, 2)), (2, 3), {})
        good = tmp_path / "good.pmds"
        pm.ImageField(rng.uniform(-1, 1, (6, 3)), np.ones((6, 2, 2)), (2, 3), {}).write(good)
        _rewrite_header(good, bad, lambda h: _set(h, ("meta", "points"), [[0.0, 0.0]] * 6))
        read, stage = pm.ImageField.read, "glyphs"
    else:  # a JSON array for a header, or an empty payload of dimensions no array holds
        header = [1] if case == "header" else {"kind": "response3x3", "dtype": "complex128",
                                               "shape": [0, 2**62, 2**62, 3, 3], "meta": {}}
        blob = json.dumps(header).encode()
        bad.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        read, stage = pm.ArrayDataSet.read, "preprocess"
    with pytest.raises(pm.DatasetFormatError, match=re.escape(message)):
        read(bad)
    assert_cli_rejects(capsys, [stage, str(bad), "--out", str(tmp_path / "out")], message)


@pytest.mark.parametrize("order", ["<c16", ">c16"])
def test_container_payload_is_the_c_order_bytes(tmp_path, rng, order):
    # a strided input, in either byte order, is written as MAGIC, the header
    # length, the header and the C-order little-endian bytes of its values
    full = rng.standard_normal((6, 5, 2, 2)) + 1j * rng.standard_normal((6, 5, 2, 2))
    values = full.astype(order)[::2].swapaxes(0, 1)
    assert not values.flags.c_contiguous
    path = tmp_path / "strided.pmds"
    _write_container(path, "image2x2", values, {"note": "strided"})
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    header = blob[len(MAGIC) + 8:len(MAGIC) + 8 + hlen]
    assert json.loads(header) == {"kind": "image2x2", "dtype": "complex128",
                                  "shape": [5, 3, 2, 2], "meta": {"note": "strided"}}
    assert blob == MAGIC + hlen.to_bytes(8, "little") + header + values.astype("<c16").tobytes()


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
    ds = pm.ArrayDataSet("hermitian2x2", values, scene.geom, src, fb, scene.wave_speed)
    path = tmp_path / "t.pmds"
    ds.write(path)
    back = pm.ArrayDataSet.read(path)
    assert np.array_equal(back.source.coherency, js)


def test_preprocessed_core_round_trip_is_bitwise(tmp_path, monkeypatch, blas_count):
    # preprocess forms C in bin blocks, the read takes the whole payload; both lift it alike
    scene = three_dipole_scene(n=9)
    ds = pm.coherency_synthesize(scene, band(9))
    monkeypatch.setattr(_parallel, "_BLOCK_CELLS", 2 * 81)
    for blas in (1, 2):
        _parallel.set_blas_threads(blas)
        pre, _ = pm.preprocess(ds)
        path = tmp_path / f"pre{blas}.pmds"
        pre.write(path)
        kind, payload, _ = _read_container(path)
        assert kind == "preprocessed2x2" and np.array_equal(payload, pre.matrices)
        back = pm.ArrayDataSet.read(path)
        assert back.kind == "preprocessed2x2"
        assert np.array_equal(back.values, pre.values)
        assert np.array_equal(back.matrices, pre.matrices)
        # values are lifted from the core afresh on each access, so no edit parts them from it
        lifted = pre.values.copy()
        for carried in (pre, back):
            edited = carried.values
            assert edited is not carried.values and edited.shape == (9, 9, 9, 3, 3)
            edited[0, 0, 0] *= 2
            assert np.array_equal(carried.values, lifted)
            with pytest.raises(AttributeError):
                carried.values = edited
        back.write(tmp_path / "again.pmds")
        assert (tmp_path / "again.pmds").read_bytes() == path.read_bytes()
    # a payload of the right size in another shape is refused before it is stored
    _rewrite_header(path, tmp_path / "bad.pmds", lambda h: _set(h, ("shape",), [9, 9, 9, 4, 1]))
    with pytest.raises(pm.DatasetFormatError, match="preprocessed2x2 shape .* does not match"):
        pm.ArrayDataSet.read(tmp_path / "bad.pmds")


def test_coreless_preprocessed_data_is_refused(tmp_path, capsys):
    scene = three_dipole_scene(n=9)
    pre, _ = pm.preprocess(pm.coherency_synthesize(scene, band(5)))
    # the core is the one stored array, so a replace copy keeps it: the same bytes, the same bits
    copy = dataclasses.replace(pre)
    assert copy.matrices is pre.matrices and np.array_equal(copy.values, pre.values)
    pre.write(tmp_path / "pre.pmds")
    copy.write(tmp_path / "copy.pmds")
    assert (tmp_path / "copy.pmds").read_bytes() == (tmp_path / "pre.pmds").read_bytes()
    pts = scene.scatterer_positions()
    for call in (lambda ds: pm.kirchhoff_band(ds, pts),
                 lambda ds: pm.recover_alpha_field(ds, pts, mode="exact"),
                 lambda ds: pm.recover_alpha_field(ds, pts, mode="fraunhofer")):
        assert np.array_equal(call(copy), call(pre))
    # all 9 entries in a container of that kind, as data without a core was once written
    path = tmp_path / "nine.pmds"
    _write_container(path, "preprocessed3x3", pre.values, _read_container(tmp_path / "pre.pmds")[2])
    with pytest.raises(pm.DatasetFormatError, match="holds no 2x2 core; rerun preprocess"):
        pm.ArrayDataSet.read(path)
    assert_cli_rejects(capsys, ["preprocess", str(path), "--out", str(tmp_path / "out")],
                        "a preprocessed3x3 container holds no 2x2 core; rerun preprocess")


def test_coherency_container_packs_four_reals_and_round_trips_bitwise(tmp_path, monkeypatch):
    # 175 matrices in chunks of 16, the last one partial
    monkeypatch.setattr(dataset, "_CHUNK", 16)
    ds = pm.coherency_synthesize(three_dipole_scene(n=5), band(7))
    psi = exactly_hermitian(ds.values)
    path = tmp_path / "coherency.pmds"
    ds.write(path)
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    header = json.loads(blob[len(MAGIC) + 8:len(MAGIC) + 8 + hlen])
    assert (header["kind"], header["dtype"], header["shape"]) == ("hermitian2x2", "float64",
                                                                  [5, 5, 7, 4])
    payload = blob[len(MAGIC) + 8 + hlen:]
    assert len(payload) == 32 * 5 * 5 * 7  # 32 bytes per receiver and bin
    packed = np.stack([psi[..., 0, 0].real, psi[..., 1, 1].real,
                       psi[..., 0, 1].real, psi[..., 0, 1].imag], axis=-1)
    assert payload == packed.astype("<f8").tobytes()
    back = pm.ArrayDataSet.read(path)
    assert back.kind == "hermitian2x2"
    assert np.array_equal(back.values.view(np.uint64), psi.view(np.uint64))
    back.write(tmp_path / "again.pmds")
    assert (tmp_path / "again.pmds").read_bytes() == blob


@pytest.mark.parametrize("entry, part", [((4, 4, 6, 1, 0), 0), ((0, 0, 0, 1, 0), 1),
                                         ((2, 3, 4, 1, 1), 1), ((4, 4, 6, 0, 0), 1)],
                         ids=["last-psi21-re", "first-psi21-im", "psi22-im", "last-psi11-im"])
def test_write_refuses_coherency_data_that_is_not_exactly_hermitian(tmp_path, monkeypatch,
                                                                      entry, part):
    # one entry one ulp off, in the first chunk, the last or between: no file is left behind,
    # also where one was written before
    monkeypatch.setattr(dataset, "_CHUNK", 16)
    ds = pm.coherency_synthesize(three_dipole_scene(n=5), band(7))
    values = ds.values.copy()
    reals = values.view(np.float64)  # (..., 2, 4): each row's entries as re, im in turn
    at = entry[:-1] + (2 * entry[-1] + part,)
    reals[at] = np.nextafter(reals[at], np.inf)
    bad = dataclasses.replace(ds, matrices=values)
    path = tmp_path / "coherency.pmds"
    for existing in (False, True):
        if existing:
            ds.write(path)
        with pytest.raises(ValueError, match="exactly Hermitian"):
            bad.write(path)
        assert not path.exists()


def test_old_coherency_container_is_refused(tmp_path, capsys):
    # all four complex entries in a coherency2x2 container, as coherency data was once written
    ds = pm.coherency_synthesize(three_dipole_scene(n=5), band(3))
    ds.write(tmp_path / "new.pmds")
    path = tmp_path / "coherency.pmds"
    _write_container(path, "coherency2x2", ds.values, _read_container(tmp_path / "new.pmds")[2])
    with pytest.raises(pm.DatasetFormatError, match="rerun simulate"):
        pm.ArrayDataSet.read(path)
    assert_cli_rejects(capsys, ["preprocess", str(path), "--out", str(tmp_path / "out")],
                        "a coherency2x2 container holds all four complex entries; rerun simulate")
    assert not (tmp_path / "out" / "preprocessed.pmds").exists()


@pytest.mark.parametrize("tag, hint", [("coherency2x2", "rerun simulate"),
                                        ("preprocessed3x3", "rerun preprocess")])
def test_truncated_retired_container_gets_the_rerun_hint(tmp_path, capsys, tag, hint):
    # a retired tag is refused before the payload is read, so a payload cut short
    # gets the hint, not a size mismatch, and from either reader
    ds = pm.coherency_synthesize(three_dipole_scene(n=5), band(3))
    ds.write(tmp_path / "new.pmds")
    values = ds.values if tag == "coherency2x2" else np.zeros((5, 5, 3, 3, 3), complex)
    path = tmp_path / "old.pmds"
    _write_container(path, tag, values, _read_container(tmp_path / "new.pmds")[2])
    path.write_bytes(path.read_bytes()[:-100])
    for read in (pm.ArrayDataSet.read, pm.ImageField.read):
        with pytest.raises(pm.DatasetFormatError, match=f"a {tag} container .*; {hint}$"):
            read(path)
    assert_cli_rejects(capsys, ["preprocess", str(path), "--out", str(tmp_path / "out")], hint)


def test_coherency_container_peak_memory_is_the_data_its_read_back_and_one_chunk(tmp_path):
    n, nbins = 31, 128
    scene = three_dipole_scene(n=n)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        m = rng.standard_normal((n, n, nbins, 2, 2)) + 1j * rng.standard_normal((n, n, nbins, 2, 2))
        psi = np.ascontiguousarray(_coherency(m, np.eye(2)))  # as synthesis stores it
        del m
        ds = pm.ArrayDataSet("hermitian2x2", psi, scene.geom, scene.source, band(nbins),
                             scene.wave_speed)
        tracemalloc.reset_peak()
        ds.write(tmp_path / "coherency.pmds")
        back = pm.ArrayDataSet.read(tmp_path / "coherency.pmds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, ds.values)
    table = ds.matrices.nbytes
    # one chunk: its packed reals and, while written, the Hermitian check's temporaries, or
    # while read, its packed reals; less than 64 bytes a matrix
    chunk = 64 * dataset._CHUNK
    assert chunk < table // 3
    assert peak < 2 * table + chunk, (peak, table)


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
            kind="hermitian2x2",
            matrices=np.zeros((4, 4, 2, 2, 2), dtype=complex),
            geom=scene.geom,
            source=scene.source,
            band=band(3),
            wave_speed=scene.wave_speed,
        )


@pytest.mark.parametrize("kind, d", [("image2x2", 2), ("image3x3", 3)])
def test_array_data_refuses_the_image_kinds(tmp_path, kind, d):
    # neither ArrayDataSet.read nor ImageField.read could read such data back
    scene = three_dipole_scene(n=3)
    with pytest.raises(ValueError, match=f"kind '{kind}' is not an array-data kind"):
        pm.ArrayDataSet(kind, np.zeros((3, 3, 2, d, d)), scene.geom, scene.source, band(2),
                        scene.wave_speed)


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


@pytest.mark.parametrize("shape", [(4, 2, 3), (4,), (4, 4, 4), (4, 1, 1)],
                         ids=["2x3", "flat", "4x4", "1x1"])
def test_image_field_refuses_values_that_are_not_2x2_or_3x3(rng, shape):
    # a (4, 2, 3) field used to be written as an image3x3 container, and a (4,) one
    # to fail only at write, with an unknown kind tag
    with pytest.raises(ValueError, match=r"values must be \(4, d, d\) with d 2 or 3"):
        pm.ImageField(rng.uniform(-1, 1, (4, 3)), np.ones(shape), (4,), {})


@pytest.mark.parametrize("kind, shape", [("image3x3", (4, 2, 3)), ("image2x2", (4,)),
                                         ("image3x3", (4, 2, 2)), ("image2x2", (4, 3, 3))],
                         ids=["2x3", "flat", "2x2-as-3x3", "3x3-as-2x2"])
def test_image_read_refuses_a_payload_its_kind_tag_misstates(tmp_path, rng, capsys, kind, shape):
    path = tmp_path / "slice00_alpha.pmds"
    meta = {"points": rng.uniform(-1, 1, (4, 3)).tolist(), "grid_shape": [4]}
    _write_container(path, kind, np.ones(shape), meta)
    with pytest.raises(pm.DatasetFormatError, match=f"{kind} payload shape"):
        pm.ImageField.read(path)
    assert_cli_rejects(capsys, ["glyphs", str(path), "--out", str(tmp_path / "out")],
                        f"{kind} payload shape")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    ("nan", "image field values must be finite"),
    ("grid_shape", "grid shape must be nonnegative and match the point count"),
])
def test_image_read_reports_a_field_the_constructor_refuses_as_a_format_error(
        tmp_path, rng, capsys, case, message):
    # the constructor's ValueError is re-raised as DatasetFormatError, as ArrayDataSet.read does
    good, bad = tmp_path / "good.pmds", tmp_path / "slice00_alpha.pmds"
    pm.ImageField(rng.uniform(-1, 1, (2, 3)), np.ones((2, 2, 2)), (2,), {}).write(good)
    if case == "nan":  # the last imaginary part of the payload
        bad.write_bytes(good.read_bytes()[:-8] + np.float64(np.nan).tobytes())
    else:
        _rewrite_header(good, bad, lambda h: _set(h, ("meta", "grid_shape"), [3]))
    with pytest.raises(pm.DatasetFormatError, match=message) as info:
        pm.ImageField.read(bad)
    assert str(info.value) == message + (" (NaN or inf found)" if case == "nan" else "")
    assert_cli_rejects(capsys, ["glyphs", str(bad), "--out", str(tmp_path / "out")], message)
    assert not (tmp_path / "out").exists()


def test_kind_cross_reads_rejected(tmp_path, rng):
    ds = _small_dataset(rng)
    dpath = tmp_path / "d.pmds"
    ds.write(dpath)
    with pytest.raises(pm.DatasetFormatError):
        pm.ImageField.read(dpath)
    # time signals are no container kind: a hand-written timeseries header is unknown
    spath = tmp_path / "s.pmds"
    _rewrite_header(dpath, spath, lambda h: h.update(kind="timeseries", dtype="float64"))
    for read in (pm.ArrayDataSet.read, pm.ImageField.read):
        with pytest.raises(pm.DatasetFormatError, match="unknown kind tag 'timeseries'"):
            read(spath)


def test_array_read_of_an_image_field_names_it(tmp_path, rng, capsys):
    field = pm.ImageField(rng.uniform(-1, 1, (6, 3)), np.ones((6, 2, 2)), (2, 3), {})
    path = tmp_path / "slice00_alpha.pmds"
    field.write(path)
    with pytest.raises(pm.DatasetFormatError, match="image field"):
        pm.ArrayDataSet.read(path)
    argv = ["preprocess", str(path), "--out", str(tmp_path / "out")]
    assert_cli_rejects(capsys, argv, "file holds an image field")


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
        # booleans and numeric strings are refused, not read as numbers
        (("meta", "array", "side"), True), (("meta", "array", "side"), "2.5"),
        (("meta", "wave_speed"), True), (("meta", "array", "n1"), True),
        (("meta", "source", "position"), [True, False, True]),
        (("meta", "source", "coherency_re"), [[True, False], [False, True]]),
        # an integer beyond the float range
        (("meta", "wave_speed"), 10**400),
    ]
    cases = [(p, _DROP) for p in paths] + ill_typed
    for i, (path, value) in enumerate(cases):
        bad = tmp_path / f"bad{i}.pmds"
        _rewrite_header(good, bad, lambda h: _set(h, path, value))
        argv = ["preprocess", str(bad), "--out", str(tmp_path / "out")]
        assert_cli_rejects(capsys, argv, path[-1])


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
        assert_cli_rejects(capsys, ["glyphs", str(bad), "--out", str(tmp_path / "g")], path[-1])


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
    assert_cli_rejects(capsys, ["preprocess", str(bad), "--out", str(tmp_path / "out")], "'shape'")


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
    # the packed payload [Psi11, Psi22, Re Psi12, Im Psi12], poisoned in a Psi11 slot (nan),
    # a Psi22 slot (inf) or an Im Psi12 slot (-inf)
    bad_point = complex(bad).real + complex(bad).imag
    count = 4 * 4 * 3 * 4
    packed = np.frombuffer(blob, "<f8", count=count, offset=len(blob) - 8 * count)
    packed = packed.reshape(4, 4, 3, 4).copy()
    packed[1, 2, 0, 3 if np.imag(bad) else 0 if np.isnan(bad) else 1] = bad_point
    poisoned.write_bytes(blob[: len(blob) - packed.nbytes] + packed.tobytes())
    argv = ["preprocess", str(poisoned), "--out", str(tmp_path / "out")]
    assert_cli_rejects(capsys, argv, "finite")
    # the same value in the header's geometry, band, wave speed and coherency
    for path in (("array", "side"), ("band", "center"), ("band", "width"), ("wave_speed",)):
        _rewrite_header(good, poisoned, lambda h: _set(h["meta"], path, bad_point))
        assert_cli_rejects(capsys, argv, "must be positive")
    coherency = ("source", "coherency_re", 0, 0)
    _rewrite_header(good, poisoned, lambda h: _set(h["meta"], coherency, bad_point))
    assert_cli_rejects(capsys, argv, "source coherency must be finite")
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
    assert_cli_rejects(capsys, argv, "image field values must be finite")
    _rewrite_header(good, poisoned, lambda h: h["meta"]["points"][2].__setitem__(1, bad_point))
    assert_cli_rejects(capsys, argv, "image field points must be finite")
    assert not (tmp_path / "glyphs" / "glyphs.svg").exists()


def _corruption_sweep(capsys, path, argv) -> list:
    """Exit codes of ``cli.main(argv)`` on corrupted copies of the container at ``path``.

    Fixed byte values go over every header byte, then the file is cut at every
    length up to 64 bytes past the header; each copy replaces the file in turn.
    Every run must exit 0 silently, or 2 or 3 with one message line.
    """
    blob = path.read_bytes()
    payload = len(MAGIC) + 8 + int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    variants = []
    for offset in range(payload):
        for value in (0x00, 0x20, 0x22, 0x2C, 0x2D, 0x30, 0x39, 0x5D, 0xFF):
            if blob[offset] != value:
                variants.append(blob[:offset] + bytes([value]) + blob[offset + 1:])
    variants += [blob[:cut] for cut in range(payload + 65)] + [blob[:-1]]
    codes = []
    for i, corrupt in enumerate(variants):
        path.write_bytes(corrupt)
        codes.append(cli_main(argv))
        lines = capsys.readouterr().err.splitlines()
        if codes[-1] == 0:
            assert lines == [], i
        else:
            assert len(lines) == 1, (i, lines)
            assert lines[0].startswith(("invalid input: ", "numerical failure: ")), (i, lines)
    assert set(codes) <= {0, 2, 3}
    return codes


def test_pinned_corruption_sweep_keeps_the_exit_contract(tmp_path, capsys):
    # each corrupted container goes through the preprocess stage in process.  A
    # "0" over the "1" of coherency_re[0][0] leaves a singular source coherency,
    # the numerical failure of exit 3
    scene = bench_scene([], n=3)
    path = tmp_path / "coherency.pmds"
    pm.coherency_synthesize(scene, band(3)).write(path)
    codes = _corruption_sweep(capsys, path, ["preprocess", str(path), "--out",
                                             str(tmp_path / "out")])
    assert 3 in codes and codes.count(2) > len(codes) // 2


def test_pinned_corruption_sweep_of_a_core_container(tmp_path, capsys):
    # the same sweep over a preprocessed container that stores its 2x2 core,
    # through the image stage; the config has no scatterers, which are most of
    # its parse time, and one slice of 9 points
    raw = pm.preset("three-dipoles-reduced")
    raw["array"].update(n1=3, n2=3)
    raw["band"]["count"] = 3
    raw["scatterers"] = []
    raw["slices"] = [{"normal_axis": 2, "offset": "100 lambda0", "step": "15 lambda0"}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    path = tmp_path / "preprocessed.pmds"
    pm.preprocess(pm.simulate_stage(pm.parse_config(raw)))[0].write(path)
    assert _read_container(path)[0] == "preprocessed2x2"
    argv = ["image", str(path), "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    codes = _corruption_sweep(capsys, path, argv)
    assert {0, 3} <= set(codes) and codes.count(2) > len(codes) // 2
