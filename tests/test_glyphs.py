"""Glyph tests: ellipse geometry, arrow conventions, file emission."""

import re

import numpy as np
import pytest

import polarmig as pm
from polarmig.glyphs import glyphs_for_field, write_glyph_csv, write_glyph_svg

from conftest import assert_cli_rejects

A_SHEAR = np.array([[1.0, -1.0], [0.0, 1.0]])  # not symmetric
A_SYMM = np.array([[1.0, 2.0], [2.0, 1.0]])


def test_identity_draws_unit_circle():
    g = pm.ellipse_glyph(np.eye(2))
    radii = np.linalg.norm(g.boundary, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12
    assert np.allclose(np.abs(g.arrows), np.abs(np.eye(2)))
    assert pm.axis_deviation(np.eye(2)) < 1e-10


def test_boundary_is_image_of_unit_circle():
    g = pm.ellipse_glyph(A_SHEAR, n_samples=32)
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=True)
    circle = np.stack([np.cos(theta), np.sin(theta)])
    expected = (g.scale * (A_SHEAR @ circle)).T
    assert np.abs(g.boundary - expected).max() < 1e-12
    # normalization: the longest principal axis has unit length (the sampled
    # boundary only approaches it to the angular sampling resolution)
    assert g.scale * np.linalg.svd(A_SHEAR, compute_uv=False)[0] == pytest.approx(1.0)
    assert 0.99 < np.linalg.norm(g.boundary, axis=1).max() <= 1.0 + 1e-12


def test_symmetric_matrix_arrows_on_axes():
    assert pm.axis_deviation(A_SYMM) < 1e-10
    g = pm.ellipse_glyph(A_SYMM)
    # each arrow direction appears among the ellipse principal directions
    u, sv, vt = np.linalg.svd(A_SYMM)
    for i in range(2):
        arrow_dir = g.arrows[i] / np.linalg.norm(g.arrows[i])
        assert min(
            np.linalg.norm(arrow_dir - u[:, i]), np.linalg.norm(arrow_dir + u[:, i])
        ) < 1e-10


def test_asymmetric_matrix_arrows_depart_from_axes():
    assert pm.axis_deviation(A_SHEAR) > 0.1


def test_symmetry_detector_threshold(rng):
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        sym = (m + m.T) / 2
        assert pm.axis_deviation(sym) < 1e-7
        if np.linalg.norm(m - m.T) > 1e-3 * np.linalg.norm(m):
            assert pm.axis_deviation(m) > 1e-6


def _field_with_peaks():
    pts, shape, _ = pm.plane_grid(
        pm.ImagingWindow(center=[0, 0, 10.0], cross_range=4.0, range_extent=4.0),
        2,
        10.0,
        0.5,
    )
    vals = np.zeros((pts.shape[0], 2, 2), dtype=complex)
    vals[:, 0, 0] = 0.05
    peak = np.argmin(np.linalg.norm(pts[:, :2] - [1.0, -0.5], axis=1))
    vals[peak] = A_SYMM + 1j * A_SHEAR
    return pm.ImageField(points=pts, values=vals, shape=shape, meta={}), pts[peak]


def test_glyphs_placed_at_peaks():
    field, peak_pt = _field_with_peaks()
    glyphs = glyphs_for_field(field, threshold=0.5)
    assert len(glyphs) == 2  # real + imaginary at the single peak
    assert {g.part for g in glyphs} == {"re", "im"}
    for g in glyphs:
        assert np.allclose(g.center, peak_pt[:2])


def test_emit_glyphs_files(tmp_path):
    field, _ = _field_with_peaks()
    svg = tmp_path / "g.svg"
    csv = tmp_path / "g.csv"
    glyphs = pm.emit_glyphs(field, 0.5, svg, csv)
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<path") == len(glyphs)
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("index,part,center_1,center_2,a11")
    assert len(rows) == 1 + len(glyphs)
    # CSV carries the normalization scale so any convention can be rebuilt
    header = rows[0].split(",")
    assert "scale" in header


def test_range_slice_glyphs_keep_the_range_axis(tmp_path):
    pts, shape, _ = pm.plane_grid(
        pm.ImagingWindow(center=[0, 0, 10.0], cross_range=4.0, range_extent=4.0),
        1,
        0.5,
        0.5,
    )
    vals = np.zeros((pts.shape[0], 2, 2), dtype=complex)
    peaks = [np.argmin(np.linalg.norm(pts[:, (0, 2)] - xz, axis=1))
             for xz in ([1.0, 9.0], [-1.0, 11.0])]
    vals[peaks] = A_SYMM + 1j * A_SHEAR
    field = pm.ImageField(points=pts, values=vals, shape=shape, meta={"normal_axis": 1})
    csv = tmp_path / "g.csv"
    pm.emit_glyphs(field, 0.5, tmp_path / "g.svg", csv)
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    centers = {(float(r[2]), float(r[3])) for r in rows}
    assert centers == {(pts[i, 0], pts[i, 2]) for i in peaks}
    assert len({c[1] for c in centers}) == 2
    field.meta["normal_axis"] = 3
    with pytest.raises(ValueError, match="normal_axis must be 0, 1 or 2"):
        glyphs_for_field(field, 0.5)


@pytest.mark.parametrize("axis", [True, 1.5, "2"])
def test_normal_axis_is_read_as_a_count(axis):
    # read as every header number is: a bool is not axis 1, and 2.0 is axis 2
    field, peak_pt = _field_with_peaks()
    field.meta["normal_axis"] = axis
    with pytest.raises(pm.DatasetFormatError,
                       match=f"header key 'normal_axis': expected an integer, got {axis!r}"):
        glyphs_for_field(field, 0.5)
    field.meta["normal_axis"] = 2.0
    assert np.allclose(glyphs_for_field(field, 0.5)[0].center, peak_pt[:2])


def test_emit_glyphs_empty_field_rejected(tmp_path):
    pts = np.zeros((4, 3))
    pts[:, 0] = np.arange(4)
    field = pm.ImageField(
        points=pts, values=np.zeros((4, 2, 2), dtype=complex), shape=(4, 1), meta={}
    )
    with pytest.raises(ValueError, match="empty"):
        pm.emit_glyphs(field, 0.5, tmp_path / "a.svg", tmp_path / "a.csv")


def test_glyph_threshold_validation():
    field, _ = _field_with_peaks()
    with pytest.raises(ValueError, match="threshold"):
        glyphs_for_field(field, threshold=1.5)


def _line_field(d: int, shape) -> pm.ImageField:
    pts = np.zeros((4, 3))
    pts[:, 0] = np.arange(4)
    return pm.ImageField(points=pts, values=np.ones((4, d, d), dtype=complex), shape=shape, meta={})


@pytest.mark.parametrize("refused, message, field", [
    (lambda _: pm.ellipse_glyph(np.eye(3)), "glyph matrices are 2x2", None),
    (lambda f: glyphs_for_field(f, 0.5), "glyph placement expects a 2-d slice",
     _line_field(2, (4,))),
    (lambda f: glyphs_for_field(f, 0.5), "glyphs need a 2x2 tensor field", _line_field(3, (2, 2))),
    (lambda _: write_glyph_svg([], "unused.svg", 1.0), "empty glyph list", None),
], ids=["matrix-3x3", "one-axis-grid", "field-3x3", "no-glyphs"])
def test_glyph_refusals_exit_2_where_the_cli_reaches_them(tmp_path, capsys, refused, message,
                                                          field):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused(field)
    if field is not None:
        field.write(tmp_path / "field.pmds")
        assert_cli_rejects(capsys, ["glyphs", str(tmp_path / "field.pmds"), "--out",
                                    str(tmp_path / "out")], message)


def test_axis_deviation_skips_zero_singular_values():
    assert pm.axis_deviation(np.diag([2.0, 0.0])) == 0.0
    assert pm.axis_deviation(np.zeros((2, 2))) == 0.0
