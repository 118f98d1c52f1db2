"""Imaging tests: migration kernels, point-spread functions, recovery, region."""

import dataclasses

import numpy as np
import pytest

import polarmig as pm
from polarmig import migrate
from polarmig._parallel import thread_count
from polarmig.emcore import CROSS_RANGE_BASIS

from conftest import (
    ALPHA_1,
    BANDWIDTH,
    K0,
    L,
    LAMBDA0,
    OMEGA0,
    band,
    bench_scene,
    bench_source,
    bench_window,
    projected_truth,
    single_dipole_scene,
    single_freq_band,
    three_dipole_scene,
)


def _response_at_center_freq(scene):
    return pm.response_synthesize(scene, single_freq_band())


def test_kirchhoff_zero_data_zero_image():
    scene = single_dipole_scene(n=5)
    img = pm.kirchhoff_single(
        np.zeros((5, 5, 3, 3), dtype=complex), scene.geom, scene.source.position, K0, [0, 0, L]
    )
    assert np.all(img == 0)


def test_kirchhoff_matches_direct_sum(rng):
    scene = single_dipole_scene(n=5)
    resp = _response_at_center_freq(scene)
    pts = np.array([[0, 0, L], [LAMBDA0, -0.5 * LAMBDA0, L + 0.7 * LAMBDA0]])
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, pts)
    recs = scene.geom.flat_positions()
    data = resp.values[:, :, 0].reshape(-1, 3, 3)
    for pi, p in enumerate(pts):
        acc = np.zeros((3, 3), dtype=complex)
        for r in range(recs.shape[0]):
            acc += (
                scene.geom.cell_area
                * np.conj(pm.dyadic_green(recs[r], p, K0))
                @ data[r]
                @ np.conj(pm.dyadic_green(scene.source.position, p, K0))
            )
        assert np.abs(img[pi] - acc).max() < 1e-13 * np.abs(acc).max()


def test_kirchhoff_linear_in_data(rng):
    scene = single_dipole_scene(n=5)
    d1 = rng.standard_normal((5, 5, 3, 3)) + 1j * rng.standard_normal((5, 5, 3, 3))
    d2 = rng.standard_normal((5, 5, 3, 3)) + 1j * rng.standard_normal((5, 5, 3, 3))
    args = (scene.geom, scene.source.position, K0, [0.3, 0.1, L])
    i1 = pm.kirchhoff_single(d1, *args)
    i2 = pm.kirchhoff_single(d2, *args)
    i12 = pm.kirchhoff_single(d1 + d2, *args)
    assert np.abs(i12 - (i1 + i2)).max() < 1e-13 * np.abs(i12).max()


def test_kirchhoff_peak_at_scatterer():
    scene = single_dipole_scene(n=31)
    resp = _response_at_center_freq(scene)
    pts = pm.line_profile([0, 0, L], 0, 6 * LAMBDA0, LAMBDA0 / 4)
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, pts)
    norms = np.linalg.norm(img, axis=(1, 2))
    assert np.argmax(norms) == np.argmin(np.abs(pts[:, 0]))


def test_kirchhoff_point_on_receiver_raises(monkeypatch):
    scene = single_dipole_scene(n=5)
    # 25 receivers in blocks of 4: the first block and the last, partial one
    monkeypatch.setattr(migrate, "_RECEIVER_BLOCK", 4)
    for rec in (0, 24):
        with pytest.raises(pm.DegenerateGeometryError):
            pm.kirchhoff_single(
                np.zeros((5, 5, 3, 3), dtype=complex),
                scene.geom,
                scene.source.position,
                K0,
                scene.geom.flat_positions()[rec],
            )


def test_band_image_trapezoid_on_constant_integrand():
    # constant-in-frequency data plus frequency-independent kernels is not
    # available physically, so check the quadrature rule directly instead
    from polarmig.migrate import _trapezoid_weights

    om = band(9).omegas()
    w = _trapezoid_weights(om)
    assert abs(w.sum() - BANDWIDTH) < 1e-9 * BANDWIDTH
    assert np.allclose(w[1:-1], om[1] - om[0])


def test_band_image_self_convergence():
    scene = single_dipole_scene(n=15)
    i65 = pm.kirchhoff_band(pm.response_synthesize(scene, band(65)), [0, 0, L])
    i33 = pm.kirchhoff_band(pm.response_synthesize(scene, band(33)), [0, 0, L])
    assert np.linalg.norm(i65 - i33) / np.linalg.norm(i65) < 1e-3


def test_band_requires_two_samples():
    scene = single_dipole_scene(n=3)
    resp = _response_at_center_freq(scene)
    with pytest.raises(ValueError):
        pm.kirchhoff_band(resp, [0, 0, L])


def test_h_s_same_point_hermitian_psd():
    src = bench_source()
    h = pm.h_s([0, 0, L], [0, 0, L], K0, src.position)
    assert np.abs(h - h.conj().T).max() < 1e-15 * np.abs(h).max()
    assert np.linalg.eigvalsh(h).min() >= -1e-18


def test_h_r_same_point_matches_projector_form():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=31, n2=31)
    h = pm.h_r([0, 0, L], [0, 0, L], K0, geom)
    closed = geom.area / (4 * np.pi * L) ** 2 * np.diag([1.0, 1.0, 0.0])
    assert np.linalg.norm(h - closed) / np.linalg.norm(closed) <= 0.15


def test_h_r_decay_with_cross_range_offset():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=31, n2=31)
    y = np.array([0, 0, L])
    v5 = np.linalg.norm(pm.h_r(y, y + [5 * LAMBDA0, 0, 0], K0, geom))
    v10 = np.linalg.norm(pm.h_r(y, y + [10 * LAMBDA0, 0, 0], K0, geom))
    assert v10 / v5 <= 0.75


def test_h_r_fraunhofer_closed_form():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=31, n2=31)
    y0 = np.array([0, 0, L])
    # zero offset: exactly the array-area projector form
    h0 = pm.h_r_fraunhofer(y0, y0, K0, geom, y0)
    assert np.allclose(h0, geom.area / (4 * np.pi * L) ** 2 * np.diag([1, 1, 0.0]))
    # first envelope zero sits at the classical cross-range resolution length
    null = pm.cross_range_null_offset(K0, geom, L)
    assert abs(null - 5 * LAMBDA0) < 1e-12
    hz = pm.h_r_fraunhofer(y0, y0 + [null, 0, 0], K0, geom, y0)
    assert np.abs(hz).max() < 1e-12 * np.abs(h0).max()


def test_h_r_fraunhofer_agreement_near_reference():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=31, n2=31)
    y0 = np.array([0, 0, L])
    for d in (0.5, 1.0, 1.5, 2.0):
        ya = y0 - [d * LAMBDA0 / 2, 0, 0]
        yb = y0 + [d * LAMBDA0 / 2, 0, 0]
        direct = pm.h_r(ya, yb, K0, geom)
        closed = pm.h_r_fraunhofer(ya, yb, K0, geom, y0)
        assert np.linalg.norm(direct - closed) / np.linalg.norm(direct) < 0.10


def test_h_s_fraunhofer_properties():
    src = bench_source()
    y0 = np.array([0, 0, L])
    h = pm.h_s_fraunhofer(y0, y0, K0, src.position, y0)
    assert np.allclose(h, pm.projector(src.position, y0))
    yp = y0 + [0.7 * LAMBDA0, -0.3 * LAMBDA0, 0.2 * LAMBDA0]
    hp = pm.h_s_fraunhofer(y0, yp, K0, src.position, y0)
    # unit-modulus scalar factor times a projector
    sv = np.linalg.svd(hp, compute_uv=False)
    assert np.allclose(sv, [1, 1, 0], atol=1e-12)


def test_h_s_fraunhofer_agreement():
    src = bench_source()
    y0 = np.array([0, 0, L])
    for d in (0.5, 1.0, 2.0):
        y = y0 + [0, d * LAMBDA0, 0]
        yp = y0 + [d * LAMBDA0, 0, 0.3 * d * LAMBDA0]
        direct = (4 * np.pi * L) ** 2 * pm.h_s(y, yp, K0, src.position)
        closed = pm.h_s_fraunhofer(y, yp, K0, src.position, y0)
        assert np.linalg.norm(direct - closed) / np.linalg.norm(closed) < 0.15


def test_recover_exact_at_reference_point():
    scene = single_dipole_scene(n=31)
    resp = _response_at_center_freq(scene)
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, [0, 0, L])
    rec = pm.recover_alpha_single(img, [0, 0, L], K0, scene.geom, scene.source, mode="exact")
    true = projected_truth(ALPHA_1, scene.source)
    assert np.linalg.norm(rec - true) / np.linalg.norm(true) < 0.1


def test_recover_modes_agree_within_far_field_error():
    scene = single_dipole_scene(n=31)
    resp = _response_at_center_freq(scene)
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, [0, 0, L])
    exact = pm.recover_alpha_single(img, [0, 0, L], K0, scene.geom, scene.source, mode="exact")
    far = pm.recover_alpha_single(img, [0, 0, L], K0, scene.geom, scene.source, mode="fraunhofer")
    assert np.linalg.norm(exact - far) / np.linalg.norm(exact) < 0.2


def test_recover_band_average_constant():
    om = band(9).omegas()
    alpha = np.tile(np.array([[1.0 + 2j, 0.5], [0.25j, -1.0]]), (9, 1, 1))
    avg = pm.recover_alpha_band(alpha, om)
    assert np.abs(avg - alpha[0]).max() < 1e-14


def test_recover_band_at_scatterer_and_range_decay():
    scene = single_dipole_scene(n=31)
    ds = pm.response_synthesize(scene, band(33))
    true = projected_truth(ALPHA_1, scene.source)
    at = pm.recover_alpha_field(ds, [0, 0, L], mode="exact")
    assert np.linalg.norm(at - true) / np.linalg.norm(true) < 0.1
    off = pm.recover_alpha_field(ds, [0, 0, L + 5 * LAMBDA0], mode="exact")
    assert np.linalg.norm(at) / np.linalg.norm(off) >= 3.0


def test_recover_singular_factor_raises():
    scene = single_dipole_scene(n=31)
    bad = np.eye(3, dtype=complex)
    with pytest.raises(pm.NumericalError, match="condition"):
        # an in-plane image point far from the array collapses the
        # cross-range point-spread factor to rank one
        pm.recover_alpha_single(
            bad,
            [2000 * L, 0, 1e-7 * LAMBDA0],
            K0,
            scene.geom,
            scene.source,
            mode="exact",
        )


def test_phase_correct_real_positive_input():
    vals = np.tile(np.array([[2.0 + 0j, 1j], [0.5, -1.0]]), (7, 1, 1))
    out = pm.phase_correct(vals, delta_rel=1e-6)
    factor = 2.0 / (2.0 + 1e-6 * 2.0)
    assert np.abs(out - factor * vals).max() < 1e-12


def test_phase_correct_pins_leading_phase(rng):
    vals = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    out = pm.phase_correct(vals, delta_rel=1e-6)
    a11 = np.abs(vals[:, 0, 0])
    delta = 1e-6 * a11.max()
    strong = a11 > 1e3 * delta
    assert np.all(np.abs(np.angle(out[strong, 0, 0])) < 1e-10)


def test_phase_correct_zero_field():
    out = pm.phase_correct(np.zeros((4, 2, 2), dtype=complex))
    assert np.all(out == 0)


@pytest.mark.parametrize("delta_rel", [-1e-6, np.nan, np.inf])
def test_phase_correct_rejects_bad_floor(delta_rel):
    with pytest.raises(ValueError, match="delta_rel"):
        pm.phase_correct(np.ones((4, 2, 2), dtype=complex), delta_rel)


def test_region_slope_value():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=5, n2=5)
    c = pm.region_slope(geom, bench_window())
    expected = 50 * LAMBDA0 / np.hypot(170 * LAMBDA0, 50 * LAMBDA0)
    assert abs(c - expected) < 1e-12
    assert abs(c - 0.2822) < 5e-4
    assert 0 < c < 1


def test_region_check_axial_source_violated():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=5, n2=5)
    check = pm.region_check(geom, bench_window(), [0, 0, -L], gamma=1)
    assert not check.admissible
    assert check.margin < 0
    assert "violated" in check.summary()


def test_region_check_bench_source_admissible():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=61, n2=61)
    check = pm.region_check(geom, bench_window(), bench_source().position, gamma=3)
    assert check.admissible
    assert check.margin > 0
    assert "admissible" in check.summary()


def test_region_check_bad_gamma():
    geom = pm.ArrayGeom(side=20 * LAMBDA0, n1=5, n2=5)
    with pytest.raises(ValueError):
        pm.region_check(geom, bench_window(), [0, 0, -L], gamma=2)


def test_plane_grid_layout():
    win = bench_window()
    pts, shape, axes = pm.plane_grid(win, 2, L, LAMBDA0)
    assert shape == (31, 31)
    assert pts.shape == (961, 3)
    assert np.all(pts[:, 2] == L)
    assert axes[0][0] == pytest.approx(-15 * LAMBDA0)
    assert axes[0][-1] == pytest.approx(15 * LAMBDA0)
    pts_r, shape_r, _ = pm.plane_grid(win, 1, 0.0, LAMBDA0)
    assert np.all(pts_r[:, 1] == 0.0)
    assert shape_r == (31, 31)


def test_cross_range_focal_spot_width():
    # half width at half max of the focal spot vs the envelope prediction
    scene = single_dipole_scene(n=31)
    resp = _response_at_center_freq(scene)
    pts = pm.line_profile([0, 0, L], 0, 6 * LAMBDA0, LAMBDA0 / 20)
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, pts)
    norms = np.linalg.norm(img, axis=(1, 2))
    off = pts[:, 0]
    half = norms.max() / 2
    right = off >= 0
    hwhm = off[right][np.argmax(norms[right] < half)]
    # |sin x / x| falls to one half at x = 1.8955; translate to offset units
    predicted = 1.8955 / np.pi * pm.cross_range_null_offset(K0, scene.geom, L)
    assert abs(hwhm - predicted) <= 0.3 * predicted


def test_cross_range_sidelobe_decay_slope():
    # envelope peaks between nulls decay roughly like one over the offset
    scene = single_dipole_scene(n=31)
    resp = _response_at_center_freq(scene)
    pts = pm.line_profile([0, 0, L], 0, 16 * LAMBDA0, LAMBDA0 / 10)
    img = pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, K0, pts)
    norms = np.linalg.norm(img, axis=(1, 2))
    off = pts[:, 0]
    sel = (off >= 5 * LAMBDA0) & (off <= 15 * LAMBDA0)
    n_sel, o_sel = norms[sel], off[sel]
    peaks = [
        i for i in range(1, len(n_sel) - 1) if n_sel[i] >= n_sel[i - 1] and n_sel[i] >= n_sel[i + 1]
    ]
    assert len(peaks) >= 2
    slope = np.polyfit(np.log(o_sel[peaks]), np.log(n_sel[peaks]), 1)[0]
    assert -1.6 <= slope <= -0.6


def test_volume_grid_guard():
    from polarmig.migrate import volume_grid

    win = bench_window()
    pts, shape, axes = volume_grid(win, 3 * LAMBDA0)
    assert np.prod(shape) == pts.shape[0]
    assert shape == (11, 11, 11)
    with pytest.raises(ValueError, match="guard"):
        volume_grid(win, LAMBDA0 / 8)


def test_parallel_schedule_invariance(monkeypatch):
    scene = three_dipole_scene(n=9)
    _check_schedule_invariance(scene, pm.response_synthesize(scene, band(5)), monkeypatch)


def test_parallel_schedule_invariance_on_preprocessed_data(monkeypatch):
    scene = three_dipole_scene(n=9)
    pre, _ = pm.preprocess(pm.coherency_synthesize(scene, band(5)))
    _check_schedule_invariance(scene, pre, monkeypatch)


def _check_schedule_invariance(scene, resp, monkeypatch):
    pts = pm.line_profile([0, 0, L], 0, 3 * LAMBDA0, LAMBDA0 / 2)
    # a cross-range lattice slice split over several row chunks
    slice_pts = pm.plane_grid(scene.window, 2, L, 1.25 * LAMBDA0)[0]
    monkeypatch.setattr(migrate, "_SITE_TARGET", 2_000)
    _, rest = migrate._lattice_rows(slice_pts, scene.geom)
    assert rest.size == 0
    # off-lattice points split over at least three direct chunks
    off = _off_lattice_points(scene, 40)
    monkeypatch.setattr(migrate, "_PAIR_TARGET", 12 * 81)
    rows, rest = migrate._lattice_rows(off, scene.geom)
    assert not rows and rest.size == 40
    assert -(-40 // (migrate._PAIR_TARGET // 81)) >= 3

    def run():
        return (pm.kirchhoff_band(resp, pts),
                pm.recover_alpha_field(resp, slice_pts, mode="exact"),
                pm.kirchhoff_band(resp, off),
                pm.recover_alpha_field(resp, off, mode="exact"))

    base = run()
    monkeypatch.setenv("POLARMIG_THREADS", "1")
    one = run()
    monkeypatch.setenv("POLARMIG_THREADS", "3")
    three = run()
    for b, o, t in zip(base, one, three):
        assert np.array_equal(b, o)
        assert np.array_equal(b, t)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_thread_count_refuses_a_bad_setting(monkeypatch, value):
    monkeypatch.setenv("POLARMIG_THREADS", value)
    with pytest.raises(ValueError, match="POLARMIG_THREADS"):
        thread_count()


# ---------------------------------------------------------------------------
# Direct pair engine against the per-frequency oracles
# ---------------------------------------------------------------------------


def _off_lattice_points(scene, count):
    """Points drawn in the imaging window plus the scatterer cells."""
    bounds = scene.window.bounds
    drawn = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * np.random.default_rng(5).random(
        (count - len(scene.scatterers), 3))
    return np.concatenate([drawn, scene.scatterer_positions()])


def _oracle_band(ds, y):
    """Image, exact and Fraunhofer band tensors at y from dyadic_green, one frequency at a time."""
    recs = ds.geom.flat_positions()
    data = ds.values.reshape(recs.shape[0], -1, 3, 3)
    omegas = ds.omegas
    weights = np.full(omegas.size, omegas[1] - omegas[0])
    weights[[0, -1]] /= 2
    image = np.zeros((3, 3), dtype=complex)
    alphas = {"exact": [], "fraunhofer": []}
    for fi, k in enumerate(ds.wavenumbers):
        back = np.einsum("rij,rjk->ik", np.conj(pm.dyadic_green(recs, y, k)), data[:, fi])
        ikm = ds.geom.cell_area * back @ np.conj(pm.dyadic_green(ds.source.position, y, k))
        image += weights[fi] * ikm
        for mode, values in alphas.items():
            values.append(pm.recover_alpha_single(ikm, y, k, ds.geom, ds.source, mode=mode))
    return {"image": image, **{m: pm.recover_alpha_band(v, omegas) for m, v in alphas.items()}}


@pytest.fixture(scope="module")
def direct_scene():
    scene = three_dipole_scene(n=13)
    return scene, pm.response_synthesize(scene, band(5))


@pytest.fixture(scope="module")
def direct_scene_preprocessed():
    scene = three_dipole_scene(n=13)
    return scene, pm.preprocess(pm.coherency_synthesize(scene, band(5)))[0]


@pytest.mark.parametrize("block", [50, 169, 512])
def test_direct_engine_matches_oracle(direct_scene, block, monkeypatch):
    # 169 receivers: blocks of 50, 50, 50 and a partial 19; one exact block; one short block
    _check_direct_against_oracle(*direct_scene, block, monkeypatch)


@pytest.mark.parametrize("block", [50, 169, 512])
def test_direct_engine_matches_oracle_on_preprocessed_data(direct_scene_preprocessed, block,
                                                           monkeypatch):
    # the engine migrates the 2x2 core; the oracle the embedded 3x3 values
    _check_direct_against_oracle(*direct_scene_preprocessed, block, monkeypatch)


def _check_direct_against_oracle(scene, resp, block, monkeypatch):
    pts = _off_lattice_points(scene, 7)
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert not rows and rest.size == pts.shape[0]
    monkeypatch.setattr(migrate, "_RECEIVER_BLOCK", block)
    got = dict(zip(["image", "exact", "fraunhofer"], _all_modes(resp, pts)))
    for i, y in enumerate(pts):
        for mode, ref in _oracle_band(resp, y).items():
            assert np.abs(got[mode][i] - ref).max() <= 1e-10 * np.abs(ref).max(), (mode, i)


# ---------------------------------------------------------------------------
# Lattice-row (FFT) engine against the direct pair sum
# ---------------------------------------------------------------------------


def _direct_only(monkeypatch):
    monkeypatch.setattr(
        migrate, "_lattice_rows", lambda pts, geom: ({}, np.arange(pts.shape[0]))
    )


def _all_modes(ds, pts):
    return [
        pm.kirchhoff_band(ds, pts),
        pm.recover_alpha_field(ds, pts, mode="exact"),
        pm.recover_alpha_field(ds, pts, mode="fraunhofer"),
    ]


@pytest.fixture(scope="module")
def lattice_scene():
    scene = three_dipole_scene(n=13)
    return scene, pm.response_synthesize(scene, band(3))


@pytest.fixture(scope="module")
def lattice_scene_preprocessed():
    scene = three_dipole_scene(n=13)
    return scene, pm.preprocess(pm.coherency_synthesize(scene, band(3)))[0]


def _lattice_grids(scene):
    pitch = scene.geom.spacing[0]
    win = scene.window
    return {
        "cross-range slice": pm.plane_grid(win, 2, L, pitch / 2)[0],
        "range slice, normal_axis 1": pm.plane_grid(win, 1, -5 * LAMBDA0, pitch / 2)[0],
        "range slice, normal_axis 0": pm.plane_grid(win, 0, 3 * LAMBDA0, 1.5 * pitch)[0],
        "line along x1": pm.line_profile([0.3 * LAMBDA0, -LAMBDA0, L], 0, 12 * LAMBDA0, pitch / 4),
        "line along x2": pm.line_profile([LAMBDA0, 0, L + LAMBDA0], 1, 12 * LAMBDA0, pitch / 3),
        "volume grid": pm.volume_grid(win, 3 * pitch)[0],
    }


_GRIDS = [
    "cross-range slice",
    "range slice, normal_axis 1",
    "range slice, normal_axis 0",
    "line along x1",
    "line along x2",
    "volume grid",
]


@pytest.mark.parametrize("grid", _GRIDS)
def test_lattice_rows_match_direct_sum(lattice_scene, grid, monkeypatch):
    _check_lattice_against_direct(*lattice_scene, grid, monkeypatch)


@pytest.mark.parametrize("grid", _GRIDS)
def test_lattice_rows_match_direct_sum_on_preprocessed_data(lattice_scene_preprocessed, grid,
                                                            monkeypatch):
    _check_lattice_against_direct(*lattice_scene_preprocessed, grid, monkeypatch)


def _check_lattice_against_direct(scene, resp, grid, monkeypatch):
    pts = _lattice_grids(scene)[grid]
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert rows and rest.size == 0
    lattice = _all_modes(resp, pts)
    _direct_only(monkeypatch)
    for got, ref in zip(lattice, _all_modes(resp, pts)):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("count, pitches, sites, on_lattice",
                         [(5, 10, 72, False), (4, 6, 50, True)])
def test_lattice_row_margin(count, pitches, sites, on_lattice):
    # a row along x1 of the 31x31 array replaces count x 31 pair terms by FFT
    # sites: 155 / 72 = 2.15 per site is too few, 124 / 50 = 2.48 enough
    geom = single_dipole_scene(n=31).geom
    pts = np.tile([0.3 * LAMBDA0, -LAMBDA0, L], (count, 1))
    pts[:, 0] += pitches * geom.spacing[0] * np.arange(count)
    layout = migrate._row_layout(pts[:, 0], 0, geom, migrate._lattice_atol(pts, geom))
    assert layout.fft_size == sites
    rows, rest = migrate._lattice_rows(pts, geom)
    assert bool(rows) == on_lattice and rest.size == (0 if on_lattice else count)


def test_lattice_rows_larger_than_chunk_target(lattice_scene, monkeypatch):
    # every row alone exceeds the chunk target, so each gets a chunk of its own
    scene, resp = lattice_scene
    pts = _lattice_grids(scene)["cross-range slice"]
    monkeypatch.setattr(migrate, "_SITE_TARGET", 1)
    lattice = _all_modes(resp, pts)
    _direct_only(monkeypatch)
    for got, ref in zip(lattice, _all_modes(resp, pts)):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


_OFF_LATTICE = np.array([[0, 0, L], [LAMBDA0, -0.5 * LAMBDA0, L + 0.7 * LAMBDA0]])


def _engine_points(scene, engine):
    pts = _lattice_grids(scene)["line along x1"] if engine == "lattice" else _OFF_LATTICE
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert bool(rows) == (engine == "lattice") and bool(rest.size) == (engine == "direct")
    return pts


@pytest.mark.parametrize("engine", ["lattice", "direct"])
@pytest.mark.parametrize("k", [0.0, -K0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_kirchhoff_single_rejects_bad_wavenumber(lattice_scene, engine, k):
    # k = 0, NaN or inf used to give an all-NaN image, k < 0 one under the
    # opposite time convention
    scene, resp = lattice_scene
    pts = _engine_points(scene, engine)
    with pytest.raises(ValueError, match="wavenumbers must be positive and finite"):
        pm.kirchhoff_single(resp.values[:, :, 0], scene.geom, scene.source.position, k, pts)


@pytest.mark.parametrize("engine", ["lattice", "direct"])
def test_engines_reject_a_gapped_band(lattice_scene, engine):
    scene, resp = lattice_scene
    pts = _engine_points(scene, engine)
    ks = resp.wavenumbers.copy()
    ks[-1] += ks[1] - ks[0]
    with pytest.raises(ValueError, match="evenly spaced"):
        migrate._migrate(scene.geom, scene.source.position, resp.values, ks, np.ones(ks.size), pts)


@pytest.mark.parametrize("engine", ["lattice", "direct"])
def test_kernel_sets_follow_the_data_and_output_bases(lattice_scene, lattice_scene_preprocessed,
                                                      engine, monkeypatch):
    # kernels [conj A, conj B rhat_i rhat_l] for the rows and columns of conj(G)
    # that the output and data bases keep; moments only for exact recovery
    scene, resp = lattice_scene
    pre = lattice_scene_preprocessed[1]
    pts = _engine_points(scene, engine)
    stacks, moment_calls = [], []
    kernel_walk, spread_moments = migrate._kernel_walk, migrate._spread_moments

    def spy_walk(r, rhat, ks, amp, pairs, out):
        stacks.append(out.shape[0])
        return kernel_walk(r, rhat, ks, amp, pairs, out)

    def spy_moments(*args):
        moment_calls.append(1)
        return spread_moments(*args)

    monkeypatch.setattr(migrate, "_kernel_walk", spy_walk)
    monkeypatch.setattr(migrate, "_spread_moments", spy_moments)
    for ds, kernels in [(resp, {"image": 7, "exact": 6, "fraunhofer": 6}),
                        (pre, {"image": 6, "exact": 4, "fraunhofer": 4})]:
        for mode, count in kernels.items():
            stacks.clear()
            moment_calls.clear()
            if mode == "image":
                pm.kirchhoff_band(ds, pts)
            else:
                pm.recover_alpha_field(ds, pts, mode=mode)
            assert stacks and set(stacks) == {count}, (ds.kind, mode)
            assert bool(moment_calls) == (mode == "exact"), (ds.kind, mode)


def test_migrate_refuses_coherency_and_malformed_preprocessed_data(lattice_scene_preprocessed):
    scene, pre = lattice_scene_preprocessed
    coherency = pm.coherency_synthesize(scene, band(3))
    values = pre.values.copy()
    values[0, 0, 0, 2, 1] = 1e-30
    third_row = dataclasses.replace(pre, values=values)
    # a row component along the source direction, which the 2x2 core cannot hold
    u_s = scene.source.basis()
    values = pre.values.copy()
    values[0, 0, 0, 1] += 1e-9 * np.abs(values).max() * np.cross(u_s[:, 0], u_s[:, 1])
    off_plane = dataclasses.replace(pre, values=values)
    for call in (lambda ds: pm.kirchhoff_band(ds, _OFF_LATTICE),
                 lambda ds: pm.recover_alpha_field(ds, _OFF_LATTICE, mode="exact"),
                 lambda ds: pm.recover_alpha_field(ds, _OFF_LATTICE, mode="fraunhofer")):
        with pytest.raises(ValueError, match="coherency2x2.*run preprocess first"):
            call(coherency)
        with pytest.raises(ValueError, match="preprocessed3x3.*third row"):
            call(third_row)
        with pytest.raises(ValueError, match="preprocessed3x3.*span of the source basis"):
            call(off_plane)


def test_lattice_single_frequency_matches_direct(lattice_scene, monkeypatch):
    scene, resp = lattice_scene
    pts = _lattice_grids(scene)["line along x1"]
    args = (resp.values[:, :, 1], scene.geom, scene.source.position, resp.wavenumbers[1], pts)
    got = pm.kirchhoff_single(*args)
    _direct_only(monkeypatch)
    ref = pm.kirchhoff_single(*args)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_incommensurate_grid_is_bitwise_direct(lattice_scene, monkeypatch):
    scene, resp = lattice_scene
    pts = pm.plane_grid(scene.window, 2, L, 0.37 * scene.geom.spacing[0] * np.sqrt(2))[0]
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert not rows and rest.size == pts.shape[0]
    got = _all_modes(resp, pts)
    _direct_only(monkeypatch)
    for g, ref in zip(got, _all_modes(resp, pts)):
        assert np.array_equal(g, ref)


def test_lattice_row_through_receiver_raises(lattice_scene, monkeypatch):
    scene, resp = lattice_scene
    rec = scene.geom.positions()[3, 5]
    step = scene.geom.spacing[0] / 2
    pts = np.tile(rec, (13, 1))
    pts[:, 0] += step * np.arange(-6, 7)
    rows, _ = migrate._lattice_rows(pts, scene.geom)
    assert rows
    with pytest.raises(pm.DegenerateGeometryError):
        pm.kirchhoff_band(resp, pts)
    _direct_only(monkeypatch)
    with pytest.raises(pm.DegenerateGeometryError):
        pm.kirchhoff_band(resp, pts)


def test_lattice_row_in_array_plane_stays_finite(lattice_scene, monkeypatch):
    # the row starts half a pitch inside the last receiver column and steps
    # 1.5 pitches outward: its lattice holds a zero-distance lag that no
    # (point, receiver) pair takes
    scene, resp = lattice_scene
    grid = scene.geom.positions()
    pitch = scene.geom.spacing[0]
    x1 = grid[-1, 0, 0] - pitch / 2 + 1.5 * pitch * np.arange(20)
    pts = np.stack([x1, np.full(20, grid[0, 4, 1]), np.zeros(20)], axis=1)
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert rows and rest.size == 0
    got = pm.kirchhoff_band(resp, pts)
    assert np.all(np.isfinite(got))
    _direct_only(monkeypatch)
    ref = pm.kirchhoff_band(resp, pts)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_lattice_singular_factor_raises_with_condition():
    scene = single_dipole_scene(n=31)
    ds = pm.response_synthesize(scene, band(3))
    pts = pm.line_profile([2000 * L, 0, 1e-7 * LAMBDA0], 0, 20 * LAMBDA0, scene.geom.spacing[0])
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert rows and rest.size == 0
    with pytest.raises(pm.NumericalError, match="condition number"):
        pm.recover_alpha_field(ds, pts, mode="exact")


def test_line_profile_is_centered_and_symmetric():
    center = np.array([0.1, -0.2, L])
    pts = pm.line_profile(center, 0, 1.0, 0.3)
    assert pts.shape == (7, 3)
    assert np.array_equal(pts[3], center)
    assert np.array_equal(pts[:, 1:], np.tile(center[1:], (7, 1)))
    # offsets from a zero coordinate are exactly symmetric and stay inside
    x1 = pm.line_profile([0.0, -0.2, L], 0, 1.0, 0.3)[:, 0]
    assert np.array_equal(x1, -x1[::-1])
    assert np.abs(x1).max() <= 1.0
    # an integer half_width / step keeps both ends, whatever its rounding
    for half, step, count in [(6 * LAMBDA0, LAMBDA0 / 4, 49), (3 * LAMBDA0, LAMBDA0 / 2, 13),
                              (2 * LAMBDA0, LAMBDA0 / 40, 161), (1.0, 0.1, 21)]:
        pts = pm.line_profile([0, 0, L], 2, half, step)
        assert pts.shape[0] == count
        assert pts[count // 2, 2] == L
        assert abs(pts[-1, 2] - L - half) <= 1e-12 * L
    with pytest.raises(ValueError, match="step"):
        pm.line_profile(center, 0, 1.0, 0.0)


@pytest.mark.parametrize("pitch_fraction", [0.5, 0.37])
def test_line_profile_through_receiver_raises(lattice_scene, pitch_fraction):
    # the middle point is the receiver itself, on a lattice step and off it
    scene, resp = lattice_scene
    rec = scene.geom.positions()[6, 4]
    pts = pm.line_profile(rec, 0, 6 * LAMBDA0, pitch_fraction * scene.geom.spacing[0])
    rows, _ = migrate._lattice_rows(pts, scene.geom)
    assert bool(rows) == (pitch_fraction == 0.5)
    with pytest.raises(pm.DegenerateGeometryError):
        pm.kirchhoff_band(resp, pts)


@pytest.mark.parametrize("engine", ["lattice", "direct"])
@pytest.mark.parametrize("offset", [0.0, 1e-16, 1e-14])
@pytest.mark.parametrize("target", ["receiver", "source"])
def test_near_coincident_point_raises(lattice_scene, target, offset, engine):
    # one rule, COINCIDENT_RTOL times the coordinate scale, on both engines and
    # the source leg, for every mode
    scene, resp = lattice_scene
    center = scene.geom.positions()[3, 5] if target == "receiver" else scene.source.position
    center = center + [0.0, 0.0, offset]
    if engine == "lattice":
        pts = np.tile(center, (13, 1))
        pts[:, 0] += scene.geom.spacing[0] / 2 * np.arange(-6, 7)
    else:
        pts = np.stack([center, _OFF_LATTICE[0]])
    rows, rest = migrate._lattice_rows(pts, scene.geom)
    assert bool(rows) == (engine == "lattice") and bool(rest.size) == (engine == "direct")
    match = "a receiver" if target == "receiver" else "the source"
    for mode in ("image", "exact", "fraunhofer"):
        with pytest.raises(pm.CoincidentPointsError, match=match):
            migrate._migrate_band(resp, pts, mode)


_BAD_POINTS = {
    "two components": np.zeros((4, 2)),
    "infinite": [[0.0, 0.0, L], [np.inf, 0.0, L]],
    "nan": [[0.0, 0.0, L], [0.0, np.nan, L]],
}


@pytest.mark.parametrize("bad", list(_BAD_POINTS))
@pytest.mark.parametrize("call", ["kirchhoff_single", "kirchhoff_band", "recover_alpha_field"])
def test_bad_points_are_refused_before_migration(lattice_scene, call, bad, monkeypatch):
    scene, resp = lattice_scene
    calls = {
        "kirchhoff_single": lambda pts: pm.kirchhoff_single(
            resp.values[:, :, 0], scene.geom, scene.source.position, resp.wavenumbers[0], pts),
        "kirchhoff_band": lambda pts: pm.kirchhoff_band(resp, pts),
        "recover_alpha_field": lambda pts: pm.recover_alpha_field(resp, pts),
    }
    monkeypatch.setattr(migrate, "_migrate", lambda *args: pytest.fail("points reached _migrate"))
    with pytest.raises(ValueError, match="trailing axis of length 3|non-finite"):
        calls[call](_BAD_POINTS[bad])


def test_recover_unknown_mode_raises(lattice_scene):
    _, resp = lattice_scene
    with pytest.raises(ValueError, match="unknown recovery mode"):
        pm.recover_alpha_field(resp, [0, 0, L], mode="exactt")


# ---------------------------------------------------------------------------
# Point-spread factors from frequency-free moments
# ---------------------------------------------------------------------------


def _at(moments, k):
    return moments[0] + moments[1] / k**2 + moments[2] / k**4


@pytest.mark.parametrize("height", [3 * LAMBDA0, L])
def test_spread_moments_match_point_spread_oracles(lattice_scene, height):
    # a row through the window center, and one a few wavelengths above the
    # array where kr reaches 1 at the smaller wavenumber; both engines
    scene, _ = lattice_scene
    geom, source = scene.geom, scene.source
    pts = pm.line_profile([0, 0, height], 0, 6 * LAMBDA0, geom.spacing[0] / 2)
    rows, rest = migrate._lattice_rows(pts, geom)
    assert rows and rest.size == 0
    (layout, group), = rows.items()
    pts = pts[group.ravel()]
    ks = np.array([1.0 / height, K0])
    data = np.zeros((geom.n1, geom.n2, ks.size, 3, 3), dtype=complex)
    recs = geom.flat_positions()
    scale = np.linalg.norm(np.concatenate([recs, pts]), axis=1).max()
    _, lattice = migrate._lattice_sums(geom, data, ks, pts, np.arange(pts.shape[0])[None], layout,
                                       2, True, scale)
    _, direct = migrate._direct_sums(recs, data.reshape(-1, ks.size, 3, 3), ks, pts, 2, True,
                                     scale)
    u_s = source.basis()
    diff = source.position[:, None] - pts.T
    r_s = np.linalg.norm(diff, axis=0)
    rhat_s = diff / r_s
    src = migrate._spread_moments(1.0 / (4 * np.pi * r_s[None]), r_s[None],
                                  (u_s.T @ rhat_s)[:, None], 0)
    for k in ks:
        for i, y in enumerate(pts):
            ref = CROSS_RANGE_BASIS.T @ migrate.h_r(y, y, k, geom) @ CROSS_RANGE_BASIS
            for moments in (lattice, direct):
                got = geom.cell_area * _at(moments[:, i], k)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            ref = u_s.T @ migrate.h_s(y, y, k, source.position) @ u_s
            assert np.abs(_at(src[:, i], k) - ref).max() <= 1e-12 * np.abs(ref).max()
