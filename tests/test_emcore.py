"""Math kernel tests: Green functions, projectors, bases, Stokes algebra."""

import numpy as np
import pytest

import polarmig as pm
from polarmig.emcore import CROSS_RANGE_BASIS, embed, green_band, project
from polarmig.scene import DEFAULT_WAVE_SPEED

from conftest import BANDWIDTH, K0, L, LAMBDA0, OMEGA0, bench_source


def test_scalar_green_reference_value():
    # oracle: direct evaluation of exp(ik r)/(4 pi r) at unit offset, k = 1
    val = pm.scalar_green([1.0, 0, 0], [0.0, 0, 0], 1.0)
    expected = (np.cos(1.0) + 1j * np.sin(1.0)) / (4 * np.pi)
    assert abs(val - expected) < 1e-15
    assert abs(val.real - 0.042994) < 1e-5
    assert abs(val.imag - 0.066961) < 1e-5


def test_scalar_green_modulus():
    for r in (0.3, 2.0, 157.0):
        v = pm.scalar_green([r, 0, 0], [0, 0, 0], 7.3)
        assert abs(abs(v) - 1 / (4 * np.pi * r)) < 1e-15 / r


def test_scalar_green_coincident_points():
    with pytest.raises(pm.CoincidentPointsError):
        pm.scalar_green([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1.0)
    with pytest.raises(pm.CoincidentPointsError):
        pm.dyadic_green([0.0, 0, 0], [0.0, 0, 0], 1.0)


def test_dyadic_green_symmetry_and_reciprocity(rng):
    for _ in range(50):
        x = rng.uniform(-5, 5, 3)
        y = rng.uniform(-5, 5, 3)
        k = rng.uniform(0.5, 60.0)
        g_xy = pm.dyadic_green(x, y, k)
        g_yx = pm.dyadic_green(y, x, k)
        scale = np.linalg.norm(g_xy)
        assert np.linalg.norm(g_xy - g_xy.T) < 1e-14 * scale
        assert np.linalg.norm(g_xy - g_yx) < 1e-14 * scale


def test_dyadic_green_far_field_limit():
    # with the near-field factor m -> 0 the dyad tends to g (I - rhat rhat^T)
    r = 1.0
    k = 1e6
    g = pm.dyadic_green([r, 0, 0], [0, 0, 0], k)
    scalar = pm.scalar_green([r, 0, 0], [0, 0, 0], k)
    far = scalar * (np.eye(3) - np.diag([1.0, 0, 0]))
    assert np.linalg.norm(g - far) / np.linalg.norm(g) <= 3.0 / (k * r)


def test_dyadic_green_axial_structure():
    # offset along e3: transverse block is diagonal, axial entry is -2 m g
    r, k = 2.0, 11.0
    g = pm.dyadic_green([0, 0, r], [0, 0, 0], k)
    scalar = pm.scalar_green([0, 0, r], [0, 0, 0], k)
    m = (1j * k * r - 1) / (k * r) ** 2
    off = [g[0, 1], g[0, 2], g[1, 0], g[1, 2], g[2, 0], g[2, 1]]
    assert max(abs(v) for v in off) < 1e-15 * abs(scalar)
    assert abs(g[2, 2] - (-2 * m * scalar)) < 1e-15 * abs(scalar)
    assert abs(g[0, 0] - scalar * (1 + m)) < 1e-15 * abs(scalar)


def test_projector_properties(rng):
    for _ in range(1000):
        x = rng.uniform(-3, 3, 3)
        y = rng.uniform(-3, 3, 3)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        p = pm.projector(x, y)
        assert np.linalg.norm(p - p.T) < 1e-13
        assert np.linalg.norm(p @ p - p) < 1e-13
        assert abs(np.trace(p) - 2.0) < 1e-13
        assert np.linalg.norm(p @ (x - y)) < 1e-12 * np.linalg.norm(x - y)


def test_projector_axis_aligned():
    assert np.allclose(pm.projector([0, 0, 2.0], [0, 0, 0]), np.diag([1.0, 1.0, 0.0]))


def test_projector_diagonal_direction():
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    p = pm.projector(d, [0, 0, 0])
    vals, vecs = np.linalg.eigh(p)
    assert np.allclose(sorted(vals), [0, 1, 1], atol=1e-13)
    null = vecs[:, 0]
    assert abs(abs(null @ d) - 1.0) < 1e-12


def test_source_basis_construction():
    # offset along e1: seed stays e3
    u = pm.source_basis([0, 0, 0], [1.0, 0, 0])
    assert np.allclose(u[:, 0], [0, 0, 1])
    assert np.allclose(u[:, 1], [0, -1, 0])
    # offset along e3: seed switches to e1
    u = pm.source_basis([0, 0, 0], [0, 0, 1.0])
    assert np.allclose(u[:, 0], [1, 0, 0])
    assert np.allclose(u[:, 1], [0, 1, 0])


def test_source_basis_spans_projector(rng):
    for _ in range(200):
        x_s = rng.uniform(-2, 2, 3)
        y0 = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x_s - y0) < 1e-3:
            continue
        u = pm.source_basis(x_s, y0)
        assert np.linalg.norm(u.T @ u - np.eye(2)) < 1e-12
        assert np.linalg.norm(u @ u.T - pm.projector(x_s, y0)) < 1e-12


def test_plane_wave_consistency(rng):
    # far from the source the incident field is a plane wave with transverse
    # polarization; relative error is of order wavelength / distance
    d = 1000 * LAMBDA0
    y0 = np.array([0, 0, L])
    direction = np.array([0.3, 0.2, 0.93])
    x_s = y0 - d * direction / np.linalg.norm(direction)
    r0 = y0 - x_s
    dist = np.linalg.norm(r0)
    rhat = r0 / dist
    j_s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pol = (np.eye(3) - np.outer(rhat, rhat)) @ j_s
    for _ in range(20):
        x = y0 + rng.uniform(-1, 1, 3) * LAMBDA0
        exact = pm.dyadic_green(x, x_s, K0) @ j_s
        plane = (
            np.exp(1j * K0 * dist)
            / (4 * np.pi * dist)
            * np.exp(1j * K0 * (rhat @ (x - y0)))
            * pol
        )
        rel = np.linalg.norm(exact - plane) / np.linalg.norm(exact)
        assert rel <= 10 * LAMBDA0 / dist


def test_stokes_basic_states():
    psi = pm.coherency_from_stokes(pm.StokesVec(1, 0, 0, 0))
    assert np.allclose(psi, 0.5 * np.eye(2))
    psi = pm.coherency_from_stokes(pm.StokesVec(1, 1, 0, 0))
    assert np.allclose(psi, np.diag([1.0, 0.0]))


def test_stokes_roundtrip(rng):
    for _ in range(100):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        psi = m @ m.conj().T  # Hermitian PSD
        back = pm.coherency_from_stokes(pm.stokes_from_coherency(psi))
        assert np.abs(back - psi).max() < 1e-15 * max(1.0, np.abs(psi).max())


def test_stokes_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pm.stokes_from_coherency(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_stokes_unphysical_warns():
    with pytest.warns(UserWarning):
        pm.StokesVec(1.0, 2.0, 0.0, 0.0)
    with pytest.warns(UserWarning):
        pm.StokesVec(-1.0, 0.0, 0.0, 0.0)


def test_projected_green_condition_equilateral():
    x_r = np.array([0.0, 0, 0])
    x_s = np.array([1.0, 0, 0])
    y0 = np.array([0.5, np.sqrt(3) / 2, 0])
    assert abs(pm.projected_green_condition(x_r, x_s, y0) - 4.0) < 1e-10


def test_projected_green_condition_matches_angles(rng):
    checked = 0
    while checked < 200:
        pts = rng.uniform(-1, 1, (3, 3))
        try:
            cond = pm.projected_green_condition(pts[0], pts[1], pts[2])
        except pm.DegenerateGeometryError:
            continue
        v1, v2 = pts[2] - pts[0], pts[1] - pts[0]
        cos_r = (v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        w1, w2 = pts[2] - pts[1], pts[0] - pts[1]
        cos_s = (w1 @ w2) / (np.linalg.norm(w1) * np.linalg.norm(w2))
        expected = 1.0 / abs(cos_r * cos_s)
        assert abs(cond - expected) <= 1e-10 * expected
        checked += 1


def test_projected_green_condition_near_degenerate_angles():
    # a squashed triangle shrinks both relevant vertex angles toward zero,
    # driving the condition number to 1
    x_r = np.array([0.0, 0, 0])
    x_s = np.array([1.0, 0, 0])
    y0 = np.array([0.5, 0.02, 0])
    cond = pm.projected_green_condition(x_r, x_s, y0)
    assert 1.0 <= cond < 1.01


def test_projected_green_condition_bench_geometry():
    src = bench_source()
    x_r = np.zeros(3)
    cond = pm.projected_green_condition(x_r, src.position, src.reference_point)
    v1 = src.reference_point - x_r
    v2 = src.position - x_r
    cos_r = (v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    w1 = src.reference_point - src.position
    w2 = x_r - src.position
    cos_s = (w1 @ w2) / (np.linalg.norm(w1) * np.linalg.norm(w2))
    assert abs(cond - 1.0 / abs(cos_r * cos_s)) < 1e-10 * cond


def test_projected_green_condition_collinear_raises():
    with pytest.raises(pm.DegenerateGeometryError):
        pm.projected_green_condition([0, 0, 0], [0, 0, 1.0], [0, 0, 2.0])


def test_cross_range_basis_is_e1_e2():
    assert np.array_equal(CROSS_RANGE_BASIS, np.eye(3)[:, :2])


@pytest.mark.parametrize("x_s", [bench_source().position, [3.0, -1.0, 0.5]])
def test_project_embed_match_explicit_products(rng, x_s):
    u_s = pm.source_basis(x_s, [0.0, 0.0, L])
    m = rng.standard_normal((4, 5, 3, 3)) + 1j * rng.standard_normal((4, 5, 3, 3))
    m2 = rng.standard_normal((4, 5, 2, 2)) + 1j * rng.standard_normal((4, 5, 2, 2))
    for got, ref in [(project(m, u_s), CROSS_RANGE_BASIS.T @ m @ u_s),
                     (embed(m2, u_s), CROSS_RANGE_BASIS @ m2 @ u_s.conj().T),
                     (project(embed(m2, u_s), u_s), m2)]:
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.all(embed(m2, u_s)[..., 2, :] == 0)



def test_green_band_matches_dyadic_green_across_128_bins():
    # 61x61 receivers and 128 band samples up to kr = 587: the phase
    # recurrence drifts from direct evaluation by rounding only
    recs = pm.ArrayGeom(side=20 * LAMBDA0, n1=61, n2=61).flat_positions()
    x_s = bench_source().position
    ks = pm.FrequencyBand(center=OMEGA0, width=BANDWIDTH, count=128).wavenumbers(DEFAULT_WAVE_SPEED)
    count = 0
    for k, g in zip(ks, green_band(recs, x_s, ks)):
        ref = pm.dyadic_green(recs, x_s, k)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        count += 1
    assert count == ks.size


def test_green_band_one_sample_empty_band_and_coincident_points():
    x, y = np.array([0.3, -0.2, L]), bench_source().position
    (g,) = green_band(x, y, [K0])
    ref = pm.dyadic_green(x, y, K0)
    assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()
    assert list(green_band(x, y, np.array([]))) == []
    with pytest.raises(pm.CoincidentPointsError):
        next(green_band(np.stack([x, y]), y, [K0]))


@pytest.mark.parametrize("ks, message", [
    ([0.0], "positive and finite"),
    ([-K0], "positive and finite"),
    ([np.nan], "positive and finite"),
    ([np.inf], "positive and finite"),
    ([K0, 1.1 * K0, 1.2 * K0, 1.4 * K0], "evenly spaced"),
], ids=["zero", "negative", "nan", "inf", "gapped"])
def test_green_band_rejects_bad_wavenumbers(ks, message):
    with pytest.raises(ValueError, match=message):
        next(green_band([0.3, -0.2, L], bench_source().position, ks))
