"""Forward model tests: Born responses, coherency synthesis, cube builder."""

import numpy as np
import pytest

import polarmig as pm
from polarmig.forward import projected_incident, projected_response

from conftest import (
    ALPHA_1,
    ALPHA_2,
    K0,
    L,
    LAMBDA0,
    band,
    bench_scene,
    random_symmetric_tensor,
    single_freq_band,
    three_dipole_scene,
)


def test_born_zero_scatterers():
    scene = bench_scene([], n=5)
    assert np.all(pm.born_response(scene, K0) == 0)


def test_born_single_scatterer_matches_triple_product():
    scene = bench_scene([pm.Scatterer([0.2, -0.3, L], ALPHA_1)], n=3)
    pi = pm.born_response(scene, K0).reshape(-1, 3, 3)
    recs = scene.geom.flat_positions()
    for r in range(recs.shape[0]):
        direct = (
            pm.dyadic_green(recs[r], [0.2, -0.3, L], K0)
            @ ALPHA_1
            @ pm.dyadic_green([0.2, -0.3, L], scene.source.position, K0)
        )
        assert np.abs(pi[r] - direct).max() < 1e-14 * np.abs(direct).max()


def test_born_linear_in_each_tensor(rng):
    p1 = np.array([0.2, -0.3, L])
    p2 = np.array([-0.5, 0.1, L + 0.4])
    a1 = random_symmetric_tensor(rng)
    a2 = random_symmetric_tensor(rng)
    base = pm.born_response(bench_scene([pm.Scatterer(p1, a1), pm.Scatterer(p2, a2)], n=5), K0)
    doubled = pm.born_response(
        bench_scene([pm.Scatterer(p1, 2 * a1), pm.Scatterer(p2, a2)], n=5), K0
    )
    only1 = pm.born_response(bench_scene([pm.Scatterer(p1, a1)], n=5), K0)
    only2 = pm.born_response(bench_scene([pm.Scatterer(p2, a2)], n=5), K0)
    assert np.abs(base - (only1 + only2)).max() < 1e-14 * np.abs(base).max()
    assert np.abs(doubled - (2 * only1 + only2)).max() < 1e-14 * np.abs(base).max()


def test_second_born_single_scatterer_empty():
    scene = bench_scene([pm.Scatterer([0, 0, L], ALPHA_1)], n=3)
    assert np.all(pm.second_born_response(scene, K0) == 0)


def test_second_born_two_scatterers_matches_hand_sum():
    p1 = np.array([0.2, -0.3, L])
    p2 = np.array([-0.5, 0.1, L + 0.4])
    scene = bench_scene([pm.Scatterer(p1, ALPHA_1), pm.Scatterer(p2, ALPHA_2)], n=3)
    pi2 = pm.second_born_response(scene, K0).reshape(-1, 3, 3)
    recs = scene.geom.flat_positions()
    x_s = scene.source.position
    for r in range(recs.shape[0]):
        term12 = (
            pm.dyadic_green(recs[r], p1, K0)
            @ ALPHA_1
            @ pm.dyadic_green(p1, p2, K0)
            @ ALPHA_2
            @ pm.dyadic_green(p2, x_s, K0)
        )
        term21 = (
            pm.dyadic_green(recs[r], p2, K0)
            @ ALPHA_2
            @ pm.dyadic_green(p2, p1, K0)
            @ ALPHA_1
            @ pm.dyadic_green(p1, x_s, K0)
        )
        direct = term12 + term21
        assert np.abs(pi2[r] - direct).max() < 1e-13 * np.abs(direct).max()


def test_second_born_quadratic_scaling(rng):
    p1 = np.array([0.2, -0.3, L])
    p2 = np.array([-0.5, 0.1, L + 0.4])
    a1 = random_symmetric_tensor(rng)
    a2 = random_symmetric_tensor(rng)
    base = pm.second_born_response(
        bench_scene([pm.Scatterer(p1, a1), pm.Scatterer(p2, a2)], n=3), K0
    )
    scaled = pm.second_born_response(
        bench_scene([pm.Scatterer(p1, 3 * a1), pm.Scatterer(p2, 3 * a2)], n=3), K0
    )
    assert np.abs(scaled - 9 * base).max() < 1e-13 * np.abs(scaled).max()


def test_scatterer_coincident_with_source_raises():
    scene = bench_scene([pm.Scatterer([0, 0, L], ALPHA_1)], n=3)
    bad = pm.Scene(
        source=pm.SourceSpec(position=[0, 0, L], reference_point=[0, 0, L + 1.0]),
        geom=scene.geom,
        window=pm.ImagingWindow(center=[0, 0, L], cross_range=4.0, range_extent=4.0),
        scatterers=[pm.Scatterer([0, 0, L], ALPHA_1)],
    )
    with pytest.raises(pm.CoincidentPointsError):
        pm.born_response(bad, K0)


def test_coherency_incident_only():
    scene = bench_scene([], n=5)
    ds = pm.coherency_synthesize(scene, single_freq_band())
    gt = projected_incident(scene, K0)
    expected = gt @ np.eye(2) @ np.conj(np.swapaxes(gt, -1, -2))
    assert np.abs(ds.values[:, :, 0] - expected).max() < 1e-15 * np.abs(expected).max()


def test_coherency_hermitian_and_psd():
    scene = three_dipole_scene(n=9)
    ds = pm.coherency_synthesize(scene, band(5))
    vals = ds.values
    herm = np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max()
    assert herm < 1e-14 * np.abs(vals).max()
    eigs = np.linalg.eigvalsh(vals)
    traces = np.real(vals[..., 0, 0] + vals[..., 1, 1])
    assert np.all(eigs[..., 0] >= -1e-10 * traces)


def test_coherency_four_term_expansion():
    scene = bench_scene([pm.Scatterer([0, 0, L], ALPHA_1)], n=7)
    ds = pm.coherency_synthesize(scene, single_freq_band())
    gt = projected_incident(scene, K0)
    pit = projected_response(scene, pm.born_response(scene, K0))
    j = np.eye(2)
    star = lambda m: np.conj(np.swapaxes(m, -1, -2))
    four = (
        gt @ j @ star(gt)
        + pit @ j @ star(gt)
        + gt @ j @ star(pit)
        + pit @ j @ star(pit)
    )
    assert np.abs(ds.values[:, :, 0] - four).max() < 1e-13 * np.abs(four).max()


def test_coherency_monte_carlo_oracle(rng):
    # ensemble average over circularly symmetric Gaussian dipole moments
    scene = bench_scene([pm.Scatterer([0.3, -0.2, L], ALPHA_2)], n=3)
    jsr = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    js = jsr @ jsr.conj().T + 0.5 * np.eye(2)
    scene = pm.Scene(
        source=pm.SourceSpec(
            position=scene.source.position,
            reference_point=scene.source.reference_point,
            coherency=js,
        ),
        geom=scene.geom,
        window=scene.window,
        scatterers=scene.scatterers,
    )
    ds = pm.coherency_synthesize(scene, single_freq_band())
    u_s = scene.source.basis()
    chol = np.linalg.cholesky(js)
    draws = 10**5
    z = (rng.standard_normal((draws, 2)) + 1j * rng.standard_normal((draws, 2))) / np.sqrt(2)
    moments = u_s @ (chol @ z.T)  # (3, draws) random dipole moments
    transfer = (
        pm.dyadic_green(scene.geom.flat_positions(), scene.source.position, K0)
        + pm.born_response(scene, K0).reshape(-1, 3, 3)
    )
    fields = transfer @ moments  # (nrec, 3, draws)
    epar = fields[:, :2, :]
    mc = np.einsum("rid,rjd->rij", epar, np.conj(epar)) / draws
    rel = np.abs(mc - ds.values.reshape(-1, 1, 2, 2)[:, 0]).max() / np.abs(ds.values).max()
    assert rel < 0.01


def test_coherency_trace_matches_stokes_intensity():
    scene = three_dipole_scene(n=5)
    ds = pm.coherency_synthesize(scene, single_freq_band())
    psi = ds.values[2, 3, 0]
    stokes = pm.stokes_from_coherency(psi)
    assert abs(np.real(np.trace(psi)) - stokes.i) < 1e-12 * abs(stokes.i)


def test_second_born_flag_changes_data():
    scene = three_dipole_scene(n=5)
    plain = pm.coherency_synthesize(scene, single_freq_band(), include_second_born=False)
    with_2b = pm.coherency_synthesize(scene, single_freq_band(), include_second_born=True)
    diff = np.abs(plain.values - with_2b.values).max()
    assert diff > 0
    # double scattering is a small correction in this weakly scattering scene
    assert diff < 0.05 * np.abs(plain.values).max()


def test_second_born_band_synthesis_matches_per_wavenumber_sums():
    # Born and double-scattering tails share one receiver sum over the band;
    # every sample must still be the sum of the two single-frequency responses
    scene = three_dipole_scene(n=5)
    b = band(4)
    ds = pm.response_synthesize(scene, b, include_second_born=True)
    for fi, k in enumerate(b.wavenumbers(scene.wave_speed)):
        ref = pm.born_response(scene, k) + pm.second_born_response(scene, k)
        assert np.abs(ds.values[:, :, fi] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cube_scene_counts_and_bounds():
    cube = pm.build_cube_scene([0, 0, L], 5 * LAMBDA0, LAMBDA0 / 4, ALPHA_1)
    assert len(cube) == 21**3
    pos = np.stack([s.position for s in cube])
    assert np.all(np.abs(pos - [0, 0, L]).max(axis=0) <= 2.5 * LAMBDA0 + 1e-12)
    single = pm.build_cube_scene([0, 0, 0], 1.0, 1.0, ALPHA_1)
    assert len(single) == 8
    # lattice points are at least one spacing apart
    pos8 = np.stack([s.position for s in single])
    dists = np.linalg.norm(pos8[:, None] - pos8[None, :], axis=-1)
    assert dists[~np.eye(8, dtype=bool)].min() >= 1.0 - 1e-12
