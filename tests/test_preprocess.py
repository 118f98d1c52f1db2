"""Preprocessing tests: the coherency-to-response map and its exact error."""

import dataclasses
import importlib
import re
import tracemalloc

import numpy as np
import pytest

import polarmig as pm
from polarmig import _parallel
from polarmig.emcore import CROSS_RANGE_BASIS
from polarmig.forward import projected_response
from polarmig.errors import NumericalError
from polarmig.migrate import _guard_cond
from polarmig.preprocess import GTILDE_COND_LIMIT, GTILDE_SV_CUTOFF, _cond_2x2, _mul_2x2

from conftest import (
    ALPHA_1,
    K0,
    L,
    LAMBDA0,
    band,
    bench_scene,
    check_bin_blocks,
    exactly_hermitian,
    random_symmetric_tensor,
    single_freq_band,
    three_dipole_scene,
)

# the module, which the package's preprocess function shadows
prep = importlib.import_module("polarmig.preprocess")


def _embed_projected(scene, pi_values):
    u_s = scene.source.basis()
    pit = projected_response(scene, pi_values)
    return np.einsum("ip,...pq,jq->...ij", CROSS_RANGE_BASIS, pit, np.conj(u_s))


def test_gtilde_matches_projected_dyad(rng):
    src_pos = np.array([2.0, -1.0, 0.5])
    y0 = np.array([0.0, 0.3, 9.0])
    for _ in range(10):
        x_r = rng.uniform(-2, 2, 3)
        gt = pm.gtilde(x_r, src_pos, y0, K0)
        u_s = pm.source_basis(src_pos, y0)
        direct = CROSS_RANGE_BASIS.T @ pm.dyadic_green(x_r, src_pos, K0) @ u_s
        assert np.abs(gt - direct).max() < 1e-15 * np.abs(direct).max()


def test_gtilde_conditioning_tracks_triangle_angles():
    # asymptotically the conditioning follows the projector-product law
    src = bench_scene([], n=3).source
    x_r = np.zeros(3)
    gt = pm.gtilde(x_r, src.position, src.reference_point, K0)
    sv = np.linalg.svd(gt, compute_uv=False)
    predicted = pm.projected_green_condition(x_r, src.position, src.reference_point)
    assert abs(sv[0] / sv[1] - predicted) < 0.1 * predicted


def test_gtilde_degenerate_angle_is_flagged_singular():
    # right angle at the receiver makes the projected dyad lose rank
    x_r = np.zeros(3)
    y0 = np.array([0, 0, L])
    x_s = np.array([1e7 / K0, 0.0, 0.0])
    gt = pm.gtilde(x_r, x_s, y0, K0)
    sv = np.linalg.svd(gt, compute_uv=False)
    assert sv[0] / sv[1] > 1e6


def test_gtilde_scaling_with_wavenumber():
    x_r = np.array([0.5, 0.2, 0.0])
    src = bench_scene([], n=3).source
    d = np.linalg.norm(x_r - src.position)
    g1 = pm.gtilde(x_r, src.position, src.reference_point, K0)
    g2 = pm.gtilde(x_r, src.position, src.reference_point, 2 * K0)
    # modulus stays at the 1/(4 pi d) level, phase advances by k d up to the
    # small near-field corrections of order 1/(k d)
    assert np.abs(np.abs(g1).max() * 4 * np.pi * d - 1.0) < 0.1
    idx = np.unravel_index(np.argmax(np.abs(g1)), (2, 2))
    phase_shift = np.angle(g2[idx] / g1[idx])
    expected = np.angle(np.exp(1j * K0 * d))
    assert abs(np.exp(1j * phase_shift) - np.exp(1j * expected)) < 0.1


def test_preprocess_incident_only_is_zero(tmp_path):
    # synthesis M Js M^* and preprocessing Gt Js Gt^* run the same products,
    # so a scene without scatterers cancels exactly, also after a container round trip
    scene = bench_scene([], n=5)
    js = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    scene = pm.Scene(
        source=pm.SourceSpec(scene.source.position, scene.source.reference_point, js),
        geom=scene.geom, window=scene.window, scatterers=[],
    )
    ds = pm.coherency_synthesize(scene, band(3))
    pre, report = pm.preprocess(ds)
    assert np.abs(ds.values).max() > 0
    assert np.all(pre.values == 0)
    assert report.regularized_count == 0
    ds.write(tmp_path / "coherency.pmds")
    assert np.all(pm.preprocess(pm.ArrayDataSet.read(tmp_path / "coherency.pmds"))[0].values == 0)


def _with_condition(rng, c, count=200):
    """``count`` matrices ``3 U diag(1, 1/c) V^*`` with random unitary U and V."""
    z = rng.standard_normal((2, count, 2, 2)) + 1j * rng.standard_normal((2, count, 2, 2))
    u, v = np.linalg.qr(z)[0]
    s = np.array([1.0, 1.0 / c])
    return 3.0 * (u * s) @ np.conj(np.swapaxes(v, -1, -2))


@pytest.mark.parametrize("c", [1e2, 1e4, 1e6, 1e8])
def test_cond_2x2_matches_svd(rng, c):
    a = _with_condition(rng, c)
    sv = np.linalg.svd(a, compute_uv=False)
    ref = sv[:, 0] / sv[:, 1]
    assert np.abs(_cond_2x2(a) / ref - 1).max() < 1e-6


def test_cond_2x2_singular_and_identity():
    assert _cond_2x2(np.zeros((2, 2), dtype=complex)) == np.inf
    assert _cond_2x2(np.array([[1, 2], [2, 4]], dtype=complex)) == np.inf
    assert _cond_2x2(np.eye(2, dtype=complex)) == 1.0


def test_guard_cond_limit_is_read_sharply(rng):
    _guard_cond(_with_condition(rng, 5e7)[None], "test factor")
    with pytest.raises(NumericalError, match="test factor"):
        _guard_cond(_with_condition(rng, 2e8)[None], "test factor")


def test_mul_2x2_matches_matmul_on_broadcast_shapes(rng):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, js = cplx(3, 4, 5, 2, 2), cplx(5, 2, 2)
    ah = np.swapaxes(a.conj(), -1, -2)  # a strided, conj-transposed operand
    wide, tall = cplx(3, 4, 5, 2, 3), cplx(5, 3, 2)  # an inner size of 3, as 3x3 data recover
    for x, y in [(a, js), (a, ah), (ah, a), (js, a), (wide, tall)]:
        ref = x @ y
        got = _mul_2x2(x, y)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    for x, y in [(wide, js), (a, tall), (tall, wide)]:  # inner sizes differ, or not a 2x2 result
        with pytest.raises(ValueError, match="cannot form a 2x2 product"):
            _mul_2x2(x, y)


def test_coherency_is_hermitian_with_the_bits_of_the_whole_product():
    # Psi12 and the real diagonal are the entries of the full product E M^*, E = M Js, bit for
    # bit; Psi21 is conj(Psi12) and the diagonal's imaginary parts are +0, not rounding noise
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 4, 5, 2, 2)) + 1j * rng.standard_normal((3, 4, 5, 2, 2))
    a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    js = a @ np.conj(np.swapaxes(a, -1, -2))
    full = _mul_2x2(_mul_2x2(m, js), np.conj(np.swapaxes(m, -1, -2)))
    psi = exactly_hermitian(prep._coherency(m, js))
    assert np.array_equal(psi[..., 0, 1], full[..., 0, 1])
    for i in range(2):
        assert np.array_equal(psi[..., i, i].real, full[..., i, i].real)
    assert np.abs(full[..., 1, 0] - psi[..., 1, 0]).max() > 0  # the full product is not Hermitian


def test_preprocess_exact_identity():
    scene = three_dipole_scene(n=7)
    fb = band(3)
    ds = pm.coherency_synthesize(scene, fb)
    resp = pm.response_synthesize(scene, fb)
    pre, _ = pm.preprocess(ds)
    q = pm.expected_error(resp.values, ds)
    embedded = _embed_projected(scene, resp.values)
    resid = pre.values - embedded - q
    assert np.abs(resid).max() < 1e-12 * np.abs(q).max()


def test_preprocess_source_scale_invariance():
    scene = three_dipole_scene(n=5)
    pre1, _ = pm.preprocess(pm.coherency_synthesize(scene, single_freq_band()))
    scaled = pm.Scene(
        source=pm.SourceSpec(
            position=scene.source.position,
            reference_point=scene.source.reference_point,
            coherency=7.5 * np.eye(2),
        ),
        geom=scene.geom,
        window=scene.window,
        scatterers=scene.scatterers,
    )
    pre2, _ = pm.preprocess(pm.coherency_synthesize(scaled, single_freq_band()))
    assert np.abs(pre1.values - pre2.values).max() < 1e-12 * np.abs(pre1.values).max()


def test_expected_error_vanishes_without_scattering():
    scene = three_dipole_scene(n=3)
    ds = pm.coherency_synthesize(scene, single_freq_band())
    q = pm.expected_error(np.zeros((3, 3, 1, 3, 3), dtype=complex), ds)
    assert np.all(q == 0)


def test_expected_error_antilinear_first_order():
    scene = three_dipole_scene(n=5)
    fb = single_freq_band()
    ds = pm.coherency_synthesize(scene, fb)
    resp = pm.response_synthesize(scene, fb).values
    q1 = pm.expected_error(resp, ds)
    qi = pm.expected_error(1j * resp, ds)
    # q(lam Pi) = conj(lam) A + |lam|^2 B; solve for A, B from lam = 1, i
    a_part = (q1 - qi) / (1 + 1j)
    b_part = q1 - a_part
    lam = np.exp(1j * np.pi / 4)
    q_pred = np.conj(lam) * a_part + b_part
    q_test = pm.expected_error(lam * resp, ds)
    assert np.abs(q_test - q_pred).max() < 1e-12 * np.abs(q_pred).max()


def test_preprocess_output_lives_in_projected_subspaces():
    scene = three_dipole_scene(n=5)
    pre, _ = pm.preprocess(pm.coherency_synthesize(scene, single_freq_band()))
    u_s = scene.source.basis()
    p_par = np.diag([1.0, 1.0, 0.0])
    p_s = u_s @ u_s.T
    vals = pre.values
    scale = np.abs(vals).max()
    assert np.abs((np.eye(3) - p_par) @ vals).max() < 1e-13 * scale
    assert np.abs(vals @ (np.eye(3) - p_s)).max() < 1e-13 * scale


def test_preprocess_no_regularization_at_bench_geometry():
    scene = three_dipole_scene(n=9)
    ds = pm.coherency_synthesize(scene, band(5))
    _, report = pm.preprocess(ds)
    assert report.regularized_count == 0
    assert np.all(report.cond >= 1.0)
    assert "regularized entries: 0" in report.summary()


def test_preprocess_regularizes_degenerate_receiver():
    # a source placed to make the projected dyad rank deficient at one
    # receiver triggers the truncated inversion instead of a crash
    geom = pm.ArrayGeom(side=2 * LAMBDA0, n1=2, n2=2)
    window = pm.ImagingWindow(center=[0, 0, L], cross_range=4.0, range_extent=4.0)
    x_s = np.array([1e7 / K0, -LAMBDA0, 0.0])
    source = pm.SourceSpec(position=x_s, reference_point=[0, 0, L])
    scene = pm.Scene(source=source, geom=geom, window=window, scatterers=[])
    ds = pm.coherency_synthesize(scene, single_freq_band())
    pre, report = pm.preprocess(ds)
    assert report.regularized_count >= 1
    assert np.all(np.isfinite(pre.values))
    assert report.cond.max() > GTILDE_COND_LIMIT


def test_flagged_receivers_invert_gt_by_a_truncated_svd(rng):
    # the scene above, with data Gt Js Gt^* + D: at a flagged receiver the core is D T Js^-1,
    # T the pseudo-inverse of Gt^* from its singular values above the cutoff
    geom = pm.ArrayGeom(side=2 * LAMBDA0, n1=2, n2=2)
    window = pm.ImagingWindow(center=[0, 0, L], cross_range=4.0, range_extent=4.0)
    source = pm.SourceSpec(position=[1e7 / K0, -LAMBDA0, 0.0], reference_point=[0, 0, L])
    scene = pm.Scene(source=source, geom=geom, window=window, scatterers=[])
    ds = pm.coherency_synthesize(scene, single_freq_band())
    noise = rng.standard_normal(ds.matrices.shape) + 1j * rng.standard_normal(ds.matrices.shape)
    noisy = dataclasses.replace(ds, matrices=ds.matrices + noise * np.abs(ds.matrices).max())
    pre, report = pm.preprocess(noisy)
    assert report.regularized
    for idx in report.regularized:
        x_r = geom.positions()[idx[:2]]
        gt_star = np.conj(pm.gtilde(x_r, source.position, source.reference_point,
                                    ds.wavenumbers[idx[2]]).T)
        u, s, vh = np.linalg.svd(gt_star)
        keep = s > GTILDE_SV_CUTOFF * s[0]
        assert not keep.all()
        truncated = (np.conj(vh[keep]).T / s[keep]) @ np.conj(u[:, keep]).T
        expected = (noisy.matrices[idx] - ds.matrices[idx]) @ truncated @ np.linalg.inv(
            source.coherency)
        assert np.abs(pre.matrices[idx] - expected).max() <= 1e-14 * np.abs(expected).max()


def test_expected_error_refuses_a_response_of_another_shape():
    ds = pm.coherency_synthesize(bench_scene([], n=2), band(3))
    with pytest.raises(ValueError, match=re.escape(
            "response field shape (2, 2, 2, 3, 3), expected (2, 2, 3, 3, 3)")):
        pm.expected_error(np.zeros((2, 2, 2, 3, 3)), ds)


def _flagged_scene(n: int) -> pm.Scene:
    """A dipole scene whose source leaves the projected dyad rank deficient at some receivers."""
    geom = pm.ArrayGeom(side=2 * LAMBDA0, n1=n, n2=n)
    window = pm.ImagingWindow(center=[0, 0, L], cross_range=4.0, range_extent=4.0)
    source = pm.SourceSpec(position=[1e7 / K0, -LAMBDA0, 0.0], reference_point=[0, 0, L])
    return pm.Scene(source=source, geom=geom, window=window,
                    scatterers=[pm.Scatterer([0, 0, L], ALPHA_1)])


# every receiver of the flagged scene has cond(Gt) ~ 4e10, which magnifies the last-digit
# gap between one block and several (a restarted phase walk) to about 2e-9
@pytest.mark.parametrize("scene, flagged, rtol", [(three_dipole_scene(n=5), False, 1e-13),
                                                  (_flagged_scene(4), True, 1e-8)],
                         ids=["three-dipoles", "flagged"])
def test_preprocess_bits_do_not_depend_on_the_threads(monkeypatch, blas_count, scene, flagged,
                                                      rtol):
    ds = pm.coherency_synthesize(scene, band(5))
    walked, gt_blocks = {}, prep._gt_blocks

    def spy(data, work):
        def record(b, gt, *rest):
            walked[b[2].start] = gt
            work(b, gt, *rest)

        gt_blocks(data, record)

    monkeypatch.setattr(prep, "_gt_blocks", spy)

    def stage():
        walked.clear()
        pre, report = pm.preprocess(ds)
        # Gt walked block by block is gtilde's whole-band table, bit for bit
        whole = pm.gtilde(scene.geom.flat_positions(), scene.source.position,
                          scene.source.reference_point, ds.wavenumbers)
        per_block = np.concatenate([walked[start] for start in sorted(walked)], axis=2)
        assert np.array_equal(per_block, whole.reshape(per_block.shape))
        return pre.values, pre.matrices, report.cond, np.array(report.regularized, dtype=int)

    check_bin_blocks(monkeypatch, stage, scene.geom.n1 * scene.geom.n2, 5, rtol)
    regularized = stage()[3].tolist()
    # (row, col, freq) in C order, whatever block each entry fell in
    assert bool(regularized) == flagged and regularized == sorted(regularized)


def test_preprocess_peak_memory_is_its_arrays_and_two_bin_blocks(monkeypatch):
    # 31x31 receivers over 128 bins run in 8 bin blocks, two at a time on two threads
    monkeypatch.setenv("POLARMIG_THREADS", "2")
    n, nbins = 31, 128
    scene = three_dipole_scene(n=n)
    shape = (n, n, nbins, 2, 2)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ds = pm.ArrayDataSet("hermitian2x2", psi, scene.geom, scene.source, band(nbins),
                             scene.wave_speed)
        tracemalloc.reset_peak()
        pre, report = pm.preprocess(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = ds.matrices.nbytes  # the input; the core has its size
    assert pre.matrices.nbytes == table and report.cond.nbytes == table // 8
    widest = max(b.stop - b.start for b in _parallel.bin_blocks(n * n, nbins))
    # a block holds at most six of its (n1, n2, bins, 2, 2) tables at once: Gt, its
    # inverse, the three of one M Js M^* product, and one for the scratch planes and
    # the walk's per-receiver buffers; no whole-band Gt and no 3x3 values
    block = 6 * n * n * widest * 4 * 16
    assert peak < 2 * table + report.cond.nbytes + 2 * block, (peak, table)


def test_preprocess_singular_source_coherency_raises():
    scene = three_dipole_scene(n=3)
    ds = pm.coherency_synthesize(scene, single_freq_band())
    with pytest.raises(pm.NumericalError):
        ds.source.__class__(
            position=ds.source.position,
            reference_point=ds.source.reference_point,
            coherency=np.diag([1.0, 0.0]),
        )


def test_preprocess_wrong_kind_rejected():
    scene = three_dipole_scene(n=3)
    resp = pm.response_synthesize(scene, single_freq_band())
    with pytest.raises(ValueError, match="hermitian2x2"):
        pm.preprocess(resp)


def test_random_scene_identity_under_second_born(rng):
    # the identity is exact algebra whatever response enters the coherency
    scene = three_dipole_scene(n=5)
    fb = single_freq_band()
    ds = pm.coherency_synthesize(scene, fb, include_second_born=True)
    resp = pm.response_synthesize(scene, fb, include_second_born=True)
    pre, _ = pm.preprocess(ds)
    q = pm.expected_error(resp.values, ds)
    embedded = _embed_projected(scene, resp.values)
    assert np.abs(pre.values - embedded - q).max() < 1e-12 * np.abs(q).max()
