"""Random-source pipeline tests: synthesis statistics, propagation, averaging."""

import numpy as np
import pytest

import polarmig as pm
from polarmig.forward import projected_incident, projected_response
from polarmig.stochastic import (
    _pad_length,
    _synth_channels,
    analysis_transform,
    spectrum_grid,
    synthesis_transform,
)

from conftest import ALPHA_1, K0, L, LAMBDA0, OMEGA0, bench_scene

T_C = 1e-9
HALF_T = 266e-9
N_SAMPLES = 8001


def _spec(seed=0, half=HALF_T, samples=N_SAMPLES):
    return pm.SourceProcessSpec(
        correlation_time=T_C, center=OMEGA0, half_duration=half, samples=samples, seed=seed
    )


def _stats_scene(n=2):
    return bench_scene([pm.Scatterer([0, 0, L], ALPHA_1)], n=n)


def test_spec_validation():
    with pytest.raises(ValueError, match="Nyquist|rate"):
        pm.SourceProcessSpec(
            correlation_time=T_C, center=OMEGA0, half_duration=HALF_T, samples=400
        )
    with pytest.raises(ValueError, match="correlation"):
        pm.SourceProcessSpec(
            correlation_time=T_C, center=OMEGA0, half_duration=5e-9, samples=512
        )


def test_spectrum_formula_matches_transform_of_autocorrelation():
    # the synthesis spectrum must be the transform of the autocorrelation
    # under the package convention; this pins the derived closed form
    spec = _spec()
    taus = np.linspace(-12e-9, 12e-9, 48001)
    j_tau = spec.autocorrelation(taus)
    omegas = OMEGA0 + np.linspace(-1, 1, 21) * (2 * np.pi * 1.0e9)
    kernel = np.exp(1j * omegas[:, None] * taus[None, :])
    numeric = np.real(np.trapezoid(j_tau[None, :] * kernel, taus, axis=1)) / (2 * np.pi)
    assert np.abs(numeric - spec.spectrum(omegas)).max() < 1e-6 * spec.spectrum(omegas).max()


def test_transform_pair_roundtrip(rng):
    x = rng.standard_normal((3, 500))
    spec = analysis_transform(x, 0.25)
    back = synthesis_transform(spec, 500, 0.25)
    assert np.abs(back - x).max() < 1e-12


def test_synth_source_is_real_zero_mean_with_target_variance():
    spec = _spec(seed=3)
    basis = pm.source_basis([0, 0, 0], [0, 1.0, 1.0])
    sig = pm.synth_source(spec, basis)
    assert sig.samples.shape == (3, N_SAMPLES)
    assert sig.samples.dtype == np.float64
    j0 = spec.autocorrelation(0.0)
    sigma = np.sqrt(j0)
    bound = 4 * sigma / np.sqrt(2 * HALF_T / T_C)
    # channels in the lifted frame: project back onto the basis
    channels = basis.T @ sig.samples
    assert np.all(np.abs(channels.mean(axis=1)) <= bound)
    var = channels.var(axis=1)
    assert np.all(np.abs(var - j0) < 0.15 * j0)


def test_synth_source_autocorrelation_matches_target():
    spec = _spec()
    lag = int(round(T_C / 2 / spec.dt))
    tau = lag * spec.dt
    target = spec.autocorrelation(tau)
    acc = []
    for seed in range(40):
        x = _synth_channels(_spec(seed=seed), 1, np.random.default_rng(seed))[0]
        acc.append(np.mean(x[lag:] * x[:-lag]))
    assert abs(np.mean(acc) - target) < 0.15 * abs(target)


def test_synth_source_stationarity():
    spec = _spec(seed=9)
    x = _synth_channels(spec, 1, np.random.default_rng(9))[0]
    half = x.size // 2
    v1, v2 = x[:half].var(), x[half:].var()
    # disjoint window variances agree within sampling error
    assert abs(v1 - v2) < 0.2 * (v1 + v2) / 2


def test_wiener_khinchin_consistency():
    # averaged periodogram of synthesized channels vs the analytic spectrum
    spec = _spec()
    n, dt = spec.samples, spec.dt
    omegas = spectrum_grid(n, dt)
    d_omega = 2 * np.pi / (n * dt)
    acc = np.zeros(omegas.size)
    reps = 100
    for seed in range(reps):
        x = _synth_channels(_spec(seed=seed), 1, np.random.default_rng(1000 + seed))
        acc += np.abs(analysis_transform(x, dt)[0]) ** 2 * d_omega
    acc /= reps
    target = spec.spectrum(omegas)
    # block-average both sides; single bins keep ~1/sqrt(reps) scatter
    block = 51
    usable = omegas.size - omegas.size % block
    acc_b = acc[:usable].reshape(-1, block).mean(axis=1)
    target_b = target[:usable].reshape(-1, block).mean(axis=1)
    sel = target_b > 0.2 * target_b.max()  # in-band comparison
    rel = np.abs(acc_b[sel] - target_b[sel]) / target_b[sel]
    assert rel.max() < 0.15


def test_simulate_received_zero_source():
    scene = _stats_scene()
    src_sig = pm.TimeSignal(samples=np.zeros((3, 1024)), dt=_spec().dt, t0=0.0)
    out = pm.simulate_received(scene, src_sig, receivers=scene.geom.flat_positions()[:1])
    assert np.all(out.samples == 0)


def test_simulate_received_spectrum_is_transfer_times_source():
    # free space, one receiver: the received spectrum equals the direct-path
    # dyad applied to the source spectrum, bin by bin
    scene = bench_scene([], n=2)
    rec = scene.geom.flat_positions()[:1]
    spec = _spec(seed=5, half=40e-9, samples=1200)
    basis = scene.source.basis()
    src_sig = pm.synth_source(spec, basis)
    out = pm.simulate_received(scene, src_sig, receivers=rec)
    assert out.samples.shape[0] == 1 and out.samples.shape[1] == 3
    n_pad = out.samples.shape[-1]
    padded = np.zeros((3, n_pad))
    padded[:, : src_sig.n] = src_sig.samples
    j_hat = analysis_transform(padded, spec.dt)
    e_hat = analysis_transform(out.samples[0], spec.dt)
    omegas = spectrum_grid(n_pad, spec.dt)
    power = np.abs(j_hat).max(axis=0)
    active = (omegas > 0) & (power > 1e-6 * power.max())
    for fi in np.flatnonzero(active)[::50]:
        g = pm.dyadic_green(rec[0], scene.source.position, omegas[fi] / scene.wave_speed)
        expected = g @ j_hat[:, fi]
        assert np.abs(e_hat[:, fi] - expected).max() < 1e-10 * np.abs(expected).max()


def test_simulate_received_spectrum_across_a_gap_in_live_bins():
    # two pulses far apart in frequency leave bins below the spectrum floor
    # between them; the transfer comes from the uniform span holding the live
    # bins and must still be the direct-path dyad on each of them
    scene = bench_scene([], n=2)
    rec = scene.geom.flat_positions()[:1]
    dt, n = 1 / 16e9, 1200
    t = dt * (np.arange(n) - n / 2)
    envelope = np.exp(-((t / 2e-9) ** 2))
    tones = envelope * np.cos(2 * np.pi * np.array([[1.5e9], [3.5e9]]) * t)
    src_sig = pm.TimeSignal(samples=scene.source.basis() @ tones, dt=dt, t0=t[0])
    out = pm.simulate_received(scene, src_sig, receivers=rec)
    n_pad = out.samples.shape[-1]
    padded = np.zeros((3, n_pad))
    padded[:, :n] = src_sig.samples
    j_hat = analysis_transform(padded, dt)
    e_hat = analysis_transform(out.samples[0], dt)
    omegas = spectrum_grid(n_pad, dt)
    power = np.abs(j_hat).max(axis=0)
    live = np.flatnonzero((omegas > 0) & (power > 1e-12 * power.max()))
    gap = np.setdiff1d(np.arange(live[0], live[-1] + 1), live)
    assert gap.size > 50
    expected = np.stack([
        pm.dyadic_green(rec[0], scene.source.position, omegas[fi] / scene.wave_speed)
        @ j_hat[:, fi] for fi in live
    ], axis=1)
    scale = np.abs(expected).max()
    assert np.abs(e_hat[:, live] - expected).max() < 1e-10 * scale
    assert np.abs(e_hat[:, gap]).max() < 1e-12 * scale


def test_simulate_received_time_reality():
    scene = _stats_scene()
    spec = _spec(seed=1, half=40e-9, samples=1200)
    src_sig = pm.synth_source(spec, scene.source.basis())
    out = pm.simulate_received(scene, src_sig, receivers=scene.geom.flat_positions()[:1])
    # irfft output is real by construction; verify finite energy arrived
    assert out.samples.dtype == np.float64
    assert np.linalg.norm(out.samples) > 0


def test_empirical_autocorrelation_sinusoid_oracle():
    # sampled cosine: the windowed autocorrelation has an exact closed form
    # via geometric sums, which the transform path must reproduce
    dt = 1 / 16e9
    n = 4096
    freq = 2 * np.pi * 2.4e9
    t = dt * np.arange(n)
    amp = 0.7
    wave = amp * np.cos(freq * t)
    samples = np.zeros((3, n))
    samples[0] = wave
    sig = pm.TimeSignal(samples=samples, dt=dt, t0=0.0)
    duration = n * dt
    lags, psi = pm.empirical_autocorrelation(sig, duration, max_lag=40 * dt)
    for li in (0, 7, 23):
        lag = li
        m = n - lag
        phase = np.exp(2j * freq * dt * np.arange(m) + 1j * freq * dt * lag)
        exact = (amp**2 / 2) * (m * np.cos(freq * dt * lag) + np.real(np.sum(phase)))
        exact *= dt / duration
        assert abs(psi[li, 0, 0] - exact) < 1e-6 * abs(exact)
        assert abs(psi[li, 1, 1]) < 1e-12
    assert lags[1] - lags[0] == pytest.approx(dt)


@pytest.mark.parametrize("estimator", [pm.empirical_coherency, pm.empirical_autocorrelation],
                         ids=["freq", "lag"])
@pytest.mark.parametrize("duration", [0.0, -1e-9])
def test_empirical_autocorrelation_rejects_nonpositive_duration(estimator, duration):
    sig = pm.TimeSignal(samples=np.ones((3, 64)), dt=1e-11)
    with pytest.raises(ValueError, match="duration must be positive"):
        estimator(sig, duration)


@pytest.mark.parametrize("max_lag", [-5.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_empirical_autocorrelation_rejects_bad_max_lag(max_lag):
    # -5 dt used to return no lags but 124 rows, NaN a bare int() error and
    # inf an OverflowError
    dt = 1e-11
    sig = pm.TimeSignal(samples=np.ones((3, 64)), dt=dt)
    with pytest.raises(ValueError, match="max_lag"):
        pm.empirical_autocorrelation(sig, 64 * dt, max_lag=max_lag * dt)


def test_empirical_coherency_mean_matches_deterministic():
    # ensemble mean of the scaled periodogram against the synthesized
    # coherency with the per-frequency source spectrum
    scene = _stats_scene(n=2)
    spec = _spec(seed=11)
    recs = scene.geom.flat_positions()[:3]
    n_pad = _pad_length(spec.samples)
    omegas = spectrum_grid(n_pad, spec.dt)
    mid = int(np.argmin(np.abs(omegas - OMEGA0)))
    sel = mid + 2 * np.arange(-4, 5)  # bins spaced at the unpadded resolution
    u_s = scene.source.basis()
    transfer = np.empty((len(recs), sel.size, 2, 2), dtype=complex)
    for fi, w in enumerate(omegas[sel]):
        k = scene.wavenumber(w)
        m3 = projected_incident(scene, k) + projected_response(scene, pm.born_response(scene, k))
        transfer[:, fi] = m3.reshape(-1, 2, 2)[: len(recs)]
    reps = 100
    acc = np.zeros((len(recs), sel.size, 2, 2), dtype=complex)
    for seq in np.random.SeedSequence(spec.seed).spawn(reps):
        rng = np.random.default_rng(seq)
        ch = _synth_channels(spec, 2, rng)
        padded = np.zeros((2, n_pad))
        padded[:, : spec.samples] = ch
        j_hat = analysis_transform(padded, spec.dt)[:, sel]
        e_par = np.einsum("rfij,jf->rfi", transfer, j_hat)
        acc += (2 * np.pi / (2 * HALF_T)) * np.einsum(
            "rfi,rfj->rfij", e_par, np.conj(e_par)
        )
    acc /= reps
    mean_est = acc.mean(axis=1)
    det = np.zeros_like(mean_est)
    for fi, w in enumerate(omegas[sel]):
        j_w = spec.spectrum(w)
        det += j_w * transfer[:, fi] @ np.conj(np.swapaxes(transfer[:, fi], -1, -2))
    det /= sel.size
    for r in range(len(recs)):
        rel = np.linalg.norm(mean_est[r] - det[r]) / np.linalg.norm(det[r])
        assert rel < 0.10


def test_stochastic_dataset_mean_independent_of_duration():
    # doubling the acquisition window leaves the estimator mean in place
    scene = _stats_scene(n=2)
    reps = 60
    means = []
    for half, samples in ((133e-9, 4000), (266e-9, 8000)):
        spec = pm.SourceProcessSpec(
            correlation_time=T_C, center=OMEGA0, half_duration=half,
            samples=samples, seed=21,
        )
        ds = pm.stochastic_coherency_dataset(
            scene, spec, band_count=16, band_width=2 * np.pi * 1.2e9, realizations=reps
        )
        means.append(ds.values.mean(axis=(0, 1, 2)))
    scale = np.abs(means[1]).max()
    assert np.abs(means[0] - means[1]).max() < 0.25 * scale


def test_stochastic_dataset_feeds_preprocess():
    scene = _stats_scene(n=3)
    spec = _spec(seed=2)
    ds = pm.stochastic_coherency_dataset(scene, spec, band_count=8)
    assert ds.kind == "coherency2x2"
    assert ds.source.coherency.shape == (8, 2, 2)
    pre, report = pm.preprocess(ds)
    assert pre.kind == "preprocessed3x3"
    assert np.all(np.isfinite(pre.values))
    # estimates are Hermitian rank-one by construction
    herm = np.abs(ds.values - np.conj(np.swapaxes(ds.values, -1, -2))).max()
    assert herm < 1e-12 * np.abs(ds.values).max()


def test_bin_selected_dataset_matches_time_domain_route():
    # the dataset builder evaluates the periodogram only at the selected
    # bins; propagating the same realization through the time domain and
    # estimating on the same grid must reproduce it to rounding
    scene = _stats_scene(n=2)
    spec = _spec(seed=31, half=40e-9, samples=1200)
    ds = pm.stochastic_coherency_dataset(scene, spec, band_count=6)
    basis = scene.source.basis()
    # the dataset builder derives its realization stream from the spawned
    # seed sequence; reproduce the same draw for the time-domain route
    realization = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    src_sig = pm.synth_source(spec, basis, rng=realization)
    received = pm.simulate_received(scene, src_sig, receivers=scene.geom.flat_positions())
    omegas, psi = pm.empirical_coherency(received, 2 * spec.half_duration)
    picked = [int(np.argmin(np.abs(omegas - w))) for w in ds.omegas]
    assert np.allclose(omegas[picked], ds.omegas, rtol=1e-9)
    direct = psi[:, picked].reshape(ds.values.shape)
    assert np.abs(direct - ds.values).max() < 1e-10 * np.abs(ds.values).max()


def test_ergodicity_probe_slope_and_errors():
    scene = _stats_scene(n=2)
    base = _spec(seed=5)
    probe = pm.ergodicity_probe(
        scene,
        base,
        [64e-9, 128e-9, 256e-9],
        realizations=40,
        receivers=scene.geom.flat_positions()[:1],
    )
    assert np.all(probe.variances > 0)
    assert -1.5 < probe.slope < -0.5
    assert "half_duration_s,variance" in probe.csv()
    with pytest.raises(ValueError, match="ladder"):
        pm.ergodicity_probe(scene, base, [64e-9, 128e-9], realizations=40)
    with pytest.raises(ValueError, match="realizations"):
        pm.ergodicity_probe(scene, base, [64e-9, 128e-9, 256e-9], realizations=5)


def test_ergodicity_variance_of_variance_scaling():
    # bootstrap check: doubling the realization count halves the variance of
    # the variance estimator
    rng = np.random.default_rng(17)
    scene = _stats_scene(n=2)
    spec = _spec(seed=13, half=64e-9, samples=1926)
    n_pad = _pad_length(spec.samples)
    omegas = spectrum_grid(n_pad, spec.dt)
    power = spec.spectrum(omegas)
    active = (omegas > 0) & (power > 1e-12 * power.max())
    from polarmig.forward import _transfer

    rec = scene.geom.flat_positions()[:1]
    transfer = _transfer(scene, omegas[active] / scene.wave_speed, rec)
    u_s = scene.source.basis()
    pool = []
    for seed in range(120):
        gen = np.random.default_rng(seed)
        ch = _synth_channels(spec, 2, gen)
        padded = np.zeros((3, n_pad))
        padded[:, : spec.samples] = u_s @ ch
        j_hat = analysis_transform(padded, spec.dt)
        e_hat = np.zeros((1, 3, omegas.size), dtype=complex)
        e_hat[:, :, active] = np.einsum("rfij,jf->rif", transfer, j_hat[:, active])
        e_par = synthesis_transform(e_hat, n_pad, spec.dt)[:, :2, :]
        pool.append(
            (spec.dt / (2 * spec.half_duration))
            * np.einsum("rit,rjt->rij", e_par, e_par)[0, 0, 0]
        )
    pool = np.array(pool)
    boots_small = [rng.choice(pool, 30).var(ddof=1) for _ in range(400)]
    boots_large = [rng.choice(pool, 60).var(ddof=1) for _ in range(400)]
    ratio = np.var(boots_small) / np.var(boots_large)
    assert 1.3 < ratio < 3.2


def test_ergodicity_probe_values_match_time_domain_route():
    # the probe sums M J_hat M^* over frequency; propagating each realization
    # through the time domain and summing the lag-zero product must give the
    # same variances, draw for draw
    from polarmig.forward import _transfer

    scene = _stats_scene(n=2)
    base = _spec(seed=7, half=40e-9, samples=1200)
    ladder = [20e-9, 30e-9, 40e-9]
    realizations = 30
    rec = scene.geom.flat_positions()[:2]
    probe = pm.ergodicity_probe(scene, base, ladder, realizations=realizations, receivers=rec)
    u_s = scene.source.basis()
    expected = []
    for half, t_seq in zip(ladder, np.random.SeedSequence(base.seed).spawn(len(ladder))):
        n = int(round(2 * half / base.dt))
        spec = _spec(seed=7, half=half, samples=n)
        n_pad = _pad_length(n)
        omegas = spectrum_grid(n_pad, spec.dt)
        power = spec.spectrum(omegas)
        active = (omegas > 0) & (power > 1e-12 * power.max())
        transfer = _transfer(scene, omegas[active] / scene.wave_speed, rec)
        pool = []
        for seq in t_seq.spawn(realizations):
            ch = _synth_channels(spec, 2, np.random.default_rng(seq))
            padded = np.zeros((3, n_pad))
            padded[:, :n] = u_s @ ch
            j_hat = analysis_transform(padded, spec.dt)
            e_hat = np.zeros((rec.shape[0], 3, omegas.size), dtype=complex)
            e_hat[:, :, active] = np.einsum("rfij,jf->rif", transfer, j_hat[:, active])
            e_par = synthesis_transform(e_hat, n_pad, spec.dt)[:, :2, :]
            pool.append((spec.dt / (2 * half)) * np.einsum("rit,rjt->rij", e_par, e_par))
        expected.append(np.var(pool, axis=0, ddof=1).mean())
    assert np.allclose(probe.variances, expected, rtol=1e-10, atol=0)
