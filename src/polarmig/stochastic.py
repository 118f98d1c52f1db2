"""Time-domain pipeline: random source synthesis, propagation, autocorrelations.

The dipole source is driven by a real stationary Gaussian process whose
per-channel autocorrelation is

    J(tau) = (4 pi / t_c) cos(w0 tau) exp(-pi (tau / t_c)^2),

with correlation time ``t_c`` and carrier ``w0``.  Under the package Fourier
convention (``exp(-i w t)`` kernel, ``1/2pi`` forward factor) its power
spectrum works out to two unit-height Gaussians,

    S(w) = exp(-t_c^2 (w - w0)^2 / 4 pi) + exp(-t_c^2 (w + w0)^2 / 4 pi),

which the test suite cross-checks against a numerical transform of J before
anything downstream relies on it.  Synthesis shapes Hermitian-symmetric white
noise on the frequency grid by sqrt(S) and transforms back, which is exact for
a strictly positive spectrum.

Empirical autocorrelations are computed through the scaled periodogram:
``Psi_hat(w) = (2 pi / 2T) Epar(w) Epar(w)^*`` with the analysis transform
``E(w) = (dt / 2 pi) sum_n E(t_n) exp(+i w t_n)``.  Signals are zero padded
twofold before any product of transforms so correlations are linear, not
circular.

A random source changes only the source coherency: with ``zeta`` the analysis
transform of the two source channels, the array sees ``M J_hat M^*``, where
``J_hat = (2 pi / 2T) zeta zeta^*`` and ``M`` is the projected total transfer.
The coherency dataset and the ergodicity probe form it with the product of
deterministic synthesis, :func:`~polarmig.preprocess._coherency`; the probe sums
it over frequency (Wiener-Khinchin) instead of propagating in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import ArrayDataSet, _header_field, _read_container, _write_container
from .emcore import project
from .errors import DatasetFormatError
from .forward import _transfer
from .preprocess import _coherency
from .scene import FrequencyBand, Scene

TWO_PI = 2.0 * np.pi

# Spectrum support margin: frequencies beyond w0 + this many pi/t_c carry
# negligible source energy.
_BAND_HALF_WIDTHS = 3.0


@dataclass(frozen=True)
class SourceProcessSpec:
    """Sampling plan for the random source process.

    ``samples`` points cover the acquisition window of duration
    ``2 * half_duration``; the sampling rate must resolve the carrier plus
    spectral support and the window must dwarf the correlation time.
    """

    correlation_time: float
    center: float
    half_duration: float
    samples: int
    seed: int = 0

    def __post_init__(self):
        plan = (self.correlation_time, self.center, self.half_duration)
        if not all(0 < x < np.inf for x in plan):
            raise ValueError("correlation time, center and duration must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.samples < 16:
            raise ValueError("need at least 16 samples")
        w_max = self.center + _BAND_HALF_WIDTHS * np.pi / self.correlation_time
        if np.pi / self.dt <= w_max:
            raise ValueError(
                f"sampling rate too low: Nyquist {np.pi / self.dt:.3e} rad/s "
                f"must exceed {w_max:.3e} rad/s"
            )
        if self.half_duration < 10 * self.correlation_time:
            raise ValueError("window must span many correlation times")

    @property
    def dt(self) -> float:
        return 2.0 * self.half_duration / self.samples

    def autocorrelation(self, tau) -> np.ndarray:
        tc = self.correlation_time
        tau = np.asarray(tau, dtype=float)
        return (4.0 * np.pi / tc) * np.cos(self.center * tau) * np.exp(
            -np.pi * (tau / tc) ** 2
        )

    def spectrum(self, omega) -> np.ndarray:
        tc = self.correlation_time
        w = np.asarray(omega, dtype=float)
        return np.exp(-(tc**2) * (w - self.center) ** 2 / (4.0 * np.pi)) + np.exp(
            -(tc**2) * (w + self.center) ** 2 / (4.0 * np.pi)
        )


@dataclass
class TimeSignal:
    """Real multichannel time series; trailing axis is time."""

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim < 1:
            raise ValueError("samples must have a time axis")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("sample interval must be positive and finite")
        if not np.isfinite(self.t0):
            raise ValueError("start time must be finite")
        self.samples = s

    @property
    def n(self) -> int:
        return self.samples.shape[-1]

    def write(self, path) -> None:
        _write_container(
            path, "timeseries", self.samples, {"dt": self.dt, "t0": self.t0}
        )

    @staticmethod
    def read(path) -> "TimeSignal":
        kind, values, meta = _read_container(path)
        if kind != "timeseries":
            raise DatasetFormatError(f"file holds kind {kind!r}, not a time signal")
        dt = _header_field(meta, "dt")
        return TimeSignal(samples=values, dt=dt, t0=_header_field(meta, "t0"))


# ---------------------------------------------------------------------------
# Discrete transforms in the package convention
# ---------------------------------------------------------------------------


def _pad_length(n: int) -> int:
    """Transform-friendly length at least ``2 n`` (power of two)."""
    return 1 << int(np.ceil(np.log2(2 * n)))


def spectrum_grid(n: int, dt: float) -> np.ndarray:
    """Nonnegative angular frequencies of an n-point real transform."""
    return TWO_PI * np.fft.rfftfreq(n, d=dt)


def analysis_transform(samples: np.ndarray, dt: float) -> np.ndarray:
    """Discrete version of ``(1/2pi) integral dt x(t) exp(+i w t)`` on the rfft grid."""
    return (dt / TWO_PI) * np.conj(np.fft.rfft(samples, axis=-1))


def synthesis_transform(spec: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Inverse of :func:`analysis_transform` back to ``n`` real samples."""
    return np.fft.irfft(np.conj(spec) * (TWO_PI / dt), n=n, axis=-1)


# ---------------------------------------------------------------------------
# Source synthesis
# ---------------------------------------------------------------------------


def _synth_channels(spec: SourceProcessSpec, nchan: int, rng) -> np.ndarray:
    """Independent realizations of the scalar process, shape (nchan, samples)."""
    n, dt = spec.samples, spec.dt
    omegas = spectrum_grid(n, dt)
    d_omega = TWO_PI / (n * dt)
    # target second moment of the analysis transform: S(w) / d_omega
    sigma = np.sqrt(spec.spectrum(omegas) / d_omega)
    z = rng.standard_normal((nchan, omegas.size)) + 1j * rng.standard_normal(
        (nchan, omegas.size)
    )
    z *= np.sqrt(0.5)
    # zero frequency and (for even n) Nyquist carry real amplitudes
    z[:, 0] = rng.standard_normal(nchan)
    if n % 2 == 0:
        z[:, -1] = rng.standard_normal(nchan)
    return synthesis_transform(sigma * z, n, dt)


def synth_source(spec: SourceProcessSpec, basis: np.ndarray, rng=None) -> TimeSignal:
    """Realization of the random dipole moment, lifted to 3 real channels.

    Two independent scalar processes ride the columns of the 3x2 ``basis``;
    their common autocorrelation is ``spec.autocorrelation``.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (3, 2):
        raise ValueError("basis must be 3x2")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    channels = _synth_channels(spec, 2, rng)
    return TimeSignal(
        samples=basis @ channels, dt=spec.dt, t0=-spec.half_duration
    )


def _source_spectrum(spec: SourceProcessSpec, n_pad: int, seq) -> np.ndarray:
    """Analysis transform ``zeta`` of the 2 channels drawn from ``seq``, padded to ``n_pad``."""
    padded = np.zeros((2, n_pad))
    padded[:, : spec.samples] = _synth_channels(spec, 2, np.random.default_rng(seq))
    return analysis_transform(padded, spec.dt)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _active_transfer(scene: Scene, omegas, active, receivers):
    """3x3 transfer at ``active`` bins, taken over the uniform span holding them."""
    idx = np.flatnonzero(active)
    span = slice(idx[0], idx[-1] + 1) if idx.size else slice(0)
    return _transfer(scene, omegas[span] / scene.wave_speed, receivers)[:, active[span]]


def simulate_received(scene: Scene, source: TimeSignal, receivers=None) -> TimeSignal:
    """Propagate a 3-channel source signal to the receivers.

    Works bin by bin on the twofold zero-padded frequency grid: the received
    spectrum is the total transfer matrix times the source spectrum.  Bins
    where the source carries less than 1e-12 of its peak are skipped (this
    also guards the undefined zero-frequency response).  Output samples have
    shape (nrec, 3, n_padded) and remain real.
    """
    if source.samples.shape[0] != 3 or source.samples.ndim != 2:
        raise ValueError("source signal must have 3 channels")
    if receivers is None:
        receivers = scene.geom.flat_positions()
    receivers = np.asarray(receivers, dtype=float).reshape(-1, 3)
    n_pad = _pad_length(source.n)
    padded = np.zeros((3, n_pad))
    padded[:, : source.n] = source.samples
    j_hat = analysis_transform(padded, source.dt)
    omegas = spectrum_grid(n_pad, source.dt)
    power = np.abs(j_hat).max(axis=0)
    active = (omegas > 0) & (power > 1e-12 * power.max())
    transfer = _active_transfer(scene, omegas, active, receivers)
    e_hat = np.zeros((receivers.shape[0], 3, omegas.size), dtype=complex)
    e_hat[:, :, active] = np.einsum("rfij,jf->rif", transfer, j_hat[:, active], optimize=True)
    samples = synthesis_transform(e_hat, n_pad, source.dt)
    return TimeSignal(samples=samples, dt=source.dt, t0=source.t0)


# ---------------------------------------------------------------------------
# Empirical autocorrelations
# ---------------------------------------------------------------------------


def _padded_field(signal: TimeSignal, duration: float) -> np.ndarray:
    """Check a (..., 3, n) signal and its window 2T, then zero-pad it for FFT correlation."""
    if signal.samples.shape[-2] != 3:
        raise ValueError("expected 3 field components on the next-to-last axis")
    if duration <= 0:
        raise ValueError("duration must be positive")
    padded = np.zeros(signal.samples.shape[:-1] + (_pad_length(signal.n),))
    padded[..., : signal.n] = signal.samples
    return padded


def empirical_coherency(signal: TimeSignal, duration: float):
    """Scaled periodogram estimate of the coherency spectrum.

    Returns ``(omegas, psi_hat)`` with ``psi_hat[..., m, :, :]`` the 2x2
    estimate at ``omegas[m]`` built from the cross-range components of a
    (..., 3, n) signal; ``duration`` is the physical acquisition window 2T
    used for normalization.
    """
    padded = _padded_field(signal, duration)
    e_hat = analysis_transform(padded, signal.dt)
    e_par = e_hat[..., :2, :]
    psi = (TWO_PI / duration) * np.einsum(
        "...if,...jf->...fij", e_par, np.conj(e_par), optimize=True
    )
    return spectrum_grid(padded.shape[-1], signal.dt), psi


def empirical_autocorrelation(signal: TimeSignal, duration: float, max_lag: float | None = None):
    """Empirical autocorrelation of the cross-range field components in the lag domain.

    Returns ``(lags, psi_emp)`` with
    ``psi_emp(tau) = (1/2T) integral Epar(t + tau) Epar(t)^T dt`` evaluated at
    nonnegative grid lags up to ``max_lag``; its spectrum counterpart is
    :func:`empirical_coherency`.
    """
    if max_lag is not None and not 0 <= max_lag < np.inf:
        raise ValueError(f"max_lag must be nonnegative and finite, got {max_lag!r}")
    padded = _padded_field(signal, duration)
    n_pad = padded.shape[-1]
    spec = np.fft.rfft(padded, axis=-1)
    e_par = spec[..., :2, :]
    # correlation theorem: sum_n x_{n+l} y_n = idft(X conj(Y))_l
    cross = np.einsum("...if,...jf->...ijf", e_par, np.conj(e_par), optimize=True)
    corr = np.fft.irfft(cross, n=n_pad, axis=-1) * (signal.dt / duration)
    n_lags = signal.n if max_lag is None else min(signal.n, int(max_lag / signal.dt) + 1)
    lags = signal.dt * np.arange(n_lags)
    return lags, np.moveaxis(corr[..., :n_lags], -1, -3)


# ---------------------------------------------------------------------------
# Single-realization coherency dataset (frequency-domain route)
# ---------------------------------------------------------------------------


def stochastic_coherency_dataset(
    scene: Scene,
    spec: SourceProcessSpec,
    band_count: int,
    band_width: float | None = None,
    realizations: int = 1,
    include_second_born: bool = False,
) -> ArrayDataSet:
    """Coherency dataset estimated from random-source acquisitions.

    ``M J_hat M^*`` at ``band_count`` frequency bins spread across the source
    band (a uniform stride over the twofold padded transform grid), with ``M``
    the projected total transfer (double scattering included if asked, as in
    :func:`~polarmig.forward.coherency_synthesize`) and ``J_hat`` the realized
    source coherency averaged over ``realizations``.  Bin for bin this is the
    scaled periodogram of the received time signals.  The attached source
    coherency is the known per-frequency spectrum so the dataset feeds
    straight into preprocessing.
    """
    if band_count < 2:
        raise ValueError("need at least 2 band samples")
    if realizations < 1:
        raise ValueError("need at least one realization")
    width = band_width if band_width is not None else TWO_PI * _BAND_HALF_WIDTHS / (
        2.0 * spec.correlation_time
    )
    n_pad = _pad_length(spec.samples)
    omegas = spectrum_grid(n_pad, spec.dt)
    lo, hi = spec.center - width / 2, spec.center + width / 2
    candidates = np.nonzero((omegas >= lo) & (omegas <= hi))[0]
    if candidates.size < band_count:
        raise ValueError("transform grid too coarse for the requested band sampling")
    stride = candidates.size // band_count
    picked = candidates[: stride * band_count : stride]
    band = FrequencyBand.from_omegas(omegas[picked])

    j_hat = np.zeros((picked.size, 2, 2), dtype=complex)
    for seq in np.random.SeedSequence(spec.seed).spawn(realizations):
        zeta = _source_spectrum(spec, n_pad, seq)[:, picked].T
        j_hat += zeta[:, :, None] * np.conj(zeta[:, None, :])
    j_hat *= TWO_PI / (2.0 * spec.half_duration * realizations)

    m = _transfer(scene, omegas[picked] / scene.wave_speed, scene.geom.flat_positions(),
                  scene.source.basis(), include_second_born)
    js_table = spec.spectrum(omegas[picked])[:, None, None] * np.eye(2)
    source = replace(scene.source, coherency=js_table)
    # contiguous, or the container write copies the strided product while it is alive
    values = np.ascontiguousarray(_coherency(m, j_hat))
    values = values.reshape(scene.geom.n1, scene.geom.n2, picked.size, 2, 2)
    return ArrayDataSet("coherency2x2", values, scene.geom, source, band, scene.wave_speed)


# ---------------------------------------------------------------------------
# Ergodicity diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ErgodicityProbe:
    """Variance-versus-acquisition-time table with a fitted log-log slope."""

    durations: np.ndarray  # acquisition half-durations T
    variances: np.ndarray  # mean autocorrelation variance at each T
    slope: float

    def table(self) -> list[tuple[float, float]]:
        return list(zip(self.durations.tolist(), self.variances.tolist()))

    def csv(self) -> str:
        lines = ["half_duration_s,variance"]
        for t, v in self.table():
            lines.append(f"{t!r},{v!r}")
        return "\n".join(lines) + "\n"


def ergodicity_probe(
    scene: Scene,
    base_spec: SourceProcessSpec,
    half_durations,
    realizations: int,
    receivers=None,
) -> ErgodicityProbe:
    """Empirical variance of lag-zero autocorrelations across realizations.

    For each acquisition half-duration T (keeping the sampling interval of
    ``base_spec``), draws fresh realizations and records, at a few probe
    receivers, the variance of every entry of the lag-zero autocorrelation of
    the twofold padded received field.  By Parseval that autocorrelation is
    ``2 d_omega sum_k Re(M_k J_hat_k M_k^*)`` over the bins strictly between
    zero and Nyquist whose source spectrum exceeds 1e-12 of its peak.  The
    fitted slope of log variance versus log T is the ergodicity diagnostic.
    Realizations own seeds derived from (seed, duration index, realization
    index), so results are schedule independent.
    """
    half_durations = np.asarray(half_durations, dtype=float)
    if half_durations.size < 3:
        raise ValueError("need at least 3 ladder points")
    if realizations < 30:
        raise ValueError("need at least 30 realizations per ladder point")
    if receivers is None:
        receivers = scene.geom.flat_positions()[:1]
    receivers = np.asarray(receivers, dtype=float).reshape(-1, 3)
    u_s = scene.source.basis()

    variances = np.empty(half_durations.size)
    root = np.random.SeedSequence(base_spec.seed)
    t_seqs = root.spawn(half_durations.size)
    for ti, half in enumerate(half_durations):
        n = int(round(2.0 * half / base_spec.dt))
        spec = replace(base_spec, half_duration=half, samples=n)
        n_pad = _pad_length(n)
        omegas = spectrum_grid(n_pad, spec.dt)
        power = spec.spectrum(omegas)
        active = (omegas > 0) & (omegas < omegas[-1]) & (power > 1e-12 * power.max())
        m = project(_active_transfer(scene, omegas, active, receivers), u_s)
        # 2 d_omega times the periodogram scale 2 pi / 2T
        weight = 2.0 * (TWO_PI / (n_pad * spec.dt)) * (TWO_PI / (2.0 * half))
        samples = np.empty((realizations, receivers.shape[0], 2, 2))
        for ri, seq in enumerate(t_seqs[ti].spawn(realizations)):
            zeta = _source_spectrum(spec, n_pad, seq)[:, active].T
            j_hat = weight * zeta[:, :, None] * np.conj(zeta[:, None, :])
            samples[ri] = _coherency(m, j_hat).real.sum(axis=1)
        variances[ti] = samples.var(axis=0, ddof=1).mean()
    slope = float(np.polyfit(np.log(half_durations), np.log(variances), 1)[0])
    return ErgodicityProbe(durations=half_durations, variances=variances, slope=slope)
