"""Time-domain route for random-source data: the periodogram oracle of the tests.

The package forms random-source coherencies as ``M J_hat M^*`` bin by bin.  This
module takes the long way round: it synthesizes a source time signal,
propagates it to the receivers through the 3x3 total transfer, and estimates the
coherency spectrum with the scaled periodogram
``Psi_hat(w) = (2 pi / 2T) Epar(w) Epar(w)^*``, with the analysis transform
``E(w) = (dt / 2 pi) sum_n E(t_n) exp(+i w t_n)``.  Signals are zero padded
twofold before any product of transforms so correlations are linear, not
circular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polarmig.emcore import dyadic_green
from polarmig.forward import _scattered
from polarmig.stochastic import (
    TWO_PI,
    _pad_length,
    _synth_channels,
    analysis_transform,
    spectrum_grid,
    synthesis_transform,
)


@dataclass
class TimeSignal:
    """Real multichannel time series; trailing axis is time, sampled every ``dt``."""

    samples: np.ndarray
    dt: float

    @property
    def n(self) -> int:
        return self.samples.shape[-1]


def synth_source(spec, basis, rng=None) -> TimeSignal:
    """Realization of the random dipole moment, lifted to 3 real channels.

    Two independent scalar processes ride the columns of the 3x2 ``basis``;
    their common autocorrelation is ``spec.autocorrelation``.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    channels = _synth_channels(spec, 2, rng)
    return TimeSignal(samples=basis @ channels, dt=spec.dt)


def total_transfer(scene, ks, recs) -> np.ndarray:
    """3x3 total transfer ``G(x_r, x_s) + sum_n G(x_r, y_n) T_n`` over a uniform band.

    Returns (nrec, nfreq, 3, 3): the scattered part from the package's
    :func:`~polarmig.forward._scattered`, the direct part from :func:`dyadic_green` bin by
    bin, so no engine path enters it.
    """
    out = _scattered(scene, ks, recs)
    for fi, k in enumerate(ks):
        out[:, fi] += dyadic_green(recs, scene.source.position, k)
    return out


def simulate_received(scene, source: TimeSignal, receivers=None) -> TimeSignal:
    """Propagate a 3-channel source signal to the receivers.

    Works bin by bin on the twofold zero-padded frequency grid: the received
    spectrum is the total transfer matrix times the source spectrum.  Bins
    where the source carries less than 1e-12 of its peak are skipped (this
    also guards the undefined zero-frequency response); the transfer comes
    from the uniform span holding the rest.  Output samples have shape
    (nrec, 3, n_padded) and remain real.
    """
    if receivers is None:
        receivers = scene.geom.flat_positions()
    n_pad = _pad_length(source.n)
    padded = np.zeros((3, n_pad))
    padded[:, : source.n] = source.samples
    j_hat = analysis_transform(padded, source.dt)
    omegas = spectrum_grid(n_pad, source.dt)
    power = np.abs(j_hat).max(axis=0)
    active = (omegas > 0) & (power > 1e-12 * power.max())
    idx = np.flatnonzero(active)
    span = slice(idx[0], idx[-1] + 1) if idx.size else slice(0)
    transfer = total_transfer(scene, omegas[span] / scene.wave_speed, receivers)
    e_hat = np.zeros((receivers.shape[0], 3, omegas.size), dtype=complex)
    e_hat[:, :, active] = np.einsum("rfij,jf->rif", transfer[:, active[span]], j_hat[:, active],
                                    optimize=True)
    samples = synthesis_transform(e_hat, n_pad, source.dt)
    return TimeSignal(samples=samples, dt=source.dt)


def empirical_coherency(signal: TimeSignal, duration: float):
    """Scaled periodogram estimate of the coherency spectrum.

    Returns ``(omegas, psi_hat)`` with ``psi_hat[..., m, :, :]`` the 2x2
    estimate at ``omegas[m]`` built from the cross-range components of a
    (..., 3, n) signal; ``duration`` is the physical acquisition window 2T
    used for normalization.
    """
    padded = np.zeros(signal.samples.shape[:-1] + (_pad_length(signal.n),))
    padded[..., : signal.n] = signal.samples
    e_par = analysis_transform(padded, signal.dt)[..., :2, :]
    psi = (TWO_PI / duration) * np.einsum(
        "...if,...jf->...fij", e_par, np.conj(e_par), optimize=True
    )
    return spectrum_grid(padded.shape[-1], signal.dt), psi
