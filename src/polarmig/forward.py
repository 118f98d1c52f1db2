"""Synthetic data generation: Born responses and coherency-matrix synthesis.

Band first: the scatterer tails and the direct term come from
:func:`~polarmig.emcore.green_band` over the whole uniform band, the receiver sum
over the scatterers is migrate's direct engine, and the single-frequency
functions are the one-sample case.
"""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataSet
from .emcore import green_band, project
from .errors import CoincidentPointsError
from .migrate import _direct_sums
from .preprocess import _coherency, gtilde
from .scene import FrequencyBand, Scene

# Receivers per transfer chunk are sized so their pairs with the scatterers stay few.
_PAIR_TARGET = 600_000


def _tails(scene: Scene, ks, single: bool, double: bool) -> np.ndarray:
    """Receiver-independent tails ``T_n`` per band sample, (nscat, nfreq, 3, 3).

    The sum of single scattering ``alpha_n G(y_n, x_s)`` and double scattering
    ``sum_{m != n} alpha_n G(y_n, y_m) alpha_m G(y_m, x_s)``, each if asked.
    """
    pos, alphas = scene.scatterer_positions(), scene.scatterer_tensors()
    n = pos.shape[0]
    head = np.empty((n, ks.size, 3, 3), dtype=complex)
    for fi, g in enumerate(green_band(pos, scene.source.position, ks)):
        head[:, fi] = alphas @ g
    # a copy: the double-scattering sums read ``head`` while ``tails`` grows
    tails = head.copy() if single else np.zeros_like(head)
    for i in range(n if double else 0):
        others = np.arange(n) != i
        for fi, g in enumerate(green_band(pos[i], pos[others], ks)):
            tails[i, fi] += alphas[i] @ np.einsum("mij,mjk->ik", g, head[others, fi])
    return tails


def _scattered(scene: Scene, ks, recs, single=True, double=False, u_s=None) -> np.ndarray:
    """Scattered transfer ``sum_n G(x_r, y_n) T_n`` at ``recs``, (nrec, nfreq, 3, 3).

    ``G`` is symmetric, so this is ``conj(sum_n conj(G(y_n, x_r)) conj(T_n))``: migrate's
    direct engine summed over the scatterers, for receiver chunks of ``_PAIR_TARGET``
    pairs; both scattering orders of :func:`_tails` share it.  Given the source basis
    ``u_s`` it is the projected ``U_par^T Pi u_s``, (nrec, nfreq, 2, 2).
    """
    pos = scene.scatterer_positions()
    # the engine's coincidence scale: at least 1 and every receiver and scatterer norm
    scale = np.linalg.norm(np.concatenate([recs, pos]), axis=1).max(initial=1.0)
    chunk = max(1, _PAIR_TARGET // max(1, pos.shape[0]))
    try:
        tails = _tails(scene, ks, single, double)
        data = np.conj(tails if u_s is None else tails @ u_s)
        n = data.shape[-1]  # as many output rows as columns: 3, or 2 when projected
        out = np.empty((recs.shape[0], ks.size, n, n), dtype=complex)
        for lo in range(0, recs.shape[0], chunk):
            sums, _ = _direct_sums(pos, data, ks, recs[lo:lo + chunk], n, False, scale)
            np.conjugate(sums.swapaxes(0, 1), out=out[lo:lo + chunk])
    except CoincidentPointsError as exc:
        raise CoincidentPointsError(
            "a scatterer coincides with the source, a receiver or another scatterer"
        ) from exc
    return out


def _response(scene: Scene, ks, single=True, double=False) -> np.ndarray:
    """Scattered response over the array, (n1, n2, nfreq, 3, 3)."""
    out = _scattered(scene, ks, scene.geom.flat_positions(), single, double)
    return out.reshape(scene.geom.n1, scene.geom.n2, ks.size, 3, 3)


def born_response(scene: Scene, k: float) -> np.ndarray:
    """Single-scattering array response at wavenumber k.

    Returns (n1, n2, 3, 3): for each receiver the sum over scatterers of
    ``G(x_r, y_n) alpha_n G(y_n, x_s)``.  Linear in every tensor.
    """
    return _response(scene, np.array([float(k)]))[:, :, 0]


def second_born_response(scene: Scene, k: float) -> np.ndarray:
    """Double-scattering correction at wavenumber k.

    Sum over ordered pairs n != m of
    ``G(x_r, y_n) alpha_n G(y_n, y_m) alpha_m G(y_m, x_s)``; empty for fewer
    than two scatterers.  Scales quadratically under a uniform tensor scaling.
    """
    return _response(scene, np.array([float(k)]), single=False, double=True)[:, :, 0]


def projected_response(scene: Scene, pi: np.ndarray) -> np.ndarray:
    """Project a 3x3 response field onto the measurement bases: U_par^* Pi U_s."""
    return project(pi, scene.source.basis())


def projected_incident(scene: Scene, k: float) -> np.ndarray:
    """Projected direct-path Green matrices U_par^* G(x_r, x_s) U_s, (n1, n2, 2, 2)."""
    src = scene.source
    gt = gtilde(scene.geom.flat_positions(), src.position, src.reference_point, k)
    return gt.reshape(scene.geom.n1, scene.geom.n2, 2, 2)


def _transfer(scene: Scene, ks, recs, u_s=None, double: bool = False) -> np.ndarray:
    """Total transfer, direct ``G(x_r, x_s)`` plus scattered, at ``recs`` per band sample.

    Returns (nrec, nfreq, 3, 3), or given the source basis ``u_s`` the
    projected ``Gtilde + Pitilde``, (nrec, nfreq, 2, 2), whose direct term is
    :func:`~polarmig.preprocess.gtilde` bitwise (addition commutes).
    """
    out = _scattered(scene, ks, recs, True, double, u_s)
    direct = np.empty_like(out)
    for fi, g in enumerate(green_band(recs, scene.source.position, ks)):
        direct[:, fi] = g if u_s is None else project(g, u_s)
    out += direct
    return out


def response_synthesize(
    scene: Scene, band: FrequencyBand, include_second_born: bool = False
) -> ArrayDataSet:
    """Full 3x3 array response dataset over the band (reference "ideal" data)."""
    values = _response(scene, band.wavenumbers(scene.wave_speed), double=include_second_born)
    return ArrayDataSet("response3x3", values, scene.geom, scene.source, band, scene.wave_speed)


def coherency_synthesize(
    scene: Scene, band: FrequencyBand, include_second_born: bool = False
) -> ArrayDataSet:
    """Deterministic coherency-matrix dataset over the band.

    Per receiver and frequency, with M = Gtilde + Pitilde the projected total
    transfer matrix, the coherency is ``Psi = M Js M^*``, which expands into
    the incident, two cross, and scattered terms.  Hermitian by construction
    and positive semidefinite for a physical source coherency.
    """
    m = _transfer(scene, band.wavenumbers(scene.wave_speed), scene.geom.flat_positions(),
                  scene.source.basis(), include_second_born)
    m = m.reshape(scene.geom.n1, scene.geom.n2, band.count, 2, 2)
    js = scene.source.coherency_table(band.count)
    values = _coherency(m, js)
    return ArrayDataSet("coherency2x2", values, scene.geom, scene.source, band, scene.wave_speed)
