"""Synthetic data generation: Born responses and coherency-matrix synthesis."""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataSet
from .emcore import dyadic_green, project, _separation
from .errors import CoincidentPointsError
from .preprocess import gtilde
from .scene import FrequencyBand, Scene

# Scatterer chunk size keeping the (receivers, chunk, 3, 3) Green block small.
_CHUNK_TARGET = 2_000_000


def _check_scene_points(scene: Scene) -> None:
    pos = scene.scatterer_positions()
    if pos.size == 0:
        return
    recs = scene.geom.flat_positions()
    try:
        _separation(recs[:, None, :], pos[None, :, :])
        _separation(scene.source.position, pos)
    except CoincidentPointsError as exc:
        raise CoincidentPointsError(
            "a scatterer coincides with the source or a receiver"
        ) from exc


def _born_sum(scene: Scene, k: float, recs: np.ndarray, tails=None) -> np.ndarray:
    """Receiver sum ``sum_n G(x_r, y_n) T_n`` at ``recs`` (nrec, 3), (nrec, 3, 3).

    ``tails`` (nscat, 3, 3) defaults to the single-scattering ``T_n =
    alpha_n G(y_n, x_s)``.  Chunked over scatterers to bound the Green block.
    """
    pos = scene.scatterer_positions()
    if tails is None:
        # alpha_n G(y_n, x_s) is receiver independent
        tails = scene.scatterer_tensors() @ dyadic_green(pos, scene.source.position, k)
    out = np.zeros((recs.shape[0], 3, 3), dtype=complex)
    chunk = max(1, _CHUNK_TARGET // recs.shape[0])
    for lo in range(0, pos.shape[0], chunk):
        g_rec = dyadic_green(recs[:, None, :], pos[None, lo:lo + chunk, :], k)
        out += np.einsum("rnij,njk->rik", g_rec, tails[lo:lo + chunk])
    return out


def born_response(scene: Scene, k: float) -> np.ndarray:
    """Single-scattering array response at wavenumber k.

    Returns (n1, n2, 3, 3): for each receiver the sum over scatterers of
    ``G(x_r, y_n) alpha_n G(y_n, x_s)``.  Linear in every tensor.
    """
    _check_scene_points(scene)
    out = _born_sum(scene, k, scene.geom.flat_positions())
    return out.reshape(scene.geom.n1, scene.geom.n2, 3, 3)


def second_born_response(scene: Scene, k: float) -> np.ndarray:
    """Double-scattering correction at wavenumber k.

    Sum over ordered pairs n != m of
    ``G(x_r, y_n) alpha_n G(y_n, y_m) alpha_m G(y_m, x_s)``; empty for fewer
    than two scatterers.  Scales quadratically under a uniform tensor scaling.
    """
    _check_scene_points(scene)
    pos = scene.scatterer_positions()
    alphas = scene.scatterer_tensors()
    n = pos.shape[0]
    # tail_n = sum_{m != n} alpha_n G(y_n, y_m) alpha_m G(y_m, x_s)
    tails = np.zeros((n, 3, 3), dtype=complex)
    if n >= 2:
        g_src = dyadic_green(pos, scene.source.position, k)
        head_m = alphas @ g_src
        for i in range(n):
            others = np.arange(n) != i
            g_pair = dyadic_green(pos[i], pos[others], k)
            tails[i] = alphas[i] @ np.einsum("mij,mjk->ik", g_pair, head_m[others])
    out = _born_sum(scene, k, scene.geom.flat_positions(), tails)
    return out.reshape(scene.geom.n1, scene.geom.n2, 3, 3)


def projected_response(scene: Scene, pi: np.ndarray) -> np.ndarray:
    """Project a 3x3 response field onto the measurement bases: U_par^* Pi U_s."""
    return project(pi, scene.source.basis())


def projected_incident(scene: Scene, k: float) -> np.ndarray:
    """Projected direct-path Green matrices U_par^* G(x_r, x_s) U_s, (n1, n2, 2, 2)."""
    src = scene.source
    gt = gtilde(scene.geom.flat_positions(), src.position, src.reference_point, k)
    return gt.reshape(scene.geom.n1, scene.geom.n2, 2, 2)


def _response(scene: Scene, k: float, include_second_born: bool) -> np.ndarray:
    """Scattered response (n1, n2, 3, 3): Born, plus double scattering if asked."""
    pi = born_response(scene, k)
    if include_second_born:
        pi = pi + second_born_response(scene, k)
    return pi


def _projected_transfer(scene: Scene, k: float, include_second_born: bool = False):
    """Projected total transfer ``Gtilde + Pitilde`` per receiver, (n1, n2, 2, 2)."""
    return projected_incident(scene, k) + projected_response(
        scene, _response(scene, k, include_second_born)
    )


def response_synthesize(
    scene: Scene, band: FrequencyBand, include_second_born: bool = False
) -> ArrayDataSet:
    """Full 3x3 array response dataset over the band (reference "ideal" data)."""
    ks = band.wavenumbers(scene.wave_speed)
    vals = np.empty((scene.geom.n1, scene.geom.n2, ks.size, 3, 3), dtype=complex)
    for fi, k in enumerate(ks):
        vals[:, :, fi] = _response(scene, k, include_second_born)
    return ArrayDataSet(
        kind="response3x3",
        values=vals,
        geom=scene.geom,
        source=scene.source,
        band=band,
        wave_speed=scene.wave_speed,
    )


def coherency_synthesize(
    scene: Scene, band: FrequencyBand, include_second_born: bool = False
) -> ArrayDataSet:
    """Deterministic coherency-matrix dataset over the band.

    Per receiver and frequency, with M = Gtilde + Pitilde the projected total
    transfer matrix, the coherency is ``Psi = M Js M^*``, which expands into
    the incident, two cross, and scattered terms.  Hermitian by construction
    and positive semidefinite for a physical source coherency.
    """
    ks = band.wavenumbers(scene.wave_speed)
    js = scene.source.coherency_table(band.count)
    vals = np.empty((scene.geom.n1, scene.geom.n2, ks.size, 2, 2), dtype=complex)
    for fi, k in enumerate(ks):
        m = _projected_transfer(scene, k, include_second_born)
        vals[:, :, fi] = m @ js[fi] @ np.conj(np.swapaxes(m, -1, -2))
    return ArrayDataSet(
        kind="coherency2x2",
        values=vals,
        geom=scene.geom,
        source=scene.source,
        band=band,
        wave_speed=scene.wave_speed,
    )
