"""Synthetic data generation: Born responses and coherency-matrix synthesis.

Band first: the tails and receiver sums over the scatterers are migrate's direct engine,
set up once for the uniform band and walked in bin blocks, to which the direct term of
:func:`~polarmig.preprocess.gtilde` is added; single frequencies are one-sample bands.
"""

from __future__ import annotations

import numpy as np

from ._parallel import one_blas_thread, run_bin_blocks
from .dataset import ArrayDataSet
from .emcore import _band_step, project
from .errors import CoincidentPointsError
from .migrate import _direct_sums, _direct_walks
from .preprocess import _coherency, _gtilde_walk, gtilde
from .scene import FrequencyBand, Scene

# Receivers per transfer chunk are sized so their pairs with the scatterers stay few.
_PAIR_TARGET = 600_000


def _tails(scene: Scene, ks, single: bool, double: bool, scale: float) -> np.ndarray:
    """Receiver-independent tails ``T_n`` per band sample, (nscat, nfreq, 3, 3).

    The sum of single scattering ``alpha_n G(y_n, x_s)`` and double scattering
    ``sum_{m != n} alpha_n G(y_n, y_m) alpha_m G(y_m, x_s)``, each if asked.  As ``G`` is
    symmetric, both are conjugated engine sums at the scatterers, over the source with
    identity data and over the others with ``conj(head)``, at coincidence ``scale``.
    """
    pos, alphas = scene.scatterer_positions(), scene.scatterer_tensors()
    n = pos.shape[0]
    if n == 0:  # the engine cannot reshape an empty point set
        return np.zeros((0, ks.size, 3, 3), dtype=complex)
    eye = np.broadcast_to(np.eye(3), (1, ks.size, 3, 3))
    conj_g, _ = _direct_sums(scene.source.position[None], eye, ks, pos, 3, False, scale)
    head = alphas[:, None] @ np.conj(conj_g.swapaxes(0, 1))
    # a copy: the double-scattering sums read ``head`` while ``tails`` grows
    tails = head.copy() if single else np.zeros_like(head)
    for i in range(n if double else 0):
        others = np.arange(n) != i
        sums, _ = _direct_sums(pos[others], np.conj(head[others]), ks, pos[i:i + 1], 3, False,
                               scale)
        tails[i] += alphas[i] @ np.conj(sums[:, 0])
    return tails


@one_blas_thread()
def _scattered(scene: Scene, ks, recs, single=True, double=False, u_s=None, work=None):
    """Scattered transfer ``sum_n G(x_r, y_n) T_n`` at ``recs``, (nrec, nfreq, 3, 3).

    ``G`` is symmetric, so this is ``conj(sum_n conj(G(y_n, x_r)) conj(T_n))``: migrate's
    direct engine summed over the scatterers, for bin blocks and receiver chunks of
    ``_PAIR_TARGET`` pairs; both scattering orders of :func:`_tails` share it.  If the
    receivers fit one chunk, the tails and the engine's walk set-ups are built once for the
    band.  Given the source basis ``u_s`` it is the projected ``U_par^T Pi u_s``, (nrec,
    nfreq, 2, 2).  Given ``work``, ``work(bins, block)`` is stored in place of each block.
    """
    ks, _ = _band_step(ks)
    pos = scene.scatterer_positions()
    # the engine's coincidence scale: at least 1 and every receiver, scatterer and source norm
    scale = np.linalg.norm(np.vstack([recs, pos, scene.source.position]), axis=1).max(initial=1.0)
    chunk = max(1, _PAIR_TARGET // max(1, pos.shape[0]))
    n = 3 if u_s is None else 2  # as many output rows as columns
    out = np.empty((recs.shape[0], ks.size, n, n), dtype=complex)

    try:
        whole = recs.shape[0] <= chunk  # then the tails and walk set-ups serve every block
        tails = _tails(scene, ks, single, double, scale) if whole else None
        walks = list(_direct_walks(pos, ks, recs, n, 3, False, scale)) if whole else None

        def block(bins):
            part = tails[:, bins] if whole else _tails(scene, ks[bins], single, double, scale)
            data = np.conj(part if u_s is None else part @ u_s)
            m = np.empty_like(out[:, bins]) if work else out[:, bins]  # work's own, contiguous
            for lo in range(0, recs.shape[0], chunk):
                sums = _direct_sums(pos, data, ks[bins], recs[lo:lo + chunk], n, False, scale,
                                    walks, bins if whole else slice(None))[0]
                np.conjugate(sums.swapaxes(0, 1), out=m[lo:lo + chunk])
            sums = None  # freed before the work on the block
            if work:
                out[:, bins] = work(bins, m)

        run_bin_blocks(block, recs.shape[0], ks.size)
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


def _transfer(scene: Scene, ks, recs, u_s, double: bool = False, js=None) -> np.ndarray:
    """Projected total transfer ``M = Gtilde + Pitilde`` at ``recs`` per band sample.

    Returns (nrec, nfreq, 2, 2) for the source basis ``u_s``, or given source
    coherencies ``js``, (nfreq, 2, 2), the coherency ``M js M^*``, in one bin-block pass
    that adds :func:`~polarmig.preprocess.gtilde`'s walk, the table preprocessing inverts,
    to each block of :func:`_scattered`.
    """
    _, direct = _gtilde_walk(recs, scene.source.position, scene.source.reference_point, ks)

    def block(bins, m):
        m += direct(bins, np.empty_like(m))
        return m if js is None else _coherency(m, js[bins])

    return _scattered(scene, ks, recs, True, double, u_s, block)


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
    values = _transfer(scene, band.wavenumbers(scene.wave_speed), scene.geom.flat_positions(),
                       scene.source.basis(), include_second_born,
                       scene.source.coherency_table(band.count))
    values = values.reshape(scene.geom.n1, scene.geom.n2, band.count, 2, 2)
    return ArrayDataSet("hermitian2x2", values, scene.geom, scene.source, band, scene.wave_speed)
