"""Direct-sum reference for band migration, independent of the migrate engine.

For each check point the receiver sum is formed from ``dyadic_green`` one
frequency at a time; recovery then goes through ``recover_alpha_single`` and
``recover_alpha_band``, which build the point-spread factors from ``h_r`` and
``h_s``.  None of this runs through ``migrate._band_pipeline``.
"""

from __future__ import annotations

import numpy as np

from polarmig import dyadic_green, recover_alpha_band, recover_alpha_single

# Relative gap allowed between a program output and the direct sum.
TOLERANCE = 1e-9


def _trapezoid(omegas: np.ndarray) -> np.ndarray:
    d = omegas[1] - omegas[0]
    w = np.full(omegas.size, d)
    w[0] = w[-1] = d / 2
    return w


def direct(ds, point, modes=("image", "exact", "fraunhofer")) -> dict:
    """Band image and recovered 2x2 tensors at one point, by direct summation."""
    y = np.asarray(point, dtype=float)
    recs = ds.geom.flat_positions()
    data = ds.values.reshape(-1, ds.band.count, 3, 3)
    per_freq = []
    for fi, k in enumerate(ds.wavenumbers):
        g_rec = dyadic_green(recs, y, k)
        g_src = dyadic_green(ds.source.position, y, k)
        back = np.einsum("rij,rjk->ik", np.conj(g_rec), data[:, fi])
        per_freq.append(ds.geom.cell_area * back @ np.conj(g_src))
    out = {}
    if "image" in modes:
        out["image"] = np.tensordot(_trapezoid(ds.omegas), np.array(per_freq), axes=(0, 0))
    for mode in ("exact", "fraunhofer"):
        if mode in modes:
            alphas = [
                recover_alpha_single(ikm, y, k, ds.geom, ds.source, mode=mode)
                for ikm, k in zip(per_freq, ds.wavenumbers)
            ]
            out[mode] = recover_alpha_band(alphas, ds.omegas)
    return out


def rel_gap(value, reference) -> float:
    value = np.asarray(value)
    reference = np.asarray(reference)
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))
