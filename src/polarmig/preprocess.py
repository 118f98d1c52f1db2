"""Coherency-to-response preprocessing and its exact error decomposition.

The map takes measured 2x2 coherency data and produces an approximate 3x3
response field by subtracting the incident contribution and unwinding the
projected direct-path Green matrix and the source coherency:

    p(Psi) = U_par [ Psi - Gt Js Gt^* ] Gt^{-*} Js^{-1} U_s^*

Applied to synthesized coherency data this returns the projected response
``U_par Pitilde U_s^*`` plus an antilinear-plus-sesquilinear error that
``expected_error`` reproduces exactly; the identity holds to rounding, no
approximation is involved.

Its 2x2 products, inverses and condition numbers are entrywise closed forms
over all receivers and frequencies, not numpy's per-matrix ``@``.  Every
coherency ``M Js M^*`` in the package -- the incident term here, deterministic
synthesis and the random-source estimates -- is :func:`_coherency`, so data
without scatterers cancels to exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import ArrayDataSet
from .emcore import embed, green_band, project, source_basis
from .errors import NumericalError

# Condition number of Gt above which the inversion switches to a truncated
# pseudo-inverse and the receiver is flagged.  Generic geometries stay far
# below this; degenerate ones must not crash the pipeline.
GTILDE_COND_LIMIT = 1e8
GTILDE_SV_CUTOFF = 1e-8
JS_COND_LIMIT = 1e12


@dataclass
class PreprocessReport:
    """Conditioning summary of one preprocessing run."""

    cond: np.ndarray  # (n1, n2, nfreq) condition numbers of Gt
    regularized: list = field(default_factory=list)  # (row, col, freq) indices

    @property
    def regularized_count(self) -> int:
        return len(self.regularized)

    def summary(self) -> str:
        lines = [
            "preprocess conditioning report",
            f"  receivers x frequencies: {self.cond.shape[0]}x{self.cond.shape[1]}"
            f" x {self.cond.shape[2]}",
            f"  cond(Gt): min {self.cond.min():.3e}, max {self.cond.max():.3e}",
            f"  regularization threshold: {GTILDE_COND_LIMIT:.1e}",
            f"  regularized entries: {self.regularized_count}",
        ]
        for idx in self.regularized[:20]:
            lines.append(f"    receiver ({idx[0]}, {idx[1]}), frequency {idx[2]}")
        if self.regularized_count > 20:
            lines.append(f"    ... {self.regularized_count - 20} more")
        return "\n".join(lines)


def gtilde(x_r, x_s, y0, k) -> np.ndarray:
    """Projected 2x2 direct-path Green matrix U_par^* G(x_r, x_s; k) U_s.

    ``x_r`` may carry leading batch axes.  The source-side basis is the
    deterministic one built from (x_s, y0).  For a uniform band ``k`` the
    result is (..., nfreq, 2, 2); synthesis and preprocessing both build their
    Gt table here, so the incident terms ``Gt Js Gt^*`` agree bitwise.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    u_s = source_basis(x_s, y0)
    out = np.empty(np.shape(x_r)[:-1] + (ks.size, 2, 2), dtype=complex)
    for fi, g in enumerate(green_band(x_r, x_s, ks)):
        out[..., fi, :, :] = project(g, u_s)
    return out if np.ndim(k) else out[..., 0, :, :]


def _cond_2x2(a: np.ndarray) -> np.ndarray:
    """Condition number ``s1 / s2`` of a batch of 2x2 complex matrices, closed form.

    ``s1^2 / |det A|`` with ``s1^2 = (F + sqrt(F^2 - 4 |det A|^2)) / 2`` and
    ``F = ||A||_F^2``, evaluated divided through by ``F`` so nothing overflows.
    Unlike ``s2`` from the eigenvalues ``(tr - disc) / 2`` of ``A^* A``, it
    subtracts no near-equal numbers (that form misread cond 7e7 by up to 36 %).
    Singular and non-finite matrices read ``inf``.
    """
    det = np.abs(a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])
    fro = np.einsum("...ij,...ij->...", a.real, a.real)
    fro += np.einsum("...ij,...ij->...", a.imag, a.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = det / fro
        root = np.sqrt(np.maximum(1.0 - 4.0 * q * q, 0.0))
        return np.where(q > 0, (1.0 + root) / (2.0 * q), np.inf)


def _mul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 2x2 product ``a @ b`` as ``a_i0 b_0j + a_i1 b_1j``; batch axes broadcast.

    Entries are formed on contiguous planes, and the result is a (..., 2, 2)
    view of them, so chained products read them contiguously.
    """
    shape = np.broadcast_shapes(a.shape, b.shape)[:-2]
    a, b = np.moveaxis(a, (-2, -1), (0, 1)), np.moveaxis(b, (-2, -1), (0, 1))
    out = np.empty((2, 2) + shape, dtype=np.result_type(a, b))
    tmp = np.empty(shape, dtype=out.dtype)
    for i in range(2):
        for j in range(2):
            np.multiply(a[i, 0], b[0, j], out=out[i, j])
            out[i, j] += np.multiply(a[i, 1], b[1, j], out=tmp)
    return np.moveaxis(out, (0, 1), (-2, -1))


def _coherency(m: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Coherency ``M Js M^*`` of transfers ``m`` and source coherencies ``js``, batched."""
    return _mul_2x2(_mul_2x2(m, js), np.conj(np.swapaxes(m, -1, -2)))


def _inv_2x2(a: np.ndarray) -> np.ndarray:
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    np.divide(a[..., 1, 1], det, out=out[..., 0, 0])
    np.divide(a[..., 0, 0], det, out=out[..., 1, 1])
    np.divide(-a[..., 0, 1], det, out=out[..., 0, 1])
    np.divide(-a[..., 1, 0], det, out=out[..., 1, 0])
    return out


def _truncated_pinv(a: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(a)
    keep = s > GTILDE_SV_CUTOFF * s[0]
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vh.conj().T * inv_s) @ u.conj().T


def _js_inverses(js: np.ndarray) -> np.ndarray:
    cond = _cond_2x2(js)
    if np.any(~np.isfinite(cond)) or np.any(cond > JS_COND_LIMIT):
        raise NumericalError(
            "source coherency matrix is singular or too ill conditioned to invert"
        )
    return _inv_2x2(js)


def _inversion_tables(ds: ArrayDataSet):
    """(Js, Js^-1, Gt, cond(Gt), flagged, regularized Gt^-*) over receivers x band.

    Gt is (n1, n2, nfreq, 2, 2).  Where cond(Gt) exceeds the limit (the
    ``flagged`` (row, col, freq) indices) Gt^-* is a truncated pseudo-inverse.
    """
    js = ds.source.coherency_table(ds.band.count)
    js_inv = _js_inverses(js)
    gt = gtilde(ds.geom.flat_positions(), ds.source.position, ds.source.reference_point,
                ds.wavenumbers)
    gt = gt.reshape(ds.geom.n1, ds.geom.n2, ds.band.count, 2, 2)
    gt_star = np.conj(np.swapaxes(gt, -1, -2))
    cond = _cond_2x2(gt)
    flagged = np.argwhere(~(cond <= GTILDE_COND_LIMIT))
    inv_gt_star = _inv_2x2(gt_star)
    for row, col, fi in flagged:
        inv_gt_star[row, col, fi] = _truncated_pinv(gt_star[row, col, fi])
    return js, js_inv, gt, cond, flagged, inv_gt_star


def preprocess(ds: ArrayDataSet) -> tuple[ArrayDataSet, PreprocessReport]:
    """Map a coherency dataset to an approximate 3x3 response dataset.

    Raises for a non-invertible source coherency; receivers where Gt is too
    ill conditioned are inverted through a truncated SVD and recorded in the
    report rather than failing the run.
    """
    if ds.kind != "coherency2x2":
        raise ValueError(f"preprocess expects coherency2x2 data, got {ds.kind!r}")
    u_s = ds.source.basis()
    js, js_inv, gt, cond, flagged, inv_gt_star = _inversion_tables(ds)
    incident = _coherency(gt, js)
    core = _mul_2x2(_mul_2x2(ds.values - incident, inv_gt_star), js_inv)
    del gt, incident, inv_gt_star  # the 3x3 lift is the memory peak; free the tables first
    out = replace(ds, kind="preprocessed3x3", values=embed(core, u_s))
    report = PreprocessReport(
        cond=cond, regularized=[tuple(int(i) for i in idx) for idx in flagged]
    )
    return out, report


def expected_error(pi: np.ndarray, ds: ArrayDataSet) -> np.ndarray:
    """Exact preprocessing error for a known 3x3 response field.

    ``q = U_par [ Gt Js Pit^* + Pit Js Pit^* ] Gt^{-*} Js^{-1} U_s^*`` where
    ``Pit`` is the projected response.  The first term is antilinear in the
    response, the second sesquilinear.  Shares the regularized inversion rule
    with :func:`preprocess`.
    """
    pi = np.asarray(pi, dtype=complex)
    expect = (ds.geom.n1, ds.geom.n2, ds.band.count, 3, 3)
    if pi.shape != expect:
        raise ValueError(f"response field shape {pi.shape}, expected {expect}")
    u_s = ds.source.basis()
    js, js_inv, gt, _, _, inv_gt_star = _inversion_tables(ds)
    pit = project(pi, u_s)
    pit_star = np.conj(np.swapaxes(pit, -1, -2))
    core = _mul_2x2(_mul_2x2(gt + pit, js), pit_star)
    core = _mul_2x2(_mul_2x2(core, inv_gt_star), js_inv)
    return embed(core, u_s)
