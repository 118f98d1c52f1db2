"""Coherency-to-response preprocessing and its exact error decomposition.

The map takes measured 2x2 coherency data and produces an approximate 3x3
response field by subtracting the incident contribution and unwinding the
projected direct-path Green matrix and the source coherency:

    p(Psi) = U_par [ Psi - Gt Js Gt^* ] Gt^{-*} Js^{-1} U_s^*

Applied to synthesized coherency data this returns the projected response
``U_par Pitilde U_s^*`` plus an antilinear-plus-sesquilinear error that
``expected_error`` reproduces exactly; the identity holds to rounding, no
approximation is involved.
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
    cond_limit: float = GTILDE_COND_LIMIT

    @property
    def regularized_count(self) -> int:
        return len(self.regularized)

    def summary(self) -> str:
        lines = [
            "preprocess conditioning report",
            f"  receivers x frequencies: {self.cond.shape[0]}x{self.cond.shape[1]}"
            f" x {self.cond.shape[2]}",
            f"  cond(Gt): min {self.cond.min():.3e}, max {self.cond.max():.3e}",
            f"  regularization threshold: {self.cond_limit:.1e}",
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
    """Condition number of a batch of 2x2 complex matrices, closed form."""
    # singular values from the eigenvalues of A^* A
    aa = np.conj(np.swapaxes(a, -1, -2)) @ a
    tr = np.real(aa[..., 0, 0] + aa[..., 1, 1])
    det = np.real(
        aa[..., 0, 0] * aa[..., 1, 1] - aa[..., 0, 1] * aa[..., 1, 0]
    )
    disc = np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0))
    hi = np.sqrt(np.maximum((tr + disc) / 2.0, 0.0))
    lo = np.sqrt(np.maximum((tr - disc) / 2.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0, hi / lo, np.inf)


def _inv_2x2(a: np.ndarray) -> np.ndarray:
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / det[..., None, None]


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
    incident = gt @ js[None, None] @ np.conj(np.swapaxes(gt, -1, -2))
    core = (ds.values - incident) @ inv_gt_star @ js_inv[None, None]
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
    core = (gt + pit) @ js[None, None] @ pit_star @ inv_gt_star @ js_inv[None, None]
    return embed(core, u_s)
