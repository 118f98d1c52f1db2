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
over blocks of bins, not numpy's per-matrix ``@``.  Every
coherency ``M Js M^*`` in the package -- the incident term here, synthesis, the
random-source estimates and the ergodicity probe -- is the exactly Hermitian
:func:`_coherency`, so data without scatterers cancels to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import run_bin_blocks
from .dataset import ArrayDataSet
from .emcore import (_band_step, _kernel_walk, _separation, _walk_setup, embed, project,
                     source_basis)
from .errors import NumericalError

# Condition number of Gt above which the inversion switches to a truncated
# pseudo-inverse and the receiver is flagged.  Generic geometries stay far
# below this; degenerate ones must not crash the pipeline.
GTILDE_COND_LIMIT = 1e8
GTILDE_SV_CUTOFF = 1e-8  # pinv drops singular values at or below this times the largest
# Source coherencies and 2x2 point-spread factors above these condition numbers refuse to invert.
JS_COND_LIMIT = 1e12
RECOVER_COND_LIMIT = 1e8


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
    Gt here, so the incident terms ``Gt Js Gt^*`` agree bitwise.  It is
    ``A U_par^T u_s + B a b^T``, ``a = U_par^T rhat``, ``b = u_s^T rhat``, by bin blocks.
    """
    ks, _ = _band_step(np.atleast_1d(k))
    shape, walk = _gtilde_walk(x_r, x_s, y0, ks)
    out = np.empty(shape + (ks.size, 2, 2), dtype=complex)
    run_bin_blocks(lambda bins: walk(bins, out[..., bins, :, :]), math.prod(shape), ks.size)
    return out if np.ndim(k) else out[..., 0, :, :]


def _gtilde_walk(x_r, x_s, y0, ks):
    """Batch shape and ``walk(bins, out)``, writing :func:`gtilde` at ``ks[bins]``; set up once."""
    u_s = source_basis(x_s, y0)
    r, rhat = _separation(x_r, x_s)
    # (a, b) as components 0-3 on axis 0: the walk's kernels are [conj A, conj B a_p b_q]
    comps = np.moveaxis(np.concatenate([rhat[..., :2], rhat @ u_s], axis=-1), -1, 0)
    setup = _walk_setup(r, comps, ks, 1.0 / (4.0 * np.pi * r), [(0, 2), (0, 3), (1, 2), (1, 3)])

    def walk(bins, out):
        kern = np.empty((5,) + r.shape, dtype=complex)
        g = kern[1:].reshape((2, 2) + r.shape)
        for fi in _kernel_walk(setup, kern, bins, np.empty_like(setup.base)):
            g += np.multiply.outer(u_s[:2], kern[0])  # conj A U_par^T u_s
            np.conjugate(np.moveaxis(g, (0, 1), (-2, -1)), out=out[..., fi, :, :])
        return out

    return r.shape, walk


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


def _guard_cond(m2: np.ndarray, label: str, limit: float = RECOVER_COND_LIMIT) -> None:
    """NumericalError if a matrix of ``m2`` is singular or conditioned worse than ``limit``."""
    cond = _cond_2x2(m2)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > limit:
        raise NumericalError(
            f"{label} is numerically singular (condition number {worst:.3e})"
        )


def _mul_2x2(a: np.ndarray, b: np.ndarray, entries=((0, 0), (0, 1), (1, 0), (1, 1))) -> np.ndarray:
    """Batched ``a @ b`` of (..., 2, m) by (..., m, 2) as ``a_i0 b_0j + ...``; batch axes broadcast.

    Entries are formed on contiguous planes, and the result is a (..., 2, 2)
    view of them, so chained products read them contiguously.  Only the (i, j)
    in ``entries`` are formed; the others are left unset.
    """
    if a.shape[-2] != 2 or b.shape[-1] != 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot form a 2x2 product of {a.shape[-2:]} and {b.shape[-2:]}")
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.moveaxis(a, (-2, -1), (0, 1)), np.moveaxis(b, (-2, -1), (0, 1))
    out = np.empty((2, 2) + shape, dtype=np.result_type(a, b))
    tmp = np.empty(shape, dtype=out.dtype)
    for i, j in entries:
        np.multiply(a[i, 0], b[0, j], out=out[i, j])
        for m in range(1, b.shape[0]):
            out[i, j] += np.multiply(a[i, m], b[m, j], out=tmp)
    return np.moveaxis(out, (0, 1), (-2, -1))


def _coherency(m: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Coherency ``M Js M^*`` of transfers ``m`` and source coherencies ``js``, batched, exactly
    Hermitian: ``Psi12`` and the real diagonal have the bits of the full product, ``Psi21`` is
    ``conj(Psi12)``."""
    psi = _mul_2x2(_mul_2x2(m, js), np.conj(np.swapaxes(m, -1, -2)), ((0, 0), (1, 1), (0, 1)))
    psi[..., 0, 0].imag = psi[..., 1, 1].imag = 0.0
    np.conjugate(psi[..., 0, 1], out=psi[..., 1, 0])
    return psi


def _inv_2x2(a: np.ndarray) -> np.ndarray:
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    np.divide(a[..., 1, 1], det, out=out[..., 0, 0])
    np.divide(a[..., 0, 0], det, out=out[..., 1, 1])
    np.divide(-a[..., 0, 1], det, out=out[..., 0, 1])
    np.divide(-a[..., 1, 0], det, out=out[..., 1, 0])
    return out


def _gt_blocks(ds: ArrayDataSet, work) -> None:
    """``work(b, gt, cond, inv_gt_star, js, js_inv)`` per bin block ``b`` of one Gt walk.

    ``inv_gt_star`` is Gt^-*, a truncated pseudo-inverse where cond(Gt) exceeds the limit.
    """
    js = ds.source.coherency_table(ds.band.count)
    _guard_cond(js, "source coherency matrix", JS_COND_LIMIT)
    js_inv = _inv_2x2(js)
    shape, walk = _gtilde_walk(ds.geom.flat_positions(), ds.source.position,
                               ds.source.reference_point, ds.wavenumbers)

    def block(bins):
        gt = walk(bins, np.empty(shape + (bins.stop - bins.start, 2, 2), dtype=complex))
        gt = gt.reshape(ds.geom.n1, ds.geom.n2, -1, 2, 2)
        cond = _cond_2x2(gt)
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular Gt, replaced below
            inv_gt_star = _inv_2x2(np.conj(np.swapaxes(gt, -1, -2)))
        for idx in map(tuple, np.argwhere(~(cond <= GTILDE_COND_LIMIT))):
            inv_gt_star[idx] = np.linalg.pinv(np.conj(gt[idx].T), rcond=GTILDE_SV_CUTOFF)
        work(np.s_[:, :, bins], gt, cond, inv_gt_star, js[bins], js_inv[bins])

    run_bin_blocks(block, math.prod(shape), ds.band.count)


def preprocess(ds: ArrayDataSet) -> tuple[ArrayDataSet, PreprocessReport]:
    """Map ``hermitian2x2`` coherency data to ``preprocessed2x2`` data ``U_par C u_s^H``,
    stored as its 2x2 core C.

    Raises for a non-invertible source coherency; receivers where Gt is too
    ill conditioned are inverted through a truncated SVD and recorded in the
    report rather than failing the run.
    """
    if ds.kind != "hermitian2x2":
        raise ValueError(f"preprocess expects hermitian2x2 data, got {ds.kind!r}")
    cond = np.empty(ds.matrices.shape[:-2])
    core = np.empty(ds.matrices.shape, dtype=complex)

    def block(b, gt, cond_gt, inv_gt_star, js, js_inv):
        cond[b] = cond_gt
        c = _mul_2x2(ds.matrices[b] - _coherency(gt, js), inv_gt_star)
        core[b] = _mul_2x2(c, js_inv)

    _gt_blocks(ds, block)
    flagged = np.argwhere(~(cond <= GTILDE_COND_LIMIT))
    report = PreprocessReport(
        cond=cond, regularized=[tuple(int(i) for i in idx) for idx in flagged]
    )
    return replace(ds, kind="preprocessed2x2", matrices=core), report


def expected_error(pi: np.ndarray, ds: ArrayDataSet) -> np.ndarray:
    """Exact preprocessing error for a known 3x3 response field.

    ``q = U_par [ Gt Js Pit^* + Pit Js Pit^* ] Gt^{-*} Js^{-1} U_s^*`` where
    ``Pit`` is the projected response.  The first term is antilinear in the
    response, the second sesquilinear.  Shares the per-block Gt and the
    regularized inversion rule with :func:`preprocess`.
    """
    pi = np.asarray(pi, dtype=complex)
    expect = (ds.geom.n1, ds.geom.n2, ds.band.count, 3, 3)
    if pi.shape != expect:
        raise ValueError(f"response field shape {pi.shape}, expected {expect}")
    u_s = ds.source.basis()
    out = np.empty(expect, dtype=complex)

    def block(b, gt, _, inv_gt_star, js, js_inv):
        pit = project(pi[b], u_s)
        core = _mul_2x2(_mul_2x2(gt + pit, js), np.conj(np.swapaxes(pit, -1, -2)))
        out[b] = embed(_mul_2x2(_mul_2x2(core, inv_gt_star), js_inv), u_s)

    _gt_blocks(ds, block)
    return out
