"""Kirchhoff migration, point-spread approximants, tensor recovery, geometry checks.

The imaging function backpropagates a 3x3 data field with conjugated Green
functions, summed over the receiver array with Riemann cell weights and, for
band data, integrated over frequency with the trapezoid rule.  Exact
recovery unwinds the two point-spread factors at the image point, frequency by
frequency, to estimate the projected polarizability tensor in the fixed
(cross-range, source) bases; each factor is ``S0 + S1 / k^2 + S2 / k^4`` in three
frequency-free moments summed once.  The far-field estimate is the rescaled
projected image.

The receiver sums have two engines with the same result up to rounding.
Imaging points that form lattice rows (evenly spaced along a receiver axis,
at a step commensurate with the receiver pitch) get them from FFT
correlations along that axis, since the Green function depends only on
``x_r - y``, and rows that meet the same receiver offsets, as on a cross-range
slice, share each kernel site; all other points use the direct pair sum over
receiver blocks, which synthesis runs too, with the scatterers summed.  Both
contract scalar kernels of ``G = A I + B rhat rhat^T`` with the data components
in one matmul per frequency and fold its kernel products into the sums; the direct
engine, given at most ``n_in n_col`` summed points (the scatterers or the source),
folds the data instead.  Both take only the rows and columns of ``conj(G)`` that the
output and the data keep: preprocessed data ``U_par C u_s^H`` is migrated as its 2x2
core C, so recovery from it takes 4 kernels x 4 components and an image 6 x 4, against
6 x 9 and 7 x 9 for 3x3 data.  Everything about the kernels comes from
:mod:`polarmig.emcore`: the kernel table, the band walk that writes the kernels in place
into each engine's stack, and the one coincidence rule for imaging points against
receivers and the source; the source leg is the direct engine summed over the source.
Each engine returns its sums for the whole band, and the band is contracted with the
source leg, unwound and weighted at once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import one_blas_thread, run_tasks
from .dataset import ArrayDataSet
from .emcore import (CROSS_RANGE_BASIS, _distances, _kernel_table, _kernel_walk, _walk_setup,
                     as_vec3, dyadic_green, projector)
from .errors import DegenerateGeometryError
from .preprocess import _guard_cond, _inv_2x2, _mul_2x2
from .scene import ArrayGeom, ImagingWindow, SourceSpec

# Direct points per migrate task are sized so their pairs with the receivers
# stay under this: 32 points at 61x61 receivers, so a few dozen points fill
# two cores.  The rule never reads the thread count, so neither do the tasks.
_TASK_PAIRS = 120_000

# Summed points per direct-sum block, or for few points up to _BLOCK_PAIRS pairs;
# bounds the (kernels, points, block) stack.
_RECEIVER_BLOCK = 512
_BLOCK_PAIRS = 16_384

# Lattice-row chunks are sized by kernel sites times the FFT length: each (row,
# receiver column) site gathered into the matmul block counts once, and each
# distinct site walked three times more, for its table entry and the walk's
# state.  Rows that share no site thus get 40,000 gathered sites per chunk.
_SITE_TARGET = 160_000

# Row steps are matched to the receiver pitch over subdivisions up to this.
_MAX_SUBDIVISION = 12

# Coincident pairs are named in errors by these labels.
_RECEIVER_PAIR = "an imaging point and a receiver"
_SOURCE_PAIR = "an imaging point and the source"

# Row points must sit on their lattice to this many ulps of the largest
# coordinate, so lattice offsets equal the direct ones to rounding.
_LATTICE_ULPS = 64

# Default phase-correction floor, relative to the field maximum of |a11|.
DEFAULT_DELTA_REL = 1e-6


# ---------------------------------------------------------------------------
# Point-spread moments and the kernel fold shared by both engines
# ---------------------------------------------------------------------------


def _spread_moments(amp, r, v, axis: int):
    """Frequency-free moments (S0, S1, S2) of ``v^T conj(G) G v`` summed over ``axis``.

    ``conj(G) G = |A|^2 I + c rhat rhat^T`` with ``|A|^2 = amp^2 (1 - u^2 + u^4)`` and
    ``c = amp^2 (3 u^4 + 5 u^2 - 1)``, ``u = 1 / (k r)``, so the sum is ``S0 + S1 / k^2
    + S2 / k^4``.  ``v`` is rhat along two orthonormal directions, ``amp = 1 / (4 pi r)``
    or zero to drop a term, and ``axis`` is nonnegative.  Returns (3, ..., 2, 2).
    """
    v0, v1, w, r = np.broadcast_arrays(v[0], v[1], amp * amp, r)
    # amp^2 r^(-2j) weighs the k^(-2j) term; ``axis`` goes last for einsum's dot
    weights = np.moveaxis(np.stack([w, w / r**2, w / r**2 / r**2]), axis + 1, -1)
    entries = np.moveaxis(np.stack([np.ones_like(w), v0 * v0, v0 * v1, v1 * v1]), axis + 1, -1)
    sums = np.einsum("j...n,e...n->e...j", weights, entries)
    # coefficients of the k^(-2j) terms on I and on v v^T
    iso = sums[0] * [1.0, -1.0, 1.0]
    s11, s12, s22 = sums[1:] * [-1.0, 5.0, 3.0]
    return np.moveaxis(np.array([[iso + s11, s12], [s12, iso + s22]]), (0, 1, -1), (-2, -1, 0))


def _fold(prods, index, out):
    """Add ``sum_l (conj A delta_ol + conj B rhat_o rhat_l) D_lq`` from kernel x ``D_lq`` sums.

    ``prods`` is (..., kernels, n_in, n_col); the fold is added to ``out``, (..., n_out, n_col).
    """
    n_out, n_in = index.shape
    diag = min(n_out, n_in)
    out[..., :diag, :] += prods[..., 0, :diag, :]
    for l in range(n_in):
        out += prods[..., index[:, l], l, :]


def _as_points(points) -> tuple[np.ndarray, bool]:
    """Finite points as (npts, 3), leading axes flattened, and whether one point was given."""
    p = as_vec3(points)
    return p.reshape(-1, 3), p.ndim == 1


# ---------------------------------------------------------------------------
# Receiver sums: direct pairs and lattice rows
# ---------------------------------------------------------------------------


def _direct_walks(xs, ks, pts, n_out: int, n_in: int, moments: bool, scale: float):
    """``(block, walk set-up over ks, spread moments or None)`` per :func:`_direct_sums` block."""
    size = max(_RECEIVER_BLOCK, _BLOCK_PAIRS // max(1, pts.shape[0]))
    for lo in range(0, xs.shape[0], size):
        block = slice(lo, min(lo + size, xs.shape[0]))
        r, rhat = _distances(xs[block].T[:, None, :] - pts.T[:, :, None], scale, _RECEIVER_PAIR)
        amp = 1.0 / (4.0 * np.pi * r)
        spread = _spread_moments(amp, r, rhat[:2], 1) if moments else None
        yield block, _walk_setup(r, rhat, ks, amp, _kernel_table(n_out, n_in)[0]), spread


def _direct_sums(xs, data, ks, pts, n_out: int, moments: bool, scale: float, walks=None,
                 bins=slice(None)):
    """Per-frequency sums of ``conj(G) data`` over a point set by direct pairs, and spread moments.

    The summed set ``xs`` is the receivers or the source in migration and the source or
    the scatterers in synthesis; ``data`` is (len(xs), nfreq, n_in, n_col) with rows in
    I_3 (n_in = 3) or U_par (n_in = 2).  The sums are the first ``n_out`` rows of
    ``conj(G) data`` at ``pts``, (nfreq, points, n_out, n_col); ``scale`` is the
    coincidence scale of :func:`~polarmig.emcore._distances`.  Each block of
    ``_RECEIVER_BLOCK`` summed points, or more for few points, computes its pair geometry,
    walk set-up and spread moments if asked (else None is returned for them) once, and
    one matmul per frequency.  A block of more summed points than the ``n_in n_col`` data
    components of one folds the products of ``(kernels x points x block) @ (block x n_in
    n_col)`` into the sums; a block of at most that many, as the scatterers or the source,
    spreads its data over the kernels and adds ``(points x kernels x block) @ (kernels x
    block x n_out n_col)``, whose point-major kernels are no larger than the products.
    Blocks are summed in order, so memory is bounded by the block and the sums and rounding
    does not depend on threads.  Given ``walks``, the blocks of :func:`_direct_walks` over
    a whole band, the sums, like ``data``, are of its ``bins``.
    """
    n_in, n_col = data.shape[-2:]
    index = _kernel_table(n_out, n_in)[1]
    # (kernel, output row, data row) of each nonzero of the spread data: conj A, then index
    diag, (o, l) = np.arange(min(n_out, n_in)), np.divmod(np.arange(n_out * n_in), n_in)
    ms, os, ls = np.concatenate([[0 * diag, diag, diag], [index.ravel(), o, l]], axis=1)
    n_pts = pts.shape[0]
    sums = np.zeros((data.shape[1], n_pts, n_out, n_col), dtype=complex)
    spread = np.zeros((3, n_pts, 2, 2)) if moments else None
    for block, walk, moment in walks or _direct_walks(xs, ks, pts, n_out, n_in, moments, scale):
        spread = spread + moment if moments else None
        n_kern, nb = 1 + len(walk.orient), walk.r.shape[1]
        kern = np.empty((n_kern,) + walk.r.shape, dtype=complex)
        state = np.empty_like(walk.base) if walks else walk.base
        if nb <= n_in * n_col:  # few summed points: fold the data, not the products
            left = np.empty((n_pts, n_kern, nb), dtype=complex)  # no larger than the products
            lifted = np.zeros((n_kern, nb, n_out, n_col), dtype=complex)
            for fi in _kernel_walk(walk, kern, bins, state):
                np.copyto(left.swapaxes(0, 1), kern)
                lifted[ms, :, os] = data[block, fi][:, ls].swapaxes(0, 1)
                sums[fi] += np.reshape(left.reshape(n_pts, -1) @ lifted.reshape(n_kern * nb, -1),
                                       sums.shape[1:])
            del left, lifted
        else:
            for fi in _kernel_walk(walk, kern, bins, state):
                prods = kern.reshape(-1, nb) @ data[block, fi].reshape(-1, n_in * n_col)
                _fold(prods.reshape(-1, n_pts, n_in, n_col).swapaxes(0, 1), index, sums[fi])
        del walk, kern  # freed before the next block's set-up
    return sums, spread


# Shape shared by a set of lattice rows: the lattice step is ``pitch / sub``
# along receiver axis ``axis``; receivers sit every ``sub`` and row points
# every ``stride`` lattice steps; ``fft_size`` holds every point-minus-receiver
# lag of a row without wrap-around.
_RowLayout = namedtuple("_RowLayout", "axis sub stride length fft_size")


def _fft_size(n: int) -> int:
    """Smallest 2-3-5 smooth integer >= n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _lattice_atol(pts, geom: ArrayGeom) -> float:
    scale = max(1.0, geom.side, float(np.abs(pts).max(initial=0.0)))
    return _LATTICE_ULPS * np.finfo(float).eps * scale


def _row_layout(coords, axis: int, geom: ArrayGeom, atol: float):
    """Layout of a row's sorted coordinates along ``axis``, or None if off-lattice."""
    pitch = geom.spacing[axis]
    n_along = (geom.n1, geom.n2)[axis]
    length = coords.size
    step = (coords[-1] - coords[0]) / (length - 1)
    if step <= 0:
        return None
    for sub in range(1, _MAX_SUBDIVISION + 1):
        stride = round(step * sub / pitch)
        if stride < 1:
            continue
        model = coords[0] + np.arange(length) * (stride * pitch / sub)
        if np.all(np.abs(coords - model) <= atol):
            span = (n_along - 1) * sub + (length - 1) * stride + 1
            return _RowLayout(axis, sub, stride, length, _fft_size(span))
    return None


def _lattice_rows(pts, geom: ArrayGeom):
    """Split points into lattice rows and the rest.

    Rows are points sharing their x3 and one cross-range coordinate, evenly
    spaced along the other at a step commensurate with the receiver pitch,
    kept where the FFT path is clearly cheaper than the direct sum.  Of the
    two receiver axes the one that saves more is used.  Returns
    ``({layout: (rows, length) point indices}, rest indices)``.
    """
    atol = _lattice_atol(pts, geom)
    n_rec = (geom.n1, geom.n2)
    best, best_saving = {}, 0.0
    for axis in (0, 1):
        other = 1 - axis
        _, group, counts = np.unique(
            pts[:, [other, 2]], axis=0, return_inverse=True, return_counts=True
        )
        order = np.lexsort((pts[:, axis], group.ravel()))
        starts = np.cumsum(counts) - counts
        rows, saving = {}, 0.0
        for lo, n in zip(starts[counts > 1], counts[counts > 1]):
            idx = order[lo:lo + n]
            layout = _row_layout(pts[idx, axis], axis, geom, atol)
            if layout is None:
                continue
            # a row replaces its points x receivers-along-the-row pair terms
            # by FFT-length kernel sites, each costing 2.1-2.4 pair terms
            # (measured single-threaded on the reduced preset's 961-point
            # slices, where rows still win 2.5x); rows with fewer than 2.3 pair
            # terms per site stay on the direct sum
            direct = idx.size * n_rec[axis]
            lattice = layout.fft_size
            if 2.3 * lattice > direct:
                continue
            rows.setdefault(layout, []).append(idx)
            saving += (direct - lattice) * n_rec[other]
        if saving > best_saving:
            best, best_saving = rows, saving
    covered = np.zeros(pts.shape[0], dtype=bool)
    grouped = {}
    for layout, idx_list in best.items():
        grouped[layout] = np.array(idx_list)
        covered[grouped[layout]] = True
    return grouped, np.flatnonzero(~covered)


def _row_sites(pts, rows, geom: ArrayGeom, other: int):
    """Distinct kernel sites of lattice rows across receiver axis ``other``: ``(site, pick)``.

    A row meets the receiver offsets of the first earlier row whose start agrees with
    its own to the lattice tolerance after a shift of whole pitches across, its column
    j that row's column j - shift.  ``site`` holds each distinct site's first (row,
    column) as a flat index, ``pick[row, j]`` the site of each row's column.
    """
    start, atol = pts[rows[:, 0]], _lattice_atol(pts, geom)
    n_rows, n_across = rows.shape[0], (geom.n1, geom.n2)[other]
    first, shift, owners = np.arange(n_rows), np.zeros(n_rows), [0]
    for w in range(1, n_rows):
        gap = start[w] - start[owners]
        n = np.round(gap[:, other] / geom.spacing[other])
        gap[:, other] -= n * geom.spacing[other]
        hit = np.flatnonzero(np.all(np.abs(gap) <= atol, axis=1))
        if hit.size:
            first[w], shift[w] = owners[hit[0]], n[hit[0]]
        else:
            owners.append(w)
    keys = np.stack(np.broadcast_arrays(first[:, None], np.arange(n_across) - shift[:, None]))
    _, site, pick = np.unique(keys.reshape(2, -1), axis=1, return_index=True, return_inverse=True)
    return site, pick.reshape(n_rows, n_across)


def _lattice_sums(geom: ArrayGeom, data, ks, pts, rows, layout: _RowLayout, n_out: int,
                  moments: bool, scale: float):
    """Per-frequency backpropagation sums and receiver spread moments for lattice rows.

    ``data`` is (n1, n2, nfreq, n_in, n_col) and ``rows`` a (rows, length)
    array of point indices, each row sorted along ``layout.axis``; ``n_out``,
    ``moments`` and ``scale`` are as for :func:`_direct_sums`.  For row point p
    and receiver (i, j), with i along the row axis and j across it, the Green
    function depends on the lag ``p stride - i sub`` and on the row's offset to
    receiver column j.  Rows whose x3 and along-row starts agree and whose
    across starts differ by whole receiver pitches share their (offset, lag)
    sites, so the kernels are walked and transformed once per distinct site,
    then gathered into each row's (j, lag) block.  The sum over i is a circular
    convolution over an FFT length that holds every lag without wrap-around,
    and the sum over j is a matmul per spatial frequency.  Spread moments are
    summed over each row's sites per lag, then over each point's pair lags.
    Points are in the order of ``rows.ravel()``.
    """
    axis, sub, stride, length, nfft = layout
    other = 1 - axis
    n_in, n_col = data.shape[-2:]
    pairs, index = _kernel_table(n_out, n_in)
    grid = geom.positions() if axis == 0 else geom.positions().swapaxes(0, 1)
    lane = data if axis == 0 else data.swapaxes(0, 1)
    n_along, n_across = grid.shape[:2]
    n_rows = rows.shape[0]
    span = (length - 1) * stride
    q = np.arange(nfft)
    lag = np.where(q <= span, q, q - nfft)
    # takes[q, p] = 1 where row point p and a receiver along the row take lag q
    gap = np.arange(length) * stride - lag[:, None]
    takes = ((gap >= 0) & (gap <= (n_along - 1) * sub) & (gap % sub == 0)).astype(float)
    realized = takes.any(axis=1)

    site, pick = _row_sites(pts, rows, geom, other)
    site_row, site_col = np.divmod(site, n_across)
    start = pts[rows[site_row, 0]]
    # x_r - y per (lag, site), components on axis 0
    diff = [None, None, -start[:, 2]]
    diff[axis] = grid[0, 0, axis] - start[:, axis] - lag[:, None] * (geom.spacing[axis] / sub)
    diff[other] = grid[0, site_col, other] - start[:, other]
    diff = np.stack(np.broadcast_arrays(*diff))
    # lags no (point, receiver) pair takes, and FFT padding, get a zero kernel
    diff[:, ~realized] = 1.0
    r, rhat = _distances(diff, scale, _RECEIVER_PAIR)
    amp = np.where(realized[:, None], 1.0 / (4.0 * np.pi * r), 0.0)
    spread = None
    if moments:
        # (3, lag, rows, 2, 2) over each row's sites -> (3, rows, 2, 2, point) -> (3, points, 2, 2)
        spread = _spread_moments(amp[:, pick], r[:, pick], rhat[:2, :, pick], 2)
        spread = np.moveaxis(np.moveaxis(spread, 1, -1) @ takes, -1, 2).reshape(3, -1, 2, 2)

    walk = _walk_setup(r, rhat, ks, amp, pairs)
    del diff, rhat  # before the tables below are held; the walk keeps the orientation products
    n_kern, n_data = 1 + len(pairs), n_in * n_col
    sums = np.empty((ks.size, n_rows * length, n_out, n_col), dtype=complex)
    lattice_data = np.zeros((nfft, n_across, n_data), dtype=complex)
    # the walk writes each lag's kernels, and the FFT over lags runs in place, so the table
    # is spatial frequency first and the matmul below batches over it
    table = np.empty((nfft, n_kern, site.size), dtype=complex)
    # a table already in row order, as on range slices, is each row's block itself
    shared = not np.array_equal(site, np.arange(pick.size))
    kern_hat = np.empty((nfft, n_kern, n_rows, n_across), dtype=complex) if shared else table
    for fi in _kernel_walk(walk, table.swapaxes(0, 1), slice(None), walk.base):
        np.fft.fft(table, axis=0, out=table)
        if shared:
            np.take(table, pick, axis=2, out=kern_hat, mode="clip")
        lattice_data[: n_along * sub : sub] = lane[:, :, fi].reshape(n_along, n_across, -1)
        data_hat = np.fft.fft(lattice_data, axis=0)
        # prods[x, (m, row), (l, q)] = sum_j kern_hat[x, m, row, j] D_hat[x, j, l, q]
        prods = kern_hat.reshape(nfft, n_kern * n_rows, n_across) @ data_hat
        acc = np.zeros((nfft, n_rows, n_out, n_col), dtype=complex)
        _fold(prods.reshape(nfft, n_kern, n_rows, n_in, n_col).swapaxes(1, 2), index, acc)
        acc = np.fft.ifft(acc, axis=0)[: span + 1 : stride]
        sums[fi] = acc.swapaxes(0, 1).reshape(-1, n_out, n_col)
    return sums, spread


# ---------------------------------------------------------------------------
# Imaging function
# ---------------------------------------------------------------------------


@one_blas_thread()
def _migrate(geom: ArrayGeom, x_s, data, ks, weights, pts, u_s=None, mode: str = "image"):
    """Weighted frequency sum of Kirchhoff images, projected images or recovered tensors.

    ``data`` is (n1, n2, nfreq, 3, 3), or given the source basis ``u_s`` the
    (n1, n2, nfreq, 2, 2) core C of preprocessed data ``U_par C u_s^H``.  Returns,
    per point, the image (npts, 3, 3) for ``mode="image"``; given ``u_s``, its
    projection ``U_par^T image u_s`` for "fraunhofer" and the sum of the
    per-frequency recovered tensors for "exact", (npts, 2, 2) in the
    (cross-range, ``u_s``) bases.  The receiver sums take only the rows and
    columns of ``conj(G)`` that these bases keep.  Work is split into
    lattice-row chunks and direct point chunks of fixed size, run with
    OpenBLAS at one thread, so results depend neither on ``POLARMIG_THREADS``
    nor on the OpenBLAS thread count.
    """
    cell = geom.cell_area
    recs = geom.flat_positions()
    n_out = 3 if mode == "image" else 2
    exact = mode == "exact"
    flat = data.reshape(-1, ks.size, *data.shape[-2:])
    out = np.zeros((pts.shape[0], n_out, n_out), dtype=complex)
    # the coincidence scale: at least 1 and every receiver, point and source norm
    scale = np.linalg.norm(np.concatenate([recs, pts, x_s[None]]), axis=1).max(initial=1.0)

    tasks = []
    rows, rest = _lattice_rows(pts, geom)
    for layout, group in rows.items():
        site, pick = _row_sites(pts, group, geom, 1 - layout.axis)
        # at least one row per chunk, even when a row alone exceeds the target
        cost = layout.fft_size * (pick.size + 3 * site.size)
        n_chunks = min(group.shape[0], -(-cost // _SITE_TARGET))
        for chunk in np.array_split(group, n_chunks):
            tasks.append((chunk.ravel(), partial(_lattice_sums, geom, data, ks, pts, chunk,
                                                 layout, n_out, exact, scale)))
    size = max(1, _TASK_PAIRS // recs.shape[0])
    for lo in range(0, rest.size, size):
        idx = rest[lo:lo + size]
        tasks.append((idx, partial(_direct_sums, recs, flat, ks, pts[idx], n_out, exact, scale)))

    def accumulate(task):
        idx, sums = task
        per_freq, rec_moments = sums()
        r_s, rhat_s = _distances(x_s[:, None] - pts[idx].T, scale, _SOURCE_PAIR)
        # the source leg, conj(G(x_s, y)) times I_3 or, for 2x2 output, u_s
        leg = np.broadcast_to(np.eye(3) if n_out == 3 else u_s, (1, ks.size, 3, n_out))
        src, _ = _direct_sums(x_s[None], leg, ks, pts[idx], 3, False, scale)
        if data.shape[-2] == 2:  # rows in the basis of the core's columns
            src = np.moveaxis(np.tensordot(np.conj(u_s).T, src, (1, 2)), 0, 2)
        # matmul would make a BLAS call per tiny matrix: 2x2 products go entry by entry on
        # whole planes, and the image's 3x3 one through einsum's loop
        mul = _mul_2x2 if n_out == 2 else partial(np.einsum, "fpij,fpjk->fpik")
        ikm = cell * mul(per_freq, src)
        if exact:
            # one source pair per point; u_s^T conj(G) G u_s needs only v = u_s^T rhat_s
            powers = ks[:, None] ** np.array([0.0, -2.0, -4.0])
            a2 = cell * np.tensordot(powers, rec_moments, 1)
            amp = 1.0 / (4.0 * np.pi * r_s[None])
            src_moments = _spread_moments(amp, r_s[None], (u_s.T @ rhat_s)[:, None], 0)
            b2 = np.tensordot(powers, src_moments, 1)
            _guard_cond(a2, "receiver point-spread factor")
            _guard_cond(b2, "source point-spread factor")
            ikm = _mul_2x2(_mul_2x2(_inv_2x2(a2), ikm), _inv_2x2(b2))
        out[idx] = np.einsum("f,f...->...", weights, ikm)

    run_tasks(accumulate, tasks)
    return out


def kirchhoff_single(data, geom: ArrayGeom, x_s, k: float, points) -> np.ndarray:
    """Single-frequency Kirchhoff image of a 3x3 data field at imaging points.

    ``data`` is (n1, n2, 3, 3) over the array; returns (npts, 3, 3) (or a
    single 3x3 for a single point): the receiver sum of
    ``w conj(G(x_r, y)) D(x_r) conj(G(x_s, y))`` with cell weights w.
    """
    pts, squeeze = _as_points(points)
    data = np.asarray(data, dtype=complex)
    if data.shape != (geom.n1, geom.n2, 3, 3):
        raise ValueError(f"data shape {data.shape} does not match the array geometry")
    image = _migrate(
        geom, as_vec3(x_s), data[:, :, None], np.array([float(k)]),
        np.ones(1), pts,
    )
    return image[0] if squeeze else image


def _trapezoid_weights(omegas: np.ndarray) -> np.ndarray:
    if omegas.size < 2:
        raise ValueError("band integration needs at least 2 frequency samples")
    d = omegas[1] - omegas[0]
    w = np.full(omegas.size, d)
    w[0] = w[-1] = d / 2
    return w


def kirchhoff_band(ds: ArrayDataSet, points) -> np.ndarray:
    """Multi-frequency Kirchhoff image: trapezoid integral over the band.

    Takes ``response3x3`` or ``preprocessed2x2`` data; ``hermitian2x2`` data raises ValueError.
    """
    return _migrate_band(ds, points, "image")


def _migrate_band(ds: ArrayDataSet, points, mode: str):
    """:func:`_migrate` over the band of ``ds`` with trapezoid weights, one point squeezed.

    Takes ``response3x3`` or ``preprocessed2x2`` data and refuses ``hermitian2x2`` coherency
    data; preprocessed data ``U_par C u_s^H`` is migrated as the 2x2 core C it stores.
    """
    if ds.kind == "hermitian2x2":
        raise ValueError(f"{ds.kind} data cannot be migrated; run preprocess first")
    pts, squeeze = _as_points(points)
    out = _migrate(ds.geom, ds.source.position, ds.matrices, ds.wavenumbers,
                   _trapezoid_weights(ds.omegas), pts, ds.source.basis(), mode)
    return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# Point-spread matrices and their closed-form approximants
# ---------------------------------------------------------------------------


def h_s(y, y_prime, k: float, x_s) -> np.ndarray:
    """Source point-spread matrix conj(G(x_s, y)) G(x_s, y')."""
    return np.conj(dyadic_green(x_s, y, k)) @ dyadic_green(x_s, y_prime, k)


def h_r(y, y_prime, k: float, geom: ArrayGeom) -> np.ndarray:
    """Receiver point-spread matrix: array sum of w conj(G(x_r, y)) G(x_r, y')."""
    recs = geom.flat_positions()
    g_y = dyadic_green(recs, np.asarray(y, dtype=float), k)
    g_yp = dyadic_green(recs, np.asarray(y_prime, dtype=float), k)
    return geom.cell_area * np.einsum("rij,rjk->ik", np.conj(g_y), g_yp)


def h_s_fraunhofer(y, y_prime, k: float, x_s, y0) -> np.ndarray:
    """Far-field approximant of (4 pi L)^2 h_s: a unit-modulus phase times P_s.

    ``exp(i k (|x_s - y'| - |x_s - y|)) P(x_s, y0)``.
    """
    x_s = np.asarray(x_s, dtype=float)
    d = np.linalg.norm(x_s - np.asarray(y_prime, float)) - np.linalg.norm(
        x_s - np.asarray(y, float)
    )
    return np.exp(1j * k * d) * projector(x_s, y0)


def h_r_fraunhofer(y, y_prime, k: float, geom: ArrayGeom, y0) -> np.ndarray:
    """Closed-form approximant of h_r for a square array.

    ``a^2 exp(i k (eta' - eta)) / (4 pi L)^2 sinc(k a d1 / 2L) sinc(k a d2 / 2L) P_par``
    with d the cross-range offset y' - y and eta the range offsets from the
    reference plane x3 = L.
    """
    y = np.asarray(y, dtype=float)
    yp = np.asarray(y_prime, dtype=float)
    ref_range = float(np.asarray(y0, float)[2])
    eta, eta_p = y[2] - ref_range, yp[2] - ref_range
    delta = yp[:2] - y[:2]
    arg = k * geom.side * delta / (2.0 * ref_range)
    # numpy sinc is sin(pi x)/(pi x); the plain sin(x)/x form is wanted here
    envelope = np.sinc(arg[0] / np.pi) * np.sinc(arg[1] / np.pi)
    scale = geom.side**2 * np.exp(1j * k * (eta_p - eta)) / (4.0 * np.pi * ref_range) ** 2
    p_par = np.diag([1.0, 1.0, 0.0])
    return scale * envelope * p_par


def cross_range_null_offset(k: float, geom: ArrayGeom, ref_range: float) -> float:
    """First zero of the square-array cross-range envelope: 2 pi L / (k a)."""
    return 2.0 * np.pi * ref_range / (k * geom.side)


# ---------------------------------------------------------------------------
# Tensor recovery
# ---------------------------------------------------------------------------


def recover_alpha_single(
    ikm, y, k: float, geom: ArrayGeom, source: SourceSpec, mode: str = "exact"
) -> np.ndarray:
    """Projected 2x2 polarizability estimate from a single-frequency image value.

    ``mode="exact"`` inverts the computed 2x2 point-spread factors at y;
    ``mode="fraunhofer"`` rescales by (4 pi L)^4 / mes(A).  Raises with a
    condition report when an exact-mode factor is singular.
    """
    ikm = np.asarray(ikm, dtype=complex)
    u_s = source.basis()
    ikm_t = CROSS_RANGE_BASIS.T @ ikm @ u_s
    if mode == "fraunhofer":
        ref_range = float(source.reference_point[2])
        return (4.0 * np.pi * ref_range) ** 4 / geom.area * ikm_t
    if mode != "exact":
        raise ValueError(f"unknown recovery mode {mode!r}")
    a2 = CROSS_RANGE_BASIS.T @ h_r(y, y, k, geom) @ CROSS_RANGE_BASIS
    b2 = u_s.T @ h_s(y, y, k, source.position) @ u_s
    _guard_cond(a2[None], "receiver point-spread factor")
    _guard_cond(b2[None], "source point-spread factor")
    return _inv_2x2(a2) @ ikm_t @ _inv_2x2(b2)


def recover_alpha_band(alphas, omegas) -> np.ndarray:
    """Bandwidth-normalized trapezoid average of per-frequency estimates."""
    alphas = np.asarray(alphas, dtype=complex)
    omegas = np.asarray(omegas, dtype=float)
    w = _trapezoid_weights(omegas)
    return np.tensordot(w, alphas, axes=(0, 0)) / (omegas[-1] - omegas[0])


def recover_alpha_field(ds: ArrayDataSet, points, mode: str = "exact") -> np.ndarray:
    """Band-averaged projected tensor field at the given imaging points.

    ``mode="exact"`` recovers at every frequency in the same pass over the
    band as the image and averages with the trapezoid rule; the far-field
    ``mode="fraunhofer"`` estimate is linear in the image, so it is the
    projected band image rescaled by (4 pi L)^4 / mes(A).  Takes the data
    :func:`kirchhoff_band` takes.
    """
    if mode not in ("exact", "fraunhofer"):
        raise ValueError(f"unknown recovery mode {mode!r}")
    alpha = _migrate_band(ds, points, mode)
    if mode == "fraunhofer":
        ref_range = float(ds.source.reference_point[2])
        alpha *= (4.0 * np.pi * ref_range) ** 4 / ds.geom.area
    return alpha / (ds.omegas[-1] - ds.omegas[0])


def phase_correct(values, delta_rel: float = DEFAULT_DELTA_REL) -> np.ndarray:
    """Suppress oscillatory artifacts by pinning the phase of the (1,1) entry.

    Multiplies each 2x2 matrix by ``conj(a11) / (|a11| + delta)`` with
    ``delta = delta_rel * max_field |a11|``, so corrected (1,1) entries are
    real nonnegative and the common oscillation cancels across entries.
    """
    if not 0 <= delta_rel < np.inf:
        raise ValueError("delta_rel must be nonnegative and finite")
    vals = np.asarray(values, dtype=complex)
    a11 = vals[..., 0, 0]
    delta = delta_rel * (np.abs(a11).max() if a11.size else 0.0)
    denom = np.abs(a11) + delta
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(denom > 0, np.conj(a11) / np.where(denom > 0, denom, 1.0), 0.0)
    return vals * factor[..., None, None]


# ---------------------------------------------------------------------------
# Source placement check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of the cone-union source placement test."""

    admissible: bool
    margin: float  # min over receivers of ratio - 1; negative when violated
    slope: float  # cone half-slope c
    gamma: int

    def summary(self) -> str:
        verdict = "admissible" if self.admissible else "violated"
        return (
            f"source placement vs exclusion region (gamma={self.gamma}): {verdict}, "
            f"cone slope c={self.slope:.6f}, worst-case margin {self.margin:+.4f}"
        )


def region_slope(geom: ArrayGeom, window: ImagingWindow) -> float:
    """Cone half-slope c = (a+b) / sqrt((2L-h)^2 + (a+b)^2)."""
    a, b, h = geom.side, window.cross_range, window.range_extent
    ref_range = float(window.center[2])
    if 2.0 * ref_range - h <= 0:
        raise DegenerateGeometryError("imaging window reaches the array plane")
    c = (a + b) / np.hypot(2.0 * ref_range - h, a + b)
    return float(c)


def region_check(geom: ArrayGeom, window: ImagingWindow, x_s, gamma: int) -> RegionCheck:
    """Test whether the source sits outside every receiver cone.

    The union over the continuous array is approximated by the discrete
    receiver set plus the four corners (cones vary monotonically across a
    rectangular array).  Violated iff some receiver satisfies
    ``|x_r_par - x_s_par| <= gamma c |x_r - x_s|``.
    """
    if gamma not in (1, 3):
        raise ValueError("gamma must be 1 (single scattering) or 3 (finite multiples)")
    c = region_slope(geom, window)
    x_s = np.asarray(x_s, dtype=float)
    probes = np.concatenate([geom.flat_positions(), geom.corners()])
    d_par = np.linalg.norm(probes[:, :2] - x_s[:2], axis=1)
    d_full = np.linalg.norm(probes - x_s, axis=1)
    ratio = d_par / (gamma * c * d_full)
    margin = float(ratio.min() - 1.0)
    return RegionCheck(admissible=margin > 0, margin=margin, slope=c, gamma=gamma)


# ---------------------------------------------------------------------------
# Imaging grids
# ---------------------------------------------------------------------------


def _grid_axes(window: ImagingWindow, axes, step: float) -> list[np.ndarray]:
    """Grid coordinates at ``step`` across the window along each of ``axes``."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    out = []
    for ax in axes:
        lo, hi = window.bounds[ax]
        out.append(lo + step * np.arange(int(round((hi - lo) / step)) + 1))
    return out


def plane_grid(window: ImagingWindow, normal_axis: int, offset: float, step: float):
    """Regular grid on a plane slice of the imaging window.

    ``normal_axis`` picks the fixed coordinate (2 for a cross-range slice at
    fixed x3, 1 or 0 for range slices); ``offset`` is its value.  Returns
    (points (npts, 3), shape, axes) with points in C order over the two free
    axes.
    """
    if normal_axis not in (0, 1, 2):
        raise ValueError("normal_axis must be 0, 1 or 2")
    free = [ax for ax in range(3) if ax != normal_axis]
    axes = _grid_axes(window, free, step)
    g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.empty(g0.shape + (3,))
    pts[..., free[0]] = g0
    pts[..., free[1]] = g1
    pts[..., normal_axis] = offset
    return pts.reshape(-1, 3), g0.shape, axes


# Full-volume grids above this size are refused; 2-d slices are the intended
# desk-scale workflow and a dense volume is easy to request by accident.
VOLUME_POINT_GUARD = 2_000_000


def volume_grid(window: ImagingWindow, step: float, max_points: int = VOLUME_POINT_GUARD):
    """Dense 3-d grid over the whole imaging window, behind a size guard."""
    axes = _grid_axes(window, range(3), step)
    total = axes[0].size * axes[1].size * axes[2].size
    if total > max_points:
        raise ValueError(
            f"volume grid of {total} points exceeds the guard ({max_points}); "
            "use plane slices or pass a larger max_points explicitly"
        )
    g0, g1, g2 = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g0, g1, g2], axis=-1)
    return pts.reshape(-1, 3), g0.shape, axes


def line_profile(center, axis: int, half_width: float, step: float) -> np.ndarray:
    """Points along a coordinate-axis segment through ``center``."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    center = np.asarray(center, dtype=float)
    # integer multiples of the step, so the middle point is exactly ``center``;
    # the tolerance keeps an integer half_width / step from rounding down
    n = int(np.floor(half_width / step * (1.0 + 1e-9)))
    offsets = step * np.arange(-n, n + 1)
    pts = np.tile(center, (offsets.size, 1))
    pts[:, axis] += offsets
    return pts
