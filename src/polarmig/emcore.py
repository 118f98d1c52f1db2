"""Shared electromagnetic math kernel: Green functions, projectors, bases.

Conventions
-----------
Time dependence is ``exp(-i w t)``: a frequency-domain field ``F(w)`` maps to
the time domain through ``integral dw F(w) exp(-i w t)``.  Under this
convention an outgoing spherical wave reads ``exp(+i k r) / (4 pi r)`` and
every conjugation in this package follows from it.  Mixing conventions flips
conjugations, so all modules import theirs from here.

Positions are real 3-vectors in meters, wavenumbers in rad/m.  Point arguments
accept leading batch dimensions and broadcast like numpy; matrix results carry
the two trailing axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, DegenerateGeometryError

# Points closer than this (relative to the larger coordinate magnitude) are
# treated as coincident; guards the 1/r singularity.
COINCIDENT_RTOL = 1e-12

# Cross-range basis [e1, e2] of the receiver plane, as a 3x2 matrix.
CROSS_RANGE_BASIS = np.eye(3)[:, :2].copy()
CROSS_RANGE_BASIS.setflags(write=False)

# Seed switch threshold for the deterministic transverse-basis construction.
_BASIS_SEED_SWITCH = 0.9


def as_vec3(x) -> np.ndarray:
    """Coerce to a float array whose trailing axis has length 3."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected trailing axis of length 3, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("position has non-finite components")
    return v


def _separation(x, y):
    """Return (x - y, |x - y|), raising if any pair is coincident."""
    x = as_vec3(x)
    y = as_vec3(y)
    rvec = x - y
    r = np.asarray(np.linalg.norm(rvec, axis=-1))
    scale = np.maximum(
        1.0,
        np.maximum(np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)),
    )
    if np.any(r <= COINCIDENT_RTOL * scale):
        raise CoincidentPointsError("points are numerically coincident")
    return rvec, r


def scalar_green(x, y, k):
    """Scalar Helmholtz Green function exp(i k r) / (4 pi r)."""
    if np.any(np.asarray(k) <= 0):
        raise ValueError("wavenumber must be positive")
    _, r = _separation(x, y)
    return np.exp(1j * k * r) / (4.0 * np.pi * r)


def dyadic_green(x, y, k):
    """Dyadic Green function of the homogeneous background.

    Returns the complex symmetric 3x3 matrix
    ``g(r) [ (1 + m) I - (1 + 3 m) rhat rhat^T ]`` with
    ``m = (i k r - 1) / (k r)^2`` and ``g`` the scalar Green function.
    Broadcasts over leading axes of ``x`` and ``y``; ``k`` may broadcast too.
    """
    if np.any(np.asarray(k) <= 0):
        raise ValueError("wavenumber must be positive")
    rvec, r = _separation(x, y)
    squeeze = r.ndim == 0
    if squeeze:
        rvec, r = rvec[None, :], r[None]
    kr = np.asarray(k) * r
    g = np.exp(1j * kr) / (4.0 * np.pi * r)
    m = (1j * kr - 1.0) / kr**2
    rhat = rvec / r[..., None]
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    out = g[..., None, None] * (
        (1.0 + m)[..., None, None] * eye - (1.0 + 3.0 * m)[..., None, None] * outer
    )
    return out[0] if squeeze else out


def _conj_factors(conj_g, u):
    """(conj A, conj B) of ``G = A I + B rhat rhat^T`` from ``conj(g)`` and ``u = 1 / (k r)``.

    ``A = g (1 + m)``, ``B = -g (1 + 3 m)``, ``g = exp(i k r) / (4 pi r)``, ``m = i u - u^2``.
    """
    u2 = u * u
    return conj_g * ((1.0 - u2) - 1j * u), conj_g * ((3.0 * u2 - 1.0) + 3j * u)


def _band_walk(r, ks, amp):
    """``(u, conj(g))`` per wavenumber: ``u = 1 / (k r)``, ``conj(g) = amp exp(-i k r)``.

    ``conj(g)`` steps by the band's mean spacing, which keeps its drift near
    rounding.  Raises ValueError unless the wavenumbers are positive, finite
    and evenly spaced to 1e-9 of the step, as ``FrequencyBand`` asks.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or not np.all((ks > 0) & (ks < np.inf)):
        raise ValueError("wavenumbers must be positive and finite")
    step = (ks[-1] - ks[0]) / (ks.size - 1) if ks.size > 1 else 0.0
    if np.any(np.abs(ks - ks[:1] - step * np.arange(ks.size)) > 1e-9 * abs(step)):
        raise ValueError("wavenumbers must be evenly spaced")
    phase = np.exp(-1j * step * r) if step else 1.0
    for i, k in enumerate(ks):
        conj_g = conj_g * phase if i else amp * np.exp(-1j * k * r)
        yield 1.0 / (k * r), conj_g


def green_band(x, y, ks):
    """Yield :func:`dyadic_green` ``G(x, y; k)`` to rounding for each wavenumber of a uniform band.

    Geometry and coincidence are checked once, when iteration starts; then each
    wavenumber costs one phase step and the ``1/(kr)`` polynomial.
    """
    rvec, r = _separation(x, y)
    rhat = rvec / r[..., None]
    outer = rhat[..., :, None] * rhat[..., None, :]
    for u, conj_g in _band_walk(r, ks, 1.0 / (4.0 * np.pi * r)):
        a, b = (np.conj(f)[..., None, None] for f in _conj_factors(conj_g, u))
        yield a * np.eye(3) + b * outer


def projector(x, y):
    """Orthogonal projector onto the plane normal to x - y.

    Symmetric, idempotent, rank 2: ``I - (x-y)(x-y)^T / |x-y|^2``.
    """
    rvec, r = _separation(x, y)
    squeeze = r.ndim == 0
    if squeeze:
        rvec, r = rvec[None, :], r[None]
    rhat = rvec / r[..., None]
    out = np.eye(3) - rhat[..., :, None] * rhat[..., None, :]
    return out[0] if squeeze else out


def project(m, u_s) -> np.ndarray:
    """``U_par^T m u_s`` of 3x3 matrices: the first two rows of ``m u_s``, as one BLAS product."""
    return np.einsum("...ij,jq->...iq", m, u_s, optimize=True)[..., :2, :]


def embed(m2, u_s) -> np.ndarray:
    """Lift of 2x2 matrices to 3x3, ``U_par m2 u_s^H``; inverse of :func:`project`."""
    out = np.zeros(m2.shape[:-2] + (3, 3), dtype=np.result_type(m2, u_s))
    out[..., :2, :] = np.einsum("...pq,jq->...pj", m2, np.conj(u_s), optimize=True)
    return out


def source_basis(x_s, y0) -> np.ndarray:
    """Deterministic orthonormal basis of the plane normal to y0 - x_s.

    Construction: with ``rhat = (y0 - x_s)/|y0 - x_s|``, seed with e3 unless
    ``|rhat . e3| >= 0.9`` (then e1), Gram-Schmidt the seed against ``rhat``
    to get the first column, and complete with ``rhat x u1``.  Any fixed rule
    works; recovered tensors are reported in this basis.
    """
    rvec, r = _separation(as_vec3(y0), as_vec3(x_s))
    if rvec.ndim != 1:
        raise ValueError("source_basis takes single points, not batches")
    rhat = rvec / r
    e3 = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0, 0.0])
    seed = e3 if abs(rhat @ e3) < _BASIS_SEED_SWITCH else e1
    u1 = seed - (seed @ rhat) * rhat
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(rhat, u1)
    return np.stack([u1, u2], axis=1)


@dataclass(frozen=True)
class StokesVec:
    """Stokes parameters (I, Q, U, V) of a transverse field.

    Construction warns (does not raise) when the physicality bound
    ``I^2 >= Q^2 + U^2 + V^2`` or ``I >= 0`` is violated, since measured or
    noisy data may trespass slightly.
    """

    i: float
    q: float
    u: float
    v: float

    def __post_init__(self):
        vals = (self.i, self.q, self.u, self.v)
        if not all(np.isfinite(vals)):
            raise ValueError("Stokes parameters must be finite")
        if self.i < 0 or self.i**2 < self.q**2 + self.u**2 + self.v**2 - 1e-12 * max(
            1.0, self.i**2
        ):
            warnings.warn(
                "unphysical Stokes vector: I^2 < Q^2 + U^2 + V^2 or I < 0",
                stacklevel=2,
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.i, self.q, self.u, self.v])


def coherency_from_stokes(s) -> np.ndarray:
    """2x2 Hermitian coherency matrix of a Stokes vector.

    ``Psi = 0.5 [[I+Q, U+iV], [U-iV, I-Q]]``.
    """
    if isinstance(s, StokesVec):
        i, q, u, v = s.i, s.q, s.u, s.v
    else:
        i, q, u, v = np.asarray(s, dtype=float)
    return 0.5 * np.array([[i + q, u + 1j * v], [u - 1j * v, i - q]])


def stokes_from_coherency(psi, hermitian_rtol: float = 1e-10) -> StokesVec:
    """Stokes parameters of a 2x2 Hermitian coherency matrix."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {psi.shape}")
    scale = max(1e-300, float(np.abs(psi).max()))
    if np.abs(psi - psi.conj().T).max() > hermitian_rtol * scale:
        raise ValueError("coherency matrix is not Hermitian")
    i = float(np.real(psi[0, 0] + psi[1, 1]))
    q = float(np.real(psi[0, 0] - psi[1, 1]))
    u = float(2.0 * np.real(psi[0, 1]))
    v = float(2.0 * np.imag(psi[0, 1]))
    return StokesVec(i, q, u, v)


def _triangle_or_raise(x_r, x_s, y0):
    x_r, x_s, y0 = as_vec3(x_r), as_vec3(x_s), as_vec3(y0)
    _separation(x_r, x_s)
    _separation(x_r, y0)
    _separation(x_s, y0)
    area2 = np.linalg.norm(np.cross(x_s - x_r, y0 - x_r))
    scale = max(np.linalg.norm(x_s - x_r), np.linalg.norm(y0 - x_r))
    if area2 <= 1e-12 * scale**2:
        raise DegenerateGeometryError("receiver, source and reference point are collinear")
    return x_r, x_s, y0


def projected_green_condition(x_r, x_s, y0) -> float:
    """Condition number of the rank-2 projector product P(x_r,y0) P(x_s,x_r) P(y0,x_s).

    Computed as the ratio of the two nonzero singular values; analytically it
    equals ``1 / |cos(theta_r) cos(theta_s)|`` with the triangle angles at
    x_r and x_s.  Raises for a degenerate (collinear) triangle.
    """
    x_r, x_s, y0 = _triangle_or_raise(x_r, x_s, y0)
    prod = projector(x_r, y0) @ projector(x_s, x_r) @ projector(y0, x_s)
    sv = np.linalg.svd(prod, compute_uv=False)
    if sv[1] <= 1e-15 * sv[0]:
        raise DegenerateGeometryError("projector product lost rank 2")
    return float(sv[0] / sv[1])
