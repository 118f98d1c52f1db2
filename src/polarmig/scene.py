"""Scene description: source, receiver array, imaging window, scatterers, band."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emcore import MAX_COORDINATE, as_vec3, source_basis
from .errors import ConfigError, NumericalError

#: Wave speed used by every preset (vacuum light speed, rounded as is
#: customary for microwave bench numbers).
DEFAULT_WAVE_SPEED = 3.0e8


def _symmetry_defect(a: np.ndarray) -> float:
    scale = max(np.abs(a).max(), 1e-300)
    return float(np.abs(a - a.T).max() / scale)


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer: position plus rescaled polarizability tensor.

    The 3x3 complex tensor is frequency independent and must be symmetric
    (alpha = alpha^T) to 1e-12 relative.
    """

    position: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        a = np.asarray(self.alpha, dtype=complex)
        if a.shape != (3, 3):
            raise ValueError(f"polarizability tensor must be 3x3, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("polarizability tensor has non-finite entries")
        if _symmetry_defect(a) > 1e-12:
            raise ValueError("polarizability tensor must be complex symmetric")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class SourceSpec:
    """Dipole source: position, reference point, and 2x2 source coherency.

    ``coherency`` is either a single 2x2 Hermitian matrix (broadcast over the
    band) or an (nfreq, 2, 2) table.  It must be Hermitian positive definite
    at every frequency so the preprocessing can invert it.
    """

    position: np.ndarray
    reference_point: np.ndarray
    coherency: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "reference_point", as_vec3(self.reference_point))
        j = np.asarray(self.coherency, dtype=complex)
        if j.shape != (2, 2) and not (j.ndim == 3 and j.shape[1:] == (2, 2)):
            raise ValueError("source coherency must be 2x2 or (nfreq, 2, 2)")
        if not np.isfinite(j).all():
            raise ValueError("source coherency must be finite")
        table = j.reshape(-1, 2, 2)
        herm = np.abs(table - np.conj(np.swapaxes(table, -1, -2))).max()
        if herm > 1e-10 * max(np.abs(table).max(), 1e-300):
            raise ValueError("source coherency must be Hermitian")
        eigs = np.linalg.eigvalsh(table)
        if np.any(eigs[:, 0] <= 0):
            raise NumericalError("source coherency must be positive definite")
        object.__setattr__(self, "coherency", j)

    def basis(self) -> np.ndarray:
        """3x2 orthonormal basis of the plane normal to reference_point - position."""
        return source_basis(self.position, self.reference_point)

    def coherency_table(self, nfreq: int) -> np.ndarray:
        """Per-frequency (nfreq, 2, 2) coherency, broadcasting a constant."""
        j = self.coherency
        if j.ndim == 2:
            return np.broadcast_to(j, (nfreq, 2, 2))
        if j.shape[0] != nfreq:
            raise ValueError(f"coherency table has {j.shape[0]} rows, need {nfreq}")
        return j


@dataclass(frozen=True)
class ArrayGeom:
    """Square receiver array in the x3 = 0 plane, centered at the origin.

    ``n1 x n2`` receivers span side ``side`` including both endpoints, so the
    spacing is ``side / (n - 1)`` per axis.
    """

    side: float
    n1: int
    n2: int

    def __post_init__(self):
        if not 0 < self.side < np.inf:
            raise ValueError("array side must be positive and finite")
        if self.side > MAX_COORDINATE:
            raise ValueError(f"array side is beyond {MAX_COORDINATE:.0e} m")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("need at least 2 receivers per axis")

    @property
    def spacing(self) -> tuple[float, float]:
        return self.side / (self.n1 - 1), self.side / (self.n2 - 1)

    @property
    def cell_area(self) -> float:
        """Riemann quadrature weight for integrals over the array."""
        d1, d2 = self.spacing
        return d1 * d2

    @property
    def area(self) -> float:
        return self.side * self.side

    def positions(self) -> np.ndarray:
        """(n1, n2, 3) receiver positions; x3 is exactly zero."""
        u = np.linspace(-self.side / 2, self.side / 2, self.n1)
        v = np.linspace(-self.side / 2, self.side / 2, self.n2)
        x1, x2 = np.meshgrid(u, v, indexing="ij")
        return np.stack([x1, x2, np.zeros_like(x1)], axis=-1)

    def flat_positions(self) -> np.ndarray:
        return self.positions().reshape(-1, 3)

    def corners(self) -> np.ndarray:
        s = self.side / 2
        return np.array(
            [[-s, -s, 0.0], [-s, s, 0.0], [s, -s, 0.0], [s, s, 0.0]]
        )


@dataclass(frozen=True)
class ImagingWindow:
    """Box of cross-range extent b and range extent h centered at y0."""

    center: np.ndarray
    cross_range: float
    range_extent: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not (0 < self.cross_range < np.inf and 0 < self.range_extent < np.inf):
            raise ValueError("window extents must be positive and finite")

    @property
    def bounds(self) -> np.ndarray:
        """(3, 2) per-axis [low, high]."""
        half = np.array(
            [self.cross_range / 2, self.cross_range / 2, self.range_extent / 2]
        )
        return np.stack([self.center - half, self.center + half], axis=1)

    def contains(self, points) -> np.ndarray:
        p = as_vec3(points)
        b = self.bounds
        tol = 1e-9 * max(self.cross_range, self.range_extent)
        return np.all((p >= b[:, 0] - tol) & (p <= b[:, 1] + tol), axis=-1)


@dataclass(frozen=True)
class FrequencyBand:
    """Uniform angular-frequency grid on [center - width/2, center + width/2]."""

    center: float
    width: float
    count: int

    def __post_init__(self):
        if not (0 < self.center < np.inf and 0 <= self.width < np.inf):
            raise ValueError("band center must be positive and width nonnegative, both finite")
        if self.center - self.width / 2 <= 0:
            raise ValueError("band must stay at positive frequencies")
        if self.count < 1 or (self.count == 1 and self.width != 0):
            raise ValueError("a band of nonzero width needs at least 2 samples")

    def omegas(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.center])
        return np.linspace(
            self.center - self.width / 2, self.center + self.width / 2, self.count
        )

    def wavenumbers(self, wave_speed: float) -> np.ndarray:
        return self.omegas() / wave_speed

    @staticmethod
    def from_omegas(omegas) -> "FrequencyBand":
        """Band whose grid is the given uniform angular-frequency samples."""
        w = np.asarray(omegas, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("need a 1-d grid of at least 2 frequencies")
        steps = np.diff(w)
        if np.any(steps <= 0) or np.abs(steps - steps[0]).max() > 1e-9 * steps[0]:
            raise ValueError("frequency grid must be uniform and increasing")
        return FrequencyBand(
            center=float((w[0] + w[-1]) / 2), width=float(w[-1] - w[0]), count=w.size
        )


@dataclass(frozen=True)
class Scene:
    """Everything the forward model needs: source, array, window, scatterers."""

    source: SourceSpec
    geom: ArrayGeom
    window: ImagingWindow
    scatterers: tuple[Scatterer, ...]
    wave_speed: float = DEFAULT_WAVE_SPEED

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not 0 < self.wave_speed < np.inf:
            raise ValueError("wave speed must be positive and finite")
        for s in self.scatterers:
            if not bool(self.window.contains(s.position)):
                raise ConfigError(
                    f"scatterer at {s.position} lies outside the imaging window"
                )

    def wavenumber(self, omega: float) -> float:
        return omega / self.wave_speed

    def scatterer_positions(self) -> np.ndarray:
        if not self.scatterers:
            return np.zeros((0, 3))
        return np.stack([s.position for s in self.scatterers])

    def scatterer_tensors(self) -> np.ndarray:
        if not self.scatterers:
            return np.zeros((0, 3, 3), dtype=complex)
        return np.stack([s.alpha for s in self.scatterers])


def build_cube_scene(center, side, spacing, alpha0) -> list[Scatterer]:
    """Regular dipole lattice filling a cube, every dipole with tensor alpha0.

    The lattice has ``floor(side / spacing) + 1`` nodes per axis including
    both faces, so ``side == spacing`` yields the 8 cell corners.
    """
    center = as_vec3(center)
    if spacing <= 0:
        raise ValueError("lattice spacing must be positive")
    if side < spacing:
        raise ValueError("cube side must be at least the lattice spacing")
    n = int(np.floor(side / spacing + 1e-9)) + 1
    offsets = (np.arange(n) - (n - 1) / 2) * spacing
    g1, g2, g3 = np.meshgrid(offsets, offsets, offsets, indexing="ij")
    points = center + np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
    return [Scatterer(p, alpha0) for p in points]
