"""Tensor ellipse glyphs: visualization data for recovered 2x2 tensors.

A real 2x2 matrix A is drawn as the ellipse {A v : |v| = 1} plus two arrows
sigma_1 v_1 and sigma_2 v_2 built from the right singular vectors.  For a
symmetric A the arrows coincide with the ellipse principal axes; the angular
deviation between them flags asymmetry.  Complex tensors are drawn as
separate real and imaginary glyph sets.  Output is a standalone SVG plus a
CSV that duplicates every plotted number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ImageField

# fraction of the field's peak norm above which a local maximum gets a glyph
DEFAULT_THRESHOLD = 0.5


@dataclass
class EllipseGlyph:
    """One ellipse-plus-arrows glyph in image coordinates."""

    center: np.ndarray  # (2,) placement in slice coordinates
    matrix: np.ndarray  # the 2x2 real matrix being drawn
    boundary: np.ndarray  # (nsamp, 2) samples of {A v : |v| = 1}, scaled
    arrows: np.ndarray  # (2, 2) rows: sigma_i v_i, scaled
    scale: float  # multiplier applied so the long axis has unit length
    part: str  # "re" or "im"

    @property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)


def ellipse_glyph(
    a, center=(0.0, 0.0), part: str = "re", n_samples: int = 72
) -> EllipseGlyph:
    """Build the glyph of a real 2x2 matrix, normalized to unit long axis."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("glyph matrices are 2x2")
    _, sv, vt = np.linalg.svd(a)
    scale = 1.0 / sv[0] if sv[0] > 0 else 1.0
    theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=True)
    circle = np.stack([np.cos(theta), np.sin(theta)])
    boundary = (scale * (a @ circle)).T
    arrows = scale * sv[:, None] * vt
    return EllipseGlyph(
        center=np.asarray(center, dtype=float),
        matrix=a,
        boundary=boundary,
        arrows=arrows,
        scale=scale,
        part=part,
    )


def axis_deviation(a) -> float:
    """Largest angle (radians) between the drawn arrows and the ellipse axes.

    Zero (up to rounding) exactly when the matrix is symmetric, since then the
    right singular vectors match the left ones up to sign.
    """
    a = np.asarray(a, dtype=float)
    u, sv, vt = np.linalg.svd(a)
    worst = 0.0
    for i in range(2):
        if sv[i] <= 1e-300:
            continue
        # the sine of the angle stays accurate near zero, unlike the cosine
        sinang = abs(float(u[0, i] * vt[i, 1] - u[1, i] * vt[i, 0]))
        worst = max(worst, float(np.arcsin(np.clip(sinang, 0.0, 1.0))))
    return worst


def _field_peaks(norms: np.ndarray, shape, threshold: float) -> list[int]:
    """Indices of grid-local maxima of the norm field above threshold*max."""
    grid = norms.reshape(shape)
    if grid.ndim != 2:
        raise ValueError("glyph placement expects a 2-d slice")
    keep = grid >= threshold * grid.max()
    best = np.ones_like(keep)
    padded = np.pad(grid, 1, constant_values=-np.inf)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            shifted = padded[1 + dx : 1 + dx + grid.shape[0], 1 + dy : 1 + dy + grid.shape[1]]
            best &= grid >= shifted
    flat = np.flatnonzero(keep & best)
    return sorted(flat.tolist(), key=lambda i: (-norms[i], i))


def _in_plane(field: ImageField) -> np.ndarray:
    """The points' coordinates on the slice's two in-plane axes (normal x3 if unset)."""
    normal = field.meta.get("normal_axis", 2)
    if normal not in (0, 1, 2):
        raise ValueError(f"normal_axis must be 0, 1 or 2, got {normal!r}")
    return field.points[:, [axis for axis in range(3) if axis != normal]]


def glyphs_for_field(field: ImageField, threshold: float) -> list[EllipseGlyph]:
    """Glyphs (real and imaginary parts) at the norm peaks of a 2x2 field."""
    if field.dim != 2:
        raise ValueError("glyphs need a 2x2 tensor field")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    norms = field.norms()
    if norms.size == 0 or norms.max() == 0:
        raise ValueError("empty field: nothing to draw")
    plane = _in_plane(field)
    out = []
    for idx in _field_peaks(norms, field.shape, threshold):
        center = plane[idx]
        value = field.values[idx]
        out.append(ellipse_glyph(np.real(value), center, part="re"))
        out.append(ellipse_glyph(np.imag(value), center, part="im"))
    return out


def write_glyph_csv(glyphs: list[EllipseGlyph], path) -> None:
    cols = (
        "index,part,center_1,center_2,a11,a12,a21,a22,sigma1,sigma2,scale,"
        "arrow1_1,arrow1_2,arrow2_1,arrow2_2"
    )
    lines = [cols]
    for i, g in enumerate(glyphs):
        sv = g.singular_values
        vals = [
            g.center[0], g.center[1],
            g.matrix[0, 0], g.matrix[0, 1], g.matrix[1, 0], g.matrix[1, 1],
            sv[0], sv[1], g.scale,
            g.arrows[0, 0], g.arrows[0, 1], g.arrows[1, 0], g.arrows[1, 1],
        ]
        lines.append(f"{i},{g.part}," + ",".join(repr(float(v)) for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_glyph_svg(glyphs: list[EllipseGlyph], path, glyph_size: float) -> None:
    """Standalone SVG with one ellipse polyline and two arrow lines per glyph."""
    if not glyphs:
        raise ValueError("empty glyph list")
    centers = np.stack([g.center for g in glyphs])
    lo = centers.min(axis=0) - 2 * glyph_size
    hi = centers.max(axis=0) + 2 * glyph_size
    span = np.maximum(hi - lo, 1e-12)
    size = 640.0

    def to_px(xy):
        u = (xy - lo) / span
        return u[0] * size, (1.0 - u[1]) * size

    style = {"re": ("#202020", "none"), "im": ("#b03060", "4 3")}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">'
    ]
    for g in glyphs:
        color, dash = style[g.part]
        pts = g.center[None, :] + glyph_size * g.boundary
        path_d = " ".join(
            f"{'M' if i == 0 else 'L'}{to_px(p)[0]:.2f},{to_px(p)[1]:.2f}"
            for i, p in enumerate(pts)
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        parts.append(
            f'<path d="{path_d}" fill="none" stroke="{color}" stroke-width="1.2"{dash_attr}/>'
        )
        for arrow in g.arrows:
            x0, y0 = to_px(g.center)
            x1, y1 = to_px(g.center + glyph_size * arrow)
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                f'stroke="{color}" stroke-width="1.2"{dash_attr}/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_glyphs(field: ImageField, threshold: float, svg_path, csv_path) -> list[EllipseGlyph]:
    """Write glyphs at field peaks to an SVG and a CSV; returns the glyphs."""
    glyphs = glyphs_for_field(field, threshold)
    plane = _in_plane(field)
    extent = float(np.ptp(plane[:, 0]) + np.ptp(plane[:, 1]))
    write_glyph_svg(glyphs, svg_path, max(extent / 40.0, 1e-6))
    write_glyph_csv(glyphs, csv_path)
    return glyphs
