"""Static SVG rendering of fronts in objective space.

Dependency-free plotting: axes with fixed ticks, the reference front as a
polyline, attained points as circles, and dashed inverse-weight rays from
the origin.  Tasks with more than two objectives are projected onto their
first two loss axes.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_front"]

_SIZE = 640
_MARGIN = 60
_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Canvas:
    """Maps unit objective space to SVG pixels (y axis flipped)."""

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.span = hi - lo
        self.inner = _SIZE - 2 * _MARGIN

    def x(self, v: float) -> float:
        return _MARGIN + (v - self.lo) / self.span * self.inner

    def y(self, v: float) -> float:
        return _SIZE - _MARGIN - (v - self.lo) / self.span * self.inner


def render_front(
    points,
    truth=None,
    weight_rays=None,
    title: str = "",
) -> str:
    """Render an objective-space scatter as an SVG document string.

    Args:
      points: (k, m) attained objective vectors; first two axes are drawn.
      truth: Optional (r, m) reference front, drawn as a polyline.
      weight_rays: Optional weight vectors; each is drawn as the dashed ray
        through the origin with direction (1/w_1, 1/w_2).
      title: Optional title line.

    Returns:
      Complete SVG markup ending with a newline.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    hi = 1.0
    if pts.size:
        hi = max(hi, float(pts[:, :2].max()) * 1.05)
    if truth is not None:
        truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
        if truth.size:
            hi = max(hi, float(truth[:, :2].max()) * 1.05)
    cv = _Canvas(0.0, hi)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    parts.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_SIZE / 2:.1f}" y="30" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    axis_color = "#333333"
    x0, y0 = cv.x(0.0), cv.y(0.0)
    x1, y1 = cv.x(hi), cv.y(hi)
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" '
        f'stroke="{axis_color}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" '
        f'stroke="{axis_color}" stroke-width="1.5"/>'
    )
    for t in _TICKS:
        if t > hi:
            continue
        tx, ty = cv.x(t), cv.y(t)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{y0:.1f}" x2="{tx:.1f}" y2="{y0 + 6:.1f}" '
            f'stroke="{axis_color}"/>'
        )
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 22:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 6:.1f}" y1="{ty:.1f}" x2="{x0:.1f}" y2="{ty:.1f}" '
            f'stroke="{axis_color}"/>'
        )
        parts.append(
            f'<text x="{x0 - 10:.1f}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{y0 + 44:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">l_1</text>'
    )
    parts.append(
        f'<text x="{x0 - 40:.1f}" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 {x0 - 40:.1f} {(y0 + y1) / 2:.1f})">l_2</text>'
    )

    if weight_rays is not None:
        for w in weight_rays:
            w = np.asarray(w, dtype=np.float64)
            d = np.array([1.0 / max(w[0], 1e-12), 1.0 / max(w[1], 1e-12)])
            scale = hi / max(d.max(), 1e-12)
            end = d * scale
            parts.append(
                f'<line x1="{x0:.1f}" y1="{y0:.1f}" '
                f'x2="{cv.x(end[0]):.1f}" y2="{cv.y(end[1]):.1f}" '
                f'stroke="#999999" stroke-width="1" stroke-dasharray="5,4"/>'
            )

    if truth is not None and truth.size:
        order = np.argsort(truth[:, 0], kind="stable")
        coords = " ".join(
            f"{cv.x(p[0]):.1f},{cv.y(p[1]):.1f}" for p in truth[order]
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#bbbbbb" '
            f'stroke-width="2.5"/>'
        )

    for p in pts:
        parts.append(
            f'<circle cx="{cv.x(p[0]):.1f}" cy="{cv.y(p[1]):.1f}" r="4" '
            f'fill="#1f6fb2" fill-opacity="0.75" stroke="#12466f" stroke-width="0.8"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
