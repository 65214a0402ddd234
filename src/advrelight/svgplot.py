"""Hand-rolled SVG output for ROC curves and hexagonal histograms.

Plain text SVG keeps plot output deterministic byte-for-byte and avoids a
plotting dependency for two simple chart types.
"""

from __future__ import annotations

import math

_MARGIN = 50.0
_PLOT = 400.0


def _write(path, title: str, body: list[str], footer: str = "") -> None:
    """Write a square page: plot frame, ``body``, ``title`` above the frame, ``footer`` below."""
    size = _PLOT + 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>\n',
        f'<rect x="{_MARGIN:.1f}" y="{_MARGIN:.1f}" width="{_PLOT:.1f}" '
        f'height="{_PLOT:.1f}" fill="none" stroke="black"/>\n',
        *body,
        f'<text x="{size / 2:.1f}" y="{_MARGIN - 14:.1f}" font-size="14" '
        f'text-anchor="middle">{title}</text>\n',
    ]
    if footer:
        parts.append(f'<text x="{size / 2:.1f}" y="{size - 8:.1f}" font-size="12" '
                     f'text-anchor="middle">{footer}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def write_roc_svg(path, curves) -> None:
    """Plot (label, points) ROC curves, points an (n, 2) array, on the unit square."""
    parts = []
    x0, y0 = _MARGIN, _MARGIN + _PLOT  # plot origin, y grows upward

    def px(fpr: float) -> float:
        return x0 + fpr * _PLOT

    def py(tpr: float) -> float:
        return y0 - tpr * _PLOT

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{y0 + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{tick:g}</text>\n'
        )
        parts.append(
            f'<text x="{x0 - 6:.1f}" y="{py(tick) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{tick:g}</text>\n'
        )
    parts.append(
        f'<line x1="{px(0):.1f}" y1="{py(0):.1f}" x2="{px(1):.1f}" y2="{py(1):.1f}" '
        'stroke="#bbbbbb" stroke-dasharray="5,5"/>\n'
    )
    colors = ["#1b6ca8", "#c23b22", "#2e8540", "#8a2be2", "#c77d02", "#444444"]
    for i, (label, points) in enumerate(curves):
        color = colors[i % len(colors)]
        coords = [(px(0.0), py(0.0))]
        coords += [(px(f), py(t)) for f, t in points.tolist()]
        coords.append((px(1.0), py(1.0)))
        path_data = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(
            f'<polyline points="{path_data}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>\n'
        )
        parts.append(
            f'<text x="{x0 + 10:.1f}" y="{_MARGIN + 16 + 14 * i:.1f}" font-size="12" '
            f'fill="{color}">{label}</text>\n'
        )
    _write(path, "ROC", parts, footer="false positive rate")


def write_hexhist_svg(path, hist) -> None:
    """Draw hexagon cells shaded by count over the lighting-map square."""
    scale = _PLOT / hist.resolution
    center = _MARGIN + _PLOT / 2.0
    radius = _PLOT / 2.0
    parts = [
        f'<circle cx="{center:.1f}" cy="{center:.1f}" r="{radius:.1f}" '
        'fill="none" stroke="#bbbbbb"/>\n'
    ]
    peak = max(int(hist.counts.max()), 1) if hist.counts.size else 1
    for (cx, cy), count in zip(hist.centers, hist.counts):
        level = int(count) / peak
        shade = int(round(235 - 190 * level))
        corners = []
        for k in range(6):
            angle = math.pi / 180.0 * (60 * k - 30)  # pointy-top
            hx = (cx + hist.cell_size * math.cos(angle)) * scale + _MARGIN
            hy = (cy + hist.cell_size * math.sin(angle)) * scale + _MARGIN
            corners.append(f"{hx:.2f},{hy:.2f}")
        parts.append(
            f'<polygon points="{" ".join(corners)}" '
            f'fill="rgb({shade},{shade},255)" stroke="#666666" stroke-width="0.5">'
            f'<title>{int(count)}</title></polygon>\n'
        )
    _write(path, "sensitive lighting positions", parts)
