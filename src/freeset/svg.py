"""SVG rendering of verified drawings.

Coordinates are rendered at a fixed display precision, from the floats of
the grid's quotients (an int quotient rounds as the float of the Fraction
does); the text formats remain the exact source of truth.
"""

from __future__ import annotations

from math import isfinite

from .curves import AlongItem, CrossItem, CurveCertificate, VertexItem
from .errors import TooLarge, Unverified
from .realize import GridDrawing

_PRECISION = 4  # decimals per rendered coordinate
_SIZE = 640  # the longer side of the view box
_STYLE = ("fill:none;stroke:#334;stroke-width:{w}",
          "fill:#d33;stroke:none",
          "fill:none;stroke:#d33;stroke-width:{w};stroke-dasharray:{d}")


def export_svg(d: GridDrawing,
               certificate: CurveCertificate | None = None,
               highlight=()) -> str:
    """Render a verified drawing; optionally overlay the curve through its
    item anchor points and highlight the free-set vertices.  TooLarge when
    a float cannot hold a point of the drawing or its extent."""
    if not d.verified:
        raise Unverified("refusing to render an unverified drawing")
    dx, dy = d.dx, d.dy
    try:
        pos = [(x / dx, y / dy) for x, y in d.xy]
        bends = {e: [(x / dx, y / dy) for x, y in b]
                 for e, b in d.bend_xy.items()}
    except OverflowError:
        raise TooLarge("a coordinate is beyond the float range") from None

    xs, ys = zip(*pos, *(p for b in bends.values() for p in b))
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span
    if not isfinite(span + 2 * pad):
        raise TooLarge("the drawing's extent is beyond the float range")
    scale = _SIZE / (span + 2 * pad)
    r = max(2.5, 0.008 * _SIZE)

    def at(p):
        x = (p[0] - x0 + pad) * scale
        y = (y1 - p[1] + pad) * scale
        return f"{x:.{_PRECISION}f},{y:.{_PRECISION}f}"

    w = (x1 - x0 + 2 * pad) * scale
    h = (y1 - y0 + 2 * pad) * scale
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {w:.1f} {h:.1f}">']
    stroke = _STYLE[0].format(w=max(1.0, 0.003 * _SIZE))
    for e in sorted(d.graph.edges):
        u, v = e
        chain = [pos[u], *bends.get(e, ()), pos[v]]
        path = " ".join(at(p) for p in chain)
        out.append(f'<polyline points="{path}" style="{stroke}"/>')

    if certificate is not None:
        anchors = []
        for it in certificate.items:
            if isinstance(it, VertexItem):
                anchors.append(pos[it.v])
            elif isinstance(it, (CrossItem, AlongItem)):
                bend = bends.get(it.edge)
                if bend:
                    anchors.append(bend[0])
                else:
                    (ux, uy), (vx, vy) = (d.xy[u] for u in it.edge)
                    anchors.append(((ux + vx) / (2 * dx),
                                    (uy + vy) / (2 * dy)))
        path = " ".join(at(p) for p in anchors + anchors[:1])
        overlay = _STYLE[2].format(w=max(1.0, 0.002 * _SIZE), d="6,4")
        out.append(f'<polyline points="{path}" style="{overlay}"/>')

    hl = set(highlight)
    for v, p in enumerate(pos):
        fill = "#d33" if v in hl else "#334"
        cx, cy = at(p).split(",")
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{r:.1f}" '
                   f'fill="{fill}"/>')
        out.append(f'<text x="{cx}" y="{cy}" dx="{r + 1:.0f}" dy="-2" '
                   f'font-size="{max(8, _SIZE // 60)}">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
