"""SVG rendering of verified drawings.

Coordinates are rendered at a fixed display precision; the text formats
remain the exact source of truth.
"""

from __future__ import annotations

from .curves import AlongItem, CrossItem, CurveCertificate, VertexItem
from .errors import Unverified
from .realize import GridDrawing, PolyDrawing

_PRECISION = 4  # decimals per rendered coordinate
_SIZE = 640  # the longer side of the view box
_STYLE = ("fill:none;stroke:#334;stroke-width:{w}",
          "fill:#d33;stroke:none",
          "fill:none;stroke:#d33;stroke-width:{w};stroke-dasharray:{d}")


def export_svg(d: PolyDrawing | GridDrawing,
               certificate: CurveCertificate | None = None,
               highlight=()) -> str:
    """Render a verified drawing; optionally overlay the curve through its
    item anchor points and highlight the free-set vertices."""
    if not d.verified:
        raise Unverified("refusing to render an unverified drawing")
    if isinstance(d, GridDrawing):
        d = d.drawing()

    pts = list(d.pos.values()) + [p for b in d.bends.values() for p in b]
    xs = [float(x) for x, _ in pts]
    ys = [float(y) for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span
    scale = _SIZE / (span + 2 * pad)
    r = max(2.5, 0.008 * _SIZE)

    def at(p):
        x = (float(p[0]) - x0 + pad) * scale
        y = (y1 - float(p[1]) + pad) * scale
        return f"{x:.{_PRECISION}f},{y:.{_PRECISION}f}"

    w = (x1 - x0 + 2 * pad) * scale
    h = (y1 - y0 + 2 * pad) * scale
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {w:.1f} {h:.1f}">']
    stroke = _STYLE[0].format(w=max(1.0, 0.003 * _SIZE))
    for e in sorted(d.graph.edges):
        u, v = e
        chain = [d.pos[u], *d.bends.get(e, ()), d.pos[v]]
        path = " ".join(at(p) for p in chain)
        out.append(f'<polyline points="{path}" style="{stroke}"/>')

    if certificate is not None:
        anchors = []
        for it in certificate.items:
            if isinstance(it, VertexItem):
                anchors.append(d.pos[it.v])
            elif isinstance(it, (CrossItem, AlongItem)):
                bend = d.bends.get(it.edge)
                if bend:
                    anchors.append(bend[0])
                else:
                    u, v = it.edge
                    anchors.append(((d.pos[u][0] + d.pos[v][0]) / 2,
                                    (d.pos[u][1] + d.pos[v][1]) / 2))
        path = " ".join(at(p) for p in anchors + anchors[:1])
        overlay = _STYLE[2].format(w=max(1.0, 0.002 * _SIZE), d="6,4")
        out.append(f'<polyline points="{path}" style="{overlay}"/>')

    hl = set(highlight)
    for v in sorted(d.pos):
        fill = "#d33" if v in hl else "#334"
        cx, cy = at(d.pos[v]).split(",")
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{r:.1f}" '
                   f'fill="{fill}"/>')
        out.append(f'<text x="{cx}" y="{cy}" dx="{r + 1:.0f}" dy="-2" '
                   f'font-size="{max(8, _SIZE // 60)}">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
