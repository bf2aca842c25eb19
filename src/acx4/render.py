"""Deterministic text renderings: SVG vector plots, DOT digraphs, TikZ.

Byte output is a pure function of the input value: fixed canvas, fixed
float formatting, fixed iteration order.  An integer past the int/str digit
limit raises the DomainError the document emitters raise.
"""

from __future__ import annotations

import math

from .errors import digit_limit
from .multifan import MultiFanFamily
from .torusgraph import TorusGraph, normalized_components


def render_fan_svg(fam: MultiFanFamily) -> str:
    """One origin-anchored arrow per vector of every fan, plus an axis cross.

    The lattice is scaled so the largest coordinate sits a fixed margin
    inside a 480x480 canvas.  Each coordinate is divided by the span
    before it is scaled, int by int, which CPython rounds correctly, so
    coordinates beyond float range still render.
    """
    vectors = [v for fan in fam.fans for v in fan.vectors]
    span = max(max(abs(x), abs(y)) for x, y in vectors)
    size = 480
    margin = 48
    extent = size / 2 - margin
    half = size / 2

    def px(x):
        return f"{half + extent * (x / span):.2f}"

    def py(y):
        return f"{half - extent * (y / span):.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        "  <defs>",
        '    <marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto">',
        '      <path d="M0,0 L6,3 L0,6 z"/>',
        "    </marker>",
        "  </defs>",
        f'  <line class="axis" x1="0" y1="{py(0)}" x2="{size}" y2="{py(0)}" '
        'stroke="#bbbbbb"/>',
        f'  <line class="axis" x1="{px(0)}" y1="0" x2="{px(0)}" y2="{size}" '
        'stroke="#bbbbbb"/>',
    ]
    with digit_limit():
        for x, y in vectors:
            lines.append(
                f'  <line class="arrow" x1="{px(0)}" y1="{py(0)}" '
                f'x2="{px(x)}" y2="{py(y)}" stroke="#000000" '
                'marker-end="url(#tip)"/>')
            lines.append(
                f'  <text x="{px(x)}" y="{py(y)}" font-size="12">({x},{y})</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_graph_dot(g: TorusGraph) -> str:
    """Graphviz digraph with one labeled edge per stored edge."""
    lines = ["digraph torusgraph {"]
    lines.extend(f"  {_dot_quote(v)};" for v in g.vertices)
    with digit_limit():
        lines.extend(
            f"  {_dot_quote(e.src)} -> {_dot_quote(e.dst)} "
            f'[label="({e.label[0]},{e.label[1]})"];'
            for e in g.edges
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tex_text(s: str) -> str:
    for ch in "\\&%$#_{}":
        s = s.replace(ch, "\\" + ch)
    return s


def render_graph_tikz(g: TorusGraph) -> str:
    """TikZ picture: each component's vertices on a circle, labeled arrows."""
    name_of = {v: f"n{i}" for i, v in enumerate(g.vertices)}
    lines = [r"\begin{tikzpicture}[state/.style={circle, draw}]"]
    offset = 0.0
    for cycle in normalized_components(g):
        k = len(cycle)
        radius = max(1.5, 0.4 * k)
        cx = offset + radius
        for t, (_, oriented) in enumerate(cycle):
            angle = math.pi / 2 - 2 * math.pi * t / k
            x = cx + radius * math.cos(angle)
            y = radius * math.sin(angle)
            v = oriented.src
            lines.append(
                f"  \\node[state] ({name_of[v]}) at ({x:.3f}, {y:.3f}) "
                f"{{{_tex_text(v)}}};")
        offset = cx + radius + 1.5
    with digit_limit():
        lines.extend(
            f"  \\path ({name_of[e.src]}) [->] edge node "
            f"{{$({e.label[0]},{e.label[1]})$}} ({name_of[e.dst]});"
            for e in g.edges
        )
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"
