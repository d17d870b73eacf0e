# -*- coding: utf-8 -*-
"""Deterministic TikZ and SVG rendering of diagrams.

Word boxes sit at their emission row in word order, wires descend as vertical
lines, cups and caps are semicircles, swaps are drawn as crossings (the only
place wire lines intersect).  Output is byte-stable for golden tests: no
timestamps, fixed float formatting, fixed element order.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import Cap, Cup, Diagram, Swap, WordBox

HS = 40.0  # horizontal pitch per column
VS = 30.0  # vertical pitch per layer
BOX_H = 16.0
PAD = 30.0


class Layout:
    """Shared geometry: boxes, wire segments, arcs and crossings.

    Both renderers draw from it, so a caller that draws one diagram in both
    formats lays it out once and passes the layout to each.
    """

    def __init__(self, d: Diagram):
        self.boxes: list[tuple[float, float, float, float, str]] = []  # x1,x2,y,t,label
        self.wires: list[tuple[float, float, float]] = []              # x, y1, y2
        self.cups: list[tuple[float, float, float]] = []               # x1, x2, y
        self.caps: list[tuple[float, float, float]] = []
        self.crossings: list[tuple[float, float, float, float]] = []   # x1,y1,x2,y2 per line
        self._build(d)

    def _build(self, d: Diagram):
        # boundary entries: [column, segment-start-y]; columns are exact,
        # ints until a wire is placed between two others
        cols: list[int | Fraction] = list(range(len(d.dom)))
        starts: list[float] = [0.0] * len(d.dom)
        self.height = VS * (len(d.layers) + 1)

        def fresh_columns(o: int, k: int) -> list[int | Fraction]:
            if k == 0:
                return []
            left = cols[o - 1] if o > 0 else None
            right = cols[o] if o < len(cols) else None
            if left is None and right is None:
                return list(range(k))
            if left is None:
                return [right - k + j for j in range(k)]
            if right is None:
                return [left + 1 + j for j in range(k)]
            step = Fraction(right - left, k + 1)
            return [left + step * (j + 1) for j in range(k)]

        def end_wire(idx: int, y: float):
            if y > starts[idx]:
                self.wires.append((float(cols[idx] * HS), starts[idx], y))

        for i, (o, gen) in enumerate(d.layers):
            y = VS * (i + 1)
            if isinstance(gen, WordBox):
                new = fresh_columns(o, len(gen.cod))
                if new:
                    x1, x2 = float(min(new)) * HS, float(max(new)) * HS
                else:
                    x1 = x2 = float(cols[o - 1] * HS if o > 0 else 0)
                self.boxes.append((x1 - HS * 0.3, x2 + HS * 0.3, y, BOX_H, gen.label))
                cols[o:o] = new
                starts[o:o] = [y + BOX_H / 2] * len(new)
            elif isinstance(gen, Cup):
                end_wire(o, y)
                end_wire(o + 1, y)
                self.cups.append((float(cols[o] * HS), float(cols[o + 1] * HS), y))
                del cols[o:o + 2]
                del starts[o:o + 2]
            elif isinstance(gen, Cap):
                new = fresh_columns(o, 2)
                self.caps.append((float(new[0] * HS), float(new[1] * HS), y))
                cols[o:o] = new
                starts[o:o] = [y, y]
            elif isinstance(gen, Swap):
                end_wire(o, y)
                end_wire(o + 1, y)
                c1, c2 = cols[o], cols[o + 1]
                y2 = y + VS / 2
                self.crossings.append((float(c1 * HS), y, float(c2 * HS), y2))
                self.crossings.append((float(c2 * HS), y, float(c1 * HS), y2))
                # positions keep their columns; the crossing lines show the exchange
                starts[o] = starts[o + 1] = y2
        for idx in range(len(cols)):
            end_wire(idx, self.height)
        all_x = [w[0] for w in self.wires] + [b[0] for b in self.boxes] \
            + [b[1] for b in self.boxes] + [c[0] for c in self.cups] \
            + [c[1] for c in self.cups] + [c[0] for c in self.caps] \
            + [c[1] for c in self.caps] \
            + [c[0] for c in self.crossings] + [c[2] for c in self.crossings]
        self.min_x = min(all_x) if all_x else 0.0
        self.max_x = max(all_x) if all_x else 0.0


def render_svg(d: Diagram | Layout) -> bytes:
    """Self-contained SVG; crossing lines carry class="swap"."""
    lay = d if isinstance(d, Layout) else Layout(d)
    ox = PAD - lay.min_x
    width = lay.max_x - lay.min_x + 2 * PAD
    height = lay.height + 2 * PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    for x, y1, y2 in lay.wires:
        out.append(
            f'<line class="wire" x1="{x + ox:.1f}" y1="{y1 + PAD:.1f}" '
            f'x2="{x + ox:.1f}" y2="{y2 + PAD:.1f}" stroke="black"/>')
    for x1, y1, x2, y2 in lay.crossings:
        out.append(
            f'<line class="swap" x1="{x1 + ox:.1f}" y1="{y1 + PAD:.1f}" '
            f'x2="{x2 + ox:.1f}" y2="{y2 + PAD:.1f}" stroke="black"/>')
    for x1, x2, y in lay.cups:
        r = (x2 - x1) / 2
        out.append(
            f'<path class="cup" d="M {x1 + ox:.1f} {y + PAD:.1f} '
            f'A {r:.1f} {r:.1f} 0 0 0 {x2 + ox:.1f} {y + PAD:.1f}" '
            f'fill="none" stroke="black"/>')
    for x1, x2, y in lay.caps:
        r = (x2 - x1) / 2
        out.append(
            f'<path class="cap" d="M {x1 + ox:.1f} {y + PAD:.1f} '
            f'A {r:.1f} {r:.1f} 0 0 1 {x2 + ox:.1f} {y + PAD:.1f}" '
            f'fill="none" stroke="black"/>')
    for x1, x2, y, h, label in lay.boxes:
        out.append(
            f'<rect class="word" x="{x1 + ox:.1f}" y="{y - h / 2 + PAD:.1f}" '
            f'width="{x2 - x1:.1f}" height="{h:.1f}" fill="white" stroke="black"/>')
        cx = (x1 + x2) / 2
        out.append(
            f'<text x="{cx + ox:.1f}" y="{y + 4 + PAD:.1f}" font-size="11" '
            f'text-anchor="middle">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out).encode("utf-8")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_tikz(d: Diagram | Layout) -> str:
    """TikZ code targeting the plain preamble documented in the README
    (no libraries beyond core \\draw and \\node)."""
    lay = d if isinstance(d, Layout) else Layout(d)
    s = 0.02  # scale points to TikZ units
    out = ["\\begin{tikzpicture}"]
    for x, y1, y2 in lay.wires:
        out.append(f"\\draw ({x * s:.1f},{-y1 * s:.1f}) -- ({x * s:.1f},{-y2 * s:.1f});")
    for x1, y1, x2, y2 in lay.crossings:
        out.append(f"\\draw ({x1 * s:.1f},{-y1 * s:.1f}) -- ({x2 * s:.1f},{-y2 * s:.1f});")
    for x1, x2, y in lay.cups:
        r = (x2 - x1) / 2 * s
        out.append(f"\\draw ({x1 * s:.1f},{-y * s:.1f}) arc (180:360:{r:.1f});")
    for x1, x2, y in lay.caps:
        r = (x2 - x1) / 2 * s
        out.append(f"\\draw ({x1 * s:.1f},{-y * s:.1f}) arc (180:0:{r:.1f});")
    for x1, x2, y, h, label in lay.boxes:
        out.append(
            f"\\draw ({x1 * s:.1f},{(-y + h / 2) * s:.1f}) rectangle "
            f"({x2 * s:.1f},{(-y - h / 2) * s:.1f});")
        cx = (x1 + x2) / 2
        out.append(
            f"\\node at ({cx * s:.1f},{-y * s:.1f}) {{\\small {_tex_escape(label)}}};")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


# LaTeX's special characters, translated in one pass so that no replacement
# is escaped again.
_TEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#",
    "_": r"\_", "{": r"\{", "}": r"\}", "^": r"\textasciicircum{}",
    "~": r"\textasciitilde{}",
})


def _tex_escape(text: str) -> str:
    return text.translate(_TEX_ESCAPES)
