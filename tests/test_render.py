import re

from discoccg.diagram import Diagram, EMPTY
from discoccg.render import Layout, render_svg, render_tikz
from discoccg.rewrite import planarize


def test_rendering_deterministic(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        assert render_svg(d) == render_svg(d), ident
        assert render_tikz(d) == render_tikz(d), ident


def test_one_layout_draws_both_formats(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        for diagram in (d, planarize(d)):
            layout = Layout(diagram)
            assert render_tikz(layout) == render_tikz(diagram), ident
            assert render_svg(layout) == render_svg(diagram), ident


def test_empty_diagram():
    empty = Diagram(EMPTY, EMPTY, ())
    assert render_tikz(empty) == "\\begin{tikzpicture}\n\\end{tikzpicture}\n"
    svg = render_svg(empty).decode()
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_alice_tikz_topology(corpus_diagrams):
    tikz = render_tikz(corpus_diagrams["alice-likes-bob"])
    #three word boxes, two cup arcs, no crossings
    assert tikz.count("rectangle") == 3
    assert tikz.count("arc (180:360:") == 2
    assert "Alice" in tikz and "likes" in tikz and "Bob" in tikz


def test_alice_svg_golden_counts(corpus_diagrams):
    svg = render_svg(corpus_diagrams["alice-likes-bob"]).decode()
    assert svg.count('class="word"') == 3
    assert svg.count('class="cup"') == 2
    assert svg.count('class="swap"') == 0


_LINE = re.compile(
    r'<line[^>]*x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"')


def _segments(svg: bytes):
    return [tuple(float(v) for v in m.groups())
            for m in _LINE.finditer(svg.decode())]


def _proper_intersections(segs):
    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    count = 0
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            (x1, y1, x2, y2), (x3, y3, x4, y4) = segs[i], segs[j]
            d1 = orient(x3, y3, x4, y4, x1, y1)
            d2 = orient(x3, y3, x4, y4, x2, y2)
            d3 = orient(x1, y1, x2, y2, x3, y3)
            d4 = orient(x1, y1, x2, y2, x4, y4)
            if ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
                    and 0 not in (d1, d2, d3, d4)):
                count += 1
    return count


def test_np_shift_crossings_before_and_after_planarize(corpus_diagrams):
    d = corpus_diagrams["np-shift"]
    before = _proper_intersections(_segments(render_svg(d)))
    after = _proper_intersections(_segments(render_svg(planarize(d))))
    assert before > 0
    assert after == 0
