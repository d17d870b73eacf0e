"""In-memory span tracer wrapped around the functions the ``discoccg`` CLI calls.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces module attributes that the CLI and the oracle resolve at call time
and ``uninstall`` restores them.  A span is ``[name, start, end, parent,
sentence]``; ``parent`` is the index of the enclosing span (-1 at the root)
and ``sentence`` the id passed to ``cli._convert_one``.  A span's layer is
the part of its name before the first dot.
"""

from __future__ import annotations

import time
from collections import Counter

# Spans of the CLI's own control flow; their self time is ``cli.self_s``.
STRUCTURAL = ("cli.main", "cli.run", "cli.convert")

LAYERS = ("ingest", "rules", "biclosed", "functor", "diagram", "rewrite",
          "semantics", "render", "cli")

# Metric name -> span whose inclusive time it totals.
TIMED = {
    "ingest.read_s": "ingest.read",
    "ingest.s": "ingest.tree",
    "biclosed.s": "biclosed.lower",
    "biclosed.to_sexpr_s": "biclosed.to_sexpr",
    "functor.s": "functor.lower",
    "diagram.build_s": "diagram.build",
    "diagram.to_json_s": "diagram.to_json",
    "rewrite.planarize_s": "rewrite.planarize",
    "rewrite.normalize_s": "rewrite.normalize",
    "semantics.check_s": "semantics.check",
    "semantics.evaluate_s": "semantics.evaluate",
    "semantics.lexicon_s": "semantics.lexicon",
    "render.tikz_s": "render.tikz",
    "render.svg_s": "render.svg",
    "cli.write_s": "cli.write",
}

# Metric name -> span whose calls it counts.
CALLS = {
    "rules.validate_calls": "rules.validate",
    "diagram.build_calls": "diagram.build",
    "diagram.well_formed_calls": "diagram.well_formed",
    "semantics.evaluate_calls": "semantics.evaluate",
    "semantics.lexicon_calls": "semantics.lexicon",
}

NORMALIZE_KINDS = ("SnakeLeft", "SnakeRight", "SwapCancel", "CupSlide")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children of one span may overlap only if the program ran them
    concurrently; the union is taken so that overlap is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def aggregate(spans, counters: Counter) -> dict[str, float]:
    """Per-layer metrics from the spans and the counters of one traced batch."""
    total: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        if name in STRUCTURAL:
            layer_self["cli"] += own
        elif name != "cli.write":
            layer_self[name.split(".", 1)[0]] += own
    out: dict[str, float] = {metric: total[span] for metric, span in TIMED.items()}
    out.update({metric: calls[span] for metric, span in CALLS.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    lex = calls["semantics.lexicon"]
    out["semantics.lexicon_hit_ratio"] = counters["lexicon_hits"] / lex if lex else 0.0
    out["semantics.max_frontier_entries"] = counters["max_frontier_entries"]
    for kind in NORMALIZE_KINDS:
        out[f"rewrite.normalize_steps.{kind}"] = counters[f"normalize.{kind}"]
    out["rewrite.planarize_steps"] = counters["planarize_steps"]
    out["rewrite.swaps_removed"] = counters["swaps_removed"]
    out["functor.layers_out"] = counters["functor_layers"]
    out["functor.max_width"] = counters["functor_max_width"]
    return out


class _ModuleView:
    """Attribute access falls through to ``module``; attributes set on the
    view shadow the module's without changing it."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans around wrapped callables; one instance per traced batch."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.sentence: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, around=None, static=False,
             sentence_arg: bool = False):
        """Replace ``owner.attr`` by a wrapper that records a ``name`` span.

        ``around(orig, *args, **kw)`` replaces the plain call, to pass extra
        arguments or inspect the result; it runs inside the span.
        """
        orig = owner.__dict__[attr] if static else getattr(owner, attr)
        func = orig.__func__ if static else orig
        spans, stack, clock = self.spans, self._stack, self.clock
        call = func if around is None else (lambda *a, **k: around(func, *a, **k))

        def wrapper(*args, **kw):
            if sentence_arg:
                self.sentence = args[0]
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.sentence]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return call(*args, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
                if sentence_arg:
                    self.sentence = None

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install(self):
        """Wrap every layer boundary the CLI path crosses."""
        from discoccg import biclosed, cli, ingest, semantics
        from discoccg.diagram import Diagram, Swap

        from .checks import predicted_frontier

        c = self.counters

        def lower(orig, *args, **kw):
            d = orig(*args, **kw)
            c["functor_layers"] += len(d.layers)
            c["functor_max_width"] = max(c["functor_max_width"],
                                         max(map(len, d.boundaries())))
            return d

        def planarize(orig, d, trace=None, **kw):
            steps = []
            out = orig(d, steps, **kw)
            if trace is not None:
                trace.extend(steps)
            c["planarize_steps"] += len(steps)
            c["swaps_removed"] += d.count(Swap) - out.count(Swap)
            return out

        def normalize(orig, d, trace=None):
            steps = []
            out = orig(d, steps)
            if trace is not None:
                trace.extend(steps)
            for step in steps:
                c[f"normalize.{step.kind}"] += 1
            return out

        # semantically_equal evaluates the same two diagrams under every seed
        frontiers: dict[int, tuple[object, int]] = {}

        def evaluate(orig, d, dims, lex):
            if id(d) not in frontiers:
                if len(frontiers) >= 2:
                    frontiers.clear()
                frontiers[id(d)] = (d, predicted_frontier(d, dims))
            c["max_frontier_entries"] = max(c["max_frontier_entries"], frontiers[id(d)][1])
            return orig(d, dims, lex)

        def tensor_for(orig, lex, label, cod):
            if (label, tuple(cod)) in lex.entries:
                c["lexicon_hits"] += 1
            return orig(lex, label, cod)

        # ``to_sexpr`` recurses through its module's global name; the CLI's
        # calls are wrapped on a stand-in for ``cli.bc`` so that only the
        # outermost call makes a span and no frame is added per level.
        bc = _ModuleView(biclosed)
        self._undo.append((cli, "bc", cli.bc))
        cli.bc = bc

        w = self.wrap
        w(cli, "main", "cli.main")
        w(cli, "run", "cli.run")
        w(cli, "_convert_one", "cli.convert", sentence_arg=True)
        w(cli, "write_report", "cli.write")
        w(cli, "read_derivations", "ingest.read")
        w(cli, "ingest_tree", "ingest.tree")
        w(ingest, "validate", "rules.validate")
        w(biclosed, "validate", "rules.validate")
        w(cli, "leaves", "rules.leaves")
        w(cli, "rule_histogram", "rules.histogram")
        w(bc, "lower_derivation", "biclosed.lower")
        w(bc, "to_sexpr", "biclosed.to_sexpr")
        w(cli, "lower", "functor.lower", around=lower)
        w(Diagram, "build", "diagram.build", static=True)
        w(cli, "diagram_to_json", "diagram.to_json")
        w(semantics, "well_formed", "diagram.well_formed")
        w(cli, "planarize_diagram", "rewrite.planarize", around=planarize)
        w(cli, "normalize_diagram", "rewrite.normalize", around=normalize)
        w(cli, "semantically_equal", "semantics.check")
        w(semantics, "evaluate", "semantics.evaluate", around=evaluate)
        w(semantics.Lexicon, "tensor_for", "semantics.lexicon", around=tensor_for)
        w(cli, "render_tikz", "render.tikz")
        w(cli, "render_svg", "render.svg")

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tsentence\n")
            for i, (name, start, end, parent, sentence) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{sentence or '-'}\n")
