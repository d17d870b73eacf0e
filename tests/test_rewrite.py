import json
import random

import pytest

from discoccg import biclosed as bc, rewrite
from discoccg.diagram import (
    Cap, Cup, Diagram, DiagramError, RObject, Swap, Wire, WordBox, crossed_image,
    left_adjoint, right_adjoint, well_formed,
)
from discoccg.functor import lower
from discoccg.ingest import ingest_tree, read_json
from discoccg.rewrite import (
    _KIND_ORDER, RewriteStep, _cancel_swaps, _find_snakes, _remove_snake,
    _try_interchange, diagrams_equal, normalize, planarize,
)
from discoccg.semantics import DimAssignment, Lexicon, evaluate, semantically_equal
from tests.sentences import (
    CROSSED_KINDS, HARMONIC_KINDS, coordination, cross_serial, equivalent_derivations, leaf,
    left_fc_chain, node, np_shift_two_word_primary, parse_object, random_derivation,
    raw_diagram, right_branching,
)

n = parse_object("n")
DIMS = DimAssignment({}, 2)
SEEDS = [11, 12, 13, 14, 15]


def test_bare_snake_yanks_to_identity():
    snake = Diagram.build(n, [(1, Cap("n", 0)), (0, Cup("n", 0))])
    assert normalize(snake) == Diagram.id(n)
    other = Diagram.build(n, [(0, Cap("n", -1)), (1, Cup("n", -1))])
    assert normalize(other) == Diagram.id(n)


def test_fig4_normal_form(corpus_diagrams):
    raised = corpus_diagrams["alice-likes-bob-raised"]
    plain = corpus_diagrams["alice-likes-bob"]
    assert normalize(raised) == normalize(plain)
    assert diagrams_equal(raised, plain)
    assert semantically_equal(raised, plain, DIMS, SEEDS)


def test_big_bad_wolf_normal_forms(corpus_diagrams):
    left = corpus_diagrams["big-bad-wolf-left"]
    right = corpus_diagrams["big-bad-wolf-right"]
    assert normalize(left) == normalize(right)
    assert semantically_equal(left, right, DimAssignment({"N": 3}, 3), SEEDS)


def test_normalize_preserves_boundaries_and_semantics(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        norm = normalize(d)
        assert (norm.dom, norm.cod) == (d.dom, d.cod), ident
        assert well_formed(norm) == [], ident
        assert semantically_equal(d, norm, DIMS, SEEDS[:3]), ident


def test_normalize_idempotent(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        once = normalize(d)
        assert normalize(once) == once, ident


def test_normalize_step_budget(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        trace: list[RewriteStep] = []
        normalize(d, trace=trace)
        assert len(trace) <= 10 * max(1, len(d.layers)), ident


def test_rewrite_steps_preserve_evaluation(corpus_diagrams):
    import numpy as np
    # replay every intermediate state produced by the step trace
    for ident in ["alice-likes-bob-raised", "np-shift", "bruce-puts-on-his-hat",
                  "object-raised", "might-give"]:
        d = corpus_diagrams[ident]
        lex = Lexicon(DIMS, seed=5)
        reference = evaluate(planarize(d), DIMS, lex).array
        final = evaluate(normalize(planarize(d)), DIMS, lex).array
        assert np.allclose(reference, final, rtol=0, atol=1e-12), ident


def test_planarize_removes_all_swaps(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        problems: list[str] = []
        planar = planarize(d, problems=problems)
        assert problems == [], ident
        assert planar.count(Swap) == 0, ident
        assert planar.cod == d.cod, ident
        assert semantically_equal(d, planar, DIMS, SEEDS), ident


def test_planarize_identity_on_planar_input(corpus_diagrams):
    # a swap-free diagram comes back itself, not rebuilt
    planar = [d for d in corpus_diagrams.values() if not d.count(Swap)]
    assert len(planar) > 20
    for d in planar:
        trace: list[RewriteStep] = []
        problems: list[str] = []
        assert planarize(d, trace, problems) is d
        assert trace == [] and problems == []


def test_planarize_idempotent(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        once = planarize(d)
        assert planarize(once) == once, ident


def test_np_shift_planar_form(corpus_diagrams):
    d = corpus_diagrams["np-shift"]
    planar = planarize(d)
    assert planar.count(Swap) == 0
    assert planar.cod == parse_object("s")
    # the adverb state now sits inside the verb's wire block
    labels = [g.label for _, g in planar.layers if isinstance(g, WordBox)]
    assert labels == ["John", "passed", "successfully", "his exam"]


def test_bruce_planar_verb_block(corpus_diagrams):
    # the two phrasal-verb constituents group into a contiguous n.r s n.l block
    planar = planarize(corpus_diagrams["bruce-puts-on-his-hat"])
    assert planar.count(Swap) == 0
    target = parse_object("n.r s n.l")
    found = False
    for ws in planar.boundaries():
        for i in range(len(ws) - 2):
            if ws[i:i + 3] == target:
                found = True
    assert found


def test_planarize_nested_crossed_rules():
    # a crossed rule whose secondary is itself built by a crossed rule
    tree = {"rule": "BA", "type": "S", "children": [
        {"word": "Alice", "type": "NP"},
        {"rule": "FA", "type": "S\\NP", "children": [
            {"rule": "BCX", "type": "(S\\NP)/NP", "children": [
                {"word": "solved", "type": "(S\\NP)/NP"},
                {"rule": "FCX", "type": "(S\\NP)\\(S\\NP)", "children": [
                    {"word": "fast", "type": "(S\\NP)/PP"},
                    {"word": "enough", "type": "PP\\(S\\NP)"}]}]},
            {"word": "it", "type": "NP"}]}]}
    d = lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))
    assert d.count(Swap) > 0
    planar = planarize(d)
    assert planar.count(Swap) == 0
    assert semantically_equal(d, planar, DIMS, SEEDS)


def test_planarize_reports_foreign_swaps():
    # a hand-built swap that did not come from crossed composition
    w1, w2 = Wire("n", 0), Wire("s", 0)
    d = Diagram.build((), [
        (0, WordBox("M", (w1, w2))),
        (0, Swap(w1, w2)),
    ])
    problems: list[str] = []
    assert planarize(d, problems=problems) == d
    assert problems and "not removable" in problems[0]


def test_planarize_reports_a_crossed_image_with_its_cup_moved():
    # the FCX image on s n.l | n.r n, a trailing n.r beside it, planarizes;
    # with its cup moved one offset right, onto n n.r, it is no image
    s, n = parse_object("s"), parse_object("n")
    words = [(0, WordBox("A", s + left_adjoint(n))),
             (2, WordBox("B", right_adjoint(n) + n + right_adjoint(n)))]
    image = crossed_image("FCX", s, n, n, 0)
    assert image[1] == (2, Cup("n", -1))
    assert planarize(Diagram.build((), words + image)).count(Swap) == 0
    d = Diagram.build((), words + [image[0], (3, Cup("n", 0)), image[2]])
    problems: list[str] = []
    assert planarize(d, problems=problems) is d
    assert problems == ["swap at layer 2 is not removable by state sliding"]


def test_diagrams_equal_reflexive(corpus_diagrams):
    for d in corpus_diagrams.values():
        assert diagrams_equal(d, d)


def test_diagrams_equal_distinguishes_word_order():
    def sentence(subj, obj):
        return {"rule": "BA", "type": "S", "children": [
            {"word": subj, "type": "NP"},
            {"rule": "FA", "type": "S\\NP", "children": [
                {"word": "likes", "type": "(S\\NP)/NP"},
                {"word": obj, "type": "NP"}]}]}

    def diag(tree):
        return lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))

    d1 = diag(sentence("Alice", "Bob"))
    d2 = diag(sentence("Bob", "Alice"))
    assert not diagrams_equal(d1, d2)
    assert not semantically_equal(d1, d2, DIMS, SEEDS)


def test_diagrams_equal_boundary_mismatch_raises(corpus_diagrams):
    with pytest.raises(DiagramError):
        diagrams_equal(corpus_diagrams["alice-likes-bob"],
                       corpus_diagrams["big-bad-wolf-left"])


def test_diagrams_equal_sound_on_samples(corpus_diagrams):
    # whenever the rewriter says equal, the tensors agree
    names = list(corpus_diagrams)
    for a in names:
        for b in names:
            da, db = corpus_diagrams[a], corpus_diagrams[b]
            if (da.dom, da.cod) != (db.dom, db.cod):
                continue
            if diagrams_equal(da, db):
                assert semantically_equal(da, db, DIMS, SEEDS[:2]), (a, b)


def _scrambled(d: Diagram, rng, moves: int = 60) -> Diagram:
    """The same diagram presented differently: random interchanges of
    neighbouring layers with disjoint supports."""
    layers = list(d.layers)
    for _ in range(moves):
        i = rng.randrange(max(1, len(layers) - 1))
        swapped = _try_interchange(layers, i)
        if swapped is not None:
            layers[i], layers[i + 1] = swapped
    return Diagram.build(d.dom, layers)


def test_equality_is_sound_not_complete_on_scrambled_presentations():
    """Interchange-scrambled presentations of one diagram may normalize
    differently (the strategy fixes normal forms by fiat, keeping word boxes
    in emission order); they must still agree semantically, and diagrams_equal
    must never claim equality across semantically different diagrams."""
    import random

    from discoccg.corpus import load_corpus

    rng = random.Random(7)
    for ident, derivation in load_corpus()[:6]:
        d = lower(bc.lower_derivation(derivation))
        scrambled = _scrambled(d, rng)
        assert semantically_equal(d, scrambled, DIMS, SEEDS[:2]), ident
        if diagrams_equal(d, scrambled):
            continue  # equality is allowed, just not guaranteed
        assert semantically_equal(normalize(d), normalize(scrambled),
                                  DIMS, SEEDS[:2]), ident


def test_rewrites_preserve_evaluation_on_random_derivations():
    # the draw goes on past 300 trees until every harmonic composition kind,
    # degrees 2 to 4 included, has been seen
    import numpy as np
    rng = random.Random(31)
    trees, unseen = [], set(HARMONIC_KINDS)
    while len(trees) < 300 or unseen:
        tree = random_derivation(rng, rng.randint(2, 6))
        rules = set(_rules(tree, HARMONIC_KINDS))
        if len(trees) < 300 or rules & unseen:
            trees.append(tree)
            unseen -= rules
    for i, tree in enumerate(trees):
        d = raw_diagram(tree)
        lex = Lexicon(DIMS, seed=21)
        reference = evaluate(d, DIMS, lex).array
        rewritten = normalize(planarize(d))
        assert (rewritten.dom, rewritten.cod) == (d.dom, d.cod), (i, tree)
        out = evaluate(rewritten, DIMS, lex).array
        assert np.allclose(reference, out, rtol=0, atol=1e-12), (i, tree)


def test_equivalent_derivations_give_equal_diagrams():
    # spurious ambiguity: every derivation one composition or type-raising
    # rewrite away has an equal normal form and an equal evaluation; the
    # first pair needs the snake finder to try both chiralities of a cap
    rng = random.Random(5)
    plain = right_branching(1)
    subject = plain["children"][0]
    raised = {**plain, "children": [
        node("BA", "NP", subject["children"][0],
             node("BTR:NP", "NP\\(NP/N)", subject["children"][1])),
        plain["children"][1]]}
    pairs, kinds = [(plain, raised)], set()
    for _ in range(80):
        tree = random_derivation(rng, 4)
        for kind, other in equivalent_derivations(tree):
            pairs.append((tree, other))
            kinds.add(kind)
    assert kinds >= {"FA-FA", "FC-FA", "BA-BA", "BC-BA", "FA-BTR", "BA-FTR"}, kinds
    for tree, other in pairs:
        d, e = raw_diagram(tree), raw_diagram(other)
        if any(len(g.cod) > 14 for _, g in d.layers + e.layers if isinstance(g, WordBox)):
            continue   # keeps the oracle small
        assert diagrams_equal(d, e), (tree, other)
        assert semantically_equal(d, e, DIMS, SEEDS), (tree, other)


# --- the canonical order against the bubble-pass reference ----------------------

def _bubble_pass(layers, trace) -> bool:
    """The original canonical-order pass, kept as the reference: one bubble
    pass ordering interchangeable neighbours by (offset, kind, label), never
    reordering two word boxes."""
    def key(layer):
        o, g = layer
        return (o, _KIND_ORDER[type(g).__name__], str(g))

    changed = False
    for i in range(len(layers) - 1):
        if isinstance(layers[i][1], WordBox) and isinstance(layers[i + 1][1], WordBox):
            continue
        swapped = _try_interchange(layers, i)
        if swapped is None:
            continue
        if key(swapped[0]) < key(layers[i]):
            layers[i], layers[i + 1] = swapped
            changed = True
            trace.append(RewriteStep("CupSlide", i, layers[i][0]))
    return changed


def _reference_normalize(d: Diagram, trace=None) -> Diagram:
    """``normalize`` with bubble passes repeated to the fixed point."""
    trace = [] if trace is None else trace
    layers = list(d.layers)
    while True:
        snake = next((s for s in _find_snakes(d.dom, layers)
                      if _remove_snake(layers, *s) is not None), None)
        if snake is not None:
            trace.append(RewriteStep(snake[2], snake[0], layers[snake[0]][0]))
            layers = _remove_snake(layers, *snake)
            continue
        if _cancel_swaps(layers, trace) or _bubble_pass(layers, trace):
            continue
        return Diagram.build(d.dom, layers)


def _assert_matches_reference(d: Diagram, ident):
    """``normalize`` equals the reference, which ends in ``Diagram.build``:
    so every test through here also checks that normalize's output is
    well-formed, with the cod it carries."""
    from collections import Counter

    got, expected = [], []
    assert normalize(d, trace=got) == _reference_normalize(d, trace=expected), ident
    assert Counter(s.kind for s in got) == Counter(s.kind for s in expected), ident


def test_normalize_matches_bubble_reference_on_corpus(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        _assert_matches_reference(d, ident)
        _assert_matches_reference(planarize(d), ident)


def test_normalize_matches_bubble_reference_on_scrambled_corpus(corpus_diagrams):
    import random

    rng = random.Random(13)
    for ident, d in corpus_diagrams.items():
        for form in (d, planarize(d)):
            for _ in range(10):
                _assert_matches_reference(_scrambled(form, rng, 4 * len(form.layers)), ident)


def test_normalize_never_swaps_equal_keys():
    # the second cap slides under the first to the same offset and label:
    # equal keys stay put instead of trading places forever
    caps = Diagram.build((), [(0, Cap("n", 0)), (0, Cap("n", 0))])
    _assert_matches_reference(caps, "caps")
    assert normalize(caps) == caps


def test_normalize_matches_bubble_reference_on_random_derivations():
    rng = random.Random(37)
    for i in range(100):
        tree = random_derivation(rng, rng.randint(2, 6))
        d = raw_diagram(tree)
        for form in (d, planarize(d)):
            _assert_matches_reference(form, (i, tree))


SHAPES = {"rb": right_branching, "fc": left_fc_chain, "coord": coordination,
          "cross": cross_serial}
SHAPE_SIZES = ([("rb", 1)] + [(shape, k) for shape in ("rb", "fc", "coord")
                              for k in (2, 7, 64, 192)]
               + [("cross", k) for k in (2, 6, 16)])


@pytest.mark.parametrize("shape, k", SHAPE_SIZES, ids=[f"{s}{k}" for s, k in SHAPE_SIZES])
def test_normalize_matches_bubble_reference_on_long_shapes(shape, k, deep_recursion):
    # the runs a layer is carried past grow with k on right-branching chains
    d = raw_diagram(SHAPES[shape](k))
    _assert_matches_reference(d, f"{shape}{k}")
    _assert_matches_reference(planarize(d), f"{shape}{k} planarized")


# --- the snake finder against the per-cap wire tracer ------------------------------

def _follow_wire(layers, start_layer: int, pos: int):
    """Trace the wire at ``pos`` just below ``start_layer`` to its consumer:
    ``("layer", j, slot)`` or ``("cod", final_pos)``."""
    for j in range(start_layer + 1, len(layers)):
        off, gen = layers[j]
        dw = len(gen.dom)
        if off <= pos < off + dw:
            return ("layer", j, pos - off)
        if pos >= off + dw:
            pos += len(gen.cod) - dw
    return ("cod", pos)


def _traced_snakes(layers):
    """The original snake finder, kept as the reference: each cap leg is traced
    down the layers to its consumer on its own."""
    for i, (o, gen) in enumerate(layers):
        if not isinstance(gen, Cap):
            continue
        hit = _follow_wire(layers, i, o + 1)
        if hit[0] == "layer":
            j, slot = hit[1], hit[2]
            tgt = layers[j][1]
            if isinstance(tgt, Cup) and slot == 0 and (tgt.base, tgt.z) == (gen.base, gen.z):
                yield (i, j, "SnakeRight")
        hit = _follow_wire(layers, i, o)
        if hit[0] == "layer":
            j, slot = hit[1], hit[2]
            tgt = layers[j][1]
            if isinstance(tgt, Cup) and slot == 1 and (tgt.base, tgt.z) == (gen.base, gen.z):
                yield (i, j, "SnakeLeft")


def _same_snakes(dom: RObject, layers, ident) -> list:
    layers = list(layers)
    found = list(_find_snakes(dom, layers))
    assert found == list(_traced_snakes(layers)), ident
    return found


def test_snakes_match_wire_tracer_on_corpus(corpus_diagrams):
    found = 0
    for ident, d in corpus_diagrams.items():
        for form in (d, planarize(d)):
            found += len(_same_snakes(form.dom, form.layers, ident))
    assert found > 0


def test_snakes_match_wire_tracer_on_scrambled_corpus(corpus_diagrams):
    import random

    rng = random.Random(17)
    found = 0
    for ident, d in corpus_diagrams.items():
        for form in (d, planarize(d)):
            for _ in range(10):
                scrambled = _scrambled(form, rng, 4 * len(form.layers))
                found += len(_same_snakes(scrambled.dom, scrambled.layers, ident))
    assert found > 0


def test_snakes_match_wire_tracer_on_hand_built_diagrams():
    s = parse_object("s")
    n_r = parse_object("n.r")
    cases = {
        "left": (n, [(1, Cap("n", 0)), (0, Cup("n", 0))], [(0, 1, "SnakeLeft")]),
        "right": (n, [(0, Cap("n", -1)), (1, Cup("n", -1))], [(0, 1, "SnakeRight")]),
        # a word box to the left shifts the legs before the cup closes them
        "shifted": (n, [(1, Cap("n", 0)), (0, WordBox("A", s)), (1, Cup("n", 0))],
                    [(0, 2, "SnakeLeft")]),
        # both legs close against cups: both snakes are reported, right first
        "both legs": (n + n_r, [(1, Cap("n", 0)), (0, Cup("n", 0)), (0, Cup("n", 0))],
                      [(0, 2, "SnakeRight"), (0, 1, "SnakeLeft")]),
        # the legs cross on a swap before the cup: not a snake
        "swapped legs": ((), [(0, Cap("n", 0)),
                                 (0, Swap(Wire("n", 1), Wire("n", 0))),
                                 (0, Cup("n", 0))], []),
        # the cup's base or winding does not match the cap's (ill-typed layer lists)
        "left base": (n, [(1, Cap("n", 0)), (0, Cup("s", 0))], []),
        "left winding": (n, [(1, Cap("n", 0)), (0, Cup("n", 1))], []),
        "right base": (n, [(0, Cap("n", -1)), (1, Cup("s", -1))], []),
        "right winding": (n, [(0, Cap("n", -1)), (1, Cup("n", 0))], []),
    }
    for ident, (dom, layers, expected) in cases.items():
        if expected:
            Diagram.build(dom, layers)  # the snakes themselves are well typed
        assert _same_snakes(dom, layers, ident) == expected, ident


# --- long sentences ---------------------------------------------------------------

@pytest.fixture
def deep_recursion():
    """JSON encoding and decoding recurse once per tree level."""
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    yield
    sys.setrecursionlimit(limit)


def test_spurious_ambiguity_collapses_on_long_chains():
    # an FA chain and an FC chain over the same words share one normal form
    k = 128
    rb = normalize(raw_diagram(right_branching(k)))
    assert rb == normalize(raw_diagram(left_fc_chain(k)))
    assert len(rb.layers) == 2 * k + 7


def test_normalize_scales_to_512_adjectives(deep_recursion):
    d = normalize(raw_diagram(right_branching(512)))
    assert (d.cod, well_formed(d)) == (parse_object("s"), [])
    assert normalize(d) == d
    assert d == normalize(raw_diagram(left_fc_chain(512)))


def test_planarize_removes_every_swap_with_a_two_word_crossed_primary():
    raw = raw_diagram(np_shift_two_word_primary())
    planar = planarize(raw)
    assert planar.count(Swap) == 0
    assert semantically_equal(raw, planar, DIMS, SEEDS)


# A type-raised secondary of a generalized crossed rule is one component per
# cap plus its input, and only some of them produce wires that the first swap
# run exchanges: the others must still move with their constituent.
RAISED_SECONDARIES = {
    # (Y/Z2)\Z1 raised by BTR from N: T\(T/N) with T = S/NP
    "GBCX:2": node("GBCX:2", "(N/NP)\\((S/NP)/N)",
                   node("BTR:S/NP", "(S/NP)\\((S/NP)/N)", leaf("a", "N")), leaf("b", "N\\S")),
    # (Y\Z2)/Z1 raised by FTR from N: T/(T\N) with T = S\NP
    "GFCX:2": node("GFCX:2", "(N\\NP)/((S\\NP)\\N)",
                   leaf("p", "N/S"), node("FTR:S\\NP", "(S\\NP)/((S\\NP)\\N)", leaf("a", "N"))),
}


@pytest.mark.parametrize("kind", sorted(RAISED_SECONDARIES))
def test_planarize_relocates_past_a_type_raised_secondary(kind):
    raw = raw_diagram(RAISED_SECONDARIES[kind])
    trace: list[RewriteStep] = []
    problems: list[str] = []
    planar = planarize(raw, trace, problems)
    assert problems == [] and planar.count(Swap) == 0
    assert [step.kind for step in trace] == ["SlideBoxThroughSwap"]
    assert semantically_equal(raw, planar, DIMS, SEEDS)


def _rules(tree: dict, kinds) -> list[str]:
    """The rule labels of a tree's nodes that are among ``kinds``."""
    here = [tree["rule"]] if tree.get("rule") in kinds else []
    return here + [r for child in tree.get("children", []) for r in _rules(child, kinds)]


def test_planarize_relocates_every_crossed_primary_of_random_derivations():
    # primaries of any size: words, phrases, type-raised constituents, and
    # crossed images nested in either constituent of another; the draw goes
    # on past 300 trees until every crossed kind, trailing arguments of
    # degrees 2 to 4 included, has been seen
    rng = random.Random(19)
    trees, unseen = [], set(CROSSED_KINDS)
    while len(trees) < 300 or unseen:
        tree = random_derivation(rng, rng.randint(2, 6))
        rules = set(_rules(tree, CROSSED_KINDS))
        if rules and (len(trees) < 300 or rules & unseen):
            trees.append(tree)
            unseen -= rules
    for i, tree in enumerate(trees):
        raw = raw_diagram(tree)
        trace: list[RewriteStep] = []
        problems: list[str] = []
        planar = planarize(raw, trace, problems)
        assert problems == [] and planar.count(Swap) == 0, (i, tree)
        assert planar.dom == raw.dom and planar.cod == raw.cod, (i, tree)
        assert well_formed(planar) == [] and planarize(planar) == planar, (i, tree)
        slides = sum(step.kind == "SlideBoxThroughSwap" for step in trace)
        assert slides == len(_rules(tree, CROSSED_KINDS)), (i, tree)
        assert semantically_equal(raw, normalize(planar), DIMS, SEEDS[:3]), (i, tree)


@pytest.mark.parametrize("k", [16, 32, 64, 128], ids=lambda k: f"cross{k}")
def test_cross_serial_clauses_planarize_and_normalize(k):
    raw = raw_diagram(cross_serial(k))
    planar = planarize(raw)
    assert planar.count(Swap) == 0
    norm = normalize(planar)
    assert len(norm.layers) == 4 * k + 1
    assert semantically_equal(raw, norm, DIMS, SEEDS)


def test_rewrites_keep_their_boundaries_without_rebuilding(corpus_diagrams, monkeypatch):
    # the functor's Diagram.build is the one validation: planarize and
    # normalize carry the dom and cod they are given
    rng = random.Random(23)
    given = [*corpus_diagrams.values(), raw_diagram(cross_serial(8)),
             raw_diagram(np_shift_two_word_primary()),
             *(raw_diagram(random_derivation(rng, rng.randint(2, 6))) for _ in range(100))]
    # these shapes hold no cap and no swap
    chains = [raw_diagram(shape(k)) for shape in (right_branching, left_fc_chain, coordination)
              for k in (2, 7, 64)]
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(Diagram, "build", staticmethod(counted("build", Diagram.build)))
    for d in given:
        normalize(d)
        normalize(planarize(d))
    assert calls == []
    monkeypatch.setattr(rewrite, "_find_snakes", counted("snakes", rewrite._find_snakes))
    monkeypatch.setattr(rewrite, "_cancel_swaps", counted("swaps", rewrite._cancel_swaps))
    for d in chains:
        assert not d.count(Cap) and not d.count(Swap)
        normalize(planarize(d))
    assert calls == []
