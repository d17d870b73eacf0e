import json
import sys
from collections import Counter
from dataclasses import replace

import pytest

from discoccg import biclosed as bc
from discoccg.ccgtypes import Backward, parse_type
from discoccg.diagram import (
    Cap, Cup, Diagram, Swap, WordBox, cap_block, crossed_image, cup_block, left_adjoint,
    obj_str, right_adjoint, well_formed,
)
from discoccg.functor import (
    DEFAULT_CONTEXT, LoweringContext, LoweringError, lower, verify_functor_laws,
)
from discoccg.ingest import ingest_tree, read_json
from discoccg.rules import FA
from tests.sentences import parse_object, right_branching, right_branching_derivation

t = parse_type


def test_alice_likes_bob_golden_layers(corpus_diagrams):
    d = corpus_diagrams["alice-likes-bob"]
    assert d.layers == (
        (0, WordBox("Alice", parse_object("n"))),
        (1, WordBox("likes", parse_object("n.r s n.l"))),
        (4, WordBox("Bob", parse_object("n"))),
        (3, Cup("n", -1)),
        (0, Cup("n", 0)),
    )
    assert d.cod == parse_object("s")


def test_single_word_box():
    term = bc.word("Alice", t("NP"))
    d = lower(term)
    assert d.layers == ((0, WordBox("Alice", parse_object("n"))),)


def test_np_shift_swap_count(corpus_diagrams):
    # frozen from the elementary-swap construction: the BCX image contributes
    # |y.r|*|z.l| + |z.l|*|x| = 2 + 2 crossings
    d = corpus_diagrams["np-shift"]
    assert d.count(Swap) == 4


def test_bruce_structure(corpus_diagrams):
    # one cap (type raising), one BCX swap block, cups; sentence wire out
    d = corpus_diagrams["bruce-puts-on-his-hat"]
    assert d.count(Cap) == 1
    assert d.count(Swap) == 4
    assert d.cod == parse_object("s")


def test_crossed_image_layers():
    # FCX on s n.l | n.r n: swap n.l past n.r, cup n.l n, swap s past n.r
    n, s = parse_object("n"), parse_object("s")
    nl, nr = left_adjoint(n), right_adjoint(n)
    assert crossed_image("FCX", s, n, n, 0) == [
        (1, Swap(nl[0], nr[0])), (2, Cup("n", -1)), (0, Swap(s[0], nr[0]))]
    # BCX on n n.l | n.r s, its mirror
    assert crossed_image("BCX", s, n, n, 0) == [
        (1, Swap(nl[0], nr[0])), (0, Cup("n", 0)), (0, Swap(nl[0], s[0]))]


@pytest.mark.parametrize("trailing", [(), ("PP",), ("PP", "S\\NP")],
                         ids=["degree1", "degree2", "degree3"])
@pytest.mark.parametrize("direction", ["FCX", "BCX"])
def test_crossed_image_is_the_lowering_of_a_cross_box(direction, trailing):
    # multi-wire x, y and z: f(S/NP) = s n.l, f(S\NP) = n.r s, f(NP/N) = n n.l
    f = DEFAULT_CONTEXT.f_obj
    x, y, z = t("S/NP"), t("S\\NP"), t("NP/N")
    args = tuple(t(a) for a in trailing)
    term = bc.cross_box(direction, x, y, z, args)
    start = 0 if direction == "FCX" else sum(len(f(a)) for a in args)   # BCX: y leads
    d = lower(term)
    assert d.layers == tuple(crossed_image(direction, f(x), f(y), f(z), start))
    assert (d.dom, d.cod) == (f(term.dom), f(term.cod))
    assert (d.count(Swap), d.count(Cup)) == (2 * 2 + 2 * 2, 2)


def test_declarative_sentences_end_on_s(corpus, corpus_diagrams):
    for ident, d in corpus.items():
        if d.cat == t("S"):
            assert corpus_diagrams[ident].cod == parse_object("s"), ident


def test_swaps_iff_crossed_rules(corpus, corpus_diagrams):
    from discoccg.rules import rule_histogram
    for ident, d in corpus.items():
        crossed = any(k.startswith(("FCX", "BCX", "GFCX", "GBCX"))
                      for k in rule_histogram(d))
        has_swaps = corpus_diagrams[ident].count(Swap) > 0
        assert crossed == has_swaps, ident


def test_sentence_diagrams_are_states(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        assert len(d.dom) == 0, ident


def test_wire_conservation(corpus_diagrams):
    # word wires + 2*caps - 2*cups == cod wires on every conversion
    for ident, d in corpus_diagrams.items():
        word_wires = sum(len(g.cod) for _, g in d.layers if isinstance(g, WordBox))
        caps = d.count(Cap)
        cups = d.count(Cup)
        assert word_wires + 2 * caps - 2 * cups == len(d.cod), ident
        assert cups == (word_wires + 2 * caps - len(d.cod)) // 2, ident


def test_atom_map_override():
    ctx = LoweringContext({"NP": "q", "S": "s", "PP": "p"})
    term = bc.word("Alice", t("NP"))
    assert lower(term, ctx).cod == parse_object("q")


def test_atom_map_injectivity_checked():
    with pytest.raises(ValueError):
        LoweringContext({"NP": "x", "N": "x"})


@pytest.mark.parametrize("base", ["n.r", "", " ", "q r", "1n"])
def test_atom_map_bases_are_atom_names(base):
    with pytest.raises(ValueError, match="is not an atom name"):
        LoweringContext({"NP": base, "S": "s"})


def test_n_distinct_from_np(corpus_diagrams):
    d = corpus_diagrams["big-bad-wolf-left"]
    assert d.cod == parse_object("N")


def test_curry_square_fa_sample():
    term = bc.rule_term(FA, [t("(S\\NP)/NP"), t("NP")])
    reports = verify_functor_laws([term])
    assert [(r.law, r.ok) for r in reports] == [("rule-image-vs-generic", True)]


def test_identity_sample():
    term = bc.id_term(t("S\\NP"))
    reports = verify_functor_laws([term])
    assert reports == []
    d = lower(term)
    assert d.layers == () and d.dom == parse_object("n.r s")


def test_functor_laws_across_corpus(corpus_terms):
    samples = []
    for term in corpus_terms.values():
        _subterms(term, samples)
    reports = verify_functor_laws(samples)
    assert Counter(r.law for r in reports) == {
        "compose": 99, "tensor": 98, "rule-image-vs-generic": 82}
    failures = [r for r in reports if not r.ok]
    assert failures == []


def _subterms(term, out):
    out.append(term)
    for attr in ("f", "g", "left", "right", "inner"):
        kid = getattr(term, attr, None)
        if kid is not None:
            _subterms(kid, out)


def _unannotated(term):
    """``term`` with every rule annotation stripped, at any depth."""
    kids = {attr: _unannotated(kid) for attr in ("f", "g", "left", "right", "inner")
            if (kid := getattr(term, attr, None)) is not None}
    return replace(term, rule=None, **kids)


def test_randomized_curry_roundtrips():
    # curry then uncurry lowers to something normal-form-equal to the original
    from discoccg.rewrite import diagrams_equal
    for ty1, ty2 in [("NP", "S\\NP"), ("(S\\NP)/NP", "NP"), ("N/N", "N")]:
        f = bc.id_term(bc.tensor_obj(t(ty1), t(ty2)))
        round1 = bc.uncurry_r(bc.curry_r(f))
        assert diagrams_equal(lower(round1), lower(f))
        round2 = bc.uncurry_l(bc.curry_l(f))
        assert diagrams_equal(lower(round2), lower(f))


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.test_types import types  # noqa: E402


def _bend(term, inner):
    """The diagram-level curry or uncurry of ``inner``, the image of
    ``term.inner``: a test-local copy of the functor's specification of
    ``term``, to compare the one-pass emitter against."""
    f_obj = DEFAULT_CONTEXT.f_obj
    if term.kind == "curry-r":
        b = f_obj(bc.factors(term.inner.dom)[-1])
        rest = inner.dom[:len(inner.dom) - len(b)]
        assert rest + b == inner.dom
        return Diagram.build(rest, cap_block(b, len(rest)) + list(inner.layers))
    if term.kind == "curry-l":
        a = f_obj(bc.factors(term.inner.dom)[0])
        assert inner.dom[:len(a)] == a
        return Diagram.build(inner.dom[len(a):], cap_block(right_adjoint(a), 0)
                             + [(o + len(a), g) for o, g in inner.layers])
    if term.kind == "uncurry-r":
        b = f_obj(term.inner.cod.argument)
        assert inner.cod[len(inner.cod) - len(b):] == left_adjoint(b)
        return Diagram.build(inner.dom + b, list(inner.layers)
                             + cup_block(b, len(inner.cod) - len(b)))
    a = f_obj(term.inner.cod.argument)
    assert inner.cod[:len(a)] == right_adjoint(a)
    return Diagram.build(a + inner.dom, [(o + len(a), g) for o, g in inner.layers]
                         + cup_block(right_adjoint(a), 0))


@settings(max_examples=200, deadline=None)
@given(types(3), types(3), st.lists(st.booleans(), max_size=3))
def test_functor_curry_laws_randomized(a, b, left_sides):
    # lower(curry(f)) must equal the diagram-level bending of lower(f) up to
    # normal form, for identity terms curried on random sides and uncurried
    from discoccg.rewrite import diagrams_equal
    term = bc.id_term(bc.tensor_obj(a, b))
    for step, left in enumerate(left_sides):
        if step % 2 == 0:
            term = bc.curry_l(term) if left else bc.curry_r(term)
        else:
            term = bc.uncurry_l(term) if isinstance(term.cod, Backward) else bc.uncurry_r(term)
        assert diagrams_equal(lower(term), _bend(term, lower(term.inner))), term


def test_one_build_per_lowering(corpus_terms, monkeypatch):
    calls = []
    build = Diagram.build

    def counted(dom, layers):
        calls.append(dom)
        return build(dom, layers)

    monkeypatch.setattr(Diagram, "build", staticmethod(counted))
    samples = []
    for term in corpus_terms.values():
        _subterms(term, samples)
    for term in samples:
        calls.clear()
        lower(term)
        assert len(calls) == 1, term
        calls.clear()
        lower(_unannotated(term))   # the generic construction throughout
        assert len(calls) == 1, term


def test_lowering_needs_no_recursion():
    # the limit is raised around reading only: the JSON encoder and decoder
    # still recurse once per tree level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 12000))
    try:
        derivation = ingest_tree(read_json(json.dumps(right_branching(2048))))
    finally:
        sys.setrecursionlimit(limit)
    d = lower(bc.lower_derivation(derivation))
    assert well_formed(d) == []
    assert len(d.dom) == 0 and d.cod == parse_object("s")
    assert d.count(WordBox) == 2048 + 4


def test_deep_derivation_lowers_prints_and_maps_at_the_default_limit():
    # built from Leaf and Binary directly, so nothing on the way recurses
    term = bc.lower_derivation(right_branching_derivation(4096))
    assert bc.to_sexpr(term).count("(word ") == 4096 + 4
    d = lower(term)
    assert well_formed(d) == []
    assert len(d.dom) == 0 and d.cod == parse_object("s")
    assert d.count(WordBox) == 4096 + 4


def wound(n: int) -> str:
    """``S/(S/(…/(S/NP)…))`` with n slashes: the functor winds its NP n times."""
    cat = "S/NP"
    for _ in range(n - 1):
        cat = f"S/({cat})"
    return cat


@pytest.mark.parametrize("place", ["alone", "left", "right"])
def test_word_wound_too_far_is_named(place):
    deep, bob = bc.word("w", t(wound(100))), bc.word("Bob", t("NP"))
    term = {"alone": deep, "left": bc.tensor_term(deep, bob),
            "right": bc.tensor_term(bob, deep)}[place]
    with pytest.raises(LoweringError) as info:
        lower(term)
    # the word and the functor are named, and the category is not echoed
    assert str(info.value) == ("cannot lower word 'w': the functor cannot wind a wire "
                               "that far (winding -7 on n exceeds |z| <= 6)")


def test_word_wound_to_the_limit_lowers():
    d = lower(bc.word("w", t(wound(6))))
    assert obj_str(d.cod) == "s s.l.l s.l.l.l.l n.l.l.l.l.l.l s.l.l.l.l.l s.l.l.l s.l"


def test_lowering_well_formed_everywhere(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        assert well_formed(d) == [], ident
