import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg import biclosed as bc
from discoccg.biclosed import (
    curry_l, curry_r, id_term, lower_derivation, rule_term, tensor_obj, to_sexpr,
    to_str, uncurry_l, uncurry_r, word,
)
from discoccg.ccgtypes import Atom, Backward, Forward, parse_type
from discoccg.ingest import ingest_tree, read_json
from discoccg.rules import (
    BA, FA, Binary, Leaf, RuleError, RuleLabel, Unary, apply_rule, ftr, gfc, leaves, unary,
)
from tests.test_types import types

import json

t = parse_type
NP, S = Atom("NP"), Atom("S")


def _subterms(term):
    """Every subterm, with the words in sentence order."""
    yield term
    for attr in ("f", "g", "left", "right", "inner"):
        kid = getattr(term, attr, None)
        if kid is not None:
            yield from _subterms(kid)


def test_leaves_keep_their_categories(corpus):
    # a word's codomain is its leaf's category itself, not a copy of it
    for ident, d in corpus.items():
        words = [s for s in _subterms(lower_derivation(d)) if isinstance(s, bc.Word)]
        cats = [leaf.cat for leaf in leaves(d)]
        assert [w.cod for w in words] == cats, ident
        assert all(w.cod is c for w, c in zip(words, cats)), ident


def _old_to_str(o):
    # the printer as it was before objects were the categorial types: one
    # method per object class, a hom side bracketed unless unit, atom or tensor
    if o == ():
        return "I"
    if isinstance(o, Atom):
        return o.name
    if isinstance(o, Backward):
        return f"{_old_wrap(o.result)}\\{_old_wrap(o.argument)}"
    if isinstance(o, Forward):
        return f"{_old_wrap(o.result)}/{_old_wrap(o.argument)}"
    return "(" + "@".join(_old_wrap(p) for p in o) + ")"


def _old_wrap(o):
    if isinstance(o, (tuple, Atom)):
        return _old_to_str(o)
    return f"({_old_to_str(o)})"


objects = st.one_of(
    types(), st.just(()),
    st.lists(types(), min_size=2, max_size=4).map(lambda ps: tensor_obj(*ps)))


@settings(max_examples=300)
@given(objects)
def test_to_str_matches_the_old_printer(o):
    assert to_str(o) == _old_to_str(o)


def test_fa_rule_term_shape():
    term = rule_term(FA, [t("(S\\NP)/NP"), NP])
    assert isinstance(term, bc.Bend) and term.kind == "uncurry-r"
    assert term.dom == tensor_obj(t("(S\\NP)/NP"), NP)
    assert term.cod == t("S\\NP")
    assert term.rule == FA


def test_ba_rule_term_shape():
    term = rule_term(BA, [NP, t("S\\NP")])
    assert isinstance(term, bc.Bend) and term.kind == "uncurry-l"
    assert term.dom == tensor_obj(NP, Backward(NP, S))
    assert term.cod == S


@settings(max_examples=100)
@given(types(), types())
def test_rule_term_types_match_apply_rule(x, y):
    # type-check oracle: dom/cod computed independently via apply_rule
    fn = Forward(x, y)
    term = rule_term(FA, [fn, y])
    assert term.dom == tensor_obj(fn, y)
    assert term.cod == apply_rule(FA, [fn, y])
    raised = rule_term(ftr(x), [y])
    assert raised.dom == y
    assert raised.cod == apply_rule(ftr(x), [y])


def test_gfc_term_has_curried_spine():
    term = rule_term(gfc(2), [t("(S\\NP)/VP"), t("(VP/NP)/NP")])
    assert isinstance(term, bc.Bend) and term.kind == "curry-r"
    assert isinstance(term.inner, bc.Bend) and term.inner.kind == "curry-r"
    assert term.cod == t("((S\\NP)/NP)/NP")


def test_lower_derivation_fig1():
    d = ingest_tree(read_json(json.dumps({
        "rule": "BA", "type": "S", "children": [
            {"word": "Alice", "type": "NP"},
            {"rule": "FA", "type": "S\\NP", "children": [
                {"word": "likes", "type": "(S\\NP)/NP"},
                {"word": "Bob", "type": "NP"}]}]})))
    term = lower_derivation(d)
    assert term.dom == ()
    assert term.cod == S
    assert isinstance(term, bc.ComposeTerm)
    assert term.g.rule == BA
    assert isinstance(term.f, bc.TensorTerm)


def test_lower_single_leaf():
    term = lower_derivation(Leaf("Alice", NP))
    assert term == word("Alice", NP)


@pytest.mark.parametrize("kind", ["UNARY", "CONJ"])
def test_unresolved_node_has_no_image_at_any_depth(kind):
    bob = Leaf("Bob", NP)
    if kind == "UNARY":
        node = Unary(unary(NP), bob, NP)
    else:
        node = Binary(RuleLabel("CONJ"), Leaf("and", Atom("conj")), bob, Backward(NP, NP))
    for _ in range(3000):   # under an FA chain deeper than the recursion limit
        node = Binary(FA, Leaf("w", Forward(node.cat, node.cat)), node, node.cat)
    with pytest.raises(RuleError) as info:
        lower_derivation(node)
    assert str(info.value) == f"{kind} node has no biclosed image; run the ingest passes"


def test_lower_raised_tree_contains_ftr_and_fc(corpus_terms):
    term = corpus_terms["alice-likes-bob-raised"]
    assert term.cod == S and term.dom == ()
    kinds = {node.rule.kind for node in _subterms(term) if node.rule is not None}
    assert {"FTR", "FC", "FA"} <= kinds


def test_all_corpus_terms_start_from_unit(corpus_terms):
    for ident, term in corpus_terms.items():
        assert term.dom == (), ident


@settings(max_examples=200)
@given(types(), types())
def test_curry_uncurry_roundtrip_types(a, c):
    f = id_term(tensor_obj(a, c))
    curried = curry_l(f)
    back = uncurry_l(curried)
    assert (back.dom, back.cod) == (f.dom, f.cod)
    curried = curry_r(f)
    back = uncurry_r(curried)
    assert (back.dom, back.cod) == (f.dom, f.cod)


def test_compose_type_mismatch():
    with pytest.raises(bc.BTermError):
        bc.compose(id_term(NP), id_term(S))


def test_sexpr_golden():
    term = rule_term(FA, [t("(S\\NP)/NP"), NP])
    assert to_sexpr(term) == "(rule FA (uncurry-r (id (S\\NP)/NP)))"
    w = word("Alice", NP)
    assert to_sexpr(w) == '(word "Alice" NP)'


def test_sexpr_fig1_golden(corpus_terms):
    got = to_sexpr(corpus_terms["alice-likes-bob"])
    assert got == (
        "(compose (rule BA (uncurry-l (id S\\NP))) "
        '(tensor (word "Alice" NP) '
        "(compose (rule FA (uncurry-r (id (S\\NP)/NP))) "
        '(tensor (word "likes" (S\\NP)/NP) (word "Bob" NP)))))')


def test_sexpr_stable_across_calls(corpus_terms):
    for term in corpus_terms.values():
        assert to_sexpr(term) == to_sexpr(term)


def test_sexpr_escapes_word_labels():
    assert to_sexpr(word('say"hi', NP)) == '(word "say\\"hi" NP)'
    assert to_sexpr(word("a\\b", NP)) == '(word "a\\\\b" NP)'
