import pytest
from hypothesis import given, settings

from discoccg import biclosed as bc
from discoccg.biclosed import (
    Base, LeftHom, RightHom, UNIT, curry_l, curry_r, id_term, lower_derivation,
    rule_term, tensor_obj, to_bobject, to_sexpr, uncurry_l, uncurry_r, word,
)
from discoccg.ccgtypes import Atom, parse_type
from discoccg.ingest import ingest_tree, read_json
from discoccg.rules import BA, FA, apply_rule, ftr, gfc
from tests.test_types import types

import json

t = parse_type
NP, S = Atom("NP"), Atom("S")
nb, sb = Base(NP), Base(S)


def test_to_bobject_transitive_verb():
    assert to_bobject(t("(S\\NP)/NP")) == RightHom(LeftHom(nb, sb), nb)


def test_to_bobject_atom():
    assert to_bobject(NP) == nb


@settings(max_examples=200)
@given(types())
def test_to_bobject_structure(x):
    # derived oracle: independent recursion over the type tree
    def manual(ty):
        from discoccg.ccgtypes import Backward, Forward
        if isinstance(ty, Atom):
            return Base(ty)
        if isinstance(ty, Forward):
            return RightHom(manual(ty.result), manual(ty.argument))
        return LeftHom(manual(ty.argument), manual(ty.result))
    assert to_bobject(x) == manual(x)


def test_fa_rule_term_shape():
    term = rule_term(FA, [t("(S\\NP)/NP"), NP])
    assert isinstance(term, bc.UncurryR)
    assert term.dom == tensor_obj(to_bobject(t("(S\\NP)/NP")), nb)
    assert term.cod == to_bobject(t("S\\NP"))
    assert term.rule == FA


def test_ba_rule_term_shape():
    term = rule_term(BA, [NP, t("S\\NP")])
    assert isinstance(term, bc.UncurryL)
    assert term.dom == tensor_obj(nb, LeftHom(nb, sb))
    assert term.cod == sb


@settings(max_examples=100)
@given(types(), types())
def test_rule_term_types_match_apply_rule(x, y):
    # type-check oracle: dom/cod computed independently via apply_rule
    from discoccg.ccgtypes import Backward, Forward
    fn = Forward(x, y)
    term = rule_term(FA, [fn, y])
    assert term.dom == tensor_obj(to_bobject(fn), to_bobject(y))
    assert term.cod == to_bobject(apply_rule(FA, [fn, y]))
    raised = rule_term(ftr(x), [y])
    assert raised.dom == to_bobject(y)
    assert raised.cod == to_bobject(apply_rule(ftr(x), [y]))


def test_gfc_term_has_curried_spine():
    term = rule_term(gfc(2), [t("(S\\NP)/VP"), t("(VP/NP)/NP")])
    assert isinstance(term, bc.CurryR)
    assert isinstance(term.inner, bc.CurryR)
    assert term.cod == to_bobject(t("((S\\NP)/NP)/NP"))


def test_lower_derivation_fig1():
    d = ingest_tree(read_json(json.dumps({
        "rule": "BA", "type": "S", "children": [
            {"word": "Alice", "type": "NP"},
            {"rule": "FA", "type": "S\\NP", "children": [
                {"word": "likes", "type": "(S\\NP)/NP"},
                {"word": "Bob", "type": "NP"}]}]})))
    term = lower_derivation(d)
    assert term.dom == UNIT
    assert term.cod == sb
    assert isinstance(term, bc.ComposeTerm)
    assert term.g.rule == BA
    assert isinstance(term.f, bc.TensorTerm)


def test_lower_single_leaf():
    from discoccg.rules import Leaf
    term = lower_derivation(Leaf("Alice", NP))
    assert term == word("Alice", nb)


def test_lower_raised_tree_contains_ftr_and_fc(corpus_terms):
    term = corpus_terms["alice-likes-bob-raised"]
    assert term.cod == sb and term.dom == UNIT
    kinds = set()

    def walk(node):
        if node.rule is not None:
            kinds.add(node.rule.kind)
        for attr in ("f", "g", "left", "right", "inner"):
            kid = getattr(node, attr, None)
            if kid is not None:
                walk(kid)

    walk(term)
    assert {"FTR", "FC", "FA"} <= kinds


def test_all_corpus_terms_start_from_unit(corpus_terms):
    for ident, term in corpus_terms.items():
        assert term.dom == UNIT, ident


@settings(max_examples=200)
@given(types(), types())
def test_curry_uncurry_roundtrip_types(a, c):
    f = id_term(tensor_obj(to_bobject(a), to_bobject(c)))
    curried = curry_l(f)
    back = uncurry_l(curried)
    assert (back.dom, back.cod) == (f.dom, f.cod)
    curried = curry_r(f)
    back = uncurry_r(curried)
    assert (back.dom, back.cod) == (f.dom, f.cod)


def test_compose_type_mismatch():
    with pytest.raises(bc.BTermError):
        bc.compose(id_term(nb), id_term(sb))


def test_sexpr_golden():
    term = rule_term(FA, [t("(S\\NP)/NP"), NP])
    assert to_sexpr(term) == "(rule FA (uncurry-r (id (S\\NP)/NP)))"
    w = word("Alice", nb)
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
    assert to_sexpr(word('say"hi', nb)) == '(word "say\\"hi" NP)'
    assert to_sexpr(word("a\\b", nb)) == '(word "a\\\\b" NP)'
