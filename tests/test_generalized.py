"""Generalized composition beyond degree two, harmonic and crossed."""

import json

import pytest

from discoccg import biclosed as bc
from discoccg.ccgtypes import parse_type
from discoccg.diagram import Swap, well_formed
from discoccg.functor import lower, verify_functor_laws
from discoccg.ingest import ingest_tree, read_json
from discoccg.rewrite import normalize, planarize
from discoccg.rules import RuleError, RuleLabel, apply_rule, gfc
from discoccg.semantics import DimAssignment, semantically_equal

t = parse_type
DIMS = DimAssignment({}, 2)


def gfcx(n):
    return RuleLabel("GFCX", degree=n)


def gbcx(n):
    return RuleLabel("GBCX", degree=n)


def test_gfc_degree_three():
    secondary = t("((VP/NP)/NP)/PP")
    out = apply_rule(gfc(3), [t("(S\\NP)/VP"), secondary])
    assert out == t("(((S\\NP)/NP)/NP)/PP")
    term = bc.rule_term(gfc(3), [t("(S\\NP)/VP"), secondary])
    assert term.cod == out
    assert all(r.ok for r in verify_functor_laws([term]))


def test_gfcx_schema():
    out = apply_rule(gfcx(2), [t("(S\\NP)/VP"), t("(VP\\NP)/PP")])
    assert out == t("((S\\NP)\\NP)/PP")
    with pytest.raises(RuleError):
        apply_rule(gfcx(2), [t("(S\\NP)/VP"), t("VP\\NP")])


def test_gbcx_schema():
    out = apply_rule(gbcx(2), [t("((S\\NP)/NP)\\PP"), t("(S\\NP)\\(S\\NP)")])
    assert out == t("((S\\NP)/NP)\\PP")


GFCX_SENTENCE = {"rule": "BA", "type": "S", "children": [
    {"word": "wij", "type": "NP"},
    {"rule": "BA", "type": "S\\NP", "children": [
        {"word": "hem", "type": "NP"},
        {"rule": "FA", "type": "(S\\NP)\\NP", "children": [
            {"rule": "GFCX:2", "type": "((S\\NP)\\NP)/PP", "children": [
                {"word": "wilden", "type": "(S\\NP)/VP"},
                {"word": "zien", "type": "(VP\\NP)/PP"}]},
            {"word": "vandaag", "type": "PP"}]}]}]}

GBCX_SENTENCE = {"rule": "BA", "type": "S", "children": [
    {"word": "Alice", "type": "NP"},
    {"rule": "FA", "type": "S\\NP", "children": [
        {"rule": "BA", "type": "(S\\NP)/NP", "children": [
            {"word": "at dawn", "type": "PP"},
            {"rule": "GBCX:2", "type": "((S\\NP)/NP)\\PP", "children": [
                {"word": "finished", "type": "((S\\NP)/NP)\\PP"},
                {"word": "quietly", "type": "(S\\NP)\\(S\\NP)"}]}]},
        {"word": "the race", "type": "NP"}]}]}


@pytest.mark.parametrize("tree", [GFCX_SENTENCE, GBCX_SENTENCE],
                         ids=["gfcx", "gbcx"])
def test_generalized_crossed_lower_and_planarize(tree):
    derivation = ingest_tree(read_json(json.dumps(tree)))
    d = lower(bc.lower_derivation(derivation))
    assert well_formed(d) == []
    assert d.count(Swap) > 0
    problems: list[str] = []
    planar = planarize(d, problems=problems)
    assert problems == []
    assert planar.count(Swap) == 0
    assert planar.cod == d.cod
    assert semantically_equal(d, planar, DIMS, [41, 42, 43])
    assert normalize(planar).cod == d.cod


def test_generalized_crossed_sexpr_stable():
    derivation = ingest_tree(read_json(json.dumps(GFCX_SENTENCE)))
    term = bc.lower_derivation(derivation)
    assert "(cross fcx" in bc.to_sexpr(term)
