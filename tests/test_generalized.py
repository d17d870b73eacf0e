"""Generalized composition beyond degree two, harmonic and crossed."""

import json

import pytest

from discoccg import biclosed as bc
from discoccg.ccgtypes import parse_type
from discoccg.cli import main
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


def _crossed(kind, n):
    """Two words combined by ``kind`` of degree ``n``: the primary ``X/Y`` or
    ``X\\Y`` and a secondary with ``n - 1`` trailing arguments PP, N, A.
    Returns the rule, the two input types and the expected result."""
    sec, out = ("Y\\Z", "X\\Z") if kind == "GFCX" else ("Y/Z", "X/Z")
    slash = "/" if kind == "GFCX" else "\\"
    for arg in ("PP", "N", "A")[:n - 1]:
        sec, out = f"({sec}){slash}{arg}", f"({out}){slash}{arg}"
    inputs = ["X/Y", sec] if kind == "GFCX" else [sec, "X\\Y"]
    return RuleLabel(kind, degree=n), inputs, out


@pytest.mark.parametrize("kind", ["GFCX", "GBCX"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossed_rule_term_has_the_rule_result(kind, n):
    rule, inputs, out = _crossed(kind, n)
    types = [t(x) for x in inputs]
    term = bc.rule_term(rule, types)
    assert apply_rule(rule, types) == term.cod == t(out)
    assert term.dom == bc.tensor_obj(*types)


@pytest.mark.parametrize("kind, n", [("GFCX", 3), ("GFCX", 4), ("GBCX", 3), ("GBCX", 4)])
def test_crossed_composition_of_high_degree_converts(tmp_path, capsys, kind, n):
    _, inputs, out = _crossed(kind, n)
    ba = {"rule": "BA", "type": "S", "children": [
        {"word": "Alice", "type": "NP"}, {"word": "runs", "type": "S\\NP"}]}
    crossed = {"rule": f"{kind}:{n}", "type": out,
               "children": [{"word": f"w{i}", "type": x} for i, x in enumerate(inputs)]}
    path = tmp_path / "three.json"
    path.write_text(json.dumps([ba, crossed, ba]))
    out_dir = tmp_path / "out"
    assert main(["--in", str(path), "--out-dir", str(out_dir), "--emit", "diagram,stats",
                 "--planarize", "--normalize", "--check-semantics", "*=2", "--strict"]) == 0
    assert capsys.readouterr().out == "total 3 converted 3 failed 0\n"
    rows = [line.split("\t") for line in (out_dir / "stats.tsv").read_text().splitlines()]
    assert [(r[0], r[2], r[5], r[6]) for r in rows[1:]] == [
        ("s0", "BA=1", "0", "0"), ("s1", f"{kind}:{n}=1", "2", "0"), ("s2", "BA=1", "0", "0")]
