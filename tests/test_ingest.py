import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg.ccgtypes import Atom, parse_type
from discoccg.ingest import (
    IngestError, RawLeaf, RawNode, derivation_to_json, expand_conj,
    ingest_tree, read_ccgbank, read_derivations, read_json, resolve_unary,
)
from discoccg.rules import Binary, Leaf, Unary, leaves, validate
from tests.sentences import deep_json

t = parse_type


def roundtrip(tree_dict):
    return ingest_tree(read_json(json.dumps(tree_dict)))


FIG1 = {"rule": "BA", "type": "S", "children": [
    {"word": "Alice", "type": "NP"},
    {"rule": "FA", "type": "S\\NP", "children": [
        {"word": "likes", "type": "(S\\NP)/NP"},
        {"word": "Bob", "type": "NP"}]}]}


def test_read_json_fig1():
    raw = read_json(json.dumps(FIG1))
    assert isinstance(raw, RawNode)
    assert len(raw.children) == 2
    assert raw.children[0] == RawLeaf("Alice", "NP")


def test_read_json_single_leaf():
    assert read_json(b'{"word":"Alice","type":"NP"}') == RawLeaf("Alice", "NP")


def test_rule_names_fold_case():
    # every rule name is accepted lowercase
    for rule, tree in [
        ("fa", {"rule": "fa", "type": "S\\NP", "children": [
            {"word": "likes", "type": "(S\\NP)/NP"}, {"word": "Bob", "type": "NP"}]}),
        ("ba", {"rule": "ba", "type": "S", "children": [
            {"word": "Alice", "type": "NP"}, {"word": "runs", "type": "S\\NP"}]}),
        ("fc", {"rule": "fc", "type": "N/N", "children": [
            {"word": "big", "type": "N/N"}, {"word": "bad", "type": "N/N"}]}),
        ("bc", {"rule": "bc", "type": "S\\NP", "children": [
            {"word": "slept", "type": "S\\NP"}, {"word": "today", "type": "S\\S"}]}),
        ("gfc:2", {"rule": "gfc:2", "type": "((S\\NP)/NP)/NP", "children": [
            {"word": "might", "type": "(S\\NP)/VP"}, {"word": "give", "type": "(VP/NP)/NP"}]}),
        ("gbc:2", {"rule": "gbc:2", "type": "(S\\PP)\\NP", "children": [
            {"word": "arrived", "type": "(S\\PP)\\NP"}, {"word": "now", "type": "S\\S"}]}),
        ("ftr:S", {"rule": "ftr:S", "type": "S/(S\\NP)", "children": [
            {"word": "Alice", "type": "NP"}]}),
        ("btr:S", {"rule": "btr:S", "type": "S\\(S/NP)", "children": [
            {"word": "Bob", "type": "NP"}]}),
        ("fcx", {"rule": "fcx", "type": "(S\\NP)\\NP", "children": [
            {"word": "zagen", "type": "(S\\NP)/VP"}, {"word": "vertrekken", "type": "VP\\NP"}]}),
        ("bcx", {"rule": "bcx", "type": "(S\\NP)/NP", "children": [
            {"word": "passed", "type": "(S\\NP)/NP"},
            {"word": "successfully", "type": "(S\\NP)\\(S\\NP)"}]}),
    ]:
        d = resolve_unary(read_json(json.dumps(tree)))
        assert validate(d) == [], rule


def test_unknown_field_rejected_with_pointer():
    bad = {"rule": "BA", "type": "S", "children": [
        {"word": "Alice", "type": "NP", "lemma": "alice"},
        {"word": "runs", "type": "S\\NP"}]}
    with pytest.raises(IngestError) as err:
        read_json(json.dumps(bad))
    assert "'lemma'" in str(err.value)
    assert "/children/0" in str(err.value)


def test_unknown_parser_rule_rejected():
    tree = {"rule": "PUNCT", "type": "S", "children": [
        {"word": "Alice", "type": "NP"}, {"word": "runs", "type": "S\\NP"}]}
    with pytest.raises(IngestError) as err:
        resolve_unary(read_json(json.dumps(tree)))
    assert "unknown rule" in str(err.value)


def test_declared_type_mismatch_reports_path():
    bad = dict(FIG1)
    bad = json.loads(json.dumps(FIG1))
    bad["children"][1]["type"] = "S"
    with pytest.raises(IngestError) as err:
        resolve_unary(read_json(json.dumps(bad)))
    assert "node 1" in str(err.value)


# --- unary resolution ----------------------------------------------------------

NOT_MUCH_TO_SAY = {"rule": "BA", "type": "NP", "children": [
    {"rule": "UNARY", "type": "NP", "children": [
        {"rule": "FA", "type": "N", "children": [
            {"word": "not", "type": "N/N"},
            {"word": "much", "type": "N"}]}]},
    {"rule": "UNARY", "type": "NP\\NP", "children": [
        {"rule": "FA", "type": "S\\NP", "children": [
            {"word": "to", "type": "(S\\NP)/(S\\NP)"},
            {"word": "say", "type": "S\\NP"}]}]}]}


def test_unary_resolution_reproduces_worked_example():
    d = resolve_unary(read_json(json.dumps(NOT_MUCH_TO_SAY)))
    assert validate(d) == []
    assert d.cat == Atom("NP")
    got = [(leaf.word, leaf.cat) for leaf in leaves(d)]
    assert got == [
        ("not", t("NP/N")),
        ("much", t("N")),
        ("to", t("(NP\\NP)/(S\\NP)")),
        ("say", t("S\\NP")),
    ]
    # no unary nodes survive
    def no_unary(node):
        if isinstance(node, Leaf):
            return True
        if isinstance(node, Unary):
            return False
        return no_unary(node.left) and no_unary(node.right)
    assert no_unary(d)


def test_unary_free_tree_unchanged():
    d = resolve_unary(read_json(json.dumps(FIG1)))
    assert validate(d) == []
    # serialize and re-ingest: a fixed point (types may reprint with fewer parens)
    again = resolve_unary(read_json(json.dumps(derivation_to_json(d))))
    assert again == d


def test_unary_over_leaf_retypes_it():
    tree = {"rule": "BA", "type": "S", "children": [
        {"rule": "UNARY", "type": "NP", "children": [{"word": "dogs", "type": "N"}]},
        {"word": "bark", "type": "S\\NP"}]}
    d = resolve_unary(read_json(json.dumps(tree)))
    assert validate(d) == []
    assert leaves(d)[0].cat == Atom("NP")


def _single_unary_positions():
    """hand-substitution oracle: a unary N->NP over each slot of a fixed tree"""
    base = {"rule": "FA", "type": "N", "children": [
        {"word": "big", "type": "N/N"},
        {"rule": "FA", "type": "N", "children": [
            {"word": "bad", "type": "N/N"},
            {"word": "wolf", "type": "N"}]}]}
    wrapped = {"rule": "UNARY", "type": "NP", "children": [base]}
    outer = {"rule": "BA", "type": "S", "children": [
        wrapped, {"word": "sleeps", "type": "S\\NP"}]}
    return outer


def test_unary_substitution_by_index_reaches_linked_slot_only():
    d = resolve_unary(read_json(json.dumps(_single_unary_positions())))
    assert validate(d) == []
    # N -> NP at the node reaches exactly the slot linked to the phrase head:
    # the outer adjective's result; inner types are untouched (as in the
    # "not much to say" worked example, where "much" keeps N)
    got = [(leaf.word, leaf.cat.to_slash()) for leaf in leaves(d)]
    assert got == [("big", "NP/N"), ("bad", "N/N"), ("wolf", "N"), ("sleeps", "S\\NP")]


def test_unary_substitution_schema_violation_reported():
    # the unary output cannot satisfy the outer rule: BA still expects S\NP
    tree = {"rule": "BA", "type": "S", "children": [
        {"rule": "UNARY", "type": "PP", "children": [{"word": "dogs", "type": "N"}]},
        {"word": "bark", "type": "S\\NP"}]}
    with pytest.raises(IngestError):
        ingest_tree(read_json(json.dumps(tree)))


# --- conjunction expansion ------------------------------------------------------

APPLES = {"rule": "BA", "type": "NP", "children": [
    {"word": "apples", "type": "NP"},
    {"rule": "CONJ", "type": "NP\\NP", "children": [
        {"word": "and", "type": "conj"},
        {"word": "oranges", "type": "NP"}]}]}


def test_conj_expansion_apples_and_oranges():
    d = ingest_tree(read_json(json.dumps(APPLES)))
    assert d.cat == Atom("NP")
    and_leaf = leaves(d)[1]
    assert and_leaf.word == "and"
    assert and_leaf.cat == t("(NP\\NP)/NP")
    assert validate(d) == []


def test_conj_expansion_verb_phrase():
    tree = {"rule": "BA", "type": "S\\NP", "children": [
        {"word": "runs", "type": "S\\NP"},
        {"rule": "CONJ", "type": "(S\\NP)\\(S\\NP)", "children": [
            {"word": "and", "type": "conj"},
            {"word": "jumps", "type": "S\\NP"}]}]}
    d = ingest_tree(read_json(json.dumps(tree)))
    and_leaf = leaves(d)[1]
    assert and_leaf.cat == t("((S\\NP)\\(S\\NP))/(S\\NP)")


def test_conj_free_tree_unchanged():
    d = resolve_unary(read_json(json.dumps(FIG1)))
    assert expand_conj(d) == d


def test_conj_type_mismatch_is_an_error():
    tree = {"rule": "BA", "type": "NP", "children": [
        {"word": "apples", "type": "NP"},
        {"rule": "CONJ", "type": "NP\\NP", "children": [
            {"word": "and", "type": "conj"},
            {"word": "runs", "type": "S\\NP"}]}]}
    with pytest.raises(IngestError) as err:
        ingest_tree(read_json(json.dumps(tree)))
    assert "differ" in str(err.value) or "declares" in str(err.value)


def test_conj_outside_coordination_is_an_error():
    tree = {"rule": "FA", "type": "N", "children": [
        {"word": "big", "type": "N/N"},
        {"word": "and", "type": "conj"}]}
    with pytest.raises(IngestError):
        ingest_tree(read_json(json.dumps(tree)))


def test_conj_never_survives_inside_a_slash_type():
    tree = {"rule": "FA", "type": "NP", "children": [
        {"word": "weird", "type": "NP/conj"},
        {"word": "and", "type": "conj"}]}
    with pytest.raises(IngestError):
        ingest_tree(read_json(json.dumps(tree)))


# --- pass properties ---------------------------------------------------------

def test_passes_idempotent_and_order_preserving():
    from discoccg.corpus import load_raw
    for ident, raw in load_raw():
        d = ingest_tree(raw)
        assert expand_conj(d) == d, ident
        # a clean tree serialized and re-ingested is a fixed point
        again = ingest_tree(read_json(json.dumps(derivation_to_json(d))))
        assert again == d, ident
        assert [l.word for l in leaves(d)] == _raw_words(raw), ident


def _raw_words(raw):
    if isinstance(raw, RawLeaf):
        return [raw.word]
    return [w for kid in raw.children for w in _raw_words(kid)]


# --- ccgbank-flavored text -------------------------------------------------------

def test_ccgbank_reader_matches_json():
    text = "(BA S (LEX NP Alice) (FA S\\NP (LEX (S\\NP)/NP likes) (LEX NP Bob)))"
    assert read_ccgbank(text) == read_json(json.dumps(FIG1))


def test_ccgbank_reader_multiword_leaf_and_target():
    text = "(FA S (FTR:S S/(S\\NP) (LEX NP Alice)) (LEX S\\NP falls over))"
    raw = read_ccgbank(text)
    d = ingest_tree(raw)
    assert validate(d) == []
    assert leaves(d)[1].word == "falls over"


def test_read_derivations_list_and_wrappers():
    data = json.dumps([
        {"id": "one", "tree": FIG1},
        {"word": "Alice", "type": "NP"},
    ])
    entries = read_derivations(data, "json")
    assert [ident for ident, _ in entries] == ["one", "s1"]
    text = "# comment\n(LEX NP Alice)\n\n(LEX NP Bob)\n"
    entries = read_derivations(text, "ccgbank")
    assert [ident for ident, _ in entries] == ["s1", "s3"]


def test_read_derivations_collects_wrapper_errors_per_entry():
    data = json.dumps([
        {"id": "noted", "tree": FIG1, "note": "x"},
        {"id": ".hidden", "tree": FIG1},
        {"id": "fine", "tree": FIG1},
    ])
    entries = read_derivations(data, "json", collect_errors=True)
    assert [ident for ident, _ in entries] == ["noted", '".hidden"', "fine"]
    assert "unknown field 'note' at /0" in str(entries[0][1])
    assert "bad id at /1/id" in str(entries[1][1])
    assert not isinstance(entries[2][1], IngestError)
    with pytest.raises(IngestError, match="unknown field 'note'"):
        read_derivations(data, "json")


def test_too_deep_json_is_an_ingest_error():
    data = deep_json(600, FIG1, {"id": "named", "tree": FIG1})
    entries = read_derivations(data.encode(), "json", collect_errors=True)
    assert [ident for ident, _ in entries] == ["s0", "named", "s2"]
    assert [isinstance(raw, IngestError) for _, raw in entries] == [False, False, True]
    assert str(entries[2][1]).startswith("JSON nested too deeply to decode")
    assert str(entries[2][1]).endswith(" at /2")
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        read_derivations(data, "json")
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        read_json(data)
    # not a list: nothing to isolate, the file is rejected
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        read_derivations(deep_json(600)[1:-1], "json", collect_errors=True)


def test_too_deep_list_is_split_outside_strings():
    deep = deep_json(600)[1:-1]
    tricky = {"word": "a,]}[{\\\"", "type": "NP"}
    entries = read_derivations(f"[{json.dumps(tricky)}, {deep}, 7]", "json",
                               collect_errors=True)
    assert entries[0] == ("s0", RawLeaf("a,]}[{\\\"", "NP"))
    assert "nested too deeply" in str(entries[1][1])
    assert "expected an object at /2" in str(entries[2][1])
    # a malformed list still rejects the whole file
    for text in (f"[{deep}, ]", f"[{deep}, {{]", f"[{deep}] 1", f"[{deep}"):
        with pytest.raises(IngestError):
            read_derivations(text, "json", collect_errors=True)


# --- generated valid trees round-trip through ingestion -------------------------

from tests.test_types import types  # noqa: E402


def derivations(depth=3):
    """Random valid derivations: each step wraps a tree as the argument of a
    fresh application with a leaf functor typed to fit."""
    from discoccg.ccgtypes import Backward, Forward
    from discoccg.rules import BA, FA, Binary

    word = st.sampled_from(["w1", "w2", "w3", "alpha", "beta"])
    base = st.builds(Leaf, word, types(2))

    def combine(kids):
        def wrap(args):
            node, x, w, forward = args
            if forward:
                fn = Leaf(w, Forward(x, node.cat))
                return Binary(FA, fn, node, x)
            fn = Leaf(w, Backward(node.cat, x))
            return Binary(BA, node, fn, x)

        return st.tuples(kids, types(2), word, st.booleans()).map(wrap)

    return st.recursive(base, combine, max_leaves=2 ** depth)


@settings(max_examples=200, deadline=None)
@given(derivations())
def test_validate_after_ingest_on_generated_trees(d):
    assert validate(d) == []
    again = ingest_tree(read_json(json.dumps(derivation_to_json(d))))
    assert validate(again) == []
    assert again == d
