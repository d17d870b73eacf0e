import itertools
import json
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg import ingest
from discoccg.biclosed import lower_derivation, to_sexpr
from discoccg.ccgtypes import Atom, Backward, Forward, parse_type
from discoccg.ingest import (
    IngestError, derivation_to_json, ingest_tree, read_ccgbank, read_derivations, read_json,
)
from discoccg.rules import (
    BA, FA, Binary, Leaf, RuleError, RuleLabel, TypeOps, Unary, Violation, apply_rule, combine,
    children, echo, flat_path, leaves, validate,
)
from tests.sentences import (
    bracketed, coordination, deep_json, leaf, left_fc_chain, node, random_derivation,
    right_branching, right_branching_derivation, unary_chain,
)

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
    assert raw.keys() == {"rule", "type", "children"}
    assert len(raw["children"]) == 2
    assert raw["children"][0] == leaf("Alice", "NP")


def test_read_json_single_leaf():
    assert read_json(b'{"word":"Alice","type":"NP"}') == leaf("Alice", "NP")


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
        d = ingest_tree(read_json(json.dumps(tree)))
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
        ingest_tree(read_json(json.dumps(tree)))
    assert "unknown rule" in str(err.value)


def test_declared_type_mismatch_reports_path():
    bad = dict(FIG1)
    bad = json.loads(json.dumps(FIG1))
    bad["children"][1]["type"] = "S"
    with pytest.raises(IngestError) as err:
        ingest_tree(read_json(json.dumps(bad)))
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
    d = ingest_tree(read_json(json.dumps(NOT_MUCH_TO_SAY)))
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
    d = ingest_tree(read_json(json.dumps(FIG1)))
    assert validate(d) == []
    # serialize and re-ingest: a fixed point (types may reprint with fewer parens)
    again = ingest_tree(read_json(json.dumps(derivation_to_json(d))))
    assert again == d


def test_unary_over_leaf_retypes_it():
    tree = {"rule": "BA", "type": "S", "children": [
        {"rule": "UNARY", "type": "NP", "children": [{"word": "dogs", "type": "N"}]},
        {"word": "bark", "type": "S\\NP"}]}
    d = ingest_tree(read_json(json.dumps(tree)))
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
    d = ingest_tree(read_json(json.dumps(_single_unary_positions())))
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


def _count_indexed_work(monkeypatch):
    calls = {"fresh": 0, "make": 0}
    fresh, make = ingest._fresh, ingest._IndexedOps.make

    def counted_fresh(*args):
        calls["fresh"] += 1
        return fresh(*args)

    def counted_make(self, *args):
        calls["make"] += 1
        return make(self, *args)

    monkeypatch.setattr(ingest, "_fresh", counted_fresh)
    monkeypatch.setattr(ingest._IndexedOps, "make", counted_make)
    return calls


def test_indexed_types_are_built_only_below_a_unary(monkeypatch):
    calls = _count_indexed_work(monkeypatch)
    raised = {"rule": "FA", "type": "S", "children": [
        {"rule": "FTR:S", "type": "S/(S\\NP)", "children": [{"word": "Alice", "type": "NP"}]},
        {"word": "runs", "type": "S\\NP"}]}
    for tree in (FIG1, APPLES, raised, right_branching(8)):
        roundtrip(tree)
    assert calls == {"fresh": 0, "make": 0}
    # the UNARY nodes sit below the root: only their subtrees are indexed
    roundtrip(NOT_MUCH_TO_SAY)
    assert calls["fresh"] > 0   # application builds no type, so ``make`` is not called
    roundtrip({"rule": "UNARY", "type": "S", "children": [raised]})
    assert calls["fresh"] > 0 and calls["make"] > 0


def test_first_malformed_node_in_document_order_is_reported():
    # the deeper bad node comes first in the document; a bad parent is
    # reported before its bad child
    tree = {"rule": "BA", "type": "S", "children": [
        {"rule": "FA", "type": "NP", "children": [{"word": "the", "type": "NP/N"}, 7]},
        {"word": "runs", "type": "S\\NP", "note": "x"}]}
    with pytest.raises(IngestError, match="^expected an object at /children/0/children/1$"):
        read_json(json.dumps(tree))
    tree["children"][0]["note"] = "x"
    with pytest.raises(IngestError, match="^unknown field 'note' at /children/0$"):
        read_json(json.dumps(tree))


@pytest.mark.parametrize("raw, message", [
    # a child's fault is reported before its parent's arity
    (node("FA", "S", leaf("a", "NP")), "FA needs 2 children at node root"),
    (node("FA", "S", leaf("", "NP")), "empty word at node 0"),
    # no children: no leaf, though no child is walked either
    (node("FA", "S"), "FA needs 2 children at node root"),
    (node("FTR:S", "S/(S\\NP)"), "FTR:S needs 1 children at node root"),
    (node("UNARY", "S"), "UNARY needs exactly one child at node root"),
])
def test_rule_node_arity_is_checked(raw, message):
    with pytest.raises(IngestError) as exc:
        ingest_tree(raw)
    assert str(exc.value) == message


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
    d = ingest_tree(read_json(json.dumps(FIG1)))
    assert d == Binary(BA, Leaf("Alice", t("NP")), Binary(
        FA, Leaf("likes", t("(S\\NP)/NP")), Leaf("Bob", t("NP")), t("S\\NP")), t("S"))


def test_coordination_error_below_a_unary_names_its_input_node():
    coordination = {"rule": "BA", "type": "NP", "children": [
        {"word": "apples", "type": "NP"},
        {"rule": "CONJ", "type": "NP\\NP", "children": [
            {"word": "and", "type": "conj"},
            {"word": "runs", "type": "S\\NP"}]}]}
    retyped = {"rule": "UNARY", "type": "NP", "children": [coordination]}
    with pytest.raises(IngestError) as err:
        roundtrip(retyped)
    assert str(err.value) == "conjuncts' types differ at node 0: NP vs S\\NP"
    sentence = {"rule": "BA", "type": "S", "children": [
        retyped, {"word": "sleep", "type": "S\\NP"}]}
    with pytest.raises(IngestError) as err:
        roundtrip(sentence)
    assert str(err.value) == "conjuncts' types differ at node 0/0: NP vs S\\NP"


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
        # a clean tree serialized and re-ingested is a fixed point
        again = ingest_tree(read_json(json.dumps(derivation_to_json(d))))
        assert again == d, ident
        assert [l.word for l in leaves(d)] == _raw_words(raw), ident


def _raw_words(raw):
    if "word" in raw:
        return [raw["word"]]
    return [w for kid in raw["children"] for w in _raw_words(kid)]


# --- ccgbank-flavored text -------------------------------------------------------

def test_ccgbank_reader_matches_json():
    text = "(BA S (LEX NP Alice) (FA S\\NP (LEX (S\\NP)/NP likes) (LEX NP Bob)))"
    assert read_ccgbank(text) == read_json(json.dumps(FIG1))
    # both readers give the interchange node itself; dict equality recurses,
    # so the random trees stay shallow
    from discoccg.corpus import corpus_text
    rng = random.Random(3)
    trees = [entry["tree"] for entry in json.loads(corpus_text())]
    trees += [random_derivation(rng, 6) for _ in range(200)]
    for tree in trees:
        assert read_ccgbank(bracketed(tree)) == read_json(json.dumps(tree)) == tree


def test_ccgbank_reader_multiword_leaf_and_target():
    text = "(FA S (FTR:S S/(S\\NP) (LEX NP Alice)) (LEX S\\NP falls over))"
    raw = read_ccgbank(text)
    d = ingest_tree(raw)
    assert validate(d) == []
    assert leaves(d)[1].word == "falls over"


@pytest.mark.parametrize("text, message", [
    ("LEX NP Alice)", "expected '(' at position 0"),
    ("(FA S (LEX NP/N the) wolf)", "expected '(' at position 21"),
    ("()", "expected a token at position 1"),
    ("(FA", "expected a token at position 3"),
    ("(LEX NP Alice", "expected a token at position 13"),
    ("(LEX NP )", "LEX node without a word at position 8"),
    ("(BA S (LEX NP Alice) (FA S\\NP))", "rule node without children at position 29"),
    ("(FA S", "unterminated node"),
    ("(BA S (LEX NP Alice) (LEX S\\NP sleeps)", "unterminated node"),
    ("(LEX NP Alice) (LEX NP Bob)", "trailing input at position 15"),
    ("(BA S (LEX NP Alice) (LEX S\\NP sleeps)))", "trailing input at position 39"),
])
def test_ccgbank_reader_messages(text, message):
    with pytest.raises(IngestError) as exc:
        read_ccgbank(text)
    assert str(exc.value) == message
    [(_, error)] = list(read_derivations(text, "ccgbank", collect_errors=True))
    assert str(error) == message


@pytest.mark.parametrize("word", ["Al\u0001ice", "Al\nice", "Al\u007fice", "\u0000"])
def test_json_word_with_a_control_character_fails_at_its_node(word):
    tree = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": word, "type": "S\\NP"}]}
    with pytest.raises(IngestError) as exc:
        roundtrip(tree)
    assert str(exc.value) == f"word {word!r} contains a control character at node 1"


@pytest.mark.parametrize("word", ["Al\ud800ice", "\udfff", "\ud83d\ude00"])
def test_json_word_with_a_lone_surrogate_fails_at_its_node(word):
    # json.loads joins an escaped pair into one character, so a pair counts
    # only as bytes a surrogatepass decode keeps apart
    tree = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": word, "type": "S\\NP"}]}
    data = json.dumps(tree, ensure_ascii=False).encode("utf-8", "surrogatepass")
    [(_, raw)] = list(read_derivations(data, "json"))
    with pytest.raises(IngestError) as exc:
        ingest_tree(raw)
    assert str(exc.value) == f"word {word!r} contains a lone surrogate at node 1"


def test_ccgbank_word_with_a_control_character_fails_at_its_node():
    text = "(BA S (LEX NP Al\u0001ice) (LEX S\\NP sleeps))"
    [(ident, raw)] = list(read_derivations(text, "ccgbank", collect_errors=True))
    with pytest.raises(IngestError) as exc:
        ingest_tree(raw)
    assert str(exc.value) == "word 'Al\\x01ice' contains a control character at node 0"


def test_read_derivations_list_and_wrappers():
    data = json.dumps([
        {"id": "one", "tree": FIG1},
        {"word": "Alice", "type": "NP"},
    ])
    entries = list(read_derivations(data, "json"))
    assert [ident for ident, _ in entries] == ["one", "s1"]
    text = "# comment\n(LEX NP Alice)\n\n(LEX NP Bob)\n"
    entries = list(read_derivations(text, "ccgbank"))
    assert [ident for ident, _ in entries] == ["s1", "s3"]


def test_read_derivations_collects_wrapper_errors_per_entry():
    data = json.dumps([
        {"id": "noted", "tree": FIG1, "note": "x"},
        {"id": ".hidden", "tree": FIG1},
        {"id": "fine", "tree": FIG1},
    ])
    entries = list(read_derivations(data, "json", collect_errors=True))
    assert [ident for ident, _ in entries] == ["noted", '".hidden"', "fine"]
    assert "unknown field 'note' at /0" in str(entries[0][1])
    assert "bad id at /1/id" in str(entries[1][1])
    assert not isinstance(entries[2][1], IngestError)
    with pytest.raises(IngestError, match="unknown field 'note'"):
        list(read_derivations(data, "json"))


def test_too_deep_json_is_an_ingest_error():
    data = deep_json(600, FIG1, {"id": "named", "tree": FIG1})
    entries = list(read_derivations(data.encode(), "json", collect_errors=True))
    assert [ident for ident, _ in entries] == ["s0", "named", "s2"]
    assert [isinstance(raw, IngestError) for _, raw in entries] == [False, False, True]
    assert str(entries[2][1]).startswith("JSON nested too deeply to decode")
    assert str(entries[2][1]).endswith(" at /2")
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        list(read_derivations(data, "json"))
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        read_json(data)
    # not a list: nothing to isolate, the file is rejected
    with pytest.raises(IngestError, match="JSON nested too deeply to decode"):
        read_derivations(deep_json(600)[1:-1], "json", collect_errors=True)


def test_entry_too_deep_to_read_fails_alone(monkeypatch):
    # an entry that decodes but recurses past the limit while it is read
    read = ingest._raw_node

    def shallow(obj, ptr):
        if ptr == "/1":
            raise RecursionError("maximum recursion depth exceeded")
        return read(obj, ptr)

    monkeypatch.setattr(ingest, "_raw_node", shallow)
    entries = list(read_derivations(json.dumps([FIG1, FIG1]), "json", collect_errors=True))
    assert entries[0] == ("s0", read_json(json.dumps(FIG1)))
    assert entries[1][0] == "s1"
    assert str(entries[1][1]) == ("JSON nested too deeply to read (more levels than the "
                                  f"recursion limit of {sys.getrecursionlimit()})")
    with pytest.raises(IngestError, match="JSON nested too deeply to read"):
        list(read_derivations(json.dumps([FIG1, FIG1]), "json"))


DEEP_NP = "(" * 600 + "NP" + ")" * 600   # too deep for the recursive type parser


def test_type_too_deep_to_parse_fails_at_its_node():
    too_deep = ("nested too deeply to parse (more levels than the recursion limit "
                f"of {sys.getrecursionlimit()})")
    tree = json.loads(json.dumps(FIG1))
    tree["children"][0]["type"] = DEEP_NP
    with pytest.raises(IngestError) as exc:
        roundtrip(tree)
    assert str(exc.value) == f"bad type at node 0: {too_deep}"   # the text is not echoed
    # a raising rule's target takes the same path
    raised = {"rule": f"FTR:{DEEP_NP}", "type": "S/(S\\NP)",
              "children": [{"word": "Alice", "type": "NP"}]}
    with pytest.raises(IngestError) as exc:
        roundtrip({"rule": "FA", "type": "S", "children": [raised, FIG1["children"][1]]})
    assert str(exc.value) == f"bad type at node 0: {too_deep}"
    # the failure is not cached: the sentence converts once the type is flat
    tree["children"][0]["type"] = "NP"
    assert roundtrip(tree) == roundtrip(FIG1)


def test_too_deep_list_is_split_outside_strings():
    deep = deep_json(600)[1:-1]
    tricky = {"word": "a,]}[{\\\"", "type": "NP"}
    entries = list(read_derivations(f"[{json.dumps(tricky)}, {deep}, 7]", "json",
                                    collect_errors=True))
    assert entries[0] == ("s0", leaf("a,]}[{\\\"", "NP"))
    assert "nested too deeply" in str(entries[1][1])
    assert "expected an object at /2" in str(entries[2][1])
    # a malformed list still rejects the whole file
    for text in (f"[{deep}, ]", f"[{deep}, {{]", f"[{deep}] 1", f"[{deep}"):
        with pytest.raises(IngestError):
            read_derivations(text, "json", collect_errors=True)


_ENTRY = json.dumps(FIG1)


@pytest.mark.parametrize("text", [
    f"[{_ENTRY}, {_ENTRY[:40]}",        # truncated list
    f"[{_ENTRY} {_ENTRY}]",             # missing comma
    f"[{_ENTRY},]",                     # trailing comma
    f"[{_ENTRY}] []",                   # extra data after ]
    f'[{_ENTRY}, {{"word": "Bob}}]',    # unterminated string
    f"\ufeff[{_ENTRY}]",                # a str with a leading BOM
], ids=["truncated", "missing-comma", "trailing-comma", "extra-data", "unterminated-string",
        "str-bom"])
def test_malformed_list_fails_whole_with_the_decoders_message(text):
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    # raised by the call itself, before any entry is read
    with pytest.raises(IngestError) as exc:
        read_derivations(text, "json", collect_errors=True)
    assert str(exc.value) == f"invalid JSON: {err.value}"


def test_bytes_with_a_utf8_bom_read():
    data = b"\xef\xbb\xbf" + json.dumps([FIG1, {"id": "x", "tree": FIG1}]).encode()
    fig1 = read_json(json.dumps(FIG1))
    assert list(read_derivations(data, "json")) == [("s0", fig1), ("x", fig1)]


# --- generated valid trees round-trip through ingestion -------------------------

def test_validate_after_ingest_on_generated_trees():
    rng = random.Random(29)
    for i in range(300):
        tree = random_derivation(rng, rng.randint(2, 6))
        d = ingest_tree(read_json(json.dumps(tree)))
        assert validate(d) == [], (i, tree)
        again = ingest_tree(read_json(json.dumps(derivation_to_json(d))))
        assert validate(again) == [] and again == d, (i, tree)


# The walks as they were before they kept explicit stacks, kept as references.

def _ref_validate(d):
    out = []

    def walk(node, path):
        if isinstance(node, Leaf):
            if not node.word:
                out.append(Violation(flat_path(path), "empty word at leaf"))
            return
        if isinstance(node, Unary):
            walk(node.child, (path, 0))
            kids = [node.child.cat]
        else:
            walk(node.left, (path, 0))
            walk(node.right, (path, 1))
            kids = [node.left.cat, node.right.cat]
        try:
            produced = apply_rule(node.rule, kids)
        except RuleError as exc:
            out.append(Violation(flat_path(path), str(exc)))
            return
        if produced != node.cat:
            out.append(Violation(
                flat_path(path),
                f"{echo(str(node.rule))} produces {echo(produced.to_slash())}, "
                f"node claims {echo(node.cat.to_slash())}",
            ))

    walk(d, ())
    return out


def _ref_to_json(d):
    if isinstance(d, Leaf):
        return {"word": d.word, "type": d.cat.to_slash()}
    if isinstance(d, Unary):
        return {"rule": str(d.rule), "type": d.cat.to_slash(),
                "children": [_ref_to_json(d.child)]}
    return {"rule": str(d.rule), "type": d.cat.to_slash(),
            "children": [_ref_to_json(d.left), _ref_to_json(d.right)]}


def _retyped(d, path, cat):
    """``d`` with the node at ``path`` claiming ``cat``."""
    if not path:
        return replace(d, cat=cat)
    if isinstance(d, Unary):
        return replace(d, child=_retyped(d.child, path[1:], cat))
    side = "right" if path[0] else "left"
    return replace(d, **{side: _retyped(getattr(d, side), path[1:], cat)})


def _paths(d, path=()):
    yield path
    for i, kid in enumerate(children(d)):
        yield from _paths(kid, (*path, i))


def _same_json(a, b) -> bool:
    """``a == b`` for JSON trees of any depth, key order included."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if list(x) != list(y) or any(x[k] != y[k] for k in x if k != "children"):
            return False
        if len(x.get("children", ())) != len(y.get("children", ())):
            return False
        todo += zip(x.get("children", ()), y.get("children", ()))
    return True


def test_validate_and_serialization_match_their_recursive_walks():
    rng = random.Random(43)
    for i in range(200):
        d = ingest_tree(read_json(json.dumps(random_derivation(rng, rng.randint(2, 6)))))
        # one node retyped, then a second one, so that violations in sibling
        # subtrees show their order too
        paths, cats = list(_paths(d)), [t("NP"), t("S/NP"), t("N\\N")]
        bad = _retyped(d, rng.choice(paths), rng.choice(cats))
        worse = _retyped(bad, rng.choice(paths), rng.choice(cats))
        for tree in (d, bad, worse):
            assert validate(tree) == _ref_validate(tree), (i, tree)
            assert derivation_to_json(tree) == _ref_to_json(tree), (i, tree)
            assert json.dumps(derivation_to_json(tree)) == json.dumps(_ref_to_json(tree))
    # 4096 levels at the default limit; only the references need a raised one.
    # In the FA chain below, the innermost node claims NP: it and its parent
    # are wrong.
    n, adjective = t("N"), Leaf("a", t("N/N"))
    chain = Binary(FA, adjective, Leaf("wolf", n), t("NP"))
    for _ in range(4095):
        chain = Binary(FA, adjective, chain, n)
    deep = right_branching_derivation(4096)
    got = [validate(deep), validate(chain), derivation_to_json(deep)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * 4096))
    try:
        assert got[0] == _ref_validate(deep) == []
        assert got[1] == _ref_validate(chain) and len(got[1]) == 2
        assert _same_json(got[2], _ref_to_json(deep))
    finally:
        sys.setrecursionlimit(limit)


def test_deep_trees_ingest_at_the_default_recursion_limit():
    # every reader and ingest walk keeps an explicit stack; derivations are
    # compared by their term text, since == on a deep dataclass tree recurses
    def term(raw):
        return to_sexpr(lower_derivation(ingest_tree(raw)))

    rb = right_branching(4096)
    assert term(ingest._raw_node(rb, "")) == to_sexpr(
        lower_derivation(right_branching_derivation(4096)))
    assert term(read_ccgbank(bracketed(rb))) == term(ingest._raw_node(rb, ""))
    for tree, words in ((left_fc_chain(4096), 4096 + 4), (coordination(4096), 2 * 4096)):
        d = ingest_tree(ingest._raw_node(tree, ""))
        assert d.cat == Atom("S") and len(leaves(d)) == words
    assert term(ingest._raw_node(unary_chain(1500), "")) == '(word "Alice" NP)'


# --- unary resolution against the substituting reference -------------------------
#
# The resolver once rewrote the whole subtree of every UNARY node and re-checked
# each rule application in it.  That resolver is kept here as the reference:
# binding the retyped class must accept and reject the same trees and return
# the same derivations.

class _RefUnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        while self.parent.get(a, a) != a:
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _ref_erase(it):
    if isinstance(it, ingest.IAtom):
        return Atom(it.name)
    if isinstance(it, ingest.IFwd):
        return Forward(_ref_erase(it.result), _ref_erase(it.argument))
    return Backward(_ref_erase(it.argument), _ref_erase(it.result))


def _ref_unify(a, b, uf):
    uf.union(a.idx, b.idx)
    if isinstance(a, ingest.IFwd) and isinstance(b, ingest.IFwd):
        _ref_unify(a.result, b.result, uf)
        _ref_unify(a.argument, b.argument, uf)
    elif isinstance(a, ingest.IBwd) and isinstance(b, ingest.IBwd):
        _ref_unify(a.argument, b.argument, uf)
        _ref_unify(a.result, b.result, uf)


def _ref_substitute(it, target, repl, uf):
    if uf.find(it.idx) == target:
        return repl
    if isinstance(it, ingest.IAtom):
        return it
    if isinstance(it, ingest.IFwd):
        return ingest.IFwd(it.idx, _ref_substitute(it.result, target, repl, uf),
                           _ref_substitute(it.argument, target, repl, uf))
    return ingest.IBwd(it.idx, _ref_substitute(it.argument, target, repl, uf),
                       _ref_substitute(it.result, target, repl, uf))


class _RefOps(TypeOps):
    slashes = (ingest.IFwd, ingest.IBwd)

    def __init__(self, uf, ctr):
        self.uf, self.ctr = uf, ctr

    def make(self, forward, result, argument):
        if forward:
            return ingest.IFwd(next(self.ctr), result, argument)
        return ingest.IBwd(next(self.ctr), argument, result)

    def match(self, a, b):
        _ref_unify(a, b, self.uf)
        return True

    def target(self, t):
        return ingest._fresh(t, self.ctr)


class _RefNode:
    def __init__(self, word, rule, children, itype, path, cat):
        self.word, self.rule, self.children = word, rule, children
        self.itype, self.path, self.cat = itype, path, cat


def _ref_resolve(raw, path, ops):
    uf, ctr = ops.uf, ops.ctr
    if "word" in raw:
        t = ingest._parse_type(raw["type"], path)
        return _RefNode(raw["word"], None, [], ingest._fresh(t, ctr), path, t)
    kind, degree, target = ingest._parse_rule(raw["rule"], path)
    declared = ingest._parse_type(raw["type"], path)
    if kind == "LEX":
        raise IngestError("LEX on an internal node")
    if kind == "UNARY":
        if len(raw["children"]) != 1:
            raise IngestError("UNARY arity")
        child = _ref_resolve(raw["children"][0], (path, 0), ops)
        target_id = uf.find(child.itype.idx)
        repl = ingest._fresh(declared, ctr)
        _ref_substitute_tree(child, target_id, repl, uf)
        _ref_recheck(child)
        return child
    if kind == "CONJ":
        if len(raw["children"]) != 2:
            raise IngestError("CONJ arity")
        kids = [_ref_resolve(k, (path, i), ops) for i, k in enumerate(raw["children"])]
        return _RefNode(None, RuleLabel("CONJ"), kids, ingest._fresh(declared, ctr),
                        path, declared)
    try:
        rule = RuleLabel(kind, degree=degree, target=target)
    except ValueError:
        raise IngestError("bad label") from None
    kids = [_ref_resolve(k, (path, i), ops) for i, k in enumerate(raw["children"])]
    if len(kids) != rule.arity:
        raise IngestError("arity")
    try:
        computed = apply_rule(rule, [k.cat for k in kids])
    except RuleError:
        raise IngestError("schema") from None
    if computed != declared:
        raise IngestError("declared type")
    return _RefNode(None, rule, kids, combine(rule, [k.itype for k in kids], ops),
                    path, declared)


def _ref_substitute_tree(node, target, repl, uf):
    node.itype = _ref_substitute(node.itype, target, repl, uf)
    node.cat = _ref_erase(node.itype)
    for kid in node.children:
        _ref_substitute_tree(kid, target, repl, uf)


def _ref_recheck(node):
    for kid in node.children:
        _ref_recheck(kid)
    if node.rule is None or node.rule.kind == "CONJ":
        return
    try:
        computed = apply_rule(node.rule, [k.cat for k in node.children])
    except RuleError:
        raise IngestError("substitution breaks a rule") from None
    if computed != node.cat:
        raise IngestError("substitution breaks a rule")


def _ref_has_conj(t):
    if isinstance(t, Atom):
        return t == Atom("CONJ")
    return _ref_has_conj(t.result) or _ref_has_conj(t.argument)


def _ref_ingest(raw):
    root = _ref_resolve(raw, (), _RefOps(_RefUnionFind(), itertools.count(1)))
    # the production build on the substituted nodes expands coordination; it
    # reads ``cat`` where no indexed type is set, so clear them: the
    # substitution already wrote every node's type into ``cat``
    stack = [root]
    while stack:
        node = stack.pop()
        node.itype = None
        stack += node.children
    d = ingest._build(root, None, [])
    if validate(d):
        raise IngestError("does not validate")
    stack = [d]
    while stack:
        node = stack.pop()
        if _ref_has_conj(node.cat):
            raise IngestError("CONJ in a type")
        stack.extend(getattr(node, f) for f in ("child", "left", "right") if hasattr(node, f))
    return d


ATOMS = [Atom(a) for a in ("N", "NP", "S", "PP")]
_cats = st.recursive(st.sampled_from(ATOMS), lambda kids: st.one_of(
    st.builds(Forward, kids, kids), st.builds(Backward, kids, kids)), max_leaves=3)


def _raised(cat):
    return (isinstance(cat, Forward) and isinstance(cat.argument, Backward)
            and cat.argument.result == cat.result)


@st.composite
def unary_trees(draw, max_depth=4):
    """Raw trees built top-down from a category: leaves, UNARY over a child
    of any category (often the category of the UNARY node above, so that a
    second retyping undoes the first), FA/BA/FC/BC, FTR on raised
    categories and CONJ on ``X\\X``; half of them then have one declared
    type changed."""
    def grow(cat, depth, undo=None):
        kinds = ["leaf"]
        if depth < max_depth:
            kinds += ["UNARY", "FA", "BA"]
            kinds += ["FC"] * isinstance(cat, Forward) + ["BC"] * isinstance(cat, Backward)
            kinds += ["FTR"] * 3 * _raised(cat)   # its target is fixed by the label
            kinds += ["CONJ"] * (isinstance(cat, Backward) and cat.argument == cat.result)
        kind = draw(st.sampled_from(kinds))
        here, deeper = cat.to_slash(), depth + 1
        if kind == "leaf":
            return leaf(draw(st.sampled_from(["w", "x", "y"])), here)
        if kind == "UNARY":
            below = draw(_cats if undo is None else st.one_of(st.just(undo), _cats))
            return node("UNARY", here, grow(below, deeper, cat))
        if kind == "FA":
            y = draw(st.one_of(_cats, st.sampled_from(ATOMS).map(lambda a: Backward(a, cat))))
            return node("FA", here, grow(Forward(cat, y), deeper), grow(y, deeper))
        if kind == "BA":
            y = draw(st.one_of(_cats, st.just(cat)))
            return node("BA", here, grow(y, deeper), grow(Backward(y, cat), deeper))
        if kind == "FC":
            y = draw(_cats)
            return node("FC", here, grow(Forward(cat.result, y), deeper),
                        grow(Forward(y, cat.argument), deeper))
        if kind == "BC":
            y = draw(_cats)
            return node("BC", here, grow(Backward(cat.argument, y), deeper),
                        grow(Backward(y, cat.result), deeper))
        if kind == "FTR":
            return node(f"FTR:{cat.result.to_slash()}", here,
                        grow(cat.argument.argument, deeper))
        return node("CONJ", here, leaf("and", "conj"), grow(cat.result, deeper))

    tree = grow(draw(_cats), 0)
    if draw(st.booleans()):
        paths = list(_node_paths(tree, ()))
        path = draw(st.sampled_from(paths))
        retyped = draw(st.one_of(_cats.map(lambda t: t.to_slash()),
                                 st.sampled_from(["conj", "NP/conj"])))
        tree = _retype_at(tree, path, retyped)
    return tree


def _node_paths(raw, path):
    yield path
    for i, kid in enumerate(raw.get("children", ())):
        yield from _node_paths(kid, path + (i,))


def _retype_at(raw, path, type_str):
    if not path:
        return {**raw, "type": type_str}
    kids = list(raw["children"])
    kids[path[0]] = _retype_at(kids[path[0]], path[1:], type_str)
    return {**raw, "children": kids}


def _verdict(ingest_fn, raw):
    try:
        return ingest_fn(raw)
    except IngestError:
        return "rejected"


@settings(max_examples=500, deadline=None)
@given(unary_trees())
def test_binding_resolver_matches_substituting_reference(raw):
    assert _verdict(ingest_tree, raw) == _verdict(_ref_ingest, raw)


def test_retyping_undone_by_an_enclosing_one_is_still_rejected():
    # UNARY:PP breaks FTR:S below it; the enclosing UNARY:S restores the
    # types, but each retyping is checked when it is made
    inner = {"rule": "FA", "type": "S", "children": [
        {"rule": "FTR:S", "type": "S/(S\\NP)", "children": [{"word": "Alice", "type": "NP"}]},
        {"word": "runs", "type": "S\\NP"}]}
    twice = {"rule": "UNARY", "type": "S", "children": [
        {"rule": "UNARY", "type": "PP", "children": [inner]}]}
    with pytest.raises(IngestError, match="below node 0/0"):
        ingest_tree(read_json(json.dumps(twice)))
    assert _verdict(_ref_ingest, read_json(json.dumps(twice))) == "rejected"


def _unary_chain(k):
    """``a0 ... a(k-1) wolf`` with every FA result retyped N -> NP, so each
    UNARY node sits above the previous one."""
    noun = leaf("wolf", "NP")
    for i in reversed(range(k)):
        noun = node("UNARY", "NP", node("FA", "N", leaf(f"a{i}", "N/NP"), noun))
    return noun


def test_nested_unary_chain_work_is_linear(monkeypatch):
    calls = {"n": 0}
    for name in ("_erase", "apply_rule"):
        def counted(*args, _orig=getattr(ingest, name)):
            calls["n"] += 1
            return _orig(*args)
        monkeypatch.setattr(ingest, name, counted)

    def work(k):
        calls["n"] = 0
        d = ingest_tree(_unary_chain(k))
        assert [leaf.cat.to_slash() for leaf in leaves(d)][-2:] == ["NP/NP", "NP"]
        return calls["n"]

    small, large = work(100), work(200)
    assert small > 0 and large <= 2.1 * small

    # each retyping derefs its child's type past every binding below it,
    # so the bindings it passes must be followed once, not once per level
    finds = {"n": 0}

    def counted_find(self, a, _orig=ingest._UnionFind.find):
        finds["n"] += 1
        return _orig(self, a)

    monkeypatch.setattr(ingest._UnionFind, "find", counted_find)

    def find_calls(k):
        finds["n"] = 0
        ingest_tree(unary_chain(k))
        return finds["n"]

    small, large = find_calls(750), find_calls(1500)
    assert small > 0 and large <= 2.1 * small, (small, large)


def _rb_chain(k):
    """``the a0 ... a(k-1) wolf likes Bob`` as a raw tree: an FA chain k deep."""
    noun = leaf("wolf", "N")
    for i in reversed(range(k)):
        noun = node("FA", "N", leaf(f"a{i}", "N/N"), noun)
    subject = node("FA", "NP", leaf("the", "NP/N"), noun)
    verb_phrase = node("FA", "S\\NP", leaf("likes", "(S\\NP)/NP"), leaf("Bob", "NP"))
    return node("BA", "S", subject, verb_phrase)


def test_ingest_allocation_grows_linearly():
    def peak(k):
        raw = _rb_chain(k)
        tracemalloc.start()
        try:
            ingest_tree(raw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)   # warm the type cache
    small, large = peak(256), peak(1024)   # at the default recursion limit
    assert large <= 6 * small, (small, large)


def test_json_reading_allocation_grows_linearly():
    """Each child's JSON pointer is a linked pair, spelled out only in a
    message, so reading a chain holds no string per level of its depth."""
    def peak(obj):
        # the walk's pairs would first come from the interpreter's free list
        # of 2-tuples, which tracemalloc does not see; emptied, it hides no
        # more of a short chain's memory than of a long one's
        spare = [(i, None) for i in range(4096)]   # noqa: F841
        tracemalloc.start()
        try:
            ingest._raw_node(obj, "/0")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        small, large = (peak(json.loads(json.dumps(right_branching(k)))) for k in (1024, 4096))
    finally:
        sys.setrecursionlimit(limit)
    assert large <= 6 * small, (small, large)


def test_deep_json_errors_name_the_full_pointer():
    tree = right_branching(3)
    node = tree["children"][0]["children"][1]["children"][1]
    node["children"][1]["type"] = 7
    with pytest.raises(IngestError) as exc:
        list(read_derivations(json.dumps([FIG1, {"id": "x", "tree": tree}]), "json"))
    assert str(exc.value) == \
        "'type' must be a string at /1/tree/children/0/children/1/children/1/children/1/type"
    with pytest.raises(IngestError) as exc:
        read_json(json.dumps({"rule": "FA", "type": "S", "children": [FIG1, 3]}))
    assert str(exc.value) == "expected an object at /children/1"
