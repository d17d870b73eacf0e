"""Derivation trees of long sentences, built by shape for the scaling tests.

- ``right_branching(k)``: ``the a0 ... a(k-1) wolf likes Bob``, the adjectives
  applied one by one (an FA chain, so every word box of the raw diagram comes
  before any cup);
- ``left_fc_chain(k)``: the same sentence with the adjectives combined by a
  left-branching FC chain, ``k >= 2`` (the same noun phrase, derived the
  other way round);
- ``cross_serial(k)``: a Dutch cross-serial clause with ``k >= 2`` verbs, a
  ``GFCX:2`` chain closed by ``FCX``, and ``k + 1`` NP arguments;
- ``coordination(k)``: a left-nested CONJ list of ``k >= 2`` NPs, then
  ``sleep`` (the benchmark's ``coord<k>``);
- ``np_shift_two_word_primary()``: the corpus sentence ``np-shift`` with
  ``very successfully`` for ``successfully``, so that the primary of its BCX
  rule has two words.

``deep_json(k, *before)`` is a JSON batch holding the trees ``before``, then
``right_branching(k)``.
"""

from __future__ import annotations

import json
import sys

from discoccg import biclosed as bc
from discoccg.functor import lower
from discoccg.ingest import ingest_tree, read_json


def leaf(word: str, cat: str) -> dict:
    return {"word": word, "type": cat}


def node(rule: str, cat: str, *children: dict) -> dict:
    return {"rule": rule, "type": cat, "children": list(children)}


def right_branching(k: int) -> dict:
    noun = leaf("wolf", "N")
    for i in reversed(range(k)):
        noun = node("FA", "N", leaf(f"a{i}", "N/N"), noun)
    subject = node("FA", "NP", leaf("the", "NP/N"), noun)
    verb_phrase = node("FA", "S\\NP", leaf("likes", "(S\\NP)/NP"), leaf("Bob", "NP"))
    return node("BA", "S", subject, verb_phrase)


def deep_json(k: int, *before: dict) -> str:
    """A batch of the trees ``before`` and one ``right_branching(k)`` tree;
    encoding it needs a raised recursion limit, and at ``k = 600`` decoding
    it exceeds the default one."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * k))
    try:
        return json.dumps([*before, right_branching(k)])
    finally:
        sys.setrecursionlimit(limit)


def left_fc_chain(k: int) -> dict:
    chain = leaf("a0", "N/N")
    for i in range(1, k):
        chain = node("FC", "N/N", chain, leaf(f"a{i}", "N/N"))
    subject = node("FA", "NP", leaf("the", "NP/N"), node("FA", "N", chain, leaf("wolf", "N")))
    verb_phrase = node("FA", "S\\NP", leaf("likes", "(S\\NP)/NP"), leaf("Bob", "NP"))
    return node("BA", "S", subject, verb_phrase)


def cross_serial(k: int) -> dict:
    # takes[i] is S followed by i backslash-NP arguments
    takes = ["S"]
    for _ in range(k + 1):
        takes.append(f"({takes[-1]})\\NP")
    chain = leaf("v0", f"({takes[2]})/VP")
    for i in range(1, k - 1):
        chain = node("GFCX:2", f"({takes[2 + i]})/VP", chain, leaf(f"v{i}", "(VP\\NP)/VP"))
    clause = node("FCX", takes[k + 1], chain, leaf(f"v{k - 1}", "VP\\NP"))
    for i in reversed(range(k + 1)):
        clause = node("BA", takes[i], leaf(f"n{i}", "NP"), clause)
    return clause


def coordination(k: int) -> dict:
    conjunct = "NP\\NP"
    tree = leaf("c0", "NP")
    for i in range(1, k):
        tail = node("CONJ", conjunct, leaf("and", "conj"), leaf(f"c{i}", "NP"))
        tree = node("BA", "NP", tree, tail)
    return node("BA", "S", tree, leaf("sleep", "S\\NP"))


def np_shift_two_word_primary() -> dict:
    adverb = "(S\\NP)\\(S\\NP)"
    primary = node("FA", adverb, leaf("very", f"({adverb})/({adverb})"),
                   leaf("successfully", adverb))
    verb = node("BCX", "(S\\NP)/NP", leaf("passed", "(S\\NP)/NP"), primary)
    return node("BA", "S", leaf("John", "NP"),
                node("FA", "S\\NP", verb, leaf("his exam", "NP")))


def raw_diagram(tree: dict):
    """The functor's diagram of a derivation tree, before any rewrite."""
    return lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))
