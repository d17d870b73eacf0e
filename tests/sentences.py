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
  rule is a two-word constituent;
- ``random_derivation(rng, depth)``: a valid derivation of ``S`` built
  top-down over ``RANDOM_KINDS`` (application, harmonic and crossed
  composition of degrees 1 to 4, and type-raising) and coordination, at
  most ``depth`` rules deep.

``equivalent_derivations(tree)`` yields the trees one rewrite of spurious
ambiguity away from ``tree``.

``deep_json(k, *before)`` is a JSON batch holding the trees ``before``, then
``right_branching(k)``.  ``right_branching_derivation(k)`` is the ingested
derivation of ``right_branching(k)``, built directly from ``rules.Leaf`` and
``rules.Binary``, so it does not rest on the reader or on ingest.
``unary_chain(k)`` is ``k`` UNARY NP levels over one leaf, and
``bracketed(tree)`` a tree as one line of CCGBank-flavored text; neither
recurses, so both take any depth.

``parse_object(spec)`` builds a diagram object from its printed form.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

from discoccg import biclosed as bc
from discoccg.ccgtypes import Atom, Backward, Forward, parse_type
from discoccg.diagram import RObject, Wire
from discoccg.functor import lower
from discoccg.ingest import ingest_tree, read_json
from discoccg.rules import BA, FA, Binary, Derivation, Leaf


def parse_object(spec: str) -> RObject:
    """A diagram object from a compact spec like ``"n.r s n.l"``; ``""`` is
    the unit."""
    out = []
    for tok in spec.split():
        base, _, tail = tok.partition(".")
        out.append(Wire(base, tail.count("r") - tail.count("l")))
    return tuple(out)


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


def right_branching_derivation(k: int) -> Derivation:
    n, np, s = Atom("N"), Atom("NP"), Atom("S")
    noun: Derivation = Leaf("wolf", n)
    for i in reversed(range(k)):
        noun = Binary(FA, Leaf(f"a{i}", Forward(n, n)), noun, n)
    subject = Binary(FA, Leaf("the", Forward(np, n)), noun, np)
    verb = Backward(np, s)
    verb_phrase = Binary(FA, Leaf("likes", Forward(verb, np)), Leaf("Bob", np), verb)
    return Binary(BA, subject, verb_phrase, s)


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


def unary_chain(k: int) -> dict:
    tree = leaf("Alice", "NP")
    for _ in range(k):
        tree = node("UNARY", "NP", tree)
    return tree


def bracketed(tree: dict) -> str:
    parts, todo = [], [tree]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            parts.append(t)
        elif "word" in t:
            parts.append(f"(LEX {t['type']} {t['word']})")
        else:
            parts.append(f"({t['rule']} {t['type']}")
            todo.append(")")
            for child in reversed(t["children"]):
                todo += [child, " "]
    return "".join(parts)


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


HARMONIC_KINDS = ("FC", "BC", "GFC:2", "GBC:2", "GFC:3", "GBC:3", "GFC:4", "GBC:4")
CROSSED_KINDS = ("FCX", "BCX", "GFCX:2", "GBCX:2", "GFCX:3", "GBCX:3", "GFCX:4", "GBCX:4")
RANDOM_KINDS = ("FA", "BA", *HARMONIC_KINDS, *CROSSED_KINDS, "FTR", "BTR")
_ATOMS = [Atom(a) for a in ("S", "NP", "N")]


def _small_cat(rng: random.Random, slashes: int = 2):
    """An atom, or a slash category with up to ``slashes`` slashes."""
    if slashes == 0 or rng.random() < 0.6:
        return rng.choice(_ATOMS)
    result, argument = _small_cat(rng, slashes - 1), rng.choice(_ATOMS)
    return Forward(result, argument) if rng.random() < 0.5 else Backward(argument, result)


def _composed_children(cat, y, forward: bool, degree: int, crossed: bool) -> list | None:
    """The inputs of forward (FC, GFC, FCX, GFCX) or backward (BC, GBC, BCX,
    GBCX) composition of ``degree`` deriving ``cat``.  Its outer arguments
    under the rule's own slash, ``degree`` of them when harmonic and
    ``degree - 1`` when crossed, are the secondary's trailing arguments;
    crossed, the next one, under the other slash, is the argument peeled
    against the grain."""
    own, other = (Forward, Backward) if forward else (Backward, Forward)
    trailing = []   # outermost first
    for _ in range(degree - crossed):
        if not isinstance(cat, own):
            return None
        trailing.append(cat.argument)
        cat = cat.result
    if not crossed:   # degree 2: X/Y (Y/A)/B => (X/A)/B
        primary, secondary = (Forward(cat, y) if forward else Backward(y, cat)), y
    elif not isinstance(cat, other):
        return None
    elif forward:     # degree 3: X/Y ((Y\Z)/A)/B => ((X\Z)/A)/B
        primary, secondary = Forward(cat.result, y), Backward(cat.argument, y)
    else:             # degree 3: ((Y/Z)\A)\B X\Y => ((X/Z)\A)\B
        secondary, primary = Forward(y, cat.argument), Backward(y, cat.result)
    for a in reversed(trailing):
        secondary = Forward(secondary, a) if forward else Backward(a, secondary)
    return [primary, secondary] if forward else [secondary, primary]


def _children(kind: str, cat, rng: random.Random) -> list | None:
    """The categories of the inputs of a ``kind`` node deriving ``cat``, left
    to right, or None when ``cat`` does not have the kind's output shape.
    Crossed composition peels its innermost argument against the grain."""
    y = _small_cat(rng)
    fwd, bwd = isinstance(cat, Forward), isinstance(cat, Backward)
    if kind == "FA":
        return [Forward(cat, y), y]
    if kind == "BA":
        return [y, Backward(y, cat)]
    if kind in HARMONIC_KINDS or kind in CROSSED_KINDS:   # FC: X/Y Y/Z => X/Z
        head, _, degree = kind.partition(":")
        return _composed_children(cat, y, "F" in head, int(degree or 1), head.endswith("X"))
    if (kind == "FTR" and fwd and isinstance(cat.argument, Backward)
            and cat.argument.result == cat.result):   # A => T/(T\A)
        return [cat.argument.argument]
    if (kind == "BTR" and bwd and isinstance(cat.argument, Forward)
            and cat.argument.result == cat.result):   # A => T\(T/A)
        return [cat.argument.argument]
    return None


def random_derivation(rng: random.Random, depth: int) -> dict:
    """A random valid derivation tree of ``S``, built top-down: each node
    draws a kind of ``RANDOM_KINDS`` whose output shape fits its category,
    crossed kinds twice as often, and below the top two levels it is a leaf
    with probability 1/4.  A node of category X above the last level is a
    coordination with probability 0.15, ``BA(X, CONJ(X\\X, and:conj, X))``
    as ``coordination`` builds it.  No path has more than ``depth`` rules.
    Words are ``w0``, ``w1``, ... left to right, and each conjunction
    ``and``."""
    words = itertools.count()

    def build(cat, level: int) -> dict:
        if level + 1 < depth and rng.random() < 0.15:
            left = build(cat, level + 1)
            tail = node("CONJ", Backward(cat, cat).to_slash(), leaf("and", "conj"),
                        build(cat, level + 2))
            return node("BA", cat.to_slash(), left, tail)
        if level < depth and (level < 2 or rng.random() >= 0.25):
            fits = [(kind, kids) for kind in RANDOM_KINDS
                    for kids in [_children(kind, cat, rng)] if kids is not None]
            kind, kids = rng.choice(fits + [f for f in fits if f[0] in CROSSED_KINDS])
            if kind in ("FTR", "BTR"):
                kind = f"{kind}:{cat.result.to_slash()}"
            return node(kind, cat.to_slash(), *(build(kid, level + 1) for kid in kids))
        return leaf(f"w{next(words)}", cat.to_slash())

    return build(Atom("S"), 0)


def _equal_at_root(t: dict):
    """The trees equal to ``t`` by one rewrite at its root, each with its
    kind: an application chain against its composed form, and an
    application against its type-raised form, each both ways, forward and
    backward.  A coordination is left as it is."""
    kids = t.get("children", [])
    if _coordination(t):
        return
    cat, rule = parse_type(t["type"]), t.get("rule")
    if rule == "FA":
        f, a = kids
        fcat = parse_type(f["type"])
        if a.get("rule") == "FA":   # FA(f, FA(g, z)) => FA(FC(f, g), z)
            g, z = a["children"]
            composed = Forward(fcat.result, parse_type(g["type"]).argument)
            yield "FA-FA", node("FA", t["type"], node("FC", composed.to_slash(), f, g), z)
        if f.get("rule") == "FC":   # FA(FC(f, g), z) => FA(f, FA(g, z))
            head, g = f["children"]
            inner = node("FA", parse_type(g["type"]).result.to_slash(), g, a)
            yield "FC-FA", node("FA", t["type"], head, inner)
        if f.get("rule", "").startswith("FTR:"):   # FA(FTR:X(a), f) => BA(a, f)
            yield "FTR-BA", node("BA", t["type"], f["children"][0], a)
        raised = node(f"BTR:{t['type']}", Backward(fcat, cat).to_slash(), a)
        yield "FA-BTR", node("BA", t["type"], f, raised)   # FA(f, a) => BA(f, BTR:X(a))
    elif rule == "BA":
        a, f = kids
        fcat = parse_type(f["type"])
        if a.get("rule") == "BA" and not _coordination(a):   # BA(BA(z, g), f) => BA(z, BC(g, f))
            z, g = a["children"]
            composed = Backward(parse_type(g["type"]).argument, fcat.result)
            yield "BA-BA", node("BA", t["type"], z, node("BC", composed.to_slash(), g, f))
        if f.get("rule") == "BC":   # BA(z, BC(g, f)) => BA(BA(z, g), f)
            g, head = f["children"]
            inner = node("BA", parse_type(g["type"]).result.to_slash(), a, g)
            yield "BC-BA", node("BA", t["type"], inner, head)
        if f.get("rule", "").startswith("BTR:"):   # BA(f, BTR:X(a)) => FA(f, a)
            yield "BTR-FA", node("FA", t["type"], a, f["children"][0])
        raised = node(f"FTR:{t['type']}", Forward(cat, fcat).to_slash(), a)
        yield "BA-FTR", node("FA", t["type"], raised, f)   # BA(a, f) => FA(FTR:X(a), f)


def _coordination(t: dict) -> bool:
    kids = t.get("children", [])
    return len(kids) == 2 and kids[1].get("rule") == "CONJ"


def equivalent_derivations(tree: dict):
    """Yield ``(kind, other)`` for every tree ``other`` that differs from
    ``tree`` by one rewrite of :func:`_equal_at_root` at one node, spurious
    ambiguity that must map to an equal diagram.  ``kind`` names the
    rewrite, ``FA-BTR`` for ``FA(f, a) => BA(f, BTR:X(a))`` and so on."""
    todo = [((), tree)]
    while todo:
        path, t = todo.pop()
        for kind, other in _equal_at_root(t):
            yield kind, _replaced(tree, path, other)
        todo += reversed([((*path, i), kid) for i, kid in enumerate(t.get("children", []))])


def _replaced(tree: dict, path: tuple[int, ...], new: dict) -> dict:
    if not path:
        return new
    kids = list(tree["children"])
    kids[path[0]] = _replaced(kids[path[0]], path[1:], new)
    return {**tree, "children": kids}


def raw_diagram(tree: dict):
    """The functor's diagram of a derivation tree, before any rewrite."""
    return lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))
