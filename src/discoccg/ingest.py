# -*- coding: utf-8 -*-
"""Readers and preprocessing for serialized derivations.

JSON is the normative interchange format; a CCGBank-flavored bracketed text
reader maps onto the same raw tree.  ``ingest_tree`` turns a raw tree into a
validated derivation in three walks.  The first checks every rule on the
plain types and eliminates ad-hoc unary retypings by binding: below a UNARY
node every type slot is indexed and unified with the slots a rule equates
it to, and the retyping binds the class of the retyped slot, so it reaches
the already processed subtree.  A binding reaches nothing outside that
subtree, so a tree without UNARY nodes gets no indexed types.  The second
builds the derivation, each node once, and rewrites ``conj`` leaves into
``(X ⤚ X) ⤙ X`` coordination as it goes.  The third is ``rules.validate``.
The first two name a failing node by its input path, UNARY levels included.

Feature-annotated atoms (``S[dcl]``) are stripped to their bare atom here;
the semantics functor is defined on bare atoms.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .ccgtypes import (
    Atom, Backward, CcgType, Forward, TypeParseError, fold, parse_type, strip_features,
)
from .rules import (
    FA, SCHEMAS, Binary, Derivation, Leaf, RuleError, RuleLabel, TypeOps, Unary,
    apply_rule, children, combine, echo, flat_path, path_str, validate,
)


class IngestError(ValueError):
    """Schema violation or inconsistent derivation, with a location."""


@dataclass(frozen=True)
class RawLeaf:
    word: str
    type_str: str


@dataclass(frozen=True)
class RawNode:
    rule_str: str
    type_str: str
    children: tuple["RawTree", ...]


RawTree = RawLeaf | RawNode


# --- readers ------------------------------------------------------------------

def read_json(data: bytes | str) -> RawTree:
    """Read one derivation from JSON; unknown fields are rejected with a
    JSON-pointer path."""
    return _raw_node(_loads(data), "")


def _loads(data: bytes | str):
    """Decode JSON; malformed or too deeply nested input is an ``IngestError``."""
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise IngestError(_too_deep()) from None


def _too_deep(what: str = "JSON nested too deeply to decode") -> str:
    return f"{what} (more levels than the recursion limit of {sys.getrecursionlimit()})"


_JSON_WS = re.compile(r"[ \t\n\r]*")


def _list_starts(text: str) -> list[int | None] | None:
    """Where each entry of a top-level JSON list starts, or ``None`` when
    ``text`` is not one well-formed list.

    Each entry is checked by decoding it and dropping the value, so the
    check holds one entry at a time.  An entry too deep to decode is
    skipped by ``_entry_end`` and recorded as ``None``.
    """
    decode = json.JSONDecoder().raw_decode
    i = _JSON_WS.match(text).end()
    if not text.startswith("[", i):
        return None
    starts: list[int | None] = []
    i = _JSON_WS.match(text, i + 1).end()
    while starts or not text.startswith("]", i):   # ``[]`` has no entries
        try:
            end = decode(text, i)[1]
            starts.append(i)
        except json.JSONDecodeError:
            return None
        except RecursionError:
            end = _entry_end(text, i)
            if end is None:
                return None
            starts.append(None)
        i = _JSON_WS.match(text, end).end()
        if text.startswith("]", i):
            break
        if not text.startswith(",", i):
            return None
        i = _JSON_WS.match(text, i + 1).end()
    return starts if _JSON_WS.match(text, i + 1).end() == len(text) else None


_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[\]{}]')


def _entry_end(text: str, start: int) -> int | None:
    """The end of the JSON array or object at ``start``, found without
    recursion (strings are skipped whole, brackets counted); ``None`` when
    its brackets do not balance."""
    opened: list[str] = []
    for token in _JSON_TOKEN.finditer(text, start):
        c = token.group()
        if c in "[{":
            opened.append(c)
        elif c in "]}":
            if not opened or "[{".index(opened.pop()) != "]}".index(c):
                return None
            if not opened:
                return token.end()
    return None


def _raw_node(obj, ptr: str) -> RawTree:
    """Read the raw tree of a decoded JSON node whose pointer is ``ptr``.

    One walk with an explicit stack checks each node in document order,
    giving each child a linked path (see ``rules.flat_path``) that is
    spelled out as a pointer only in a message, and builds each node once
    its children are built; so reading does not recurse, and its memory is
    linear."""
    built: list[RawTree] = []   # the finished subtrees, in document order
    todo = [(obj, ())]   # nodes to check, and (node, None) to build
    while todo:
        obj, path = todo.pop()
        if path is None:   # its children are the last subtrees built
            n = len(obj["children"])
            children = tuple(built[-n:])
            del built[-n:]
            built.append(RawNode(obj["rule"], obj["type"], children))
            continue
        kids = _check_node(obj, ptr, path)
        if kids:
            todo.append((obj, None))
            todo += [(kids[i], (path, i)) for i in range(len(kids) - 1, -1, -1)]
        else:
            built.append(RawLeaf(obj["word"], obj["type"]))
    return built[0]


def _pointer(ptr: str, path: tuple, field: str = "") -> str:
    """The JSON pointer of a node's ``field``, spelled out for a message:
    ``ptr`` points at the node ``_raw_node`` starts from, and ``path`` leads
    from there to the node."""
    return ptr + "".join(f"/children/{i}" for i in flat_path(path)) + field or "/"


def _check_node(obj, ptr: str, path: tuple) -> list | tuple:
    """Check the fields of the JSON node at ``path`` below the node whose
    pointer is ``ptr``; returns its children, none for a leaf."""
    if type(obj) is dict:   # the two valid shapes, without building key sets
        if len(obj) == 2:
            word = obj.get("word")
            if type(word) is str and word and type(obj.get("type")) is str:
                return ()
        elif len(obj) == 3:
            kids = obj.get("children")
            if (type(kids) is list and kids and type(obj.get("rule")) is str
                    and type(obj.get("type")) is str):
                return kids
    # any other node is checked field by field, to name its first fault
    if not isinstance(obj, dict):
        raise IngestError(f"expected an object at {_pointer(ptr, path)}")
    keys = set(obj)
    if "word" in keys:
        extra = keys - {"word", "type"}
        if extra:
            raise IngestError(
                f"unknown field {echo(repr(sorted(extra)[0]))} at {_pointer(ptr, path)}")
        if keys != {"word", "type"}:
            raise IngestError(f"leaf needs 'word' and 'type' at {_pointer(ptr, path)}")
        if not isinstance(obj["word"], str) or not obj["word"]:
            raise IngestError(
                f"'word' must be a non-empty string at {_pointer(ptr, path, '/word')}")
        if not isinstance(obj["type"], str):
            raise IngestError(f"'type' must be a string at {_pointer(ptr, path, '/type')}")
        return ()
    if "rule" in keys:
        extra = keys - {"rule", "type", "children"}
        if extra:
            raise IngestError(
                f"unknown field {echo(repr(sorted(extra)[0]))} at {_pointer(ptr, path)}")
        if keys != {"rule", "type", "children"}:
            raise IngestError("internal node needs 'rule', 'type' and 'children' at "
                              f"{_pointer(ptr, path)}")
        if not isinstance(obj["rule"], str):
            raise IngestError(f"'rule' must be a string at {_pointer(ptr, path, '/rule')}")
        if not isinstance(obj["type"], str):
            raise IngestError(f"'type' must be a string at {_pointer(ptr, path, '/type')}")
        kids = obj["children"]
        if not isinstance(kids, list) or not kids:
            raise IngestError(
                f"'children' must be a non-empty list at {_pointer(ptr, path, '/children')}")
        return kids
    raise IngestError(f"node needs either 'word' or 'rule' at {_pointer(ptr, path)}")


def read_ccgbank(text: str) -> RawTree:
    """Read ``(<rule> <type> <child>...)`` text with ``(LEX <type> <word>)`` leaves."""
    tree, i = _ccgbank_node(text, _skip_ws(text, 0))
    i = _skip_ws(text, i)
    if i != len(text):
        raise IngestError(f"trailing input at position {i}")
    return tree


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _scan_token(text: str, i: int) -> tuple[str, int]:
    """Scan a token; parentheses inside the token (types, rule targets) nest."""
    start, depth = i, 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            if depth == 0:
                break
            depth -= 1
        elif c.isspace() and depth == 0:
            break
        i += 1
    if i == start:
        raise IngestError(f"expected a token at position {start}")
    return text[start:i], i


def _ccgbank_node(text: str, i: int) -> tuple[RawTree, int]:
    if i >= len(text) or text[i] != "(":
        raise IngestError(f"expected '(' at position {i}")
    i = _skip_ws(text, i + 1)
    rule, i = _scan_token(text, i)
    i = _skip_ws(text, i)
    type_str, i = _scan_token(text, i)
    if rule.upper() == "LEX":
        words = []
        while True:
            i = _skip_ws(text, i)
            if i < len(text) and text[i] == ")":
                break
            w, i = _scan_token(text, i)
            words.append(w)
        if not words:
            raise IngestError(f"LEX node without a word at position {i}")
        return RawLeaf(" ".join(words), type_str), i + 1
    children = []
    while True:
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == ")":
            break
        if i >= len(text):
            raise IngestError("unterminated node")
        child, i = _ccgbank_node(text, i)
        children.append(child)
    if not children:
        raise IngestError(f"rule node without children at position {i}")
    return RawNode(rule, type_str, tuple(children)), i + 1


def _parse_type(text: str, path: tuple) -> CcgType:
    try:
        return _stripped_type(text)
    except TypeParseError as exc:
        raise IngestError(f"bad type {echo(repr(text))} at node {_fmt(path)}: {exc}") from None
    except RecursionError:   # the parser recurses once per level; no echo of the text
        raise IngestError(f"bad type at node {_fmt(path)}: "
                          f"{_too_deep('nested too deeply to parse')}") from None


@lru_cache(maxsize=4096)
def _stripped_type(text: str) -> CcgType:
    """A type string's stripped type, memoized across sentences because a
    corpus reuses few categories; a parse error is raised, never cached, so
    each bad occurrence is reported at its own node."""
    return strip_features(parse_type(text))


def _fmt(path: tuple) -> str:
    return path_str(flat_path(path))


def _parse_rule(text: str, path: tuple) -> tuple[str, int | None, CcgType | None]:
    head, _, param = text.strip().partition(":")
    kind = head.upper()
    schema = SCHEMAS.get(kind)
    if schema is None:
        raise IngestError(f"unknown rule {echo(repr(text))} at node {_fmt(path)}")
    if schema.param == "degree":
        try:
            return kind, int(param), None
        except ValueError:
            raise IngestError(f"{kind} needs an integer degree at node {_fmt(path)}") from None
    if schema.raising:
        if not param:
            raise IngestError(f"{kind} needs a target type at node {_fmt(path)}")
        return kind, None, _parse_type(param, path)
    # a UNARY node's target is its declared type, not a parameter
    if param:
        raise IngestError(f"{kind} takes no parameter at node {_fmt(path)}")
    return kind, None, None


@lru_cache(maxsize=1024)
def _rule_label(text: str) -> tuple[str, RuleLabel | None]:
    """A rule string's kind and, for a combinatory kind, its label, memoized
    because a corpus repeats few rule strings.  A bad string raises and is
    never cached; ``_resolve`` then parses it again to name its node."""
    kind, degree, target = _parse_rule(text, ())
    if SCHEMAS[kind].forward is None:   # LEX, UNARY and CONJ
        return kind, None
    return kind, RuleLabel(kind, degree=degree, target=target)


# --- indexed types for unary resolution ----------------------------------------

@dataclass(frozen=True)
class IAtom:
    idx: int
    name: str


@dataclass(frozen=True)
class IFwd:
    idx: int
    result: "IType"
    argument: "IType"


@dataclass(frozen=True)
class IBwd:
    idx: int
    argument: "IType"
    result: "IType"


IType = IAtom | IFwd | IBwd


class _UnionFind:
    """Classes of type slots made equal by unification.  A retyping binds a
    class to a fresh type, and every read of a slot follows the bindings.  A
    class is pinned when a slot of it is built by a rule rather than taken
    from an input, so retyping it to another type breaks that rule."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.bound: dict[int, IType] = {}
        self.pinned: set[int] = set()

    def find(self, a: int) -> int:
        root = a
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(a, a) != a:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            if ra in self.pinned:
                self.pinned.add(rb)

    def deref(self, it: IType) -> IType:
        """The type slot ``it`` holds now; a bound class is never united again."""
        while (root := self.find(it.idx)) in self.bound:
            it = self.bound[root]
        return it


def _fresh(t: CcgType, ctr, pins: set[int] | None = None) -> IType:
    """``t`` with a fresh index at every slot, numbered in the order its
    definition reads them; without recursion, so any depth converts."""
    built: list[IType] = []
    todo: list = [t]   # types to index, and (class, index) of slots whose parts are built
    while todo:
        t = todo.pop()
        if isinstance(t, tuple):
            cls, idx = t
            second, first = built.pop(), built.pop()
            built.append(cls(idx, first, second))
            continue
        idx = next(ctr)
        if pins is not None:
            pins.add(idx)
        if isinstance(t, Atom):
            built.append(IAtom(idx, t.name))
        elif isinstance(t, Forward):
            todo += [(IFwd, idx), t.argument, t.result]
        else:
            todo += [(IBwd, idx), t.result, t.argument]
    return built[0]


def _erase(it: IType, uf: _UnionFind) -> CcgType:
    """The plain type an indexed type holds now, following the bindings."""
    built: list[CcgType] = []
    todo: list = [it]   # indexed types, and the class of slots whose parts are built
    while todo:
        it = todo.pop()
        if isinstance(it, type):
            second, first = built.pop(), built.pop()
            built.append(it(first, second))
            continue
        it = uf.deref(it)
        if isinstance(it, IAtom):
            built.append(Atom(it.name))
        elif isinstance(it, IFwd):
            todo += [Forward, it.argument, it.result]
        else:
            todo += [Backward, it.result, it.argument]
    return built[0]


def _unify(a: IType, b: IType, uf: _UnionFind):
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        a, b = uf.deref(a), uf.deref(b)
        uf.union(a.idx, b.idx)
        if isinstance(a, IFwd) and isinstance(b, IFwd):
            todo += [(a.argument, b.argument), (a.result, b.result)]
        elif isinstance(a, IBwd) and isinstance(b, IBwd):
            todo += [(a.result, b.result), (a.argument, b.argument)]


class _IndexedOps(TypeOps):
    """The rule schema on indexed types: matching unifies the slots an
    argument flows into, so a later retyping reaches them all, and every
    built node and raised target gets fresh, pinned indices.  Shapes are
    checked by ``apply_rule`` on the erased types first, so matching always
    succeeds."""

    slashes = (IFwd, IBwd)

    def __init__(self, uf: _UnionFind, ctr):
        self.uf, self.ctr = uf, ctr

    def make(self, forward: bool, result: IType, argument: IType) -> IType:
        idx = next(self.ctr)
        self.uf.pinned.add(idx)
        if forward:
            return IFwd(idx, result, argument)
        return IBwd(idx, argument, result)

    def match(self, a: IType, b: IType) -> bool:
        _unify(a, b, self.uf)
        return True

    def target(self, t: CcgType) -> IType:
        return _fresh(t, self.ctr, self.uf.pinned)


# --- the resolution pass --------------------------------------------------------

@dataclass
class _RNode:
    word: str | None
    rule: RuleLabel | None
    children: list["_RNode"]
    itype: IType | None   # None where no UNARY binding can reach
    path: tuple   # the input node's path, linked (see ``rules.flat_path``)
    cat: CcgType   # the node's type; stale where ``itype`` is set, at and below a UNARY


_CONJ = RuleLabel("CONJ")

# C0 controls and DEL break the SVG (XML) and the one-line .biclosed outputs.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
# A lone surrogate (JSON "\ud800", or bytes kept by the surrogatepass decode)
# has no UTF-8 encoding, so no output could hold the word.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _resolve(raw: RawTree, path: tuple, ops: _IndexedOps, indexed: bool = False) -> _RNode:
    """Check a raw tree's labels and rule applications, and resolve its UNARY
    nodes by binding; CONJ nodes are carried through for ``_build``.

    A binding reaches only slots below its UNARY node, because every
    ancestor is resolved after it.  So indexed types are built, and rules
    combined on them, only where ``indexed`` marks a subtree below a UNARY;
    everywhere else the plain check of each rule decides."""
    uf, ctr = ops.uf, ops.ctr
    if isinstance(raw, RawLeaf):
        t = _parse_type(raw.type_str, path)
        if not raw.word:
            raise IngestError(f"empty word at node {_fmt(path)}")
        if _CONTROL.search(raw.word):
            raise IngestError(f"word {echo(repr(raw.word))} contains a control character "
                              f"at node {_fmt(path)}")
        if _SURROGATE.search(raw.word):
            raise IngestError(f"word {echo(repr(raw.word))} contains a lone surrogate "
                              f"at node {_fmt(path)}")
        return _RNode(raw.word, None, [], _fresh(t, ctr) if indexed else None, path, t)

    try:
        kind, rule = _rule_label(raw.rule_str)
    except ValueError:
        # parse again to name this node; a bad declared type is reported
        # before a label that breaks its schema
        kind, degree, target = _parse_rule(raw.rule_str, path)
        _parse_type(raw.type_str, path)
        try:
            rule = RuleLabel(kind, degree=degree, target=target)
        except ValueError as exc:
            raise IngestError(f"{exc} at node {_fmt(path)}") from None
    declared = _parse_type(raw.type_str, path)

    if kind == "LEX":
        raise IngestError(f"LEX is only valid on leaves, at node {_fmt(path)}")

    if kind == "UNARY":
        if len(raw.children) != 1:
            raise IngestError(f"UNARY needs exactly one child at node {_fmt(path)}")
        child = _resolve(raw.children[0], (path, 0), ops, True)
        slot = uf.find(uf.deref(child.itype).idx)
        pinned = slot in uf.pinned
        # a pinned class stays pinned, so a later retyping of it is checked too
        uf.bound[slot] = _fresh(declared, ctr, uf.pinned if pinned else None)
        if pinned and child.cat != declared:
            # only a rule node builds a pinned slot; its own rule is reported
            # first, else the rule application below that the retyping breaks
            computed = apply_rule(child.rule, [_erase(k.itype, uf) for k in child.children])
            where = (f"at node {_fmt(child.path)}: {echo(str(child.rule))} now yields "
                     f"{echo(computed.to_slash())}" if computed != declared
                     else f"below node {_fmt(child.path)}")
            raise IngestError(f"substitution produces a rule-schema violation {where}")
        child.cat = declared
        return child

    if kind == "CONJ":
        if len(raw.children) != 2:
            raise IngestError(f"CONJ needs exactly two children at node {_fmt(path)}")
        kids = [_resolve(k, (path, i), ops, indexed) for i, k in enumerate(raw.children)]
        return _RNode(None, _CONJ, kids, _fresh(declared, ctr) if indexed else None,
                      path, declared)

    kids = [_resolve(k, (path, i), ops, indexed) for i, k in enumerate(raw.children)]
    if len(kids) != rule.arity:
        raise IngestError(f"{echo(str(rule))} needs {rule.arity} children at node {_fmt(path)}")
    try:
        computed = apply_rule(rule, [k.cat for k in kids])
        if computed != declared:
            raise IngestError(
                f"{echo(str(rule))} produces {echo(computed.to_slash())} but node declares "
                f"{echo(declared.to_slash())} at node {_fmt(path)}")
    except RuleError as exc:
        raise IngestError(f"{exc} at node {_fmt(path)}") from None
    itype = combine(rule, [uf.deref(k.itype) for k in kids], ops) if indexed else None
    return _RNode(None, rule, kids, itype, path, declared)


# --- the build, with coordination expanded ---------------------------------------

CONJ_ATOM = Atom("CONJ")


@lru_cache(maxsize=4096)
def _has_conj(t: CcgType) -> bool:
    """Whether a CONJ atom occurs in ``t``, memoized because ``_build`` asks at
    every node."""
    return fold(t, lambda name: name == CONJ_ATOM.name, operator.or_, operator.or_)


def _cat(node: _RNode, uf: _UnionFind) -> CcgType:
    return node.cat if node.itype is None else _erase(node.itype, uf)


def _build(node: _RNode, uf: _UnionFind, conj_typed: list) -> Derivation:
    """Build the derivation of a resolved subtree, each node once.

    Coordination is rewritten as it is built: the conj leaf of ``X and X``
    becomes ``(X ⤚ X) ⤙ X``.  The path of each node whose type holds a CONJ
    atom is added to ``conj_typed``.
    """
    cat = _cat(node, uf)
    if _has_conj(cat):
        conj_typed.append(node.path)
    if node.rule is None:
        if cat == CONJ_ATOM:
            raise IngestError(f"CONJ in non-coordination position at node {_fmt(node.path)}")
        return Leaf(node.word, cat)
    if len(node.children) == 1:
        return Unary(node.rule, _build(node.children[0], uf, conj_typed), cat)
    if node.rule.kind == "CONJ":
        raise IngestError(f"CONJ in non-coordination position at node {_fmt(node.path)}")
    left, right = node.children
    if right.rule is None or right.rule.kind != "CONJ":
        return Binary(node.rule, _build(left, uf, conj_typed),
                      _build(right, uf, conj_typed), cat)
    left = _build(left, uf, conj_typed)
    conj_leaf, conjunct = right.children
    conjunct = _build(conjunct, uf, conj_typed)
    if conj_leaf.rule is not None or _cat(conj_leaf, uf) != CONJ_ATOM:
        raise IngestError(
            f"CONJ node needs a conj leaf on its left at node {_fmt(right.path)}")
    x = conjunct.cat
    if left.cat != x:
        raise IngestError(
            f"conjuncts' types differ at node {_fmt(node.path)}: "
            f"{echo(left.cat.to_slash())} vs {echo(x.to_slash())}")
    glue = Backward(x, x)
    declared = _cat(right, uf)
    if declared != glue:
        raise IngestError(
            f"CONJ node declares {echo(declared.to_slash())}, expected "
            f"{echo(glue.to_slash())} at node {_fmt(right.path)}")
    conj_word = Leaf(conj_leaf.word, Forward(glue, x))
    return Binary(node.rule, left, Binary(FA, conj_word, conjunct, glue), cat)


# --- pipeline helpers --------------------------------------------------------------

def ingest_tree(raw: RawTree) -> Derivation:
    """Full preprocessing, in three walks: resolve the raw tree's unary rules,
    build the derivation with conjunctions expanded, validate it."""
    ops = _IndexedOps(_UnionFind(), itertools.count(1))
    conj_typed: list[tuple] = []
    d = _build(_resolve(raw, (), ops), ops.uf, conj_typed)
    if conj_typed:   # reported after every coordination error
        raise IngestError("CONJ appears in a type after preprocessing")
    problems = validate(d)
    if problems:
        raise IngestError("derivation does not validate: " + "; ".join(map(str, problems)))
    return d


# A wrapper id names output files: a path component of at most 200 safe
# characters that is not hidden.
_SAFE_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,199}")


def _safe_id(ident) -> bool:
    return isinstance(ident, str) and _SAFE_ID.fullmatch(ident) is not None


def _wrapped_tree(item: dict, ptr: str) -> RawTree:
    extra = set(item) - {"id", "tree"}
    if extra:
        raise IngestError(f"unknown field {echo(repr(sorted(extra)[0]))} at {ptr or '/'}")
    if "id" in item and not _safe_id(item["id"]):
        raise IngestError(
            f"bad id at {ptr}/id: ids are strings of at most 200 characters from "
            "[A-Za-z0-9._-] that do not start with '.'")
    return _raw_node(item["tree"], f"{ptr}/tree")


def read_derivations(data: str | bytes, fmt: str = "json", *, collect_errors: bool = False
                     ) -> Iterator[tuple[str, RawTree | IngestError]]:
    """Read an input file: yields (id, raw tree) pairs in input order.

    JSON files hold a node, an ``{"id", "tree"}`` wrapper, or a list of
    either; text files hold one bracketed derivation per non-empty line.
    A wrapper's id must be a string of ``[A-Za-z0-9._-]`` not starting with
    ``.``; entries without one are named ``s<index>``.  With
    ``collect_errors`` a malformed entry (a bad id, an unknown wrapper field,
    a malformed tree) becomes an ``IngestError`` payload instead of aborting
    the batch (per-sentence isolation).

    The file is checked whole when this is called, so a file that cannot be
    decoded raises here; each entry is then decoded only when the result is
    iterated to it, so a caller that converts as it iterates holds one input
    tree at a time.  Wrap the result in ``list`` to index it.
    """
    if fmt == "ccgbank":
        text = data.decode() if isinstance(data, bytes) else data
        return _ccgbank_entries(text, collect_errors)
    if fmt != "json":
        raise IngestError(f"unknown input format {fmt!r}")
    if isinstance(data, bytes):
        data = data.decode(json.detect_encoding(data), "surrogatepass")
    starts = _list_starts(data)
    if starts is not None:
        return _json_entries(data, starts, True, collect_errors)
    # one node or wrapper, or a malformed file, which fails with the message
    # of decoding it whole
    _loads(data)
    return _json_entries(data, [_JSON_WS.match(data).end()], False, collect_errors)


def _json_entries(text: str, starts: list[int | None], listed: bool, collect_errors: bool):
    decode = json.JSONDecoder().raw_decode
    for i, start in enumerate(starts):
        ident, ptr = f"s{i}", f"/{i}" if listed else ""
        try:
            if start is None:
                raise IngestError(f"{_too_deep()} at /{i}")
            item = decode(text, start)[0]
            if isinstance(item, dict) and "tree" in item:
                named = item.get("id", ident)
                # an unsafe id is reported under its JSON spelling, on one line
                ident = named if _safe_id(named) else echo(json.dumps(named))
                tree = _wrapped_tree(item, ptr)
            else:
                tree = _raw_node(item, ptr)
        except (IngestError, RecursionError) as exc:
            tree = _failed(exc, "JSON", collect_errors)
        yield ident, tree


def _ccgbank_entries(text: str, collect_errors: bool):
    for lineno, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tree = read_ccgbank(stripped)
        except (IngestError, RecursionError) as exc:
            tree = _failed(exc, "bracketed text", collect_errors)
        yield f"s{lineno}", tree


def _failed(exc: Exception, what: str, collect_errors: bool) -> IngestError:
    """The error an entry fails with, raised unless ``collect_errors``."""
    if isinstance(exc, RecursionError):   # the reader recursed once per level
        exc = IngestError(_too_deep(f"{what} nested too deeply to read"))
    if not collect_errors:
        raise exc from None
    return exc


def derivation_to_json(d: Derivation) -> dict:
    """Serialize back to the interchange schema, walking an explicit stack:
    each node's dict is made empty and filled when the node is popped."""
    root: dict = {}
    todo = [(d, root)]
    while todo:
        node, out = todo.pop()
        if isinstance(node, Leaf):
            out.update(word=node.word, type=node.cat.to_slash())
            continue
        kids = children(node)
        out.update(rule=str(node.rule), type=node.cat.to_slash(), children=[{} for _ in kids])
        todo += zip(kids, out["children"])
    return root
