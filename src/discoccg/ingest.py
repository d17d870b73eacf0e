# -*- coding: utf-8 -*-
"""Readers and preprocessing for serialized derivations.

JSON is the normative interchange format; a CCGBank-flavored bracketed text
reader maps onto the same raw tree.  Two passes turn raw trees into validated
derivations: ``resolve_unary`` eliminates ad-hoc unary retypings by indexed
back-substitution (every type occurrence is linked to the argument slot it
unifies with, so a retyping at one node propagates through the already
processed subtree), and ``expand_conj`` rewrites ``conj`` leaves into
``(X ⤚ X) ⤙ X`` coordination.

Feature-annotated atoms (``S[dcl]``) are stripped to their bare atom here;
the semantics functor is defined on bare atoms.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from .ccgtypes import Atom, Backward, CcgType, Forward, TypeParseError, parse_type, strip_features
from .rules import (
    SCHEMAS, Binary, Derivation, Leaf, RuleError, RuleLabel, TypeOps, Unary,
    apply_rule, combine, validate,
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


def _loads(data: bytes | str, *, entrywise: bool = False):
    """Decode JSON; malformed or too deeply nested input is an ``IngestError``.

    With ``entrywise``, a top-level list too deeply nested to decode at once
    is decoded entry by entry: the result is the list of its entries, each
    one too deep to decode replaced by an ``IngestError``.
    """
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc}") from None
    except RecursionError:
        if isinstance(data, bytes):
            data = data.decode(json.detect_encoding(data), "surrogatepass")
        entries = _list_entries(data) if entrywise else None
        if entries is None:
            raise IngestError(_too_deep()) from None
    items: list = []
    for i, text in enumerate(entries):
        try:
            items.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON in entry /{i}: {exc}") from None
        except RecursionError:
            items.append(IngestError(f"{_too_deep()} at /{i}"))
    return items


def _too_deep() -> str:
    return ("JSON nested too deeply to decode (more levels than the "
            f"recursion limit of {sys.getrecursionlimit()})")


_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[\]{},]')


def _list_entries(text: str) -> list[str] | None:
    """The texts of the entries of a top-level JSON list, found without
    recursion (strings are skipped whole, brackets counted); ``None`` when
    ``text`` is not one bracket-balanced list."""
    opened: list[str] = []
    entries: list[str] = []
    start = 0
    for token in _JSON_TOKEN.finditer(text):
        c = token.group()
        if not opened and (c != "[" or text[:token.start()].strip()):
            return None
        if c in "[{":
            opened.append(c)
            if len(opened) == 1:
                start = token.end()
        elif c in "]}":
            if "[{".index(opened.pop()) != "]}".index(c):
                return None
            if not opened:
                entries.append(text[start:token.start()])
                return entries if not text[token.end():].strip() else None
        elif c == "," and len(opened) == 1:
            entries.append(text[start:token.start()])
            start = token.end()
    return None


def _raw_node(obj, ptr: str) -> RawTree:
    where = ptr or "/"
    if not isinstance(obj, dict):
        raise IngestError(f"expected an object at {where}")
    keys = set(obj)
    if "word" in keys:
        extra = keys - {"word", "type"}
        if extra:
            raise IngestError(f"unknown field {sorted(extra)[0]!r} at {where}")
        if keys != {"word", "type"}:
            raise IngestError(f"leaf needs 'word' and 'type' at {where}")
        if not isinstance(obj["word"], str) or not obj["word"]:
            raise IngestError(f"'word' must be a non-empty string at {ptr}/word")
        if not isinstance(obj["type"], str):
            raise IngestError(f"'type' must be a string at {ptr}/type")
        return RawLeaf(obj["word"], obj["type"])
    if "rule" in keys:
        extra = keys - {"rule", "type", "children"}
        if extra:
            raise IngestError(f"unknown field {sorted(extra)[0]!r} at {where}")
        if keys != {"rule", "type", "children"}:
            raise IngestError(f"internal node needs 'rule', 'type' and 'children' at {where}")
        if not isinstance(obj["rule"], str):
            raise IngestError(f"'rule' must be a string at {ptr}/rule")
        if not isinstance(obj["type"], str):
            raise IngestError(f"'type' must be a string at {ptr}/type")
        kids = obj["children"]
        if not isinstance(kids, list) or not kids:
            raise IngestError(f"'children' must be a non-empty list at {ptr}/children")
        children = tuple(
            _raw_node(kid, f"{ptr}/children/{i}") for i, kid in enumerate(kids))
        return RawNode(obj["rule"], obj["type"], children)
    raise IngestError(f"node needs either 'word' or 'rule' at {where}")


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


def _parse_type(text: str, path: tuple[int, ...]) -> CcgType:
    try:
        return _stripped_type(text)
    except TypeParseError as exc:
        raise IngestError(f"bad type {text!r} at node {_fmt(path)}: {exc}") from None


@lru_cache(maxsize=4096)
def _stripped_type(text: str) -> CcgType:
    """A type string's stripped type, memoized across sentences because a
    corpus reuses few categories; a parse error is raised, never cached, so
    each bad occurrence is reported at its own node."""
    return strip_features(parse_type(text))


def _fmt(path: tuple[int, ...]) -> str:
    return "/".join(map(str, path)) or "root"


def _parse_rule(text: str, path: tuple[int, ...]) -> tuple[str, int | None, CcgType | None]:
    head, _, param = text.strip().partition(":")
    kind = head.upper()
    schema = SCHEMAS.get(kind)
    if schema is None:
        raise IngestError(f"unknown rule {text!r} at node {_fmt(path)}")
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
    def __init__(self):
        self.parent: dict[int, int] = {}

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


def _fresh(t: CcgType, ctr) -> IType:
    if isinstance(t, Atom):
        return IAtom(next(ctr), t.name)
    if isinstance(t, Forward):
        return IFwd(next(ctr), _fresh(t.result, ctr), _fresh(t.argument, ctr))
    return IBwd(next(ctr), _fresh(t.argument, ctr), _fresh(t.result, ctr))


def _erase(it: IType) -> CcgType:
    if isinstance(it, IAtom):
        return Atom(it.name)
    if isinstance(it, IFwd):
        return Forward(_erase(it.result), _erase(it.argument))
    return Backward(_erase(it.argument), _erase(it.result))


def _unify(a: IType, b: IType, uf: _UnionFind):
    uf.union(a.idx, b.idx)
    if isinstance(a, IFwd) and isinstance(b, IFwd):
        _unify(a.result, b.result, uf)
        _unify(a.argument, b.argument, uf)
    elif isinstance(a, IBwd) and isinstance(b, IBwd):
        _unify(a.argument, b.argument, uf)
        _unify(a.result, b.result, uf)


def _substitute(it: IType, target: int, repl: IType, uf: _UnionFind) -> IType:
    if uf.find(it.idx) == target:
        return repl
    if isinstance(it, IAtom):
        return it
    if isinstance(it, IFwd):
        return IFwd(it.idx, _substitute(it.result, target, repl, uf),
                    _substitute(it.argument, target, repl, uf))
    return IBwd(it.idx, _substitute(it.argument, target, repl, uf),
                _substitute(it.result, target, repl, uf))


class _IndexedOps(TypeOps):
    """The rule schema on indexed types: matching unifies the slots an
    argument flows into, so later unary substitutions reach back through the
    tree, and every built node gets a fresh index.  Shapes are checked by
    ``apply_rule`` on the erased types first, so matching always succeeds."""

    slashes = (IFwd, IBwd)

    def __init__(self, uf: _UnionFind, ctr):
        self.uf, self.ctr = uf, ctr

    def make(self, forward: bool, result: IType, argument: IType) -> IType:
        if forward:
            return IFwd(next(self.ctr), result, argument)
        return IBwd(next(self.ctr), argument, result)

    def match(self, a: IType, b: IType) -> bool:
        _unify(a, b, self.uf)
        return True

    def target(self, t: CcgType) -> IType:
        return _fresh(t, self.ctr)


# --- the resolution pass --------------------------------------------------------

@dataclass
class _RNode:
    word: str | None
    rule: RuleLabel | None
    children: list["_RNode"]
    itype: IType
    path: tuple[int, ...]
    cat: CcgType   # the erased ``itype``, kept in step by ``_substitute_tree``


def resolve_unary(raw: RawTree) -> Derivation:
    """Resolve UNARY nodes by indexed back-substitution and build a Derivation.

    CONJ junction nodes are carried through untouched (see ``expand_conj``).
    On trees without unary nodes this is the plain reader.
    """
    root = _resolve(raw, (), _IndexedOps(_UnionFind(), itertools.count(1)))
    return _to_derivation(root)


def _resolve(raw: RawTree, path: tuple[int, ...], ops: _IndexedOps) -> _RNode:
    uf, ctr = ops.uf, ops.ctr
    if isinstance(raw, RawLeaf):
        t = _parse_type(raw.type_str, path)
        if not raw.word:
            raise IngestError(f"empty word at node {_fmt(path)}")
        return _RNode(raw.word, None, [], _fresh(t, ctr), path, t)

    kind, degree, target = _parse_rule(raw.rule_str, path)
    declared = _parse_type(raw.type_str, path)

    if kind == "LEX":
        raise IngestError(f"LEX is only valid on leaves, at node {_fmt(path)}")

    if kind == "UNARY":
        if len(raw.children) != 1:
            raise IngestError(f"UNARY needs exactly one child at node {_fmt(path)}")
        child = _resolve(raw.children[0], path + (0,), ops)
        target_id = uf.find(child.itype.idx)
        repl = _fresh(declared, ctr)
        _substitute_tree(child, target_id, repl, uf)
        _recheck(child)
        return child

    if kind == "CONJ":
        if len(raw.children) != 2:
            raise IngestError(f"CONJ needs exactly two children at node {_fmt(path)}")
        kids = [_resolve(k, path + (i,), ops) for i, k in enumerate(raw.children)]
        return _RNode(None, RuleLabel("CONJ"), kids, _fresh(declared, ctr), path, declared)

    try:
        rule = RuleLabel(kind, degree=degree, target=target)
    except ValueError as exc:
        raise IngestError(f"{exc} at node {_fmt(path)}") from None
    kids = [_resolve(k, path + (i,), ops) for i, k in enumerate(raw.children)]
    if len(kids) != rule.arity:
        raise IngestError(f"{rule} needs {rule.arity} children at node {_fmt(path)}")
    try:
        computed = apply_rule(rule, [k.cat for k in kids])
    except RuleError as exc:
        raise IngestError(f"{exc} at node {_fmt(path)}") from None
    if computed != declared:
        raise IngestError(
            f"{rule} produces {computed.to_slash()} but node declares "
            f"{declared.to_slash()} at node {_fmt(path)}")
    itype = combine(rule, [k.itype for k in kids], ops)
    return _RNode(None, rule, kids, itype, path, computed)


def _substitute_tree(node: _RNode, target: int, repl: IType, uf: _UnionFind):
    node.itype = _substitute(node.itype, target, repl, uf)
    node.cat = _erase(node.itype)
    for kid in node.children:
        _substitute_tree(kid, target, repl, uf)


def _recheck(node: _RNode):
    """After a substitution, every resolved rule application must still hold."""
    for kid in node.children:
        _recheck(kid)
    if node.rule is None or node.rule.kind == "CONJ":
        return
    try:
        computed = apply_rule(node.rule, [k.cat for k in node.children])
    except RuleError as exc:
        raise IngestError(
            f"substitution produces a rule-schema violation at node "
            f"{_fmt(node.path)}: {exc}") from None
    if computed != node.cat:
        raise IngestError(
            f"substitution produces a rule-schema violation at node "
            f"{_fmt(node.path)}: {node.rule} now yields {computed.to_slash()}")


def _to_derivation(node: _RNode) -> Derivation:
    if node.rule is None:
        return Leaf(node.word, node.cat)
    if len(node.children) == 1:
        return Unary(node.rule, _to_derivation(node.children[0]), node.cat)
    return Binary(
        node.rule, _to_derivation(node.children[0]),
        _to_derivation(node.children[1]), node.cat)


# --- conjunction expansion -------------------------------------------------------

CONJ_ATOM = Atom("CONJ")


def expand_conj(d: Derivation) -> Derivation:
    """Rewrite coordination: the conj leaf of ``X and X`` becomes ``(X ⤚ X) ⤙ X``.

    Identity on derivations without CONJ material.
    """
    return _expand(d, ())


def _expand(d: Derivation, path: tuple[int, ...]) -> Derivation:
    if isinstance(d, Leaf):
        if d.cat == CONJ_ATOM:
            raise IngestError(f"CONJ in non-coordination position at node {_fmt(path)}")
        return d
    if isinstance(d, Unary):
        return Unary(d.rule, _expand(d.child, path + (0,)), d.cat)
    if d.rule.kind == "CONJ":
        raise IngestError(f"CONJ in non-coordination position at node {_fmt(path)}")
    right = d.right
    if isinstance(right, Binary) and right.rule.kind == "CONJ":
        left = _expand(d.left, path + (0,))
        conj_leaf = right.left
        conjunct = _expand(right.right, path + (1, 1))
        if not isinstance(conj_leaf, Leaf) or conj_leaf.cat != CONJ_ATOM:
            raise IngestError(
                f"CONJ node needs a conj leaf on its left at node {_fmt(path + (1,))}")
        x = conjunct.cat
        if left.cat != x:
            raise IngestError(
                f"conjuncts' types differ at node {_fmt(path)}: "
                f"{left.cat.to_slash()} vs {x.to_slash()}")
        glue = Backward(x, x)
        if right.cat != glue:
            raise IngestError(
                f"CONJ node declares {right.cat.to_slash()}, expected "
                f"{glue.to_slash()} at node {_fmt(path + (1,))}")
        retyped = Leaf(conj_leaf.word, Forward(glue, x))
        inner = Binary(RuleLabel("FA"), retyped, conjunct, glue)
        return Binary(d.rule, left, inner, d.cat)
    return Binary(d.rule, _expand(d.left, path + (0,)),
                  _expand(d.right, path + (1,)), d.cat)


# --- pipeline helpers --------------------------------------------------------------

def _check_no_conj_types(d: Derivation):
    def scan(t: CcgType) -> bool:
        if isinstance(t, Atom):
            return t == CONJ_ATOM
        if isinstance(t, Forward):
            return scan(t.result) or scan(t.argument)
        return scan(t.argument) or scan(t.result)

    def walk(node: Derivation):
        if scan(node.cat):
            raise IngestError("CONJ appears in a type after preprocessing")
        if isinstance(node, Unary):
            walk(node.child)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)

    walk(d)


def ingest_tree(raw: RawTree) -> Derivation:
    """Full preprocessing: resolve unary rules, expand conjunctions, validate."""
    d = expand_conj(resolve_unary(raw))
    problems = validate(d)
    if problems:
        raise IngestError("derivation does not validate: " + "; ".join(map(str, problems)))
    _check_no_conj_types(d)
    return d


# A wrapper id names output files: a path component of at most 200 safe
# characters that is not hidden.
_SAFE_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,199}")


def _safe_id(ident) -> bool:
    return isinstance(ident, str) and _SAFE_ID.fullmatch(ident) is not None


def _wrapped_tree(item: dict, ptr: str) -> RawTree:
    extra = set(item) - {"id", "tree"}
    if extra:
        raise IngestError(f"unknown field {sorted(extra)[0]!r} at {ptr or '/'}")
    if "id" in item and not _safe_id(item["id"]):
        raise IngestError(
            f"bad id at {ptr}/id: ids are strings of at most 200 characters from "
            "[A-Za-z0-9._-] that do not start with '.'")
    return _raw_node(item["tree"], f"{ptr}/tree")


def read_derivations(data: str | bytes, fmt: str = "json", *,
                     collect_errors: bool = False) -> list[tuple[str, RawTree | IngestError]]:
    """Read a whole input file: returns (id, raw tree) pairs in input order.

    JSON files hold a node, an ``{"id", "tree"}`` wrapper, or a list of
    either; text files hold one bracketed derivation per non-empty line.
    A wrapper's id must be a string of ``[A-Za-z0-9._-]`` not starting with
    ``.``; entries without one are named ``s<index>``.  With
    ``collect_errors`` a malformed entry (a bad id, an unknown wrapper field,
    a malformed tree) becomes an ``IngestError`` payload instead of aborting
    the batch (per-sentence isolation).
    """
    out: list[tuple[str, RawTree | IngestError]] = []

    def push(ident: str, parse):
        try:
            out.append((ident, parse()))
        except IngestError as exc:
            if not collect_errors:
                raise
            out.append((ident, exc))

    if fmt == "ccgbank":
        text = data.decode() if isinstance(data, bytes) else data
        for lineno, line in enumerate(text.splitlines()):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            push(f"s{lineno}", lambda s=stripped: read_ccgbank(s))
        return out
    if fmt != "json":
        raise IngestError(f"unknown input format {fmt!r}")
    obj = _loads(data, entrywise=True)
    items = obj if isinstance(obj, list) else [obj]
    for i, item in enumerate(items):
        ptr = f"/{i}" if isinstance(obj, list) else ""
        if isinstance(item, IngestError):   # an entry too deep to decode
            if not collect_errors:
                raise item
            out.append((f"s{i}", item))
        elif isinstance(item, dict) and "tree" in item:
            ident = item.get("id", f"s{i}")
            # an unsafe id is reported under its JSON spelling, on one line
            push(ident if _safe_id(ident) else json.dumps(ident),
                 lambda it=item, p=ptr: _wrapped_tree(it, p))
        else:
            push(f"s{i}", lambda it=item, p=ptr: _raw_node(it, p))
    return out


def derivation_to_json(d: Derivation) -> dict:
    """Serialize back to the interchange schema."""
    if isinstance(d, Leaf):
        return {"word": d.word, "type": d.cat.to_slash()}
    if isinstance(d, Unary):
        return {"rule": str(d.rule), "type": d.cat.to_slash(),
                "children": [derivation_to_json(d.child)]}
    return {"rule": str(d.rule), "type": d.cat.to_slash(),
            "children": [derivation_to_json(d.left), derivation_to_json(d.right)]}
