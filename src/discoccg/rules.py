# -*- coding: utf-8 -*-
"""The CCG rule catalog: combinatory schemas, derivation trees and validation."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .ccgtypes import Backward, CcgType, Forward

MAX_COMPOSITION_DEGREE = 4


@dataclass(frozen=True)
class Schema:
    """How one rule kind combines types.

    A combinatory rule's primary functor is ``forward`` (X ⤙ Y, on the left)
    or backward (Y ⤚ X, on the right).  Composition of degree n peels n
    arguments off the secondary, outermost first, matches the innermost
    result against Y and hands the arguments on to X: application is degree
    0 and harmonic composition degree 1.  ``degree`` is that fixed degree, or
    None when the label carries it.  Crossed composition is composition whose
    innermost peeled argument has the other slash.  Type-raising builds its
    output around the label's target type.  ``param`` names what a label of
    the kind carries.  Kinds whose ``forward`` is None are not combinatory:
    LEX marks leaves, and UNARY and CONJ are eliminated by the ingest passes.
    """

    forward: bool | None = None
    degree: int | None = None
    crossed: bool = False
    raising: bool = False
    param: str | None = None   # "degree" or "target"


SCHEMAS: dict[str, Schema] = {
    "LEX": Schema(),
    "FA": Schema(True, 0),
    "BA": Schema(False, 0),
    "FC": Schema(True, 1),
    "BC": Schema(False, 1),
    "GFC": Schema(True, param="degree"),
    "GBC": Schema(False, param="degree"),
    "FTR": Schema(True, raising=True, param="target"),
    "BTR": Schema(False, raising=True, param="target"),
    "FCX": Schema(True, 1, crossed=True),
    "BCX": Schema(False, 1, crossed=True),
    "GFCX": Schema(True, crossed=True, param="degree"),
    "GBCX": Schema(False, crossed=True, param="degree"),
    "UNARY": Schema(param="target"),
    "CONJ": Schema(),
}


class RuleError(ValueError):
    """A rule was applied to inputs that do not match its schema."""


@dataclass(frozen=True)
class RuleLabel:
    kind: str
    degree: int | None = None
    target: CcgType | None = None

    def __post_init__(self):
        schema = SCHEMAS.get(self.kind)
        if schema is None:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if schema.param == "degree":
            if self.degree is None or self.degree < 1:
                raise ValueError(f"{self.kind} requires a degree >= 1")
        elif self.degree is not None:
            raise ValueError(f"{self.kind} takes no degree")
        if schema.param == "target":
            if self.target is None:
                raise ValueError(f"{self.kind} requires a target type")
        elif self.target is not None:
            raise ValueError(f"{self.kind} takes no target type")

    def __str__(self) -> str:
        if self.degree is not None:
            return f"{self.kind}:{self.degree}"
        if self.target is not None:
            return f"{self.kind}:{self.target.to_slash()}"
        return self.kind

    @property
    def schema(self) -> Schema:
        return SCHEMAS[self.kind]

    @property
    def arity(self) -> int:
        return 1 if self.schema.param == "target" else 2

    @property
    def composition_degree(self) -> int | None:
        """How many arguments a composition peels: fixed by the kind, or the
        label's degree."""
        fixed = self.schema.degree
        return self.degree if fixed is None else fixed


FA = RuleLabel("FA")
BA = RuleLabel("BA")
FC = RuleLabel("FC")
BC = RuleLabel("BC")
FCX = RuleLabel("FCX")
BCX = RuleLabel("BCX")


def gfc(n: int) -> RuleLabel:
    return RuleLabel("GFC", degree=n)


def gbc(n: int) -> RuleLabel:
    return RuleLabel("GBC", degree=n)


def ftr(target: CcgType) -> RuleLabel:
    return RuleLabel("FTR", target=target)


def btr(target: CcgType) -> RuleLabel:
    return RuleLabel("BTR", target=target)


def unary(target: CcgType) -> RuleLabel:
    return RuleLabel("UNARY", target=target)


def _fail(rule: RuleLabel, expected: str, inputs: list[CcgType]) -> RuleError:
    actual = ", ".join(echo(t.to_slash()) for t in inputs)
    return RuleError(f"{echo(str(rule))}: expected {expected}, got [{actual}]")


def peel(t, n: int) -> tuple:
    """Strip the ``n`` outermost arguments of a type already known to have
    them, whatever their slashes: returns (innermost result, args) with args
    outermost-first, so ``peel((Y/Z2)/Z1, 2) == (Y, [Z1, Z2])``."""
    args = []
    for _ in range(n):
        args.append(t.argument)
        t = t.result
    return t, args


class TypeOps:
    """The type operations a rule schema needs.

    This base works on plain :data:`CcgType` values and matches by equality;
    the unary resolver substitutes indexed types, unification and fresh
    indices.  ``slashes`` holds the forward and the backward class, both
    with ``result`` and ``argument`` fields.
    """

    slashes = (Forward, Backward)

    def make(self, forward: bool, result, argument):
        return Forward(result, argument) if forward else Backward(argument, result)

    def match(self, a, b) -> bool:
        return a == b

    def target(self, t: CcgType):
        return t


PLAIN = TypeOps()

_PRIMARY = {True: "X ⤙ Y", False: "Y ⤚ X"}


def combine(rule: RuleLabel, inputs: list, ops: TypeOps = PLAIN):
    """The one rule schema: combine ``inputs`` under ``rule`` and return the
    output type, in the representation ``ops`` works on.

    Raises :class:`RuleError` on arity or shape mismatch.  UNARY, CONJ and
    LEX are not combinatory rules: they are resolved by the ingest passes
    and rejected here.
    """
    schema = rule.schema
    forward = schema.forward
    if forward is None:
        raise RuleError(f"{rule.kind} is not a combinatory rule")
    if len(inputs) != rule.arity:
        raise RuleError(f"{echo(str(rule))}: expected {rule.arity} inputs, got {len(inputs)}")
    fwd, bwd = ops.slashes
    if schema.raising:
        # T ⤙ (X ⤚ T) forward, (T ⤙ X) ⤚ T backward
        t = ops.target(rule.target)
        return ops.make(forward, t, ops.make(not forward, t, inputs[0]))

    n = rule.composition_degree
    if n > MAX_COMPOSITION_DEGREE:
        raise RuleError(f"{echo(str(rule))}: degree exceeds the bound {MAX_COMPOSITION_DEGREE}")
    fn, inner = inputs if forward else inputs[::-1]
    slash, other = (fwd, bwd) if forward else (bwd, fwd)
    if not isinstance(fn, slash):
        raise _fail(rule, f"a primary of the form {_PRIMARY[forward]}", inputs)
    wants = [slash] * n
    if schema.crossed:
        wants[-1] = other
    peeled = []
    for want in wants:
        if not isinstance(inner, want):
            marks = " ".join("⤙" if w is fwd else "⤚" for w in wants)
            raise _fail(rule, f"a secondary whose outermost slashes are {marks}", inputs)
        peeled.append((want is fwd, inner.argument))
        inner = inner.result
    if not ops.match(fn.argument, inner):
        what = "the secondary's innermost result" if n else "the secondary"
        raise _fail(rule, f"{what} to equal the primary's argument Y", inputs)
    out = fn.result
    for is_forward, arg in reversed(peeled):
        out = ops.make(is_forward, out, arg)
    return out


def apply_rule(rule: RuleLabel, inputs: list[CcgType]) -> CcgType:
    """Apply a combinatory rule schema to input types and return the output type.

    Raises :class:`RuleError` on arity or shape mismatch (see :func:`combine`).
    """
    return _applied(rule, tuple(inputs))


@lru_cache(maxsize=4096)
def _applied(rule: RuleLabel, inputs: tuple[CcgType, ...]) -> CcgType:
    """``apply_rule``, memoized because a corpus repeats few rule instances:
    ingest checks each node and validation checks it again.  A mismatch is
    raised, never cached, so each occurrence fails at its own node."""
    return combine(rule, list(inputs))


@dataclass(frozen=True)
class Leaf:
    word: str
    cat: CcgType


@dataclass(frozen=True)
class Unary:
    rule: RuleLabel
    child: "Derivation"
    cat: CcgType


@dataclass(frozen=True)
class Binary:
    rule: RuleLabel
    left: "Derivation"
    right: "Derivation"
    cat: CcgType


Derivation = Leaf | Unary | Binary


def children(d: Derivation) -> tuple[Derivation, ...]:
    """A node's children, left to right; a leaf has none."""
    if isinstance(d, Binary):
        return (d.left, d.right)
    return (d.child,) if isinstance(d, Unary) else ()


def flat_path(path: tuple) -> tuple[int, ...]:
    """The child indices from the root down to a node.

    Tree walks hand each child its path as a linked ``(parent path, index)``
    pair, with ``()`` at the root, so a path costs one pair per node and is
    flattened only when a message names it.
    """
    indices = []
    while path:
        path, i = path
        indices.append(i)
    return tuple(reversed(indices))


def walk(root, expand, finish):
    """Map a tree bottom-up on an explicit stack, so depth needs no recursion.

    ``expand(node, path)`` runs in pre-order, left to right, on the node's
    linked path (see :func:`flat_path`) and returns its state and children;
    ``finish(state, results)`` runs once its children's results are made.  A
    node without children is not finished: its state is its result."""
    done: list = []   # the results of finished subtrees, in document order
    todo: list = [(root, ())]   # (node, path) to expand; (state, count) to finish
    pop, push, keep = todo.pop, todo.append, done.append
    while todo:
        node, path = pop()
        if type(path) is int:   # the node's results are the last ``path`` made
            results = done[-path:]
            del done[-path:]
            keep(finish(node, results))
            continue
        state, kids = expand(node, path)
        if kids:
            push((state, len(kids)))
            for i in range(len(kids) - 1, -1, -1):
                push((kids[i], (path, i)))
        else:
            keep(state)
    return done[0]


def path_str(path: tuple[int, ...]) -> str:
    """A flat node path as messages print it: ``0/1``, or ``root``."""
    return "/".join(map(str, path)) or "root"


# Messages repeat an input item back whole up to this many characters.
ECHO_LIMIT = 200


def echo(item: str) -> str:
    """An input item as a message repeats it back: a category's slash text, a
    rule, a word, a field name or an id.  An item longer than ``ECHO_LIMIT``
    characters prints as its first ``ECHO_LIMIT``, then ``…`` and its length."""
    if len(item) <= ECHO_LIMIT:
        return item
    return f"{item[:ECHO_LIMIT]}… ({len(item)} characters)"


@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{path_str(self.path)}: {self.message}"


def _preorder(d: Derivation) -> Iterator[Derivation]:
    """The nodes of ``d`` in pre-order, left to right, without recursion."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


def leaves(d: Derivation) -> list[Leaf]:
    return [node for node in _preorder(d) if isinstance(node, Leaf)]


def rule_histogram(d: Derivation) -> dict[str, int]:
    hist = Counter(str(node.rule) for node in _preorder(d) if not isinstance(node, Leaf))
    return dict(sorted(hist.items()))


def validate(d: Derivation) -> list[Violation]:
    """Check that every node's type is the rule-schema output of its children.

    Total: returns a list of violations (empty when the derivation is legal).
    Unresolved UNARY and CONJ nodes are reported; they must be eliminated by
    the ingest passes first.  Violations come in post-order, children left to
    right before their node, as :func:`walk` finishes them.
    """
    out: list[Violation] = []

    def expand(node, path):
        if isinstance(node, Leaf):
            if not node.word:
                out.append(Violation(flat_path(path), "empty word at leaf"))
            return node.cat, ()
        return (node, path), children(node)

    def finish(state, cats):
        node, path = state
        try:
            produced = apply_rule(node.rule, cats)
            if produced != node.cat:
                out.append(Violation(flat_path(path), f"{echo(str(node.rule))} produces "
                                     f"{echo(produced.to_slash())}, node claims "
                                     f"{echo(node.cat.to_slash())}"))
        except RuleError as exc:
            out.append(Violation(flat_path(path), str(exc)))
        return node.cat

    walk(d, expand, finish)
    return out
