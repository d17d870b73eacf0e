# -*- coding: utf-8 -*-
"""Categorial types: atoms, slash types, parsing and printing.

Two concrete syntaxes share one grammar, ``term (op term)*``, and differ
only in their operators.  Slash notation follows the CCGBank convention
(slashes associate to the left, so ``S\\NP/NP == (S\\NP)/NP``).  Arrow
notation uses ``⤙``/``⤚`` and takes one operator per bracket, so every
nested type is parenthesized.

>>> parse_type("(S\\\\NP)/NP")
Forward(result=Backward(argument=Atom(name='NP'), result=Atom(name='S')), argument=Atom(name='NP'))
>>> print(parse_type("(S\\\\NP)/NP").to_slash())
S\\NP/NP
>>> parse_type("S\\\\NP/NP") is parse_type("(S\\\\NP)/NP")
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields


class TypeParseError(ValueError):
    """Raised on malformed type syntax; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


# Every category built so far, under its class and its parts: a name, or
# categories that are interned too, so a key hashes and compares in O(1).
_INSTANCES: dict = {}


def _interned(cls, *parts):
    if (t := _INSTANCES.get((cls, *parts))) is None:
        t = object.__new__(cls)
        t.__dict__.update(zip(cls.__match_args__, parts))
        t = _INSTANCES.setdefault((cls, *parts), t)   # atomic: threads share the winner
    return t


def fold(t: "CcgType", atom, forward, backward):
    """Map a category bottom-up: ``atom(name)`` at each atom, and
    ``forward(result, argument)`` or ``backward(argument, result)`` at each
    slash type, on the images of its parts.

    The walk keeps an explicit stack, so no nesting recurses.  It maps each
    distinct part once, first part first in the order the definitions read
    them, so of two parts that both fail the first raises; and it drops an
    image once every slash type over it is mapped, so a chain holds one at a
    time."""
    uses: dict = {}   # how many slash types have each part as a part
    todo = [t]
    while todo:
        if type(o := todo.pop()) is not Atom:
            for part in (o.result, o.argument):
                if (n := uses.get(part, 0)) == 0:
                    todo.append(part)
                uses[part] = n + 1
    images: dict = {}
    todo = [t]
    while todo:
        o = todo[-1]
        if o in images:
            todo.pop()
        elif type(o) is Atom:
            images[todo.pop()] = atom(o.name)
        else:
            slash = type(o) is Forward
            first, second = (o.result, o.argument) if slash else (o.argument, o.result)
            if second not in images:
                todo.append(second)
            if first not in images:
                todo.append(first)
            if todo[-1] is o:
                todo.pop()
                images[o] = (forward if slash else backward)(images[first], images[second])
                for part in (first, second):
                    uses[part] -= 1
                    if not uses[part]:
                        del images[part]
    return images[t]


def notation(t: "CcgType", forward: str, backward: str) -> tuple[str, str]:
    """``t`` printed, bare and as a bracketed part: an atom by its name, a
    slash type by the format string of its class over its parts' texts,
    ``{r}`` the result bare, ``{R}`` and ``{A}`` the result and the argument
    bracketed when they are slash types."""
    def hom(fmt, result, argument):
        text = fmt.format(r=result[0], R=result[1], A=argument[1])
        return text, f"({text})"

    return fold(t, lambda name: (name, name), lambda r, a: hom(forward, r, a),
                lambda a, r: hom(backward, r, a))


class _Category:
    """What every category class shares: its notations and its pickling."""

    def to_slash(self) -> str:
        # Arguments bind tighter than the left-associative slash chain.
        return notation(self, "{r}/{A}", "{r}\\{A}")[0]

    def to_arrows(self) -> str:
        return notation(self, "{R} ⤙ {A}", "{A} ⤚ {R}")[0]

    def __reduce__(self):
        """Pickle and copy by the constructor, so that ``pickle``, ``copy`` and ``deepcopy``
        return the receiving process's instance, not one made by ``__new__`` without parts."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, init=False)
class Atom(_Category):
    """A base categorial type such as NP, N, S, PP or CONJ."""

    name: str

    def __new__(cls, name: str):
        if not name:
            raise ValueError("atom name must be non-empty")
        return _interned(cls, name)


@dataclass(frozen=True, eq=False, init=False)
class Forward(_Category):
    """``result ⤙ argument`` (slash ``result/argument``): expects the argument on the right."""

    result: "CcgType"
    argument: "CcgType"

    def __new__(cls, result: "CcgType", argument: "CcgType"):
        return _interned(cls, result, argument)


@dataclass(frozen=True, eq=False, init=False)
class Backward(_Category):
    """``argument ⤚ result`` (slash ``result\\argument``): expects the argument on the left."""

    argument: "CcgType"
    result: "CcgType"

    def __new__(cls, argument: "CcgType", result: "CcgType"):
        return _interned(cls, argument, result)


CcgType = Atom | Forward | Backward


# An atom's name after ``strip_features``; ``--atom-map`` keys and bases too.
ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# One token after any whitespace: an atom with its feature brackets, or any
# other single character.
_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*(?:\[[A-Za-z0-9,]*\])?)|(\S))")
_FEATURE_RE = re.compile(r"\[[^\]]*\]")


def strip_features(t: CcgType) -> CcgType:
    """Normalize parser-specific atoms: drop feature brackets, upcase ``conj``.

    ``S[dcl]`` becomes ``S``; lexical ``conj`` becomes the ``CONJ`` atom.
    """
    return fold(t, _stripped_atom, Forward, Backward)


def _stripped_atom(name: str) -> Atom:
    name = _FEATURE_RE.sub("", name)
    return Atom("CONJ" if name.lower() == "conj" else name)


# Each notation's operators: the type built from the left and right operand.
_SLASHES = {"/": Forward, "\\": lambda result, argument: Backward(argument, result)}
_ARROWS = {"⤙": Forward, "⤚": Backward}


def parse_type(text: str) -> CcgType:
    """Parse a categorial type in slash or arrow notation.

    Both notations share one grammar over one token stream,
    ``expr := term (op term)*`` and ``term := atom | "(" expr ")"``; slash
    operators chain to the left, and arrow notation takes one operator per
    bracket.  Raises :class:`TypeParseError` with a byte offset on
    unbalanced parentheses, unknown tokens or empty input.
    """
    if not text.strip():
        raise TypeParseError("empty input", 0)
    arrows = "⤙" in text or "⤚" in text
    if arrows and ("/" in text or "\\" in text):
        raise TypeParseError("mixed slash and arrow notation", 0)
    ops = _ARROWS if arrows else _SLASHES
    # (atom, other) per token, one of them empty; both empty past the end
    tokens = _TOKEN.findall(text) + [("", "")]
    at = 0

    def fail(message: str, i: int):
        starts = [m.start(m.lastindex) for m in _TOKEN.finditer(text)] + [len(text)]
        raise TypeParseError(message, len(text[:starts[i]].encode("utf-8")))

    def expr() -> CcgType:
        nonlocal at
        t = first = term()
        while (op := tokens[at][1]) in ops:
            if arrows and t is not first:
                fail("arrow chain requires parentheses", at)
            at += 1
            t = ops[op](t, term())
        return t

    def term() -> CcgType:
        nonlocal at
        i, at = at, at + 1
        atom, other = tokens[i]
        if atom:
            return Atom(atom)
        if other != "(":
            fail("unknown token" if other else "unexpected end of input", i)
        t = expr()
        if tokens[at][1] != ")":
            fail("unbalanced parenthesis", i)
        at += 1
        return t

    t = expr()
    if any(tokens[at]):
        fail("unbalanced parenthesis" if tokens[at][1] == ")" else "unknown token", at)
    return t
