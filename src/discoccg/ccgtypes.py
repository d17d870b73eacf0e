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


def _rebuild(self):
    """Pickle and copy by the constructor, so that ``pickle``, ``copy`` and ``deepcopy``
    return the receiving process's instance, not one made by ``__new__`` without parts."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, init=False)
class Atom:
    """A base categorial type such as NP, N, S, PP or CONJ."""

    name: str
    __reduce__ = _rebuild

    def __new__(cls, name: str):
        if not name:
            raise ValueError("atom name must be non-empty")
        return _interned(cls, name)

    def to_slash(self) -> str:
        return self.name

    def to_arrows(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False)
class Forward:
    """``result ⤙ argument`` (slash ``result/argument``): expects the argument on the right."""

    result: "CcgType"
    argument: "CcgType"
    __reduce__ = _rebuild

    def __new__(cls, result: "CcgType", argument: "CcgType"):
        return _interned(cls, result, argument)

    def to_slash(self) -> str:
        return f"{self.result.to_slash()}/{_wrap_slash(self.argument)}"

    def to_arrows(self) -> str:
        return f"{_wrap_arrows(self.result)} ⤙ {_wrap_arrows(self.argument)}"


@dataclass(frozen=True, eq=False, init=False)
class Backward:
    """``argument ⤚ result`` (slash ``result\\argument``): expects the argument on the left."""

    argument: "CcgType"
    result: "CcgType"
    __reduce__ = _rebuild

    def __new__(cls, argument: "CcgType", result: "CcgType"):
        return _interned(cls, argument, result)

    def to_slash(self) -> str:
        return f"{self.result.to_slash()}\\{_wrap_slash(self.argument)}"

    def to_arrows(self) -> str:
        return f"{_wrap_arrows(self.argument)} ⤚ {_wrap_arrows(self.result)}"


CcgType = Atom | Forward | Backward


def _wrap_slash(t: CcgType) -> str:
    # Arguments bind tighter than the left-associative slash chain.
    return t.to_slash() if isinstance(t, Atom) else f"({t.to_slash()})"


def _wrap_arrows(t: CcgType) -> str:
    return t.to_arrows() if isinstance(t, Atom) else f"({t.to_arrows()})"


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
    if isinstance(t, Atom):
        name = _FEATURE_RE.sub("", t.name)
        if name.lower() == "conj":
            name = "CONJ"
        return Atom(name)
    if isinstance(t, Forward):
        return Forward(strip_features(t.result), strip_features(t.argument))
    return Backward(strip_features(t.argument), strip_features(t.result))


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
