# -*- coding: utf-8 -*-
"""Categorial types: atoms, slash types, parsing and printing.

Two concrete syntaxes are supported.  Slash notation follows the CCGBank
convention (slashes associate to the left, so ``S\\NP/NP == (S\\NP)/NP``).
Arrow notation uses ``⤙``/``⤚`` and requires explicit parentheses for
every nested type.

>>> parse_type("(S\\\\NP)/NP")
Forward(result=Backward(argument=Atom(name='NP'), result=Atom(name='S')), argument=Atom(name='NP'))
>>> print(parse_type("(S\\\\NP)/NP").to_slash())
S\\NP/NP
>>> parse_type("S\\\\NP/NP") == parse_type("(S\\\\NP)/NP")
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


def _cached_hash(self) -> int:
    """The dataclass hash of a category, computed once per instance: every
    cache keyed by a category hashes it, and would otherwise re-hash its
    whole type tree at each lookup.  Until ``_hash`` is stored, the
    instance's ``__dict__`` holds exactly its fields, in order."""
    if self._hash is None:
        state = self.__dict__
        state["_hash"] = hash(tuple(state.values()))
    return self._hash


def _rebuild(self):
    """Pickle a category by its constructor, so that its cached hash, which
    depends on the process's string hashing, never reaches another process."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Atom:
    """A base categorial type such as NP, N, S, PP or CONJ."""

    name: str
    _hash = None
    __hash__ = _cached_hash
    __reduce__ = _rebuild

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be non-empty")

    def to_slash(self) -> str:
        return self.name

    def to_arrows(self) -> str:
        return self.name


@dataclass(frozen=True)
class Forward:
    """``result ⤙ argument`` (slash ``result/argument``): expects the argument on the right."""

    result: "CcgType"
    argument: "CcgType"
    _hash = None
    __hash__ = _cached_hash
    __reduce__ = _rebuild

    def to_slash(self) -> str:
        return f"{self.result.to_slash()}/{_wrap_slash(self.argument)}"

    def to_arrows(self) -> str:
        return f"{_wrap_arrows(self.result)} ⤙ {_wrap_arrows(self.argument)}"


@dataclass(frozen=True)
class Backward:
    """``argument ⤚ result`` (slash ``result\\argument``): expects the argument on the left."""

    argument: "CcgType"
    result: "CcgType"
    _hash = None
    __hash__ = _cached_hash
    __reduce__ = _rebuild

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
_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:\[[A-Za-z0-9,]*\])?")
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


class _Scanner:
    """Tokenizer that reports positions as UTF-8 byte offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def byte_offset(self, pos: int | None = None) -> int:
        return len(self.text[: self.pos if pos is None else pos].encode("utf-8"))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def atom(self) -> Atom:
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            raise TypeParseError("unknown token", self.byte_offset())
        self.pos = m.end()
        return Atom(m.group())


def parse_type(text: str) -> CcgType:
    """Parse a categorial type in slash or arrow notation.

    Raises :class:`TypeParseError` with a byte offset on unbalanced
    parentheses, unknown tokens or empty input.
    """
    if not text.strip():
        raise TypeParseError("empty input", 0)
    if "⤙" in text or "⤚" in text:
        if "/" in text or "\\" in text:
            raise TypeParseError("mixed slash and arrow notation", 0)
        return _parse(text, _arrow_expr)
    return _parse(text, _slash_expr)


def _parse(text: str, expr) -> CcgType:
    """Parse all of ``text`` with ``expr``, the slash or the arrow grammar."""
    sc = _Scanner(text)
    t = expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        if text[sc.pos] == ")":
            raise TypeParseError("unbalanced parenthesis", sc.byte_offset())
        raise TypeParseError("unknown token", sc.byte_offset())
    return t


def _slash_expr(sc: _Scanner) -> CcgType:
    t = _term(sc, _slash_expr)
    while True:
        c = sc.peek()
        if c == "/":
            sc.pos += 1
            t = Forward(t, _term(sc, _slash_expr))
        elif c == "\\":
            sc.pos += 1
            t = Backward(_term(sc, _slash_expr), t)
        else:
            return t


def _arrow_expr(sc: _Scanner) -> CcgType:
    left = _term(sc, _arrow_expr)
    c = sc.peek()
    if c in ("⤙", "⤚"):
        sc.pos += 1
        right = _term(sc, _arrow_expr)
        result = Forward(left, right) if c == "⤙" else Backward(left, right)
        nxt = sc.peek()
        if nxt in ("⤙", "⤚"):
            # Arrow notation carries no precedence; chains must be bracketed.
            raise TypeParseError("arrow chain requires parentheses", sc.byte_offset())
        return result
    return left


def _term(sc: _Scanner, expr) -> CcgType:
    """An atom, or a parenthesized ``expr``."""
    c = sc.peek()
    if c is None:
        raise TypeParseError("unexpected end of input", sc.byte_offset())
    if c == "(":
        open_at = sc.pos
        sc.pos += 1
        t = expr(sc)
        if sc.peek() != ")":
            raise TypeParseError("unbalanced parenthesis", sc.byte_offset(open_at))
        sc.pos += 1
        return t
    return sc.atom()
