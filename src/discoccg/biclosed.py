# -*- coding: utf-8 -*-
"""Free biclosed category IR.

Objects are categorial types plus a monoidal unit and tensor; morphisms are
syntax trees built from words, identities, composition, tensor, the four
curry/uncurry operators and explicit crossed-composition generator boxes.
Every term carries its derived dom/cod.  No biclosed equations are applied at
this level: terms are faithful proof trees, and equality questions live at the
diagram level.

Order-preserving CCG rules are constructed purely by currying/uncurrying
identities; crossed composition has no such construction and is added as a
generator (:class:`CrossBox`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .ccgtypes import Atom, Backward, CcgType, Forward
from .rules import (
    Derivation, Leaf, RuleError, RuleLabel, Unary, peel_backward,
    peel_forward, validate,
)


@dataclass(frozen=True)
class Unit:
    def to_str(self) -> str:
        return "I"


@dataclass(frozen=True)
class Base:
    atom: Atom

    def to_str(self) -> str:
        return self.atom.name


@dataclass(frozen=True)
class LeftHom:
    """``arg ⤚ res``: the left internal hom."""

    arg: "BObject"
    res: "BObject"

    def to_str(self) -> str:
        return f"{_wrap(self.res)}\\{_wrap(self.arg)}"


@dataclass(frozen=True)
class RightHom:
    """``res ⤙ arg``: the right internal hom."""

    res: "BObject"
    arg: "BObject"

    def to_str(self) -> str:
        return f"{_wrap(self.res)}/{_wrap(self.arg)}"


@dataclass(frozen=True)
class TensorObj:
    """Canonical n-ary tensor: at least two factors, none of them Unit or Tensor."""

    parts: tuple["BObject", ...]

    def to_str(self) -> str:
        return "(" + "@".join(_wrap(p) for p in self.parts) + ")"


BObject = Unit | Base | LeftHom | RightHom | TensorObj

UNIT = Unit()


def _wrap(o: BObject) -> str:
    if isinstance(o, (Unit, Base)):
        return o.to_str()
    if isinstance(o, TensorObj):
        return o.to_str()
    return f"({o.to_str()})"


def factors(o: BObject) -> tuple[BObject, ...]:
    if isinstance(o, Unit):
        return ()
    if isinstance(o, TensorObj):
        return o.parts
    return (o,)


def tensor_obj(*objs: BObject) -> BObject:
    flat: tuple[BObject, ...] = ()
    for o in objs:
        flat += factors(o)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    return TensorObj(flat)


@lru_cache(maxsize=4096)
def to_bobject(t: CcgType) -> BObject:
    """Embed a categorial type as a biclosed object (memoized by value)."""
    if isinstance(t, Atom):
        return Base(t)
    if isinstance(t, Forward):
        return RightHom(to_bobject(t.result), to_bobject(t.argument))
    return LeftHom(to_bobject(t.argument), to_bobject(t.result))


class BTermError(TypeError):
    """A term constructor received arguments of the wrong shape."""


@dataclass(frozen=True)
class BTerm:
    dom: BObject
    cod: BObject
    # Set when the term is the image of a CCG rule; the functor uses it to emit
    # the rule's direct diagram instead of the generic curry construction.
    rule: RuleLabel | None = field(default=None, kw_only=True)


@dataclass(frozen=True)
class Word(BTerm):
    label: str = field(kw_only=True)


@dataclass(frozen=True)
class IdTerm(BTerm):
    pass


@dataclass(frozen=True)
class ComposeTerm(BTerm):
    g: BTerm = field(kw_only=True)
    f: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class TensorTerm(BTerm):
    left: BTerm = field(kw_only=True)
    right: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class CurryL(BTerm):
    inner: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class CurryR(BTerm):
    inner: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class UncurryL(BTerm):
    inner: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class UncurryR(BTerm):
    inner: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class CrossBox(BTerm):
    """Generator for crossed composition, with explicit constituent objects.

    A nonempty ``trailing`` encodes the generalized rules: those argument
    objects ride through the image on identity wires.
    """

    direction: str = field(kw_only=True)
    x: BObject = field(kw_only=True)
    y: BObject = field(kw_only=True)
    z: BObject = field(kw_only=True)
    trailing: tuple[BObject, ...] = field(default=(), kw_only=True)


def word(label: str, obj: BObject) -> Word:
    if not label:
        raise BTermError("word label must be non-empty")
    return Word(UNIT, obj, label=label)


def id_term(obj: BObject) -> IdTerm:
    return IdTerm(obj, obj)


def compose(g: BTerm, f: BTerm) -> ComposeTerm:
    """``g ∘ f``: apply ``f`` first."""
    if f.cod != g.dom:
        raise BTermError(
            f"compose mismatch: f has cod {f.cod.to_str()}, g has dom {g.dom.to_str()}")
    return ComposeTerm(f.dom, g.cod, g=g, f=f)


def tensor_term(left: BTerm, right: BTerm) -> TensorTerm:
    return TensorTerm(
        tensor_obj(left.dom, right.dom), tensor_obj(left.cod, right.cod),
        left=left, right=right)


def curry_l(f: BTerm) -> CurryL:
    """κL: turn ``A ⊗ B → C`` into ``B → (A ⤚ C)`` by peeling the first factor."""
    parts = factors(f.dom)
    if not parts:
        raise BTermError("curry_l needs a non-unit domain")
    a, rest = parts[0], tensor_obj(*parts[1:])
    return CurryL(rest, LeftHom(a, f.cod), inner=f)


def curry_r(f: BTerm) -> CurryR:
    """κR: turn ``A ⊗ B → C`` into ``A → (C ⤙ B)`` by peeling the last factor."""
    parts = factors(f.dom)
    if not parts:
        raise BTermError("curry_r needs a non-unit domain")
    b, rest = parts[-1], tensor_obj(*parts[:-1])
    return CurryR(rest, RightHom(f.cod, b), inner=f)


def uncurry_l(g: BTerm) -> UncurryL:
    if not isinstance(g.cod, LeftHom):
        raise BTermError(f"uncurry_l needs a left-hom codomain, got {g.cod.to_str()}")
    return UncurryL(tensor_obj(g.cod.arg, g.dom), g.cod.res, inner=g)


def uncurry_r(g: BTerm) -> UncurryR:
    if not isinstance(g.cod, RightHom):
        raise BTermError(f"uncurry_r needs a right-hom codomain, got {g.cod.to_str()}")
    return UncurryR(tensor_obj(g.dom, g.cod.arg), g.cod.res, inner=g)


def cross_box(direction: str, x: BObject, y: BObject, z: BObject,
              trailing: tuple[BObject, ...] = ()) -> CrossBox:
    if direction not in ("FCX", "BCX"):
        raise BTermError(f"direction must be FCX or BCX, got {direction!r}")
    if direction == "FCX":
        secondary: BObject = LeftHom(z, y)
        out: BObject = LeftHom(z, x)
        for w in trailing:
            secondary = RightHom(secondary, w)
            out = RightHom(out, w)
        dom = tensor_obj(RightHom(x, y), secondary)
    else:
        secondary = RightHom(y, z)
        out = RightHom(x, z)
        for w in trailing:
            secondary = LeftHom(w, secondary)
            out = LeftHom(w, out)
        dom = tensor_obj(secondary, LeftHom(y, x))
    return CrossBox(dom, out, direction=direction, x=x, y=y, z=z, trailing=trailing)


def annotate(term: BTerm, rule: RuleLabel) -> BTerm:
    return replace(term, rule=rule)


def fa_term(x: BObject, y: BObject) -> BTerm:
    """Evaluation ``(X ⤙ Y) ⊗ Y → X`` as the right-uncurried identity."""
    return uncurry_r(id_term(RightHom(x, y)))


def ba_term(y: BObject, x: BObject) -> BTerm:
    """Evaluation ``Y ⊗ (Y ⤚ X) → X`` as the left-uncurried identity."""
    return uncurry_l(id_term(LeftHom(y, x)))


def rule_term(rule: RuleLabel, inputs: list[CcgType]) -> BTerm:
    """Build the biclosed image of one rule application.

    Order-preserving rules arise by currying/uncurrying identities; crossed
    rules are generator boxes.  The returned term is annotated with the rule.
    """
    if len(inputs) != rule.arity:
        raise RuleError(f"{rule}: expected {rule.arity} inputs, got {len(inputs)}")
    objs = [to_bobject(t) for t in inputs]

    if rule.kind == "FA":
        fn = inputs[0]
        if not isinstance(fn, Forward):
            raise RuleError(f"FA: primary must be a forward type, got {fn.to_slash()}")
        term = fa_term(to_bobject(fn.result), to_bobject(fn.argument))
    elif rule.kind == "BA":
        fn = inputs[1]
        if not isinstance(fn, Backward):
            raise RuleError(f"BA: primary must be a backward type, got {fn.to_slash()}")
        term = ba_term(to_bobject(fn.argument), to_bobject(fn.result))
    elif rule.kind in ("FC", "GFC"):
        term = _gfc_term(inputs, 1 if rule.kind == "FC" else rule.degree)
    elif rule.kind in ("BC", "GBC"):
        term = _gbc_term(inputs, 1 if rule.kind == "BC" else rule.degree)
    elif rule.kind == "FTR":
        x, t = to_bobject(inputs[0]), to_bobject(rule.target)
        term = curry_r(uncurry_l(id_term(LeftHom(x, t))))
    elif rule.kind == "BTR":
        x, t = to_bobject(inputs[0]), to_bobject(rule.target)
        term = curry_l(uncurry_r(id_term(RightHom(t, x))))
    elif rule.kind in ("FCX", "GFCX"):
        n = 1 if rule.kind == "FCX" else rule.degree
        fn, secondary = inputs
        try:
            crossed, trailing = peel_forward(secondary, n - 1)
        except ValueError:
            raise RuleError(f"{rule}: secondary lacks {n - 1} trailing forward arguments") from None
        if not (isinstance(fn, Forward) and isinstance(crossed, Backward)
                and crossed.result == fn.argument):
            raise RuleError(f"{rule}: inputs do not match (X ⤙ Y, Z ⤚ Y)")
        term = cross_box(
            "FCX", to_bobject(fn.result), to_bobject(fn.argument),
            to_bobject(crossed.argument),
            tuple(to_bobject(w) for w in trailing))
    elif rule.kind in ("BCX", "GBCX"):
        n = 1 if rule.kind == "BCX" else rule.degree
        secondary, fn = inputs
        try:
            crossed, trailing = peel_backward(secondary, n - 1)
        except ValueError:
            raise RuleError(f"{rule}: secondary lacks {n - 1} trailing backward arguments") from None
        if not (isinstance(fn, Backward) and isinstance(crossed, Forward)
                and crossed.result == fn.argument):
            raise RuleError(f"{rule}: inputs do not match (Y ⤙ Z, Y ⤚ X)")
        term = cross_box(
            "BCX", to_bobject(fn.result), to_bobject(fn.argument),
            to_bobject(crossed.argument),
            tuple(to_bobject(w) for w in trailing))
    else:
        raise RuleError(f"{rule.kind} has no biclosed image")

    expected_dom = tensor_obj(*objs)
    if term.dom != expected_dom:
        raise RuleError(
            f"{rule}: inputs {expected_dom.to_str()} do not match schema dom {term.dom.to_str()}")
    return annotate(term, rule)


def _gfc_term(inputs: list[CcgType], n: int) -> BTerm:
    fn, secondary = inputs
    if not isinstance(fn, Forward):
        raise RuleError(f"FC/GFC: primary must be a forward type, got {fn.to_slash()}")
    x, y = to_bobject(fn.result), to_bobject(fn.argument)
    try:
        inner, args = peel_forward(secondary, n)
    except ValueError:
        raise RuleError(f"GFC:{n}: secondary lacks {n} forward arguments") from None
    if to_bobject(inner) != y:
        raise RuleError("GFC: secondary innermost result does not match Y")
    arg_objs = [to_bobject(a) for a in args]
    # Uncurried chain (X⤙Y) ⊗ R ⊗ A1 ⊗ ... ⊗ An → X, evaluated outermost-first.
    spine = to_bobject(secondary)
    chain: BTerm | None = None
    for j, a in enumerate(arg_objs):
        assert isinstance(spine, RightHom)
        step: BTerm = tensor_term(id_term(RightHom(x, y)), fa_term(spine.res, a))
        for rest in arg_objs[j + 1:]:
            step = tensor_term(step, id_term(rest))
        chain = step if chain is None else compose(step, chain)
        spine = spine.res
    chain = compose(fa_term(x, y), chain) if chain is not None else fa_term(x, y)
    for _ in range(n):
        chain = curry_r(chain)
    return chain


def _gbc_term(inputs: list[CcgType], n: int) -> BTerm:
    secondary, fn = inputs
    if not isinstance(fn, Backward):
        raise RuleError(f"BC/GBC: primary must be a backward type, got {fn.to_slash()}")
    y, x = to_bobject(fn.argument), to_bobject(fn.result)
    try:
        inner, args = peel_backward(secondary, n)
    except ValueError:
        raise RuleError(f"GBC:{n}: secondary lacks {n} backward arguments") from None
    if to_bobject(inner) != y:
        raise RuleError("GBC: secondary innermost result does not match Y")
    arg_objs = [to_bobject(a) for a in args]
    # Chain An ⊗ ... ⊗ A1 ⊗ L ⊗ (Y⤚X) → X.
    spine = to_bobject(secondary)
    chain: BTerm | None = None
    for j, a in enumerate(arg_objs):
        assert isinstance(spine, LeftHom)
        step = tensor_term(ba_term(a, spine.res), id_term(LeftHom(y, x)))
        for rest in arg_objs[j + 1:]:
            step = tensor_term(id_term(rest), step)
        chain = step if chain is None else compose(step, chain)
        spine = spine.res
    chain = compose(ba_term(y, x), chain) if chain is not None else ba_term(y, x)
    for _ in range(n):
        chain = curry_l(chain)
    return chain


def lower_derivation(d: Derivation) -> BTerm:
    """Lower a validated derivation to its biclosed term.

    Leaves become word states ``I → X``; binary nodes compose the rule image
    with the tensor of their children's images.  The result of a sentence
    derivation has dom ``I``.
    """
    problems = validate(d)
    if problems:
        raise RuleError("derivation does not validate: " + "; ".join(map(str, problems)))
    return _lower(d)


def _lower(d: Derivation) -> BTerm:
    if isinstance(d, Leaf):
        return word(d.word, to_bobject(d.cat))
    if isinstance(d, Unary):
        if d.rule.kind not in ("FTR", "BTR"):
            raise RuleError(f"{d.rule.kind} node has no biclosed image; run the ingest passes")
        return compose(rule_term(d.rule, [d.child.cat]), _lower(d.child))
    if d.rule.kind in ("UNARY", "CONJ"):
        raise RuleError(f"{d.rule.kind} node has no biclosed image; run the ingest passes")
    return compose(
        rule_term(d.rule, [d.left.cat, d.right.cat]),
        tensor_term(_lower(d.left), _lower(d.right)))


def to_sexpr(term: BTerm) -> str:
    """Stable s-expression rendering of a term, used as the CLI biclosed format."""
    body = _sexpr(term)
    if term.rule is not None and not isinstance(term, CrossBox):
        return f"(rule {term.rule} {body})"
    return body


def _sexpr(term: BTerm) -> str:
    if isinstance(term, Word):
        return f'(word "{term.label}" {term.cod.to_str()})'
    if isinstance(term, IdTerm):
        return f"(id {term.dom.to_str()})"
    if isinstance(term, ComposeTerm):
        return f"(compose {to_sexpr(term.g)} {to_sexpr(term.f)})"
    if isinstance(term, TensorTerm):
        return f"(tensor {to_sexpr(term.left)} {to_sexpr(term.right)})"
    if isinstance(term, CurryL):
        return f"(curry-l {to_sexpr(term.inner)})"
    if isinstance(term, CurryR):
        return f"(curry-r {to_sexpr(term.inner)})"
    if isinstance(term, UncurryL):
        return f"(uncurry-l {to_sexpr(term.inner)})"
    if isinstance(term, UncurryR):
        return f"(uncurry-r {to_sexpr(term.inner)})"
    if isinstance(term, CrossBox):
        parts = [term.direction.lower(), term.x.to_str(), term.y.to_str(), term.z.to_str()]
        parts += [w.to_str() for w in term.trailing]
        return "(cross " + " ".join(parts) + ")"
    raise BTermError(f"unknown term {term!r}")  # pragma: no cover
