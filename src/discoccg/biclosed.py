# -*- coding: utf-8 -*-
"""Free biclosed category IR.

Objects are plain data: the categorial types themselves, ``()`` for the
monoidal unit and the tuple of its two or more factors for a tensor.
``Forward(X, Y)`` (slash ``X/Y``) is the right hom ``X ⤙ Y`` and
``Backward(Y, X)`` (slash ``X\\Y``) the left hom ``Y ⤚ X``.  Morphisms are
syntax trees built from words, identities, composition, tensor, one bend
term for the four curry/uncurry operators (:class:`Bend`) and explicit
crossed-composition generator boxes.
Every term carries its derived dom/cod.  No biclosed equations are applied at
this level: terms are faithful proof trees, and equality questions live at the
diagram level.

Order-preserving CCG rules are constructed purely by currying/uncurrying
identities: one builder makes composition of any degree in either direction,
forward through the right hom and backward, its mirror image, through the
left hom.  Crossed composition has no such construction and is added as a
generator (:class:`CrossBox`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .ccgtypes import Atom, Backward, CcgType, Forward, notation
# ``validate`` stays bound only for perfbench/tracer.py, until ROADMAP item 8's tracer change
from .rules import Derivation, Leaf, RuleError, RuleLabel, children, peel, validate  # noqa: F401


BObject = Atom | Forward | Backward | tuple["BObject", ...]


@lru_cache(maxsize=4096)
def to_str(o: BObject) -> str:
    """The object notation of ``.biclosed`` files: unlike ``to_slash``, both
    sides of a hom are bracketed when they are homs, as in ``(S\\NP)/NP``;
    ``I`` is the unit and ``(A@B)`` a tensor.  Memoized per object."""
    if not isinstance(o, tuple):
        return notation(o, "{R}/{A}", "{R}\\{A}")[0]
    parts = (to_str(p) if isinstance(p, Atom) else f"({to_str(p)})" for p in o)
    return f"({'@'.join(parts)})" if o else "I"


def factors(o: BObject) -> tuple[BObject, ...]:
    return o if isinstance(o, tuple) else (o,)


def tensor_obj(*objs: BObject) -> BObject:
    flat = tuple(p for o in objs for p in factors(o))
    return flat[0] if len(flat) == 1 else flat


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
class Bend(BTerm):
    """A curry or an uncurry of ``inner``; ``kind`` is one of ``curry-l``,
    ``curry-r``, ``uncurry-l`` and ``uncurry-r``, the head ``to_sexpr`` prints."""

    kind: str = field(kw_only=True)
    inner: BTerm = field(kw_only=True)


@dataclass(frozen=True)
class CrossBox(BTerm):
    """Generator for crossed composition, with explicit constituent objects.

    A nonempty ``trailing`` encodes the generalized rules: those argument
    objects ride through the image on identity wires.  ``trailing`` lists
    them innermost first, the order in which :func:`cross_box` wraps them
    around ``z``: FCX with trailing ``(A, B)`` has the secondary
    ``((Y\\Z)/A)/B``.
    """

    direction: str = field(kw_only=True)
    x: BObject = field(kw_only=True)
    y: BObject = field(kw_only=True)
    z: BObject = field(kw_only=True)
    trailing: tuple[BObject, ...] = field(default=(), kw_only=True)


def word(label: str, obj: BObject) -> Word:
    if not label:
        raise BTermError("word label must be non-empty")
    return Word((), obj, label=label)


def id_term(obj: BObject) -> IdTerm:
    return IdTerm(obj, obj)


def compose(g: BTerm, f: BTerm) -> ComposeTerm:
    """``g ∘ f``: apply ``f`` first."""
    if f.cod != g.dom:
        raise BTermError(
            f"compose mismatch: f has cod {to_str(f.cod)}, g has dom {to_str(g.dom)}")
    return ComposeTerm(f.dom, g.cod, g=g, f=f)


def tensor_term(left: BTerm, right: BTerm) -> TensorTerm:
    return TensorTerm(
        tensor_obj(left.dom, right.dom), tensor_obj(left.cod, right.cod),
        left=left, right=right)


def curry_l(f: BTerm) -> Bend:
    """κL: turn ``A ⊗ B → C`` into ``B → (A ⤚ C)`` by peeling the first factor."""
    parts = factors(f.dom)
    if not parts:
        raise BTermError("curry_l needs a non-unit domain")
    return Bend(tensor_obj(*parts[1:]), Backward(parts[0], f.cod), kind="curry-l", inner=f)


def curry_r(f: BTerm) -> Bend:
    """κR: turn ``A ⊗ B → C`` into ``A → (C ⤙ B)`` by peeling the last factor."""
    parts = factors(f.dom)
    if not parts:
        raise BTermError("curry_r needs a non-unit domain")
    return Bend(tensor_obj(*parts[:-1]), Forward(f.cod, parts[-1]), kind="curry-r", inner=f)


def uncurry_l(g: BTerm) -> Bend:
    if not isinstance(g.cod, Backward):
        raise BTermError(f"uncurry_l needs a left-hom codomain, got {to_str(g.cod)}")
    return Bend(tensor_obj(g.cod.argument, g.dom), g.cod.result, kind="uncurry-l", inner=g)


def uncurry_r(g: BTerm) -> Bend:
    if not isinstance(g.cod, Forward):
        raise BTermError(f"uncurry_r needs a right-hom codomain, got {to_str(g.cod)}")
    return Bend(tensor_obj(g.dom, g.cod.argument), g.cod.result, kind="uncurry-r", inner=g)


def cross_box(direction: str, x: BObject, y: BObject, z: BObject,
              trailing: tuple[BObject, ...] = ()) -> CrossBox:
    if direction not in ("FCX", "BCX"):
        raise BTermError(f"direction must be FCX or BCX, got {direction!r}")
    if direction == "FCX":
        secondary: BObject = Backward(z, y)
        out: BObject = Backward(z, x)
        for w in trailing:
            secondary = Forward(secondary, w)
            out = Forward(out, w)
        dom = tensor_obj(Forward(x, y), secondary)
    else:
        secondary = Forward(y, z)
        out = Forward(x, z)
        for w in trailing:
            secondary = Backward(w, secondary)
            out = Backward(w, out)
        dom = tensor_obj(secondary, Backward(y, x))
    return CrossBox(dom, out, direction=direction, x=x, y=y, z=z, trailing=trailing)


def annotate(term: BTerm, rule: RuleLabel | None) -> BTerm:
    return replace(term, rule=rule)


def rule_term(rule: RuleLabel, inputs: list[CcgType]) -> BTerm:
    """Build the biclosed image of one rule application.

    Order-preserving rules arise by currying/uncurrying identities; crossed
    rules are generator boxes.  The returned term is annotated with the rule.
    The inputs must match the rule's schema (a validated derivation's do);
    they are not checked again.  Memoized per rule and input types: terms
    are immutable, so every application of one rule instance shares its term.
    """
    return _rule_term(rule, tuple(inputs))


@lru_cache(maxsize=4096)
def _rule_term(rule: RuleLabel, inputs: tuple[CcgType, ...]) -> BTerm:
    schema = rule.schema
    if schema.raising:
        x, t = inputs[0], rule.target
        if schema.forward:
            term = curry_r(uncurry_l(id_term(Backward(x, t))))
        else:
            term = curry_l(uncurry_r(id_term(Forward(t, x))))
    elif schema.crossed:
        fn, secondary = inputs if schema.forward else inputs[::-1]
        _, args = peel(secondary, rule.composition_degree)
        # ``peel`` lists the arguments outermost first; ``trailing`` innermost first
        term = cross_box("FCX" if schema.forward else "BCX", fn.result,
                         fn.argument, args[-1], tuple(reversed(args[:-1])))
    else:
        term = _composition_term(inputs, rule.composition_degree, schema.forward)
    return annotate(term, rule)


def _composition_term(inputs: tuple[CcgType, ...], n: int, forward: bool) -> BTerm:
    """Composition of degree ``n``; degree 0 is application.

    Forward, the uncurried chain ``(X⤙Y) ⊗ R ⊗ A1 ⊗ ... ⊗ An → X`` is
    evaluated outermost-first through the right hom, then curried back
    ``n`` times.  Backward is its mirror image: the primary stands right of
    the secondary, the peeled arguments ride on the left, and evaluation and
    currying go through the left hom.  A hom is evaluated by its uncurried
    identity, ``(X ⤙ Y) ⊗ Y → X`` or ``Y ⊗ (Y ⤚ X) → X``."""
    fn, secondary = inputs if forward else inputs[::-1]
    uncurry, curry = (uncurry_r, curry_r) if forward else (uncurry_l, curry_l)

    def beside(inner: BTerm, outer: BTerm) -> BTerm:
        """``outer`` on the side of ``inner`` away from the primary."""
        return tensor_term(inner, outer) if forward else tensor_term(outer, inner)

    args = peel(secondary, n)[1]
    spine = secondary
    chain: BTerm | None = None
    for j in range(n):   # evaluate the spine's outermost argument, args[j]
        step = beside(id_term(fn), uncurry(id_term(spine)))
        for rest in args[j + 1:]:
            step = beside(step, id_term(rest))
        chain = step if chain is None else compose(step, chain)
        spine = spine.result
    evaluate = uncurry(id_term(fn))
    chain = evaluate if chain is None else compose(evaluate, chain)
    for _ in range(n):
        chain = curry(chain)
    return chain


def lower_derivation(d: Derivation) -> BTerm:
    """Lower a validated derivation to its biclosed term.

    Precondition: ``d`` validates (``rules.validate(d) == []``), as every
    derivation that ``ingest.ingest_tree`` returns does.  Rule applications
    are not re-checked here; an unresolved UNARY or CONJ node raises
    :class:`RuleError`, and other violations give an undefined term.

    Leaves become word states ``I → X``; binary nodes compose the rule image
    with the tensor of their children's images.  The result of a sentence
    derivation has dom ``I``.  The tree is walked with an explicit stack, in
    the order of that recursive definition, so depth needs no recursion.
    """
    terms: list[BTerm] = []   # the images of finished subtrees, left to right
    # pending work, last first: a node, or a (rule image, arity) pair that
    # goes out over the last ``arity`` finished terms
    todo: list = [d]
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            image, arity = node
            kids = terms[-arity:]
            del terms[-arity:]
            terms.append(compose(image, kids[0] if arity == 1 else tensor_term(*kids)))
        elif isinstance(node, Leaf):
            terms.append(word(node.word, node.cat))
        elif node.rule.schema.forward is None:
            raise RuleError(f"{node.rule.kind} node has no biclosed image; run the ingest passes")
        else:
            kids = children(node)
            todo.append((rule_term(node.rule, [kid.cat for kid in kids]), len(kids)))
            todo += reversed(kids)
    return terms[0]


def to_sexpr(term: BTerm) -> str:
    """Stable s-expression rendering of a term, used as the CLI biclosed format.

    The parts are written into one list, walking the term with an explicit
    stack of pending subterms and closing strings, and joined once."""
    parts: list[str] = []
    todo: list[BTerm | str] = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            parts.append(t)
            continue
        cls = type(t)
        if t.rule is not None and cls is not CrossBox:
            parts.append(f"(rule {t.rule} ")
            todo.append(")")
        if cls is Word:
            label = t.label.replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'(word "{label}" {to_str(t.cod)})')
        elif cls is IdTerm:
            parts.append(f"(id {to_str(t.dom)})")
        elif cls is ComposeTerm:
            parts.append("(compose ")
            todo += [")", t.f, " ", t.g]
        elif cls is TensorTerm:
            parts.append("(tensor ")
            todo += [")", t.right, " ", t.left]
        elif cls is Bend:
            parts.append(f"({t.kind} ")
            todo += [")", t.inner]
        elif cls is CrossBox:
            crossed = [t.direction.lower(), to_str(t.x), to_str(t.y), to_str(t.z)]
            crossed += [to_str(w) for w in t.trailing]
            parts.append("(cross " + " ".join(crossed) + ")")
        else:
            raise BTermError(f"unknown term {t!r}")  # pragma: no cover
    return "".join(parts)
