# -*- coding: utf-8 -*-
"""The closed monoidal functor from biclosed terms to string diagrams.

Words become word boxes, composition and tensor are mapped structurally, and
currying/uncurrying become wire bending with caps and cups.  Terms annotated
with a CCG rule are lowered to the rule's direct image (application and
composition as cup blocks, type-raising as a cap block, crossed composition
as a swap-cup-swap sandwich); unannotated curry/uncurry nodes take the
generic construction, which agrees with the direct images up to diagram
normal form (checked by :func:`verify_functor_laws`).

Swap generators appear in a lowered diagram iff the derivation used crossed
composition; the order-preserving rule images are swap-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import biclosed as bc
from .biclosed import BObject, BTerm
from .ccgtypes import Atom, Backward, Forward
from .diagram import (
    DEFAULT_ATOM_MAP, EMPTY, Diagram, DiagramError, RObject, WordBox,
    Wire, cap_block, cap_block_r, cup_block, cup_block_r, swap_blocks,
)
from .rules import RuleLabel


class LoweringError(DiagramError):
    """Internal type mismatch during lowering; indicates a malformed term."""


@dataclass(frozen=True)
class LoweringContext:
    """Maps atoms to wire bases.  N keeps its own base, distinct from n."""

    atom_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ATOM_MAP))

    def __post_init__(self):
        used: dict[str, str] = {}
        for atom, base in self.atom_map.items():
            if base in used.values():
                raise ValueError(f"atom map is not injective: duplicate base {base!r}")
            used[atom] = base
        # Each context memoizes its own object map, so one context's results
        # never answer for another atom map.
        object.__setattr__(self, "f_obj", lru_cache(maxsize=4096)(self._f_obj))

    def _f_obj(self, o: BObject) -> RObject:
        """The functor on objects, call it as ``f_obj``: atoms to single wires,
        ``X ⤙ Y`` to ``f(X) @ f(Y).l`` and ``Y ⤚ X`` to ``f(Y).r @ f(X)``.

        >>> print(DEFAULT_CONTEXT.f_obj(Forward(Backward(Atom("NP"), Atom("S")), Atom("NP"))))
        n.r s n.l
        """
        if isinstance(o, Atom):
            return RObject((Wire(self.atom_map.get(o.name, o.name), 0),))
        if isinstance(o, Forward):
            return self.f_obj(o.result) @ self.f_obj(o.argument).l
        if isinstance(o, Backward):
            return self.f_obj(o.argument).r @ self.f_obj(o.result)
        out = EMPTY
        for p in bc.factors(o):
            out = out @ self.f_obj(p)
        return out


DEFAULT_CONTEXT = LoweringContext()


def _has_rule_image(term: BTerm) -> bool:
    """Order-preserving rule applications have a direct image; crossed ones
    are generator boxes."""
    return term.rule is not None and not term.rule.schema.crossed


def lower(term: BTerm, ctx: LoweringContext = DEFAULT_CONTEXT, *,
          use_rule_images: bool = True) -> Diagram:
    """Lower a biclosed term to a string diagram.

    ``use_rule_images=False`` forces the generic curry/uncurry construction
    even on rule-annotated terms (used by the law checker).
    """
    if use_rule_images and _has_rule_image(term):
        return _rule_image(term.rule, list(bc.factors(term.dom)), term, ctx)
    if isinstance(term, bc.Word):
        wires = ctx.f_obj(term.cod)
        return Diagram.build(EMPTY, [(0, WordBox(term.label, wires))])
    if isinstance(term, bc.IdTerm):
        return Diagram.id(ctx.f_obj(term.dom))
    if isinstance(term, bc.ComposeTerm):
        return lower(term.f, ctx, use_rule_images=use_rule_images) \
            >> lower(term.g, ctx, use_rule_images=use_rule_images)
    if isinstance(term, bc.TensorTerm):
        return lower(term.left, ctx, use_rule_images=use_rule_images) \
            @ lower(term.right, ctx, use_rule_images=use_rule_images)
    if isinstance(term, bc.CurryR):
        b = bc.factors(term.inner.dom)[-1]
        return diagram_curry_r(
            lower(term.inner, ctx, use_rule_images=use_rule_images), ctx.f_obj(b))
    if isinstance(term, bc.CurryL):
        a = bc.factors(term.inner.dom)[0]
        return diagram_curry_l(
            lower(term.inner, ctx, use_rule_images=use_rule_images), ctx.f_obj(a))
    if isinstance(term, bc.UncurryR):
        b = term.inner.cod.argument
        return diagram_uncurry_r(
            lower(term.inner, ctx, use_rule_images=use_rule_images), ctx.f_obj(b))
    if isinstance(term, bc.UncurryL):
        a = term.inner.cod.argument
        return diagram_uncurry_l(
            lower(term.inner, ctx, use_rule_images=use_rule_images), ctx.f_obj(a))
    if isinstance(term, bc.CrossBox):
        return _crossed_image(term, ctx)
    raise LoweringError(f"cannot lower term {term!r}")


# --- diagram-level currying (the compact-closed k operations) ---------------

def diagram_curry_r(d: Diagram, b: RObject) -> Diagram:
    """Bend the trailing ``b`` of the domain into ``b.l`` on the codomain."""
    if len(b) > len(d.dom) or d.dom[len(d.dom) - len(b):] != b:
        raise LoweringError(f"curry_r: dom {d.dom} does not end with {b}")
    rest = d.dom[:len(d.dom) - len(b)]
    layers = cap_block(b, len(rest)) + list(d.layers)
    return Diagram.build(rest, layers)


def diagram_curry_l(d: Diagram, a: RObject) -> Diagram:
    """Bend the leading ``a`` of the domain into ``a.r`` on the codomain."""
    if len(a) > len(d.dom) or d.dom[:len(a)] != a:
        raise LoweringError(f"curry_l: dom {d.dom} does not start with {a}")
    rest = d.dom[len(a):]
    layers = cap_block_r(a, 0) + [(o + len(a), g) for o, g in d.layers]
    return Diagram.build(rest, layers)


def diagram_uncurry_r(d: Diagram, b: RObject) -> Diagram:
    """Inverse of :func:`diagram_curry_r`: cup ``b.l`` on the codomain against
    a new trailing ``b`` on the domain."""
    if len(b) > len(d.cod) or d.cod[len(d.cod) - len(b):] != b.l:
        raise LoweringError(f"uncurry_r: cod {d.cod} does not end with {b.l}")
    layers = list(d.layers) + cup_block(b, len(d.cod) - len(b))
    return Diagram.build(d.dom @ b, layers)


def diagram_uncurry_l(d: Diagram, a: RObject) -> Diagram:
    """Inverse of :func:`diagram_curry_l`."""
    if len(a) > len(d.cod) or d.cod[:len(a)] != a.r:
        raise LoweringError(f"uncurry_l: cod {d.cod} does not start with {a.r}")
    layers = [(o + len(a), g) for o, g in d.layers] + cup_block_r(a, 0)
    return Diagram.build(a @ d.dom, layers)


# --- direct rule images ------------------------------------------------------

def _rule_image(rule: RuleLabel, inputs: list[BObject], term: BTerm,
                ctx: LoweringContext) -> Diagram:
    """Type-raising is a cap block; order-preserving composition of any degree
    (application is degree 0) is one cup block between the primary's
    argument and the secondary's innermost result."""
    schema = rule.schema
    dom = ctx.f_obj(term.dom)

    if schema.raising:
        t = ctx.f_obj(term.cod.result)
        if schema.forward:
            return Diagram.build(dom, cap_block(t, 0))
        return Diagram.build(dom, cap_block_r(t, len(dom)))

    if schema.forward:
        h = inputs[0]
        x, y = ctx.f_obj(h.result), ctx.f_obj(h.argument)
        return Diagram.build(dom, cup_block(y, len(x)))

    # dom = A_1.r ... A_n.r  Y  Y.r  X: the secondary's arguments lead
    h = inputs[1]
    y, x = ctx.f_obj(h.argument), ctx.f_obj(h.result)
    lead = len(dom) - 2 * len(y) - len(x)
    return Diagram.build(dom, cup_block_r(y, lead))


def _crossed_image(term: bc.CrossBox, ctx: LoweringContext) -> Diagram:
    """Swap-cup-swap image of crossed composition.

    FCX on ``f(X) f(Y).l | f(Z).r f(Y)``: swap the two middle blocks, cup
    ``f(Y).l`` against ``f(Y)``, then swap ``f(X)`` past ``f(Z).r``.  The cup
    fires before the final swap.  BCX is the horizontal mirror.  Trailing
    arguments of the generalized rules ride through on identity wires.
    """
    x, y, z = ctx.f_obj(term.x), ctx.f_obj(term.y), ctx.f_obj(term.z)
    dom = ctx.f_obj(term.dom)
    layers: list = []
    if term.direction == "FCX":
        layers += swap_blocks(y.l, z.r, len(x))
        layers += cup_block(y, len(x) + len(z))
        layers += swap_blocks(x, z.r, 0)
    else:
        lead = len(dom) - (2 * len(y) + len(z) + len(x))
        layers += swap_blocks(z.l, y.r, lead + len(y))
        layers += cup_block_r(y, lead)
        layers += swap_blocks(z.l, x, lead)
    return Diagram.build(dom, layers)


# --- law checking ------------------------------------------------------------

@dataclass(frozen=True)
class LawReport:
    index: int
    law: str
    ok: bool
    detail: str = ""


def verify_functor_laws(samples: list[BTerm],
                        ctx: LoweringContext = DEFAULT_CONTEXT) -> list[LawReport]:
    """Check functoriality and the curry commuting square on sample terms.

    Composition and tensor images must match structurally; curry/uncurry
    images must match the diagram-level bending up to rewrite normal form,
    as must rule-annotated terms against their generic constructions.
    """
    from .rewrite import diagrams_equal

    out: list[LawReport] = []

    def check(i: int, law: str, ok: bool, detail: str = ""):
        out.append(LawReport(i, law, ok, detail))

    for i, term in enumerate(samples):
        d = lower(term, ctx)
        if isinstance(term, bc.ComposeTerm):
            expected = lower(term.f, ctx) >> lower(term.g, ctx)
            check(i, "compose", d == expected)
        elif isinstance(term, bc.TensorTerm):
            expected = lower(term.left, ctx) @ lower(term.right, ctx)
            check(i, "tensor", d == expected)
        if isinstance(term, (bc.CurryR, bc.CurryL, bc.UncurryR, bc.UncurryL)):
            inner = lower(term.inner, ctx)
            if isinstance(term, bc.CurryR):
                bent = diagram_curry_r(inner, ctx.f_obj(bc.factors(term.inner.dom)[-1]))
            elif isinstance(term, bc.CurryL):
                bent = diagram_curry_l(inner, ctx.f_obj(bc.factors(term.inner.dom)[0]))
            elif isinstance(term, bc.UncurryR):
                bent = diagram_uncurry_r(inner, ctx.f_obj(term.inner.cod.argument))
            else:
                bent = diagram_uncurry_l(inner, ctx.f_obj(term.inner.cod.argument))
            ok = diagrams_equal(d, bent)
            check(i, "curry-square", ok)
        if _has_rule_image(term):
            generic = lower(term, ctx, use_rule_images=False)
            check(i, "rule-image-vs-generic", diagrams_equal(d, generic))
    return out
