# -*- coding: utf-8 -*-
"""The closed monoidal functor from biclosed terms to string diagrams.

Words become word boxes, composition and tensor are mapped structurally, and
currying/uncurrying become wire bending with caps and cups.  Terms annotated
with a CCG rule are lowered to the rule's direct image (application and
composition as cup blocks, type-raising as a cap block, crossed composition
as the swap-cup-swap image of ``diagram.crossed_image``, the one builder that
planarize also regenerates); unannotated curry/uncurry nodes take the
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
from .ccgtypes import ATOM_NAME, Atom, Backward, Forward, fold
from .diagram import (
    DEFAULT_ATOM_MAP, Diagram, DiagramError, Layer, RObject, WordBox, Wire, cap_block,
    crossed_image, cup_block, left_adjoint, right_adjoint,
)
from .rules import RuleLabel, echo


class LoweringError(DiagramError):
    """Internal type mismatch during lowering; indicates a malformed term."""


@dataclass(frozen=True)
class LoweringContext:
    """Maps atoms to wire bases.  N keeps its own base, distinct from n.

    A base must be an atom name, so that no wire prints like another's
    adjoint (a base ``n.r`` would)."""

    atom_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ATOM_MAP))

    def __post_init__(self):
        used: dict[str, str] = {}
        for atom, base in self.atom_map.items():
            if not ATOM_NAME.fullmatch(base):
                raise ValueError(f"atom map base {base!r} of {atom!r} is not an atom name")
            if base in used.values():
                raise ValueError(f"atom map is not injective: duplicate base {base!r}")
            used[atom] = base
        # Each context memoizes its own object map and rule images, so one
        # context's results never answer for another atom map.
        object.__setattr__(self, "f_obj", lru_cache(maxsize=4096)(self._f_obj))
        object.__setattr__(self, "rule_image", lru_cache(maxsize=4096)(self._rule_image))

    def _f_obj(self, o: BObject) -> RObject:
        """The functor on objects, call it as ``f_obj``: atoms to single wires,
        ``X ⤙ Y`` to ``f(X) f(Y).l`` and ``Y ⤚ X`` to ``f(Y).r f(X)``.

        >>> from discoccg.diagram import obj_str
        >>> print(obj_str(DEFAULT_CONTEXT.f_obj(Forward(Backward(Atom("NP"), Atom("S")),
        ...                                             Atom("NP")))))
        n.r s n.l
        """
        if isinstance(o, (Atom, Forward, Backward)):
            return fold(o, lambda name: (Wire(self.atom_map.get(name, name), 0),),
                        lambda x, y: x + left_adjoint(y), lambda y, x: right_adjoint(y) + x)
        return sum(map(self.f_obj, bc.factors(o)), ())

    def _rule_image(self, rule: RuleLabel, dom: BObject) -> tuple[Layer, ...]:
        """The direct image of an order-preserving rule application on
        ``dom``, its domain at offset 0; call it as ``rule_image``.

        Type-raising is a cap block; order-preserving composition of any
        degree (application is degree 0) is one cup block between the
        primary's argument and the secondary's innermost result.  The layers
        are a tuple, shared by every application of the rule instance."""
        schema, f_obj = rule.schema, self.f_obj
        inputs = bc.factors(dom)
        if schema.raising:
            t = f_obj(rule.target)
            image = (cap_block(t, 0) if schema.forward
                     else cap_block(right_adjoint(t), len(f_obj(dom))))
        elif schema.forward:
            h = inputs[0]
            image = cup_block(f_obj(h.argument), len(f_obj(h.result)))
        else:
            # dom = A_1.r ... A_n.r  Y  Y.r  X: the secondary's arguments lead
            h = inputs[1]
            y, x = f_obj(h.argument), f_obj(h.result)
            image = cup_block(right_adjoint(y), len(f_obj(dom)) - 2 * len(y) - len(x))
        return tuple(image)


DEFAULT_CONTEXT = LoweringContext()


def _has_rule_image(term: BTerm) -> bool:
    """Order-preserving rule applications have a direct image; crossed ones
    are generator boxes."""
    return term.rule is not None and not term.rule.schema.crossed


def lower(term: BTerm, ctx: LoweringContext = DEFAULT_CONTEXT) -> Diagram:
    """Lower a biclosed term to a string diagram.

    One walk with an explicit stack appends every generator at its final
    offset to one layer list, which is validated once: composition emits
    ``f`` then ``g``, tensor shifts the right factor past ``f(left.cod)``,
    curry emits its caps before the inner term and uncurry its cups after it.
    A rule-annotated term goes out as its rule's direct image; without the
    annotation (``biclosed.annotate(term, None)``) it takes the generic
    curry/uncurry construction.
    """
    f_obj = ctx.f_obj
    layers: list[Layer] = []
    # pending work, last first: a (term, offset) pair, or a layer list that
    # goes out once everything above it on the stack has been emitted
    todo: list = [(term, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            layers += item
            continue
        if len(item) == 3:   # a tensor's right factor, placed past its left factor
            t, at, left = item
            at += len(f_obj(left.cod))
        else:
            t, at = item
        if _has_rule_image(t):
            layers += [(o + at, g) for o, g in ctx.rule_image(t.rule, t.dom)]
        elif isinstance(t, bc.Word):
            try:
                cod = f_obj(t.cod)
            except DiagramError as exc:   # a wire wound past MAX_WINDING
                raise LoweringError(
                    f"cannot lower word {echo(repr(t.label))}: the functor cannot wind a wire "
                    f"that far ({exc})") from None
            layers.append((at, WordBox(t.label, cod)))
        elif isinstance(t, bc.IdTerm):
            pass
        elif isinstance(t, bc.ComposeTerm):
            todo += [(t.g, at), (t.f, at)]
        elif isinstance(t, bc.TensorTerm):
            # the left factor goes first, so each word's category is first
            # mapped at its own branch, which names the word if that fails
            todo += [(t.right, at, t.left), (t.left, at)]
        elif isinstance(t, bc.CrossBox):
            x, y, z = f_obj(t.x), f_obj(t.y), f_obj(t.z)
            if t.direction == "BCX":   # the trailing arguments lead: start at y
                at += len(f_obj(t.dom)) - 2 * len(y) - len(z) - len(x)
            layers += crossed_image(t.direction, x, y, z, at)
        elif not isinstance(t, bc.Bend):
            raise LoweringError(f"cannot lower term {t!r}")
        elif t.kind == "curry-r":
            # bend the trailing b of the inner domain into b.l on the codomain
            layers += cap_block(f_obj(bc.factors(t.inner.dom)[-1]), at + len(f_obj(t.dom)))
            todo.append((t.inner, at))
        elif t.kind == "curry-l":
            a = f_obj(bc.factors(t.inner.dom)[0])
            layers += cap_block(right_adjoint(a), at)
            todo.append((t.inner, at + len(a)))
        elif t.kind == "uncurry-r":
            # cup b.l on the inner codomain against a new trailing b
            todo += [cup_block(f_obj(t.inner.cod.argument), at + len(f_obj(t.cod))),
                     (t.inner, at)]
        else:   # uncurry-l
            a = f_obj(t.inner.cod.argument)
            todo += [cup_block(right_adjoint(a), at), (t.inner, at + len(a))]
    return Diagram.build(f_obj(term.dom), layers)


# --- law checking ------------------------------------------------------------

@dataclass(frozen=True)
class LawReport:
    index: int
    law: str
    ok: bool


def verify_functor_laws(samples: list[BTerm],
                        ctx: LoweringContext = DEFAULT_CONTEXT) -> list[LawReport]:
    """Check functoriality and the rule images on sample terms.

    The one-pass image of a composite or a tensor must equal
    :func:`diagram.compose` or :func:`diagram.tensor` of its factors' images,
    and a rule-annotated term's direct image must equal its generic
    curry/uncurry construction up to rewrite normal form.
    """
    from .rewrite import diagrams_equal

    out: list[LawReport] = []
    for i, term in enumerate(samples):
        d = lower(term, ctx)
        if isinstance(term, bc.ComposeTerm):
            out.append(LawReport(i, "compose", d == lower(term.f, ctx) >> lower(term.g, ctx)))
        elif isinstance(term, bc.TensorTerm):
            out.append(LawReport(i, "tensor", d == lower(term.left, ctx) @ lower(term.right, ctx)))
        if _has_rule_image(term):
            generic = lower(bc.annotate(term, None), ctx)
            out.append(LawReport(i, "rule-image-vs-generic", diagrams_equal(d, generic)))
    return out
