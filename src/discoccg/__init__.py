# -*- coding: utf-8 -*-
"""discoccg: compile CCG derivations into DisCoCat string diagrams.

Pipeline: serialized derivation (a raw tree, the interchange JSON node
itself) -> validated derivation (``ingest``) -> biclosed term (``biclosed``,
whose objects are the categorial types, ``()`` for the unit and a tuple of
factors for a tensor, and whose curries and uncurries are one bend term) ->
string diagram (``functor``, whose objects are tuples of wires, ``()`` for
the unit), with rewriting (``rewrite``) and a tensor-network oracle
(``semantics``) on the diagram side.
"""

from .ccgtypes import Atom, Backward, CcgType, Forward, TypeParseError, parse_type
from .rules import (
    BA, BC, BCX, FA, FC, FCX, Binary, Derivation, Leaf, RuleError, RuleLabel,
    Unary, apply_rule, btr, ftr, gbc, gfc, unary, validate,
)
from .ingest import IngestError, ingest_tree, read_ccgbank, read_derivations, read_json
from .biclosed import BObject, BTerm, lower_derivation, rule_term, to_sexpr
from .diagram import (
    Cap, Cup, Diagram, DiagramError, RObject, Swap, Wire, WordBox,
    diagram_from_json, diagram_to_json, well_formed,
)
from .functor import LoweringContext, lower, verify_functor_laws
from .rewrite import RewriteStep, diagrams_equal, normalize, planarize
from .render import render_svg, render_tikz

__version__ = "0.1.0"

__all__ = [
    "Atom", "Backward", "CcgType", "Forward", "TypeParseError", "parse_type",
    "BA", "BC", "BCX", "FA", "FC", "FCX", "Binary", "Derivation", "Leaf",
    "RuleError", "RuleLabel", "Unary", "apply_rule", "btr", "ftr", "gbc",
    "gfc", "unary", "validate",
    "IngestError", "ingest_tree", "read_ccgbank", "read_derivations",
    "read_json",
    "BObject", "BTerm", "lower_derivation", "rule_term", "to_sexpr",
    "Cap", "Cup", "Diagram", "DiagramError", "RObject", "Swap", "Wire",
    "WordBox", "diagram_from_json", "diagram_to_json", "well_formed",
    "LoweringContext", "lower", "verify_functor_laws",
    "RewriteStep", "diagrams_equal", "normalize", "planarize",
    "DimAssignment", "Lexicon", "Tensor", "evaluate", "semantically_equal",
    "render_svg", "render_tikz",
]

# The tensor oracle needs numpy; conversion does not, so its names are
# imported on first access.
_SEMANTICS = {"DimAssignment", "Lexicon", "Tensor", "evaluate", "semantically_equal"}


def __getattr__(name):
    if name in _SEMANTICS:
        from . import semantics
        return getattr(semantics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
