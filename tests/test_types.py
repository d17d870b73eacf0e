import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg import biclosed as bc
from discoccg import ingest
from discoccg.ccgtypes import (
    Atom, Backward, Forward, TypeParseError, parse_type, strip_features,
)
from discoccg.diagram import EMPTY, DiagramError, RObject, Wire
from discoccg.functor import LoweringContext

NP, N, S, PP = Atom("NP"), Atom("N"), Atom("S"), Atom("PP")


def test_transitive_verb_type():
    assert parse_type("(S\\NP)/NP") == Forward(Backward(NP, S), NP)


def test_single_atom():
    assert parse_type("NP") == NP


def test_left_associativity_matches_explicit_parens():
    # derived oracle: the unparenthesized chain equals the fully bracketed form
    assert parse_type("S\\NP/NP") == parse_type("(S\\NP)/NP")
    assert parse_type("A/B/C") == parse_type("(A/B)/C")
    assert parse_type("A\\B\\C") == parse_type("(A\\B)\\C")


def test_arrow_notation():
    assert parse_type("(NP ⤚ S) ⤙ NP") == Forward(Backward(NP, S), NP)
    assert parse_type("NP ⤚ S") == Backward(NP, S)
    assert parse_type("S ⤙ (NP ⤚ S)") == Forward(S, Backward(NP, S))


def test_arrow_chain_requires_parens():
    with pytest.raises(TypeParseError):
        parse_type("S ⤙ NP ⤙ NP")


@pytest.mark.parametrize("text,fragment,offset", [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("(S\\NP", "unbalanced parenthesis", 0),
    ("S)", "unbalanced parenthesis", 1),
    ("S//NP", "unknown token", 2),
    ("S ⤙ /", "mixed slash and arrow", 0),
    # the full messages of both notations, offsets counted in UTF-8 bytes
    ("(S NP)", "unbalanced parenthesis", 0),
    ("S/(NP", "unbalanced parenthesis", 2),
    ("(S))", "unbalanced parenthesis", 3),
    ("( ( S", "unbalanced parenthesis", 2),
    ("(S[dcl]", "unbalanced parenthesis", 0),
    ("S ⤙ (NP", "unbalanced parenthesis", 6),
    ("S ⤙ NP)", "unbalanced parenthesis", 8),
    ("(S ⤙ NP", "unbalanced parenthesis", 0),
    ("S NP", "unknown token", 2),
    ("/NP", "unknown token", 0),
    ("()", "unknown token", 1),
    ("S[", "unknown token", 1),
    ("S[dcl", "unknown token", 1),
    ("S[dcl]]", "unknown token", 6),
    ("S ⤙ NP NP", "unknown token", 9),
    ("⤚ S", "unknown token", 0),
    ("S ⤙ ()", "unknown token", 7),
    ("é ⤙ NP", "unknown token", 0),
    ("S ⤙ NP é", "unknown token", 9),
    ("S/", "unexpected end of input", 2),
    ("S[dcl]/", "unexpected end of input", 7),
    ("S ⤙", "unexpected end of input", 5),
    ("S[dcl] ⤚", "unexpected end of input", 10),
    ("(S ⤚ NP) ⤙", "unexpected end of input", 14),
    ("S ⤙ NP ⤙ NP", "arrow chain requires parentheses", 9),
    ("(S ⤙ NP ⤙ NP)", "arrow chain requires parentheses", 10),
    ("S ⤙ (NP ⤚ S ⤙ NP)", "arrow chain requires parentheses", 16),
    ("S\t⤙\nNP ⤙", "arrow chain requires parentheses", 9),
])
def test_errors_carry_byte_offsets(text, fragment, offset):
    with pytest.raises(TypeParseError) as err:
        parse_type(text)
    assert fragment in str(err.value)
    assert err.value.offset == offset


def test_byte_offset_counts_utf8_bytes():
    # the arrow is 3 bytes in UTF-8, so the error lands past it
    with pytest.raises(TypeParseError) as err:
        parse_type("(S ⤙ NP")
    assert err.value.offset == 0
    with pytest.raises(TypeParseError) as err:
        parse_type("S ⤙ NP)")
    assert err.value.offset == len("S ⤙ NP".encode())


def test_feature_stripping():
    assert strip_features(parse_type("S[dcl]\\NP[nb]")) == Backward(NP, S)
    assert strip_features(parse_type("conj")) == Atom("CONJ")


atoms = st.sampled_from([NP, N, S, PP, Atom("VP")])


def types(max_depth: int = 5):
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(Forward, kids, kids),
            st.builds(Backward, kids, kids)),
        max_leaves=2 ** max_depth)


@settings(max_examples=200)
@given(types())
def test_slash_roundtrip(t):
    assert parse_type(t.to_slash()) == t


@settings(max_examples=200)
@given(types())
def test_arrow_roundtrip(t):
    assert parse_type(t.to_arrows()) == t


# --- every map over a category against its recursive definition ----------------
#
# The notations, feature stripping, the CONJ search and the functor on objects
# were once written as recursions of their own; those are kept here as the
# reference for the one fold they share now.

def _ref_wrap(t, show):
    return show(t) if isinstance(t, Atom) else f"({show(t)})"


def _ref_to_slash(t):
    if isinstance(t, Atom):
        return t.name
    slash = "/" if isinstance(t, Forward) else "\\"
    return f"{_ref_to_slash(t.result)}{slash}{_ref_wrap(t.argument, _ref_to_slash)}"


def _ref_to_arrows(t):
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Forward):
        return f"{_ref_wrap(t.result, _ref_to_arrows)} ⤙ {_ref_wrap(t.argument, _ref_to_arrows)}"
    return f"{_ref_wrap(t.argument, _ref_to_arrows)} ⤚ {_ref_wrap(t.result, _ref_to_arrows)}"


def _ref_to_str(o):
    if o == ():
        return "I"
    if isinstance(o, tuple):
        return "(" + "@".join(_ref_wrap(p, _ref_to_str) for p in o) + ")"
    if isinstance(o, Atom):
        return o.name
    slash = "/" if isinstance(o, Forward) else "\\"
    return f"{_ref_wrap(o.result, _ref_to_str)}{slash}{_ref_wrap(o.argument, _ref_to_str)}"


def _ref_strip_features(t):
    if isinstance(t, Atom):
        name = re.sub(r"\[[^\]]*\]", "", t.name)
        return Atom("CONJ" if name.lower() == "conj" else name)
    if isinstance(t, Forward):
        return Forward(_ref_strip_features(t.result), _ref_strip_features(t.argument))
    return Backward(_ref_strip_features(t.argument), _ref_strip_features(t.result))


def _ref_has_conj(t):
    if isinstance(t, Atom):
        return t == Atom("CONJ")
    return _ref_has_conj(t.result) or _ref_has_conj(t.argument)


def _ref_f_obj(o, atom_map):
    if isinstance(o, Atom):
        return RObject((Wire(atom_map.get(o.name, o.name), 0),))
    if isinstance(o, Forward):
        return _ref_f_obj(o.result, atom_map) @ _ref_f_obj(o.argument, atom_map).l
    if isinstance(o, Backward):
        return _ref_f_obj(o.argument, atom_map).r @ _ref_f_obj(o.result, atom_map)
    out = EMPTY
    for p in bc.factors(o):
        out = out @ _ref_f_obj(p, atom_map)
    return out


def _outcome(f, *args):
    """``f(*args)``, or the message of the winding it cannot map."""
    try:
        return f(*args)
    except DiagramError as exc:
        return f"DiagramError: {exc}"


_feature_atoms = st.sampled_from(
    [NP, N, S, Atom("S[dcl]"), Atom("NP[nb]"), Atom("conj"), Atom("CONJ")])


def _repeating(kids):
    """Slash types over any two parts, over one part twice, over a part both
    beside and below another, so that a fold meets shared parts, and over a
    part three arguments deep, so that some wires wind too far to map."""
    return st.one_of(
        st.builds(Forward, kids, kids), st.builds(Backward, kids, kids),
        kids.map(lambda k: Forward(k, k)), kids.map(lambda k: Backward(k, k)),
        st.tuples(kids, kids).map(lambda p: Forward(Backward(p[0], p[1]), p[0])),
        kids.map(lambda k: Forward(S, Forward(N, Forward(NP, k)))),
        kids.map(lambda k: Backward(Backward(Backward(k, NP), N), S)))


shared_types = st.recursive(_feature_atoms, _repeating, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.lists(shared_types, min_size=1, max_size=3))
def test_folded_maps_match_their_recursive_definitions(ts):
    ctx = LoweringContext()   # a cold memo, so each map below folds
    for t in ts:
        assert t.to_slash() == _ref_to_slash(t)
        assert t.to_arrows() == _ref_to_arrows(t)
        assert parse_type(t.to_slash()) is t
        assert parse_type(t.to_arrows()) is t
        assert strip_features(t) is _ref_strip_features(t)
        for u in (t, strip_features(t)):
            assert ingest._has_conj(u) == _ref_has_conj(u)
    for o in (*ts, bc.tensor_obj(*ts), ()):
        assert bc.to_str(o) == _ref_to_str(o)
        assert _outcome(ctx.f_obj, o) == _outcome(_ref_f_obj, o, ctx.atom_map)


def test_of_two_parts_that_cannot_map_the_first_names_the_failure():
    wound_left, wound_right = NP, PP   # each wire wound 7 times, one past MAX_WINDING
    for _ in range(7):
        wound_left, wound_right = Forward(S, wound_left), Backward(wound_right, S)
    outcomes = []
    for t in (Forward(wound_left, wound_right), Backward(wound_right, wound_left)):
        ctx = LoweringContext()
        outcomes.append(_outcome(ctx.f_obj, t))
        assert outcomes[-1] == _outcome(_ref_f_obj, t, ctx.atom_map)
    assert outcomes == ["DiagramError: winding -7 on n exceeds |z| <= 6",
                        "DiagramError: winding 7 on p exceeds |z| <= 6"]
