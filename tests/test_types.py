import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg.ccgtypes import (
    Atom, Backward, Forward, TypeParseError, parse_type, strip_features,
)

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
