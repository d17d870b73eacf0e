import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg.ccgtypes import Atom, Backward, Forward, parse_type
from discoccg.rules import (
    BA, BC, BCX, FA, FC, FCX, MAX_COMPOSITION_DEGREE, SCHEMAS, Binary, Leaf,
    RuleError, RuleLabel, Unary, apply_rule, btr, ftr, gbc, gfc, validate,
)
from tests.test_types import types

NP, S = Atom("NP"), Atom("S")
t = parse_type


def test_forward_application():
    # "likes Bob": (S\NP)/NP applied to NP
    assert apply_rule(FA, [t("(S\\NP)/NP"), NP]) == t("S\\NP")


def test_backward_application():
    assert apply_rule(BA, [NP, t("S\\NP")]) == S


def test_forward_type_raising():
    assert apply_rule(ftr(S), [NP]) == t("S/(S\\NP)")


def test_backward_type_raising():
    assert apply_rule(btr(S), [NP]) == t("S\\(S/NP)")


def test_backward_crossed_composition():
    # the heavy-NP-shift step: "passed" + "successfully"
    out = apply_rule(BCX, [t("(S\\NP)/NP"), t("(S\\NP)\\(S\\NP)")])
    assert out == t("(S\\NP)/NP")


def test_forward_crossed_composition():
    out = apply_rule(FCX, [t("(S\\NP)/VP"), t("VP\\NP")])
    assert out == t("(S\\NP)\\NP")


def test_generalized_forward_composition_degree_two():
    # "might give": (S\NP)/VP with (VP/NP)/NP
    out = apply_rule(gfc(2), [t("(S\\NP)/VP"), t("(VP/NP)/NP")])
    assert out == t("((S\\NP)/NP)/NP")


def test_generalized_backward_composition_degree_two():
    out = apply_rule(gbc(2), [t("(S\\PP)\\NP"), t("S\\S")])
    assert out == t("(S\\PP)\\NP")


def test_harmonic_composition():
    assert apply_rule(FC, [t("S/(S\\NP)"), t("(S\\NP)/NP")]) == t("S/NP")
    assert apply_rule(BC, [t("S\\NP"), t("S\\S")]) == t("S\\NP")


def test_shape_mismatch_reports_rule_and_types():
    with pytest.raises(RuleError) as err:
        apply_rule(FA, [NP, NP])
    message = str(err.value)
    assert "FA" in message and "NP" in message


def test_arity_mismatch():
    with pytest.raises(RuleError):
        apply_rule(FA, [NP])


def test_degree_bound():
    deep = t("((((VP/NP)/NP)/NP)/NP)/NP")
    with pytest.raises(RuleError):
        apply_rule(gfc(5), [t("(S\\NP)/VP"), deep])


def test_unary_and_conj_are_not_combinatory():
    with pytest.raises(RuleError):
        apply_rule(RuleLabel("CONJ"), [NP, NP])


@settings(max_examples=200)
@given(types(), types())
def test_application_schema_soundness(x, y):
    assert apply_rule(FA, [Forward(x, y), y]) == x
    assert apply_rule(BA, [y, Backward(y, x)]) == x


@settings(max_examples=200)
@given(types(), types(), types())
def test_gfc1_coincides_with_fc(x, y, z):
    left, right = Forward(x, y), Forward(y, z)
    assert apply_rule(gfc(1), [left, right]) == apply_rule(FC, [left, right])
    bl, br = Backward(z, y), Backward(y, x)
    assert apply_rule(gbc(1), [bl, br]) == apply_rule(BC, [bl, br])


@settings(max_examples=200)
@given(types(), types())
def test_type_raise_then_apply_recovers_target(x, target):
    raised = apply_rule(ftr(target), [x])
    assert apply_rule(FA, [raised, Backward(x, target)]) == target
    raised = apply_rule(btr(target), [x])
    assert apply_rule(BA, [Forward(target, x), raised]) == target


def fig1_tree():
    likes = Leaf("likes", t("(S\\NP)/NP"))
    bob = Leaf("Bob", NP)
    vp = Binary(FA, likes, bob, t("S\\NP"))
    return Binary(BA, Leaf("Alice", NP), vp, S)


def test_validate_fig1():
    assert validate(fig1_tree()) == []


def test_validate_leaf():
    assert validate(Leaf("Alice", NP)) == []


def test_validate_flags_exactly_one_mutation():
    tree = fig1_tree()
    broken = Binary(tree.rule, tree.left, tree.right, NP)
    problems = validate(broken)
    assert len(problems) == 1
    assert problems[0].path == ()


def test_validate_flags_empty_word():
    assert len(validate(Leaf("", NP))) == 1


def test_validate_flags_unresolved_unary():
    node = Unary(RuleLabel("UNARY", target=NP), Leaf("dogs", Atom("N")), NP)
    assert len(validate(node)) == 1


# --- the schema table against the per-kind reference ---------------------------

def _peel_forward(t, n):
    args = []
    for _ in range(n):
        if not isinstance(t, Forward):
            raise ValueError("not enough forward arguments")
        args.append(t.argument)
        t = t.result
    return t, args


def _peel_backward(t, n):
    args = []
    for _ in range(n):
        if not isinstance(t, Backward):
            raise ValueError("not enough backward arguments")
        args.append(t.argument)
        t = t.result
    return t, args


def _rebuild_forward(result, args):
    for a in reversed(args):
        result = Forward(result, a)
    return result


def _rebuild_backward(result, args):
    for a in reversed(args):
        result = Backward(a, result)
    return result


def _reference_apply_rule(rule, inputs):
    """The original per-kind ``apply_rule``, one branch per rule kind, kept
    as the reference for the table-driven schema."""
    if rule.kind in ("LEX", "UNARY", "CONJ"):
        raise RuleError(f"{rule.kind} is not a combinatory rule")
    if len(inputs) != rule.arity:
        raise RuleError("arity")
    if rule.kind == "FA":
        fn, arg = inputs
        if not (isinstance(fn, Forward) and fn.argument == arg):
            raise RuleError("FA")
        return fn.result
    if rule.kind == "BA":
        arg, fn = inputs
        if not (isinstance(fn, Backward) and fn.argument == arg):
            raise RuleError("BA")
        return fn.result
    if rule.kind in ("FTR", "BTR"):
        (x,) = inputs
        t = rule.target
        return Forward(t, Backward(x, t)) if rule.kind == "FTR" else Backward(Forward(t, x), t)
    n = 1 if rule.kind in ("FC", "BC", "FCX", "BCX") else rule.degree
    if n > MAX_COMPOSITION_DEGREE:
        raise RuleError("degree")
    if rule.kind in ("FC", "GFC"):
        fn, secondary = inputs
        if not isinstance(fn, Forward):
            raise RuleError("FC")
        try:
            inner, args = _peel_forward(secondary, n)
        except ValueError:
            raise RuleError("FC") from None
        if inner != fn.argument:
            raise RuleError("FC")
        return _rebuild_forward(fn.result, args)
    if rule.kind in ("BC", "GBC"):
        secondary, fn = inputs
        if not isinstance(fn, Backward):
            raise RuleError("BC")
        try:
            inner, args = _peel_backward(secondary, n)
        except ValueError:
            raise RuleError("BC") from None
        if inner != fn.argument:
            raise RuleError("BC")
        return _rebuild_backward(fn.result, args)
    if rule.kind in ("FCX", "GFCX"):
        fn, secondary = inputs
        if not isinstance(fn, Forward):
            raise RuleError("FCX")
        try:
            crossed, trailing = _peel_forward(secondary, n - 1)
        except ValueError:
            raise RuleError("FCX") from None
        if not (isinstance(crossed, Backward) and crossed.result == fn.argument):
            raise RuleError("FCX")
        return _rebuild_forward(Backward(crossed.argument, fn.result), trailing)
    secondary, fn = inputs
    if not isinstance(fn, Backward):
        raise RuleError("BCX")
    try:
        crossed, trailing = _peel_backward(secondary, n - 1)
    except ValueError:
        raise RuleError("BCX") from None
    if not (isinstance(crossed, Forward) and crossed.result == fn.argument):
        raise RuleError("BCX")
    return _rebuild_backward(Forward(fn.result, crossed.argument), trailing)


def _outcome(apply, rule, inputs):
    try:
        return apply(rule, inputs)
    except RuleError:
        return RuleError


def _slash(forward, result, argument):
    return Forward(result, argument) if forward else Backward(argument, result)


def _flip(t, k):
    """``t`` with the slash of its ``k``-th compound node (preorder) flipped,
    and what is left of ``k`` after its nodes are counted off."""
    if isinstance(t, Atom):
        return t, k
    if k == 0:
        return _slash(isinstance(t, Backward), t.result, t.argument), -1
    result, k = _flip(t.result, k - 1)
    argument, k = _flip(t.argument, k)
    return _slash(isinstance(t, Forward), result, argument), k


def _slashes(t) -> int:
    return 0 if isinstance(t, Atom) else 1 + _slashes(t.result) + _slashes(t.argument)


SMALL_TYPES = types(2)


@st.composite
def labels(draw):
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    param = SCHEMAS[kind].param
    if param == "degree":
        return RuleLabel(kind, degree=draw(st.integers(1, 5)))
    if param == "target":
        return RuleLabel(kind, target=draw(SMALL_TYPES))
    return RuleLabel(kind)


@st.composite
def matching_inputs(draw, rule):
    """Inputs built to fit ``rule``'s schema: composition of degree n peels
    n arguments, the innermost one against the grain when crossed."""
    schema = rule.schema
    if schema.forward is None or schema.raising:
        return [draw(SMALL_TYPES) for _ in range(rule.arity)]
    n = rule.composition_degree
    x, y = draw(SMALL_TYPES), draw(SMALL_TYPES)
    secondary = y
    for i in reversed(range(n)):
        grain = not (schema.crossed and i == n - 1)
        secondary = _slash(schema.forward == grain, secondary, draw(SMALL_TYPES))
    primary = _slash(schema.forward, x, y)
    return [primary, secondary] if schema.forward else [secondary, primary]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_schema_table_matches_per_kind_reference(data):
    rule = data.draw(labels())
    inputs = data.draw(matching_inputs(rule))
    variants = [inputs, [data.draw(SMALL_TYPES) for _ in inputs]]
    which = data.draw(st.integers(0, len(inputs) - 1))
    if _slashes(inputs[which]):
        k = data.draw(st.integers(0, _slashes(inputs[which]) - 1))
        flipped, _ = _flip(inputs[which], k)
        variants.append(inputs[:which] + [flipped] + inputs[which + 1:])
    for case in variants:
        expected = _outcome(_reference_apply_rule, rule, case)
        assert _outcome(apply_rule, rule, case) == expected, (str(rule), case)
    if rule.schema.forward is not None and (rule.degree or 0) <= MAX_COMPOSITION_DEGREE:
        assert _outcome(apply_rule, rule, inputs) is not RuleError
