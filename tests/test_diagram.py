import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg.ccgtypes import Atom, parse_type
from discoccg.diagram import (
    Cap, Cup, Diagram, DiagramError, Swap, Wire, WordBox, compose, diagram_from_json,
    diagram_to_json, left_adjoint, obj_str, right_adjoint, tensor, well_formed,
)
from discoccg.functor import DEFAULT_CONTEXT
from tests.sentences import cross_serial, parse_object, raw_diagram

t = parse_type
n = parse_object("n")


def test_f_object_transitive_verb():
    # order-3 tensor: n.r s n.l
    assert DEFAULT_CONTEXT.f_obj(t("(S\\NP)/NP")) == parse_object("n.r s n.l")


def test_f_object_atom():
    assert DEFAULT_CONTEXT.f_obj(Atom("NP")) == n


def test_f_object_type_raised():
    assert DEFAULT_CONTEXT.f_obj(t("S/(S\\NP)")) == parse_object("s s.l n")


from tests.test_types import types  # noqa: E402


@settings(max_examples=200)
@given(types())
def test_f_object_matches_independent_evaluator(x):
    assert DEFAULT_CONTEXT.f_obj(x) == _manual_f(x)


def _manual_f(ty):
    # independent recursive evaluator used as the oracle
    from discoccg.ccgtypes import Forward
    amap = {"NP": "n", "S": "s", "PP": "p"}
    if isinstance(ty, Atom):
        return (Wire(amap.get(ty.name, ty.name), 0),)
    if isinstance(ty, Forward):
        res, arg = _manual_f(ty.result), _manual_f(ty.argument)
        return res + tuple(Wire(w.base, w.z - 1) for w in reversed(arg))
    arg, res = _manual_f(ty.argument), _manual_f(ty.result)
    return tuple(Wire(w.base, w.z + 1) for w in reversed(arg)) + res


wires = st.builds(Wire, st.sampled_from(["n", "s", "p", "N"]), st.integers(-3, 3))
robjects = st.builds(tuple, st.lists(wires, max_size=5))


@settings(max_examples=200)
@given(robjects)
def test_adjoints_cancel(x):
    assert left_adjoint(right_adjoint(x)) == x
    assert right_adjoint(left_adjoint(x)) == x


@settings(max_examples=200)
@given(robjects, robjects)
def test_adjoint_contravariance(a, b):
    assert right_adjoint(a + b) == right_adjoint(b) + right_adjoint(a)
    assert left_adjoint(a + b) == left_adjoint(b) + left_adjoint(a)


def test_winding_bound_enforced():
    with pytest.raises(DiagramError):
        Wire("n", 7)


# Cup, Cap and Swap build their non-empty boundaries at construction; the
# boundaries are derived fields that equality, hashing, repr and JSON ignore.
GENERATORS = {
    "cup": (Cup("n", -1), "n.l n", "1", "Cup(base='n', z=-1)",
            {"kind": "cup", "base": "n", "z": -1}),
    "cap": (Cap("s", 0), "1", "s.r s", "Cap(base='s', z=0)",
            {"kind": "cap", "base": "s", "z": 0}),
    "swap": (Swap(Wire("n", 1), Wire("s")), "n.r s", "s n.r",
             "Swap(w1=Wire(base='n', z=1), w2=Wire(base='s', z=0))",
             {"kind": "swap", "w1": {"base": "n", "z": 1}, "w2": {"base": "s", "z": 0}}),
}


def _twin(gen):
    """A fresh generator equal to ``gen``, built from its constructor fields."""
    return type(gen)(*(getattr(gen, f) for f in gen.__match_args__))


@pytest.mark.parametrize("kind", GENERATORS)
def test_generator_boundaries_are_built_at_construction(kind):
    gen, dom, cod, _, _ = GENERATORS[kind]
    fresh = _twin(gen)
    stored = {"dom", "cod"} & vars(fresh).keys()   # before any read
    assert stored == {name for name, wires in (("dom", dom), ("cod", cod)) if wires != "1"}
    assert (obj_str(fresh.dom), obj_str(fresh.cod)) == (dom, cod)


@pytest.mark.parametrize("kind", GENERATORS)
def test_generator_equality_and_hash_ignore_the_boundaries(kind):
    gen = GENERATORS[kind][0]
    twin = _twin(gen)
    assert twin == gen and hash(twin) == hash(gen) and twin is not gen
    assert len({gen, twin}) == 1
    other = Cup("n", 0) if kind != "cup" else Cup("s", -1)
    assert other != gen


@pytest.mark.parametrize("kind", GENERATORS)
def test_generator_repr_shows_only_the_constructor_fields(kind):
    gen, _, _, text, _ = GENERATORS[kind]
    assert repr(gen) == text


@pytest.mark.parametrize("kind", GENERATORS)
def test_generator_json_is_unchanged(kind):
    import json as j

    gen, dom, _, _, payload = GENERATORS[kind]
    d = Diagram.build(parse_object("" if dom == "1" else dom), [(0, gen)])
    assert j.loads(diagram_to_json(d))["layers"] == [{"offset": 0, "gen": payload}]
    assert diagram_from_json(diagram_to_json(d)) == d


def test_cup_winding_legality():
    # cups connect (z, z+1) only; (z, z) and (z, z+2) cannot be expressed
    cup = Cup("n", 0)
    assert cup.dom == (Wire("n", 0), Wire("n", 1))
    assert Cup("n", -1).dom == parse_object("n.l n")


def test_snake_composes():
    cap_part = Diagram.build(n, [(0, Cap("n", -1))])
    assert cap_part.cod == parse_object("n n.l n")
    cup_part = Diagram.build(cap_part.cod, [(1, Cup("n", -1))])
    snake = compose(cap_part, cup_part)
    assert snake.dom == n and snake.cod == n
    assert len(snake.layers) == 2
    assert well_formed(snake) == []


def test_identity_compose():
    d = Diagram.build((), [(0, WordBox("Alice", n))])
    assert compose(Diagram.id(()), d) == d
    assert compose(d, Diagram.id(n)) == d


def test_compose_boundary_mismatch_lists_both():
    d = Diagram.build((), [(0, WordBox("Alice", n))])
    with pytest.raises(DiagramError) as err:
        compose(d, d)
    assert "cod" in str(err.value) and "dom" in str(err.value)


def test_tensor_of_words():
    alice = Diagram.build((), [(0, WordBox("Alice", n))])
    likes = Diagram.build((), [(0, WordBox("likes", parse_object("n.r s n.l")))])
    both = tensor(alice, likes)
    assert both.cod == parse_object("n n.r s n.l")
    assert both.layers == ((0, WordBox("Alice", n)),
                           (1, WordBox("likes", parse_object("n.r s n.l"))))


def test_tensor_identity():
    d = Diagram.build((), [(0, WordBox("Alice", n))])
    assert tensor(d, Diagram.id(())) == d
    assert tensor(Diagram.id(()), d) == d


diagram_states = st.lists(
    st.tuples(st.sampled_from(["a", "bb", "c"]),
              st.lists(wires, min_size=1, max_size=3)),
    min_size=1, max_size=3)


@settings(max_examples=200)
@given(diagram_states, diagram_states, diagram_states)
def test_tensor_associative(xs, ys, zs):
    def mk(spec):
        layers = []
        pos = 0
        for label, ws in spec:
            layers.append((pos, WordBox(label, tuple(ws))))
            pos += len(ws)
        return Diagram.build((), layers)
    d1, d2, d3 = mk(xs), mk(ys), mk(zs)
    assert tensor(tensor(d1, d2), d3) == tensor(d1, tensor(d2, d3))


def test_well_formed_on_golden(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        assert well_formed(d) == [], ident


def test_well_formed_empty_diagram():
    assert well_formed(Diagram((), (), ())) == []


def test_well_formed_catches_offset_mutation(corpus_diagrams):
    d = corpus_diagrams["alice-likes-bob"]
    layers = list(d.layers)
    for i, (o, g) in enumerate(layers):
        if isinstance(g, Cup):
            layers[i] = (o + 1, g)
            break
    broken = Diagram(d.dom, d.cod, tuple(layers))
    assert len(well_formed(broken)) == 1


def test_corpus_windings_stay_small(corpus, corpus_diagrams):
    for ident, d in corpus.items():
        for w in DEFAULT_CONTEXT.f_obj(d.cat):
            assert -2 <= w.z <= 2, ident
    for ident, diag in corpus_diagrams.items():
        for boundary in diag.boundaries():
            for w in boundary:
                assert -2 <= w.z <= 2, ident


def test_json_roundtrip(corpus_diagrams):
    for ident, d in corpus_diagrams.items():
        assert diagram_from_json(diagram_to_json(d)) == d, ident


def test_json_golden_snapshot(corpus_diagrams):
    # frozen wire-format snapshot of the simplest transitive sentence
    golden = (
        '{"dom": [], "cod": [{"base": "s", "z": 0}], "layers": '
        '[{"offset": 0, "gen": {"kind": "word", "label": "Alice", '
        '"cod": [{"base": "n", "z": 0}]}}, '
        '{"offset": 1, "gen": {"kind": "word", "label": "likes", '
        '"cod": [{"base": "n", "z": 1}, {"base": "s", "z": 0}, {"base": "n", "z": -1}]}}, '
        '{"offset": 4, "gen": {"kind": "word", "label": "Bob", '
        '"cod": [{"base": "n", "z": 0}]}}, '
        '{"offset": 3, "gen": {"kind": "cup", "base": "n", "z": -1}}, '
        '{"offset": 0, "gen": {"kind": "cup", "base": "n", "z": 0}}]}'
    )
    assert diagram_to_json(corpus_diagrams["alice-likes-bob"]) == golden
    assert diagram_from_json(golden) == corpus_diagrams["alice-likes-bob"]


def _reference_json(d):
    """The wire format as ``json.dumps`` encodes the payload's dict tree."""
    def wire(w):
        return {"base": w.base, "z": w.z}

    def gen(g):
        if isinstance(g, WordBox):
            return {"kind": "word", "label": g.label, "cod": [wire(w) for w in g.cod]}
        if isinstance(g, Swap):
            return {"kind": "swap", "w1": wire(g.w1), "w2": wire(g.w2)}
        return {"kind": "cup" if isinstance(g, Cup) else "cap", "base": g.base, "z": g.z}

    return json.dumps({"dom": [wire(w) for w in d.dom], "cod": [wire(w) for w in d.cod],
                       "layers": [{"offset": o, "gen": gen(g)} for o, g in d.layers]},
                      ensure_ascii=False)


def test_json_text_is_what_json_dumps_writes(corpus_diagrams):
    odd = Wire('q"\\é', 0)
    labels = Diagram.build((odd,), [
        (1, WordBox('say "hi"\\n\u00e9\u2028\x01\U0001F600', (odd.r,))),
        (0, Cup(odd.base, 0)), (0, Cap(odd.base, -1)), (0, Swap(odd, odd.l))])
    cases = [*corpus_diagrams.values(), raw_diagram(cross_serial(4)), labels]
    assert cases[-2].count(Swap) and corpus_diagrams["alice-likes-bob-raised"].count(Cap)
    for d in cases:
        assert diagram_to_json(d) == _reference_json(d)


def test_json_detects_cod_mismatch(corpus_diagrams):
    import json as j
    payload = j.loads(diagram_to_json(corpus_diagrams["alice-likes-bob"]))
    payload["cod"] = [{"base": "n", "z": 0}]
    with pytest.raises(DiagramError):
        diagram_from_json(j.dumps(payload))


# --- boundary walk error messages ---------------------------------------------

_BAD_LAYERS = {
    "negative-offset": (
        parse_object("n"),
        [(0, WordBox("a", parse_object("s"))), (-1, Cup("n", 0))],
        "layer 1: cup(n, n.r) at offset -1 does not fit boundary s n"),
    "overhang": (
        parse_object("n n.r"),
        [(1, Cup("n", 0))],
        "layer 0: cup(n, n.r) at offset 1 does not fit boundary n n.r"),
    "type-mismatch": (
        parse_object("s n.l"),
        [(0, WordBox("b", n)), (1, Cup("n", 0))],
        "layer 1: cup(n, n.r) expects n n.r, boundary has s n.l at offset 1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_LAYERS))
def test_boundary_walk_error_messages(case):
    dom, layers, message = _BAD_LAYERS[case]
    with pytest.raises(DiagramError) as exc:
        Diagram.build(dom, layers)
    assert str(exc.value) == message
    assert well_formed(Diagram(dom, dom, tuple(layers))) == [message]


def test_well_formed_final_boundary_message():
    d = Diagram((), parse_object("s"), (
        (0, WordBox("a", parse_object("n s.l"))), (2, WordBox("b", parse_object("s")))))
    assert well_formed(d) == ["final boundary n s.l s does not match cod s"]


def test_json_stored_cod_mismatch_message():
    import json as j
    d = Diagram.build((), [(0, WordBox("a", n)), (1, WordBox("b", parse_object("n.r s"))),
                              (0, Cup("n", 0))])
    payload = j.loads(diagram_to_json(d))
    payload["cod"] = [{"base": "n", "z": 0}]
    with pytest.raises(DiagramError) as exc:
        diagram_from_json(j.dumps(payload))
    assert str(exc.value) == "stored cod n does not match layers (computed s)"


def _set(path, value):
    def mutate(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value
    return mutate


_BAD_JSON = {
    "empty-object": ("{}", None, "missing field 'cod' at /"),
    "list": ("[]", None, "expected an object at /"),
    "not-json": ("{", None, "invalid JSON: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"),
    "unknown-top-level-field": (None, _set(["extra"], 1), "unknown field 'extra' at /"),
    "missing-gen": (None, lambda p: p["layers"][0].pop("gen"),
                    "missing field 'gen' at /layers/0"),
    "string-offset": (None, _set(["layers", 0, "offset"], "0"),
                      "'offset' must be an integer at /layers/0/offset"),
    "float-cup-winding": (None, _set(["layers", 2, "gen", "z"], 0.0),
                          "'z' must be an integer at /layers/2/gen/z"),
    "bool-wire-winding": (None, _set(["cod", 0, "z"], True), "'z' must be an integer at /cod/0/z"),
    "cup-winding-out-of-range": (None, _set(["layers", 2, "gen", "z"], 6),
                                 "'z' must be in -6..5 at /layers/2/gen/z"),
    "int-label": (None, _set(["layers", 0, "gen", "label"], 5),
                  "'label' must be a non-empty string at /layers/0/gen/label"),
    "empty-base": (None, _set(["layers", 1, "gen", "cod", 1, "base"], ""),
                   "'base' must be a non-empty string at /layers/1/gen/cod/1/base"),
    "unknown-kind": (None, _set(["layers", 2, "gen", "kind"], ["cup"]),
                     "unknown generator kind ['cup'] at /layers/2/gen/kind"),
    "layers-not-a-list": (None, _set(["layers"], {}), "'layers' must be a list at /layers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_JSON))
def test_json_reader_names_the_pointer_of_a_malformed_payload(case):
    import json as j
    text, mutate, message = _BAD_JSON[case]
    if text is None:
        d = Diagram.build((), [(0, WordBox("a", n)), (1, WordBox("b", parse_object("n.r s"))),
                                  (0, Cup("n", 0))])
        payload = j.loads(diagram_to_json(d))
        mutate(payload)
        text = j.dumps(payload)
    with pytest.raises(DiagramError) as exc:
        diagram_from_json(text)
    assert str(exc.value) == message


def test_boundaries_follow_the_layers():
    d = Diagram.build(n, [(1, Cap("n", 0)), (0, Cup("n", 0))])
    assert [obj_str(b) for b in d.boundaries()] == ["n", "n n.r n", "n"]


# --- messages and keys that print an object -------------------------------------

def test_compose_boundary_mismatch_message():
    d = Diagram.build(parse_object(""), [(0, WordBox("Alice", n))])
    with pytest.raises(DiagramError) as exc:
        compose(d, d)
    assert str(exc.value) == "compose boundary mismatch: cod n vs dom 1"
    with pytest.raises(DiagramError) as exc:
        compose(Diagram.id(n), Diagram.id(parse_object("n.r s n.l")))
    assert str(exc.value) == "compose boundary mismatch: cod n vs dom n.r s n.l"


def test_diagrams_equal_boundary_mismatch_message():
    from discoccg.rewrite import diagrams_equal

    d = Diagram.build(parse_object(""), [(0, WordBox("a", parse_object("n.r s")))])
    with pytest.raises(DiagramError) as exc:
        diagrams_equal(d, Diagram.id(n))
    assert str(exc.value) == "boundary mismatch: [1] -> [n.r s] vs [n] -> [n]"


@pytest.mark.parametrize("spec, text", [("", "id(1)"), ("n.r s n.l", "id(n.r s n.l)")])
def test_identity_prints_its_object(spec, text):
    assert str(Diagram.id(parse_object(spec))) == text


@pytest.mark.parametrize("label, spec, text", [
    ("likes", "n.r s n.l", "likes:n.r s n.l"), ("Alice", "n", "Alice:n"), ("a", "", "a:1"),
    ("x", "s.l.l p.r.r", "x:s.l.l p.r.r")])
def test_word_box_prints_its_codomain(label, spec, text):
    # the text is the tie-break key of the normal form's layer order
    # (``rewrite._layer_key``), so it decides normal forms
    assert str(WordBox(label, parse_object(spec))) == text
