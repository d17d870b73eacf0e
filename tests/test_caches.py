"""The memoized sub-computations shared across the sentences of a process
must answer exactly as a cold computation does."""

import copy
import json
import os
import pickle
import subprocess
import sys
import threading
from itertools import count

import numpy as np
import pytest

from discoccg import biclosed as bc
from discoccg import ccgtypes, ingest, rules, semantics
from discoccg.cli import JobConfig, run
from discoccg.corpus import corpus_text
from discoccg.ccgtypes import Atom, Backward, Forward, TypeParseError, parse_type
from discoccg.diagram import DEFAULT_ATOM_MAP, Diagram, WordBox
from discoccg.functor import DEFAULT_CONTEXT, LoweringContext, lower
from discoccg.ingest import IngestError, ingest_tree, read_derivations, read_json
from discoccg.rewrite import normalize
from discoccg.semantics import DimAssignment, Lexicon, evaluate, semantically_equal
from tests.sentences import cross_serial, left_fc_chain, parse_object, right_branching

CACHES = (ingest._stripped_type, ingest._has_conj, ingest._rule_label, rules._applied,
          bc._rule_term, bc.to_str, DEFAULT_CONTEXT.f_obj, DEFAULT_CONTEXT.rule_image,
          semantics._plan, semantics._seeded_stack)


def _clear_caches():
    for cached in CACHES:
        cached.cache_clear()


def _svo(subject: str, verb: str, obj: str) -> dict:
    return {"rule": "BA", "type": "S", "children": [
        {"word": subject, "type": "NP"},
        {"rule": "FA", "type": "S\\NP", "children": [
            {"word": verb, "type": "(S\\NP)/NP"}, {"word": obj, "type": "NP"}]}]}


def test_warm_run_emits_what_a_cold_run_does(tmp_path):
    entries = json.loads(corpus_text())
    shapes = [right_branching(3), left_fc_chain(4), cross_serial(3),
              _svo("Carol", "sees", "Dave"), _svo("Alice", "likes", "Bob")]
    entries += [{"id": f"rep{i}", "tree": shapes[i % len(shapes)]} for i in range(15)]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(entries))
    cfg = JobConfig(inputs=[str(path)], emit=("biclosed", "diagram", "tikz", "svg", "stats"),
                    planarize=True, normalize=True, check_semantics="n=2,s=3,*=2", seed=4)
    run(cfg)
    _clear_caches()
    assert all(cached.cache_info().currsize == 0 for cached in CACHES)
    cold = run(cfg)
    warm = run(cfg)
    assert (cold.converted, cold.failed) == (len(entries), 0)
    assert warm.outputs == cold.outputs
    assert warm.stats_rows == cold.stats_rows
    assert warm.failures == cold.failures
    for cached in CACHES:
        assert cached.cache_info().hits > 0, cached.__wrapped__


def test_bad_type_string_names_each_node():
    bad = "(S\\NP"
    first = {"rule": "BA", "type": "S", "children": [
        {"word": "Alice", "type": "NP"}, {"word": "sleeps", "type": bad}]}
    second = _svo("Alice", "likes", "Bob")
    second["children"][1]["children"][0]["type"] = bad
    for tree, node in ((first, "1"), (second, "1/0"), (first, "1")):
        with pytest.raises(IngestError, match=f"bad type .* at node {node}:"):
            ingest_tree(read_json(json.dumps(tree)))
    # a parse error is never cached: each occurrence is parsed anew
    before = ingest._stripped_type.cache_info()
    for _ in range(2):
        with pytest.raises(TypeParseError):
            ingest._stripped_type(bad)
    after = ingest._stripped_type.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


def test_contexts_never_see_each_others_objects(corpus):
    terms = [bc.lower_derivation(d) for d in corpus.values()]
    custom_map = {**DEFAULT_ATOM_MAP, "NP": "np", "S": "sent"}
    cold_default = [lower(t, LoweringContext()) for t in terms]
    cold_custom = [lower(t, LoweringContext(dict(custom_map))) for t in terms]
    assert cold_default != cold_custom
    for custom_first in (False, True):
        default, custom = LoweringContext(), LoweringContext(dict(custom_map))
        order = [custom, default] if custom_first else [default, custom]
        lowered = {id(ctx): [lower(t, ctx) for t in terms] for ctx in order}
        assert lowered[id(default)] == cold_default
        assert lowered[id(custom)] == cold_custom
    assert LoweringContext().f_obj(Atom("NP")) == parse_object("n")
    assert LoweringContext(dict(custom_map)).f_obj(Atom("NP")) \
        == parse_object("np")


def test_stacks_are_keyed_by_every_value_and_read_only():
    word = WordBox("likes", parse_object("n.r s n.l"))
    dims = ((), 2)
    base = semantics._seeded_stack((1, 2), dims, False, word)
    assert semantics._seeded_stack((1, 2), ((), 2), False, word) is base
    others = [
        semantics._seeded_stack((1, 3), dims, False, word),
        semantics._seeded_stack((2, 1), dims, False, word),
        semantics._seeded_stack((1, 2), ((("s", 3),), 2), False, word),
        semantics._seeded_stack((1, 2), ((), 3), False, word),
        semantics._seeded_stack((1, 2), dims, True, word),
    ]
    for other in others:
        assert other is not base
        assert other.shape != base.shape or not np.array_equal(other, base)
    assert others[4].dtype == complex and base.dtype == float
    for stack in [base, *others]:
        with pytest.raises(ValueError):
            stack[...] = 0.0
    # each seed's slice is that seed's lexicon tensor
    for i, seed in enumerate((1, 2)):
        lex = Lexicon(DimAssignment({}, 2), seed=seed)
        assert np.array_equal(base[i], lex.tensor_for("likes", word.cod).array)


def test_only_small_words_are_memoized():
    # at dimension 2, 10 legs are 1024 entries per lexicon and 11 are 2048
    small, large = (WordBox("w", parse_object(" ".join(["n"] * k))) for k in (10, 11))
    dims = DimAssignment({}, 2)
    semantics._seeded_stack.cache_clear()
    for word in (small, large):
        d = Diagram.build((), [(0, word)])
        for out, seed in zip(evaluate(d, dims, [Lexicon(dims, 7), Lexicon(dims, 8)]), (7, 8)):
            drawn = Lexicon(dims, seed).tensor_for(word.label, word.cod).array
            assert np.array_equal(out.array, drawn)
    info = semantics._seeded_stack.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_semantic_check_keys_dims_by_value():
    d = lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(
        _svo("Alice", "likes", "Bob"))))))
    semantics._seeded_stack.cache_clear()
    assert semantically_equal(d, d, DimAssignment({"s": 2}, 2), [5, 6])
    misses = semantics._seeded_stack.cache_info().misses
    assert semantically_equal(d, d, DimAssignment({"s": 2}, 2), [5, 6])
    assert semantics._seeded_stack.cache_info().misses == misses
    assert semantically_equal(d, d, DimAssignment({"s": 3}, 2), [5, 6])
    assert semantics._seeded_stack.cache_info().misses == 2 * misses


def test_one_structure_shares_a_plan_but_not_tensors(corpus_diagrams):
    d1, d2 = (lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(tree)))))
              for tree in (_svo("Alice", "likes", "Bob"), _svo("Carol", "sees", "Dave")))
    assert d1 != d2
    assert semantics._compile(d1).steps is semantics._compile(d2).steps
    # other layers, other wire ids, one network structure
    raised = corpus_diagrams["alice-likes-bob-raised"]
    assert semantics._compile(raised).steps is semantics._compile(normalize(raised)).steps
    dims = DimAssignment({}, 2)
    lexicons = [Lexicon(dims, seed=seed) for seed in (3, 4)]
    for d in (d1, d2):
        subject, verb, obj = [g for _, g in d.layers if isinstance(g, WordBox)]
        for lex, tensor in zip(lexicons, evaluate(d, dims, lexicons)):
            expected = np.einsum("a,asc,c->s", *(lex.tensor_for(w.label, w.cod).array
                                                  for w in (subject, verb, obj)))
            assert np.allclose(tensor.array, expected)
    assert not np.allclose(evaluate(d1, dims, lexicons[0]).array,
                           evaluate(d2, dims, lexicons[0]).array)
    assert not semantically_equal(d1, d2, dims, [3, 4])


def test_plan_cache_miss_and_hit_agree(corpus_diagrams):
    semantics._plan.cache_clear()
    cold = {ident: semantics._compile(d).steps for ident, d in corpus_diagrams.items()}
    assert semantics._plan.cache_info().hits > 0   # the corpus repeats structures
    warm = {ident: semantics._compile(d).steps for ident, d in corpus_diagrams.items()}
    assert warm == cold


def test_bad_rule_application_fails_at_each_node():
    """A rule mismatch is raised, never cached: its second occurrence in a
    batch fails at its own node, in either input format."""
    bad = _svo("Alice", "likes", "Bob")
    bad["children"][1]["children"][1]["type"] = "S"   # FA((S\NP)/NP, S)
    deeper = {"rule": "BA", "type": "S", "children": [
        {"word": "Carol", "type": "NP"}, {"rule": "BA", "type": "S\\NP", "children": [
            bad["children"][1], {"word": "today", "type": "(S\\NP)\\(S\\NP)"}]}]}
    expected = "FA: expected the secondary to equal the primary's argument Y, " \
        "got [S\\NP/NP, S] at node {}"
    text = json.dumps([bad, deeper, bad])
    bank = "\n".join([
        "(BA S (LEX NP Alice) (FA S\\NP (LEX (S\\NP)/NP likes) (LEX S Bob)))",
        "(BA S (LEX NP Carol) (BA S\\NP (FA S\\NP (LEX (S\\NP)/NP likes) (LEX S Bob))"
        " (LEX (S\\NP)\\(S\\NP) today)))",
        "(BA S (LEX NP Alice) (FA S\\NP (LEX (S\\NP)/NP likes) (LEX S Bob)))"])
    for data, fmt in ((text, "json"), (bank, "ccgbank")):
        messages = []
        for _, raw in read_derivations(data, fmt):
            with pytest.raises(IngestError) as exc:
                ingest_tree(raw)
            messages.append(str(exc.value))
        assert messages == [expected.format(node) for node in ("1", "1/0", "1")], fmt


def _fa_term(fn: str, arg: str):
    return bc.rule_term(rules.FA, [parse_type(fn), parse_type(arg)])


def test_contexts_never_see_each_others_rule_images():
    term = _fa_term("(S\\NP)/NP", "NP")
    default, custom = LoweringContext(), LoweringContext({**DEFAULT_ATOM_MAP, "NP": "q"})
    for first, second in ((default, custom), (custom, default)):
        first.rule_image.cache_clear()
        second.rule_image.cache_clear()
        a, b = first.rule_image(term.rule, term.dom), second.rule_image(term.rule, term.dom)
        assert a != b
        assert second.rule_image.cache_info().hits == 0
    assert [str(g) for _, g in default.rule_image(term.rule, term.dom)] == ["cup(n.l, n)"]
    assert [str(g) for _, g in custom.rule_image(term.rule, term.dom)] == ["cup(q.l, q)"]


def test_cached_rule_image_is_immutable_and_shifted_per_use():
    term = _fa_term("(S\\NP)/NP", "NP")
    image = DEFAULT_CONTEXT.rule_image(term.rule, term.dom)
    assert isinstance(image, tuple) and all(isinstance(layer, tuple) for layer in image)
    with pytest.raises(TypeError):
        image[0] = (0, image[0][1])
    with pytest.raises(AttributeError):
        image[0][1].base = "x"
    # two uses at different offsets leave the shared image at offset 0
    shifted = lower(bc.compose(term, bc.tensor_term(
        bc.word("likes", parse_type("(S\\NP)/NP")), bc.word("Bob", parse_type("NP")))))
    assert DEFAULT_CONTEXT.rule_image(term.rule, term.dom) is image
    assert image[0][0] == 2 and shifted.layers[-1][0] == 2
    subject = bc.word("Alice", parse_type("NP"))
    clause = lower(bc.tensor_term(subject, bc.compose(term, bc.tensor_term(
        bc.word("likes", parse_type("(S\\NP)/NP")), bc.word("Bob", parse_type("NP"))))))
    assert clause.layers[-1][0] == 3 and image[0][0] == 2


def test_each_category_value_is_one_instance():
    ingest._stripped_type.cache_clear()
    a = parse_type("((S\\NP)/NP)/(S\\NP)")
    c = Forward(Forward(Backward(Atom("NP"), Atom("S")), Atom("NP")),
                Backward(Atom("NP"), Atom("S")))
    named = Forward(result=Forward(result=Backward(argument=Atom(name="NP"), result=Atom("S")),
                                   argument=Atom("NP")),
                    argument=Backward(result=Atom("S"), argument=Atom("NP")))
    # equal values parsed apart, in either notation, built or copied, are one object
    same = [parse_type("(S\\NP)/NP/(S\\NP)"), parse_type("((NP ⤚ S) ⤙ NP) ⤙ (NP ⤚ S)"),
            c, named, eval(repr(a)), copy.copy(a), copy.deepcopy(a),
            pickle.loads(pickle.dumps(a)), ingest._erase(ingest._fresh(a, count()),
                                                         ingest._UnionFind())]
    assert all(t is a for t in same)
    # unequal values stay distinct: another slash, another atom, another order
    others = [parse_type("((S\\NP)/NP)/(S/NP)"), parse_type("((S\\NP)/NP)/(S\\N)"),
              Backward(Forward(Backward(Atom("NP"), Atom("S")), Atom("NP")),
                       Backward(Atom("NP"), Atom("S")))]
    assert len({a, *others}) == 4 and all(t != a for t in others)
    # a value that fails validation never enters the table
    size = len(ccgtypes._INSTANCES)
    with pytest.raises(ValueError, match="atom name must be non-empty"):
        Atom("")
    with pytest.raises(ValueError, match="atom name must be non-empty"):
        Atom(name="")
    assert len(ccgtypes._INSTANCES) == size
    assert (Atom, "") not in ccgtypes._INSTANCES


def test_threads_building_one_value_get_one_instance():
    # values no other test builds, 200 levels deep, each built by 8 threads
    # that start it together; four rounds, since a lost race shows only now
    # and then
    start = threading.Barrier(8)
    built = []

    def build():
        rounds = []
        for name in ("Threaded", "Threaded1", "Threaded2", "Threaded3"):
            start.wait()
            t = Atom(name)
            for i in range(200):
                t = Forward(t, Backward(Atom(f"T{i % 7}"), Atom(name)))
            rounds.append(t)
        built.append(rounds)

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, inside construction too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 8
    assert all(t is first for rounds in built for t, first in zip(rounds, built[0]))
    arg = "(Threaded\\T{})"
    text = "Threaded" + "".join("/" + arg.format(i % 7) for i in range(200))
    assert parse_type(text) is built[0][0]


def test_pickled_category_is_a_key_under_another_hash_seed():
    t = parse_type("((S\\NP)/NP)\\(S/PP)")
    hash(t)
    payload = pickle.dumps(t)
    assert b"_hash" not in payload
    script = ("import pickle, sys; from discoccg.ccgtypes import parse_type; "
              "t = pickle.loads(sys.stdin.buffer.read()); "
              "d = {t: 1}; u = parse_type('((S\\\\NP)/NP)\\\\(S/PP)'); "
              "print(d[u], t == u, hash(t) == hash(u))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], input=payload, env=env,
                             capture_output=True, check=True).stdout.decode().split()
        assert out == ["1", "True", "True"]
