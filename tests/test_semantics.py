import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoccg import semantics
from discoccg.diagram import (
    Cap, Cup, Diagram, EMPTY, RObject, Swap, Wire, WordBox,
)
from discoccg.rewrite import normalize, planarize
from discoccg.semantics import (
    DimAssignment, Lexicon, SemanticsError, Tensor, evaluate, fnv1a64,
    semantically_equal, splitmix64, unit_interval,
)
from tests.sentences import cross_serial, raw_diagram, right_branching

DIMS = DimAssignment({}, 2)


def test_splitmix64_reference_stream():
    # reference outputs for seed 0 (Steele/Lea/Flood constants)
    state = 0
    out = []
    for _ in range(4):
        v, state = splitmix64(state)
        out.append(v)
    assert out == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                   0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_splitmix64_seed42_stream():
    state = 42
    out = []
    for _ in range(3):
        v, state = splitmix64(state)
        out.append(v)
    assert out == [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]


def test_fnv1a64_vector():
    assert fnv1a64(b"alice") == 0x508B2ABB65A03907


def test_unit_interval_range_and_vector():
    assert unit_interval(0xE220A8397B1DCDAF) == pytest.approx(0.7666216164272852)
    assert -1.0 <= unit_interval(0) < 1.0
    assert -1.0 <= unit_interval((1 << 64) - 1) < 1.0


def test_lexicon_frozen_entry():
    lex = Lexicon(DIMS, seed=42)
    t = lex.tensor_for("alice", RObject.parse("n"))
    assert t.array.tolist() == pytest.approx(
        [0.442663638516138, -0.5751187306527834])


@pytest.mark.parametrize("seed", [0, 42, (1 << 64) - 1])
@pytest.mark.parametrize("complex_field", [False, True])
def test_lexicon_draw_is_the_scalar_stream(seed, complex_field):
    # the draw mixes every state at once; entry i is the i-th output of the
    # scalar generator, real parts first, then imaginary parts
    cod = RObject.parse("n " * 10 + "s.l")
    lex = Lexicon(DimAssignment({"s": 3}, 2), seed=seed, complex_field=complex_field)
    got = lex.tensor_for("w", cod).array
    state = (seed ^ fnv1a64(f"w|{semantics._signature(cod)}".encode())) & ((1 << 64) - 1)
    stream = []
    for _ in range(2 * got.size if complex_field else got.size):
        value, state = splitmix64(state)
        stream.append(unit_interval(value))
    if complex_field:
        stream = [re + 1j * im for re, im in zip(stream[:got.size], stream[got.size:])]
    assert got.shape == (2,) * 10 + (3,)
    assert got.ravel().tolist() == stream


def test_lexicon_deterministic_and_order_independent():
    lex1 = Lexicon(DIMS, seed=9)
    lex2 = Lexicon(DIMS, seed=9)
    a1 = lex1.tensor_for("a", RObject.parse("n"))
    _ = lex2.tensor_for("b", RObject.parse("s"))
    a2 = lex2.tensor_for("a", RObject.parse("n"))
    assert np.array_equal(a1.array, a2.array)


def test_lexicon_user_supplied_entry_and_shape_check():
    wires = RObject.parse("n")
    good = Tensor((Wire("n", 0),), (2,), np.array([1.0, 2.0]))
    lex = Lexicon(DIMS, entries={("v", tuple(wires)): good})
    assert np.array_equal(lex.tensor_for("v", wires).array, good.array)
    bad = Tensor((Wire("n", 0),), (3,), np.zeros(3))
    lex = Lexicon(DIMS, entries={("v", tuple(wires)): bad})
    with pytest.raises(SemanticsError):
        lex.tensor_for("v", wires)


def test_lexicon_distinguishes_cod():
    lex = Lexicon(DIMS, seed=9)
    t1 = lex.tensor_for("w", RObject.parse("n"))
    t2 = lex.tensor_for("w", RObject.parse("n.r"))
    assert not np.array_equal(t1.array, t2.array)


def _brute_force(d: Diagram, dims: DimAssignment, lex: Lexicon) -> np.ndarray:
    """Independent oracle: assign an index to every wire segment, then sum
    products over all index tuples with pure-python loops."""
    next_id = itertools.count()
    boundary: list[int] = []
    factors: list[tuple[str, tuple[int, ...], object]] = []
    pairings: list[tuple[int, int]] = []
    wire_dims: dict[int, int] = {}

    for offset, gen in d.layers:
        if isinstance(gen, WordBox):
            ids = []
            for w in gen.wires:
                i = next(next_id)
                wire_dims[i] = dims.of(w)
                ids.append(i)
            factors.append((gen.label, tuple(ids), lex.tensor_for(gen.label, gen.wires)))
            boundary[offset:offset] = ids
        elif isinstance(gen, Cup):
            a, b = boundary[offset], boundary[offset + 1]
            pairings.append((a, b))
            del boundary[offset:offset + 2]
        elif isinstance(gen, Cap):
            i, j = next(next_id), next(next_id)
            dim = dims.of(Wire(gen.base, gen.z))
            wire_dims[i] = wire_dims[j] = dim
            pairings.append((i, j))
            boundary[offset:offset] = [i, j]
        elif isinstance(gen, Swap):
            boundary[offset], boundary[offset + 1] = boundary[offset + 1], boundary[offset]

    # identify paired wires via union-find over indices
    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairings:
        parent[find(a)] = find(b)

    classes = sorted({find(i) for i in wire_dims})
    out_shape = tuple(wire_dims[i] for i in boundary)
    result = np.zeros(out_shape if out_shape else ())
    free = [find(i) for i in boundary]
    for assign in itertools.product(*(range(wire_dims[c]) for c in classes)):
        value = dict(zip(classes, assign))
        prod = 1.0
        for label, ids, tensor in factors:
            idx = tuple(value[find(i)] for i in ids)
            prod *= float(tensor.array[idx])
        if out_shape:
            result[tuple(value[c] for c in free)] += prod
        else:
            result += prod
    return result


def _word(label, spec):
    wires = RObject.parse(spec)
    return (0, WordBox(label, wires))


def test_alice_likes_bob_matches_brute_force(corpus_diagrams):
    d = corpus_diagrams["alice-likes-bob"]
    lex = Lexicon(DIMS, seed=3)
    fast = evaluate(d, DIMS, lex).array
    slow = _brute_force(d, DIMS, Lexicon(DIMS, seed=3))
    assert np.allclose(fast, slow, rtol=0, atol=1e-12)


def test_alice_likes_bob_matches_matrix_chain(corpus_diagrams):
    # subject-vector . verb-slices . object-vector, written out by hand
    d = corpus_diagrams["alice-likes-bob"]
    lex = Lexicon(DIMS, seed=31)
    out = evaluate(d, DIMS, lex).array
    alice = lex.tensor_for("Alice", RObject.parse("n")).array
    likes = lex.tensor_for("likes", RObject.parse("n.r s n.l")).array
    bob = lex.tensor_for("Bob", RObject.parse("n")).array
    expected = np.zeros(2)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                expected[k] += alice[i] * likes[i, k, j] * bob[j]
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_brute_force_agrees_on_crossed_and_raised(corpus_diagrams):
    for ident in ["np-shift", "alice-likes-bob-raised", "object-raised",
                  "dutch-cross-serial"]:
        d = corpus_diagrams[ident]
        lex = Lexicon(DIMS, seed=8)
        fast = evaluate(d, DIMS, lex).array
        slow = _brute_force(d, DIMS, Lexicon(DIMS, seed=8))
        assert np.allclose(fast, slow, rtol=0, atol=1e-12), ident


def test_lone_word_box_evaluates_to_its_tensor():
    d = Diagram.build(EMPTY, [_word("M", "n s")])
    lex = Lexicon(DIMS, seed=1)
    out = evaluate(d, DIMS, lex)
    assert np.array_equal(out.array, lex.tensor_for("M", RObject.parse("n s")).array)


def test_swap_is_transpose_exact():
    dims = DimAssignment({"a": 2, "b": 3})
    wa, wb = Wire("a", 0), Wire("b", 0)
    state = Diagram.build(EMPTY, [(0, WordBox("M", RObject((wa, wb))))])
    swapped = Diagram.build(
        EMPTY, [(0, WordBox("M", RObject((wa, wb)))), (0, Swap(wa, wb))])
    lex = Lexicon(dims, seed=123)
    m = evaluate(state, dims, lex).array
    mt = evaluate(swapped, dims, lex).array
    assert mt.shape == (3, 2)
    assert np.array_equal(mt, m.T)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(1, 5))
def test_snake_identity_action_exact(seed, dim):
    dims = DimAssignment({"n": dim})
    d = Diagram.build(EMPTY, [
        (0, WordBox("v", RObject.parse("n"))),
        (1, Cap("n", 0)),
        (0, Cup("n", 0)),
    ])
    lex = Lexicon(dims, seed=seed)
    out = evaluate(d, dims, lex).array
    vec = lex.tensor_for("v", RObject.parse("n")).array
    assert np.array_equal(out, vec)  # identity matrices keep this exact


def test_double_swap_is_identity_exact():
    wa, wb = Wire("n", 0), Wire("s", 0)
    base = Diagram.build(EMPTY, [(0, WordBox("M", RObject((wa, wb))))])
    double = Diagram.build(EMPTY, [
        (0, WordBox("M", RObject((wa, wb)))),
        (0, Swap(wa, wb)),
        (0, Swap(wb, wa)),
    ])
    lex = Lexicon(DIMS, seed=2)
    assert np.array_equal(evaluate(base, DIMS, lex).array,
                          evaluate(double, DIMS, lex).array)


def test_tensor_evaluates_to_outer_product():
    from discoccg.diagram import tensor
    d1 = Diagram.build(EMPTY, [_word("u", "n")])
    d2 = Diagram.build(EMPTY, [_word("v", "s s.l")])
    lex = Lexicon(DIMS, seed=4)
    whole = evaluate(tensor(d1, d2), DIMS, lex).array
    u = evaluate(d1, DIMS, Lexicon(DIMS, seed=4)).array
    v = evaluate(d2, DIMS, Lexicon(DIMS, seed=4)).array
    assert np.allclose(whole, np.tensordot(u, v, axes=0), rtol=0, atol=1e-12)


def test_evaluate_rejects_open_inputs():
    d = Diagram.id(RObject.parse("n"))
    with pytest.raises(SemanticsError):
        evaluate(d, DIMS, Lexicon(DIMS))


def test_complex_field_flag():
    lex = Lexicon(DIMS, seed=5, complex_field=True)
    d = Diagram.build(EMPTY, [_word("M", "n")])
    out = evaluate(d, DIMS, lex)
    assert np.iscomplexobj(out.array)


def test_semantic_equality_tolerance(corpus_diagrams):
    d = corpus_diagrams["big-bad-wolf-left"]
    assert semantically_equal(d, d, DimAssignment({"N": 3}, 3), [1, 2, 3, 4, 5])


# --- index network edge cases -------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_closed_loop_is_its_dimension(dim):
    n, nr = Wire("n", 0), Wire("n", 1)
    d = Diagram.build(EMPTY, [(0, Cap("n", 0)), (0, Swap(nr, n)), (0, Cup("n", 0))])
    dims = DimAssignment({"n": dim})
    out = evaluate(d, dims, Lexicon(dims)).array
    assert out.shape == () and out == dim
    assert out == _brute_force(d, dims, Lexicon(dims))


def test_bare_cap_is_identity_matrix():
    dims = DimAssignment({"n": 3})
    d = Diagram.build(EMPTY, [(0, Cap("n", 0))])
    assert np.array_equal(evaluate(d, dims, Lexicon(dims)).array, np.eye(3))


def test_word_with_joined_legs_is_its_trace():
    dims = DimAssignment({"n": 3, "s": 2})
    lex = Lexicon(dims, seed=11)
    square = Diagram.build(EMPTY, [_word("M", "n n.r"), (0, Cup("n", 0))])
    m = lex.tensor_for("M", RObject.parse("n n.r")).array
    assert np.allclose(evaluate(square, dims, lex).array, np.trace(m), rtol=0, atol=1e-12)
    partial = Diagram.build(EMPTY, [_word("T", "s n n.r"), (1, Cup("n", 0))])
    t = lex.tensor_for("T", RObject.parse("s n n.r")).array
    out = evaluate(partial, dims, lex).array
    assert np.allclose(out, np.einsum("sii->s", t), rtol=0, atol=1e-12)
    assert np.allclose(out, _brute_force(partial, dims, lex), rtol=0, atol=1e-12)


def test_complex_field_through_a_cap():
    lex = Lexicon(DIMS, seed=5, complex_field=True)
    d = Diagram.build(EMPTY, [_word("v", "n"), (1, Cap("n", 0))])
    out = evaluate(d, DIMS, lex).array
    v = lex.tensor_for("v", RObject.parse("n")).array
    assert np.iscomplexobj(out)
    assert np.array_equal(out, np.multiply.outer(v, np.eye(2)))
    snake = Diagram.build(EMPTY, [_word("v", "n"), (1, Cap("n", 0)), (0, Cup("n", 0))])
    assert np.array_equal(evaluate(snake, DIMS, lex).array, v)


def test_mixed_dims_match_brute_force(corpus_diagrams):
    dims = DimAssignment({"n": 2, "s": 3}, 4)
    for ident in ["alice-likes-bob-raised", "object-raised", "np-shift"]:
        d = corpus_diagrams[ident]
        fast = evaluate(d, dims, Lexicon(dims, seed=12)).array
        slow = _brute_force(d, dims, Lexicon(dims, seed=12))
        assert fast.shape == tuple(dims.of(w) for w in d.cod)
        assert np.allclose(fast, slow, rtol=0, atol=1e-12), ident


def test_lexicon_draws_are_shared_and_read_only():
    cod = RObject.parse("n s")
    t1 = Lexicon(DIMS, seed=3).tensor_for("w", cod)
    t2 = Lexicon(DIMS, seed=3).tensor_for("w", cod)
    assert np.array_equal(t1.array, t2.array)
    with pytest.raises(ValueError):
        t1.array[0, 0] = 0.0


# --- long sentences -----------------------------------------------------------

@pytest.mark.parametrize("tree", [right_branching(128), cross_serial(24)],
                         ids=["rb128", "cross24"])
def test_long_sentences_evaluate(tree):
    raw = raw_diagram(tree)
    out = evaluate(raw, DIMS, Lexicon(DIMS, seed=1)).array
    assert out.shape == (2,) and np.isfinite(out).all()
    assert semantically_equal(raw, normalize(planarize(raw)), DIMS, [1, 2, 3, 4, 5])


# --- one contraction for all seeds --------------------------------------------

SEEDS = [1, 2, 3, 4, 5]


def _per_seed(d, dims, seeds):
    """The reference for a batched contraction: one lexicon at a time."""
    return np.stack([evaluate(d, dims, Lexicon(dims, seed=s)).array for s in seeds])


def _per_seed_equal(d1, d2, dims, seeds):
    return all(np.allclose(evaluate(d1, dims, lex).array, evaluate(d2, dims, lex).array,
                           rtol=1e-9, atol=1e-12)
               for lex in (Lexicon(dims, seed=s) for s in seeds))


def _batched(d, dims, seeds):
    tensors = evaluate(d, dims, [Lexicon(dims, seed=s) for s in seeds])
    assert len(tensors) == len(seeds)
    assert all(t.wires == tuple(d.cod) for t in tensors)
    return np.stack([t.array for t in tensors])


def test_batched_check_agrees_with_per_seed_loop_on_corpus(corpus_diagrams):
    dims = DimAssignment({"n": 2, "s": 3}, 2)
    for ident, raw in corpus_diagrams.items():
        rewritten = normalize(planarize(raw))
        for d in (raw, rewritten):
            assert np.allclose(_batched(d, dims, SEEDS), _per_seed(d, dims, SEEDS),
                               rtol=1e-12, atol=1e-14), ident
        assert semantically_equal(raw, rewritten, dims, SEEDS), ident
        assert _per_seed_equal(raw, rewritten, dims, SEEDS), ident


@pytest.mark.parametrize("tree", [right_branching(128), cross_serial(24)],
                         ids=["rb128", "cross24"])
def test_batched_check_agrees_with_per_seed_loop_on_long_sentences(tree):
    raw = raw_diagram(tree)
    rewritten = normalize(planarize(raw))
    for d in (raw, rewritten):
        assert np.allclose(_batched(d, DIMS, SEEDS), _per_seed(d, DIMS, SEEDS),
                           rtol=1e-12, atol=1e-14)
    assert semantically_equal(raw, rewritten, DIMS, SEEDS)
    assert _per_seed_equal(raw, rewritten, DIMS, SEEDS)


def test_semantic_check_with_no_seeds_is_true():
    malformed = Diagram(EMPTY, RObject.parse("s"), ((0, WordBox("a", RObject.parse("n"))),))
    assert semantically_equal(malformed, malformed, DIMS, [])


def test_codomain_mismatch_raises_before_contracting(monkeypatch):
    import discoccg.semantics as semantics

    def fail(*args):
        raise AssertionError("evaluate was called")

    monkeypatch.setattr(semantics, "evaluate", fail)
    d1 = Diagram.build(EMPTY, [_word("u", "n")])
    d2 = Diagram.build(EMPTY, [_word("u", "s")])
    with pytest.raises(SemanticsError, match="codomain mismatch"):
        semantically_equal(d1, d2, DIMS, SEEDS)


def test_repeated_seeds(corpus_diagrams):
    d = corpus_diagrams["alice-likes-bob"]
    seeds = [3, 3, 8, 3]
    out = _batched(d, DIMS, seeds)
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[0], out[3])
    assert np.allclose(out, _per_seed(d, DIMS, seeds), rtol=1e-12, atol=1e-14)
    assert semantically_equal(d, normalize(d), DIMS, seeds)


def test_different_diagrams_compare_unequal():
    swapped = Diagram.build(EMPTY, [_word("M", "n n"), (0, Swap(Wire("n"), Wire("n")))])
    plain = Diagram.build(EMPTY, [_word("M", "n n")])
    assert not semantically_equal(plain, swapped, DIMS, SEEDS)
    other = Diagram.build(EMPTY, [_word("N", "n n")])
    assert not semantically_equal(plain, other, DIMS, SEEDS)
    # one differing seed is enough
    assert not _per_seed_equal(plain, swapped, DIMS, [0])
    assert not semantically_equal(plain, swapped, DIMS, [0])


def test_single_lexicon_is_the_one_seed_batch(corpus_diagrams):
    d = corpus_diagrams["big-bad-wolf-left"]
    lex = Lexicon(DIMS, seed=9)
    one = evaluate(d, DIMS, lex)
    (batched,) = evaluate(d, DIMS, [Lexicon(DIMS, seed=9)])
    assert isinstance(one, Tensor) and one.wires == batched.wires
    assert np.array_equal(one.array, batched.array)
    one.array[...] = 0.0   # a fresh array, never a lexicon view
    assert np.array_equal(evaluate(d, DIMS, lex).array, batched.array)


# --- which lexicons share the seeded stacks -----------------------------------

def _stack_lookups():
    info = semantics._seeded_stack.cache_info()
    return info.hits, info.misses


def _drawn(lex, d):
    """``evaluate`` written out for a one-word diagram: its word's tensor."""
    (word,) = [g for _, g in d.layers]
    return lex.tensor_for(word.label, word.wires).array


def test_fresh_lexicons_share_stacks_and_others_leave_them(corpus_diagrams):
    semantics._seeded_stack.cache_clear()
    d = corpus_diagrams["alice-likes-bob"]
    first = evaluate(d, DIMS, [Lexicon(DIMS, seed) for seed in (3, 4)])
    assert _stack_lookups() == (0, 3)   # one draw per word box
    again = evaluate(d, DIMS, [Lexicon(DIMS, seed) for seed in (3, 4)])
    assert _stack_lookups() == (3, 3)
    assert all(np.array_equal(a.array, b.array) for a, b in zip(first, again))
    # a lexicon that has drawn before holds entries, so it draws for itself
    used = Lexicon(DIMS, 3)
    used.tensor_for("unused", RObject.parse("n"))
    third = evaluate(d, DIMS, [used, Lexicon(DIMS, 4)])
    assert _stack_lookups() == (3, 3)
    assert all(np.array_equal(a.array, b.array) for a, b in zip(first, third))


def test_pre_seeded_entry_is_used():
    d = Diagram.build(EMPTY, [_word("v", "n")])
    entry = Tensor(tuple(d.cod), (2,), np.array([1.0, 2.0]))
    lex = Lexicon(DIMS, 5, entries={("v", tuple(d.cod)): entry})
    lookups = _stack_lookups()
    one = evaluate(d, DIMS, lex)
    assert isinstance(one, Tensor) and np.array_equal(one.array, [1.0, 2.0])
    pair = evaluate(d, DIMS, [lex, Lexicon(DIMS, 5)])
    assert np.array_equal(pair[0].array, [1.0, 2.0])
    assert np.array_equal(pair[1].array, _drawn(Lexicon(DIMS, 5), d))
    assert _stack_lookups() == lookups


def test_lexicon_subclass_draws_are_honoured():
    class Ones(Lexicon):
        def tensor_for(self, label, cod):
            shape = tuple(map(self.dims.of, cod))
            return Tensor(tuple(cod), shape, np.ones(shape))

    d = Diagram.build(EMPTY, [_word("v", "n s")])
    lookups = _stack_lookups()
    one = evaluate(d, DIMS, Ones(DIMS, 1))
    assert isinstance(one, Tensor) and np.array_equal(one.array, np.ones((2, 2)))
    (batched,) = evaluate(d, DIMS, [Ones(DIMS, 1)])
    assert np.array_equal(batched.array, np.ones((2, 2)))
    assert _stack_lookups() == lookups


def test_lexicons_of_other_dims_or_fields_evaluate_each_by_its_own():
    d = Diagram.build(EMPTY, [_word("v", "n")])
    other_dims = DimAssignment({"s": 3}, 2)   # the same shape for ``n``
    lookups = _stack_lookups()
    real, other = evaluate(d, DIMS, [Lexicon(DIMS, 1), Lexicon(other_dims, 2)])
    assert real.array.dtype == float and other.array.dtype == float
    assert np.array_equal(other.array, _drawn(Lexicon(other_dims, 2), d))
    real, cplx = evaluate(d, DIMS, [Lexicon(DIMS, 1), Lexicon(DIMS, 2, complex_field=True)])
    assert real.array.dtype == complex and cplx.array.dtype == complex
    assert np.array_equal(real.array, _drawn(Lexicon(DIMS, 1), d))
    assert np.array_equal(cplx.array, _drawn(Lexicon(DIMS, 2, complex_field=True), d))
    assert np.iscomplexobj(cplx.array) and np.any(cplx.array.imag)
    assert _stack_lookups() == lookups


def test_contraction_plans_are_pinned(corpus_diagrams):
    """The greedy order and its tie-breaks: every corpus diagram, raw,
    planarized and normalized, compiles to the same steps as before seed
    batching."""
    import hashlib

    from discoccg.semantics import _compile

    plans = []
    for ident in sorted(corpus_diagrams):
        planar = planarize(corpus_diagrams[ident])
        for d in (corpus_diagrams[ident], planar, normalize(planar)):
            plans.append((ident, _compile(d).steps))
    assert _compile(corpus_diagrams["dutch-cross-serial"]).steps == (
        ((2, 4), "a,ab->b"), ((0, 3), "a,bacd->bcd"), ((0, 1), "abc,a->bc"),
        ((0, 2), "ab,b->a"), ((0,), "a->a"))
    digest = hashlib.sha256(repr(plans).encode()).hexdigest()
    assert digest == "ec3720592aad576a85d1c733e66bfb7f91e2afc23c7cf0697e9c0fd54109fb7f"


def _sorted_list_plan(factors, output):
    """``semantics._plan`` as it was with a sorted list for a queue: the
    head popped with ``pop(0)`` and new entries placed with ``insort``."""
    from bisect import insort

    from discoccg.semantics import _subscripts

    live, steps = {}, []

    def contract(slots, result):
        steps.append((slots, _subscripts([live[s] for s in slots], result)))
        for s in slots[1:]:
            del live[s]
        live[slots[0]] = result

    for slot, ids in enumerate(factors):
        live[slot] = ids = list(ids)
        once = [i for i in ids if ids.count(i) == 1]
        if len(once) < len(ids):
            contract((slot,), once)
    shared = {s: {} for s in live}
    first = {}
    for s, ids in live.items():
        for i in ids:
            t = first.setdefault(i, s)
            if t != s:
                shared[s][t] = shared[t][s] = shared[s].get(t, 0) + 1

    def width(a, b):
        return len(live[a]) + len(live[b]) - 2 * shared[a][b]

    legs = {(a, b): width(a, b) for a in shared for b in shared[a] if a < b}
    queue = sorted((n, a, b) for (a, b), n in legs.items())
    while queue:
        n, a, b = queue.pop(0)
        if legs.get((a, b)) != n:
            continue
        for s in (a, b):
            for c in shared[s]:
                legs.pop((s, c) if s < c else (c, s), None)
        common = set(live[a]).intersection(live[b])
        contract((a, b), [i for i in live[a] + live[b] if i not in common])
        del shared[a][b]
        for c, k in shared.pop(b).items():
            if c != a:
                del shared[c][b]
                shared[a][c] = shared[c][a] = shared[a].get(c, 0) + k
        for c in shared[a]:
            pair = (a, c) if a < c else (c, a)
            legs[pair] = n = width(a, c)
            insort(queue, (n, *pair))
    rest = sorted(live)
    for slot in rest[1:]:
        contract((rest[0], slot), live[rest[0]] + live[slot])
    if rest:
        contract((rest[0],), output)
    return tuple(steps)


def test_heap_planner_matches_sorted_list_planner():
    """Heap entries are whole tuples, so they pop in the sorted list's order."""
    import random

    from discoccg.semantics import _plan

    rng = random.Random(15)
    for _ in range(400):
        legs: list[list[int]] = [[] for _ in range(rng.randint(1, 9))]
        output = []
        for index in range(rng.randint(0, 14)):
            legs[rng.randrange(len(legs))].append(index)
            if rng.random() < 0.25:
                output.append(index)   # an open leg
            else:
                legs[rng.randrange(len(legs))].append(index)
        for ids in legs:
            rng.shuffle(ids)
        rng.shuffle(output)
        factors = tuple(map(tuple, legs))
        assert _plan.__wrapped__(factors, tuple(output)) \
            == _sorted_list_plan(factors, tuple(output)), (factors, output)
