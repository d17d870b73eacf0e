# -*- coding: utf-8 -*-
"""Tensor-network evaluation of string diagrams over finite vector spaces.

Word boxes look their tensors up in a lexicon; every other generator is
wiring.  A cup identifies the two indices it joins, a cap is one index shared
by both of its legs and a swap relabels two indices, so one walk over the
layers (a union-find over wire ids) turns a state diagram into an index
network over its word tensors alone.  A cap closed by a cup is a closed loop
and scales the result by its dimension; a codomain leg with no word behind
it gets an explicit identity matrix.

The network is contracted pairwise in a greedy order: among tensors that
share an index, the pair whose result has the fewest legs goes first, ties
to the earliest pair; disconnected parts are then joined by outer products
in word order.  Greedy is a heuristic, not an optimal order: a network in
which every order keeps many legs open still needs memory exponential in
that number.

Several lexicons are evaluated in one pass: every operand carries a leading
seed axis (the einsum letter ``Z``), so a diagram is validated, planned and
contracted once however many seeds are checked.  Across the sentences of a
process, a small word's tensors under fresh lexicons are drawn and stacked
once, keyed by the seeds, the dimensions, the field and the word box,
whichever evaluation asks; networks of one structure share one plan.

Random lexicons are generated by a SplitMix64 stream (documented constants
below) so that stored test vectors pin the generator across implementations:
entries are i.i.d. uniform on [-1, 1), keyed by word label, wire signature
and a user seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush

import numpy as np

from .diagram import Cap, Cup, Diagram, Swap, Wire, WordBox, RObject, obj_str, well_formed

# SplitMix64 constants (Steele, Lea & Flood's generator).
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# FNV-1a 64-bit, used to fold word labels into per-entry seeds.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SemanticsError(ValueError):
    pass


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (output, next state)."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z ^= z >> 31
    return z, state


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def unit_interval(u64: int) -> float:
    """Map a 64-bit word to [-1, 1) using the top 53 bits."""
    return (u64 >> 11) * 2.0 ** -53 * 2.0 - 1.0


@dataclass(frozen=True)
class DimAssignment:
    """Base-to-dimension map; adjoints inherit the base's dimension."""

    dims: dict[str, int] = field(default_factory=dict)
    default: int = 2

    def __post_init__(self):
        for base, dim in self.dims.items():
            if dim < 1:
                raise SemanticsError(f"dimension for {base!r} must be >= 1")
        if self.default < 1:
            raise SemanticsError("default dimension must be >= 1")

    def of(self, wire: Wire) -> int:
        return self.dims.get(wire.base, self.default)


@dataclass(frozen=True)
class Tensor:
    """Dense tensor with one leg per wire, row-major data."""

    wires: tuple[Wire, ...]
    dims: tuple[int, ...]
    array: np.ndarray


def _signature(cod: RObject) -> str:
    return ",".join(f"{w.base}:{w.z}" for w in cod)


@dataclass
class Lexicon:
    """Word tensors, generated deterministically per (label, codomain, seed).

    ``entries`` may pre-seed specific words; everything else is drawn from the
    SplitMix64 stream.  With ``complex_field`` set, entries get independent
    real and imaginary parts.
    """

    dims: DimAssignment
    seed: int = 0
    entries: dict[tuple[str, tuple[Wire, ...]], Tensor] = field(default_factory=dict)
    complex_field: bool = False

    def tensor_for(self, label: str, cod: RObject) -> Tensor:
        key = (label, tuple(cod))
        shape = tuple(map(self.dims.of, key[1]))
        t = self.entries.get(key)
        if t is None:
            data = _draw(self.seed, f"{label}|{_signature(cod)}", shape, self.complex_field)
            t = self.entries[key] = Tensor(key[1], shape, data)
        elif t.dims != shape:
            raise SemanticsError(f"stored tensor for {label!r} has wrong shape")
        return t


def _draw(seed: int, text: str, shape: tuple[int, ...], complex_field: bool) -> np.ndarray:
    """The SplitMix64 draw behind :meth:`Lexicon.tensor_for`, read-only
    because the lexicon keeps it; a check draws a small word only when
    ``_seeded_stack`` misses, once per word box and seed."""
    count = int(np.prod(shape))
    # the stream's i-th state is its seed plus i * GAMMA, so every entry is
    # mixed at once, as ``splitmix64`` and ``unit_interval`` do; uint64 wraps
    z = np.arange(1, (1 + complex_field) * count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64((seed ^ fnv1a64(text.encode())) & _MASK)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    data = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -52 - 1.0
    if complex_field:
        data = data[:count] + 1j * data[count:]
    data.flags.writeable = False
    return data.reshape(shape)


# einsum accepts only these subscript letters, so each step relabels locally;
# ``Z`` is kept for the leading seed axis that every operand carries.
_SEED_AXIS = "Z"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXY"

_Step = tuple[tuple[int, ...], str]   # (operand slots, einsum subscripts)


@dataclass(frozen=True)
class _Network:
    """A state diagram compiled to a contraction plan over its word tensors.

    Slot ``i`` holds the tensor of ``words[i]``, then one identity matrix per
    wire of ``eyes``.  Each step einsums the slots it names with its
    subscripts and stores the result in the first of them; the last step
    leaves the codomain tensor.  Each wire of ``loops`` is a closed loop.
    """

    words: tuple[WordBox, ...]
    eyes: tuple[Wire, ...]
    loops: tuple[Wire, ...]
    steps: tuple[_Step, ...]


def _compile(d: Diagram) -> _Network:
    problems = well_formed(d)
    if problems:
        raise SemanticsError("diagram is not well-formed: " + "; ".join(problems))
    if len(d.dom) != 0:
        raise SemanticsError("evaluate expects a state (empty domain)")
    parent: list[int] = []   # union-find over wire ids

    def fresh() -> int:
        parent.append(len(parent))
        return parent[-1]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    boundary: list[int] = []
    words: list[WordBox] = []
    legs: list[list[int]] = []
    loops: list[Wire] = []
    for offset, gen in d.layers:
        if isinstance(gen, WordBox):
            ids = [fresh() for _ in gen.cod]
            words.append(gen)
            legs.append(ids)
            boundary[offset:offset] = ids
        elif isinstance(gen, Cup):
            a, b = find(boundary[offset]), find(boundary[offset + 1])
            if a == b:
                loops.append(Wire(gen.base, gen.z))
            else:
                parent[a] = b
            del boundary[offset:offset + 2]
        elif isinstance(gen, Cap):
            x = fresh()
            boundary[offset:offset] = [x, x]
        elif isinstance(gen, Swap):
            boundary[offset:offset + 2] = boundary[offset + 1], boundary[offset]
        else:  # pragma: no cover
            raise SemanticsError(f"unknown generator {gen!r}")

    factors = [[find(i) for i in ids] for ids in legs]
    output = [find(i) for i in boundary]
    # An index that reaches the codomain twice has no word behind it: both
    # ends of a cap survive, joined by an identity matrix.
    eyes: list[Wire] = []
    seen: set[int] = set()
    for pos, index in enumerate(output):
        if index in seen:
            output[pos] = fresh()
            factors.append([index, output[pos]])
            eyes.append(d.cod[pos])
        seen.add(index)
    # The plan depends only on which legs share an index, so it is looked up
    # by the network's structure: its indices renumbered in order of first use.
    number: dict[int, int] = {}
    return _Network(tuple(words), tuple(eyes), tuple(loops), _plan(
        tuple(tuple(number.setdefault(i, len(number)) for i in ids) for ids in factors),
        tuple(number.setdefault(i, len(number)) for i in output)))


@lru_cache(maxsize=4096)
def _plan(factors: tuple[tuple[int, ...], ...],
          output: tuple[int, ...]) -> tuple[_Step, ...]:
    """Greedy pairwise contraction order; see the module docstring.

    Every index sits on at most two factors and an index of ``output`` on
    one, so the indices two tensors share are exactly those their
    contraction sums over, an index twice on one factor is a trace, and
    contracting ``a`` with ``b`` leaves ``len(a) + len(b) - 2 * shared``
    legs.  Memoized: networks of one structure share their plan.
    """
    live: dict[int, list[int]] = {}
    steps: list[_Step] = []

    def contract(slots, result) -> None:
        steps.append((slots, _subscripts([live[s] for s in slots], result)))
        for s in slots[1:]:
            del live[s]
        live[slots[0]] = result

    for slot, ids in enumerate(factors):
        live[slot] = ids = list(ids)
        once = [i for i in ids if ids.count(i) == 1]
        if len(once) < len(ids):   # a word whose own legs are joined
            contract((slot,), once)
    # shared[s][t]: how many indices slots s and t have in common
    shared: dict[int, dict[int, int]] = {s: {} for s in live}
    first: dict[int, int] = {}   # index -> the first slot it was seen on
    for s, ids in live.items():
        for i in ids:
            t = first.setdefault(i, s)
            if t != s:
                shared[s][t] = shared[t][s] = shared[s].get(t, 0) + 1

    def width(a, b) -> int:
        return len(live[a]) + len(live[b]) - 2 * shared[a][b]

    # Legs of each candidate pair's result; ``queue`` is a heap of (legs, a,
    # b), with entries whose score has changed skipped on pop.
    legs = {(a, b): width(a, b) for a in shared for b in shared[a] if a < b}
    queue = [(n, a, b) for (a, b), n in legs.items()]
    heapify(queue)
    while queue:
        n, a, b = heappop(queue)
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
            heappush(queue, (n, *pair))
    rest = sorted(live)
    for slot in rest[1:]:
        contract((rest[0], slot), live[rest[0]] + live[slot])
    if rest:
        contract((rest[0],), output)
    return tuple(steps)


def _subscripts(operands: list[list[int]], result: list[int]) -> str:
    letters: dict[int, str] = {}
    for ids in operands:
        for i in ids:
            if i not in letters:
                if len(letters) == len(_LETTERS):
                    count = len({i for ids in operands for i in ids})
                    raise SemanticsError(f"a contraction step needs {count} indices, "
                                         f"more than the {len(_LETTERS)} einsum letters "
                                         f"beside the seed axis")
                letters[i] = _LETTERS[len(letters)]
    return (",".join(["".join([letters[i] for i in ids]) for ids in operands])
            + "->" + "".join([letters[i] for i in result]))


def _stack(lexicons, word: WordBox) -> np.ndarray:
    """The tensors of ``word`` under ``lexicons``, along a leading seed axis,
    complex if any lexicon is."""
    dtype = complex if any(lex.complex_field for lex in lexicons) else float
    return np.array([lex.tensor_for(word.label, word.cod).array for lex in lexicons],
                    dtype=dtype)


# Only words of at most this many entries per lexicon are memoized, so the
# memo stays small whatever it holds: every word of the corpus and of the
# benchmark's batches has at most 64 at dimension 2.  Larger words (a
# coordinator of a long category has 2^21) are stacked per check.
_MEMO_ENTRIES = 1024


@lru_cache(maxsize=1024)
def _seeded_stack(seeds: tuple[int, ...], dims: tuple[tuple[tuple[str, int], ...], int],
                  complex_field: bool, word: WordBox) -> np.ndarray:
    """The stacked tensors of ``word`` under fresh lexicons with ``seeds``
    and the dimensions ``dims`` (sorted ``(base, dim)`` pairs and the
    default), drawn through :meth:`Lexicon.tensor_for`; read-only because
    every evaluation with the same values shares it."""
    table, default = dims
    assignment = DimAssignment(dict(table), default)
    out = _stack([Lexicon(assignment, seed, complex_field=complex_field) for seed in seeds],
                 word)
    out.flags.writeable = False
    return out


def evaluate(d: Diagram, dims: DimAssignment,
             lex: Lexicon | Sequence[Lexicon]) -> Tensor | list[Tensor]:
    """Contract a state diagram (empty dom) to the tensor on its codomain.

    Given a sequence of lexicons instead of one, the diagram is validated,
    planned and contracted once for all of them, along a leading seed axis,
    and one tensor per lexicon is returned (all complex if any lexicon has
    ``complex_field`` set).  Fresh lexicons (plain :class:`Lexicon` values
    with no ``entries``) of one ``dims`` and ``complex_field`` take their
    stacks from :func:`_seeded_stack`, shared by every such evaluation, for
    words of at most ``_MEMO_ENTRIES`` entries.
    """
    lexicons = [lex] if isinstance(lex, Lexicon) else list(lex)
    net = _compile(d)
    size = len(lexicons)
    if not size:
        return []
    first = lexicons[0]
    if all(type(x) is Lexicon and not x.entries and x.dims == first.dims
           and x.complex_field == first.complex_field for x in lexicons):
        key = (tuple(x.seed for x in lexicons),
               (tuple(sorted(first.dims.dims.items())), first.dims.default), first.complex_field)
        slots: list[np.ndarray | None] = [
            _seeded_stack(*key, w) if math.prod(map(first.dims.of, w.cod)) <= _MEMO_ENTRIES
            else _stack(lexicons, w) for w in net.words]
    else:
        slots = [_stack(lexicons, w) for w in net.words]
    dtype = complex if any(x.complex_field for x in lexicons) else float
    for w in net.eyes:
        eye = np.eye(dims.of(w), dtype=dtype)
        slots.append(np.broadcast_to(eye, (size, *eye.shape)))
    out = np.ones(size, dtype=dtype)
    for operands, subscripts in net.steps:
        batched = _SEED_AXIS + subscripts.replace(",", "," + _SEED_AXIS).replace(
            "->", "->" + _SEED_AXIS)
        out = np.einsum(batched, *(slots[i] for i in operands))
        for i in operands:
            slots[i] = None
        slots[operands[0]] = out
    out = np.array(out, dtype=dtype)   # a fresh array, never a lexicon view
    for w in net.loops:
        out *= dims.of(w)
    shape = tuple(dims.of(w) for w in d.cod)
    if out.shape != (size, *shape):
        raise SemanticsError(
            f"evaluation produced shape {out.shape[1:]}, cod expects {shape}")
    tensors = [Tensor(d.cod, shape, array) for array in out]
    return tensors[0] if isinstance(lex, Lexicon) else tensors


def semantically_equal(d1: Diagram, d2: Diagram, dims: DimAssignment,
                       seeds: list[int], rtol: float = 1e-9,
                       atol: float = 1e-12) -> bool:
    """Evaluate both diagrams under shared random lexicons, one per seed,
    each in one contraction over all seeds."""
    if d1.cod != d2.cod:
        raise SemanticsError(f"codomain mismatch: {obj_str(d1.cod)} vs {obj_str(d2.cod)}")
    if not seeds:
        return True
    lexicons = [Lexicon(dims, seed) for seed in seeds]
    t1 = evaluate(d1, dims, lexicons)
    t2 = evaluate(d2, dims, lexicons)
    return np.allclose(np.array([t.array for t in t1]), np.array([t.array for t in t2]),
                       rtol=rtol, atol=atol)
