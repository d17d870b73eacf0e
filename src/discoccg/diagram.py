# -*- coding: utf-8 -*-
"""Layered string diagrams over typed wires with integer adjoint winding.

A wire is a base symbol plus a winding number z (0 plain, +1 right adjoint,
-1 left adjoint, iterating).  A diagram is a list of layers; each layer
applies one generator (word box, cup, cap or swap) at an offset, with
identities everywhere else.  Composition is layer concatenation, tensoring is
whiskering.  ``crossed_image`` is the one builder of the crossed-composition
image: the functor emits it, and planarize regenerates it to recognize one.

>>> n = RObject.parse("n")
>>> (n.r.l, n.l.r) == (n, n)
True
>>> snake = Diagram.build(n, [(1, Cap("n", 0)), (0, Cup("n", 0))])
>>> snake.cod == n
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


MAX_WINDING = 6

# Default images of the standard atoms; unlisted atoms map to their own name.
DEFAULT_ATOM_MAP = {"NP": "n", "S": "s", "PP": "p"}


class DiagramError(ValueError):
    """Boundary or generator mismatch while building a diagram."""


@dataclass(frozen=True)
class Wire:
    base: str
    z: int = 0

    def __post_init__(self):
        if abs(self.z) > MAX_WINDING:
            raise DiagramError(f"winding {self.z} on {self.base} exceeds |z| <= {MAX_WINDING}")

    @property
    def l(self) -> "Wire":
        return Wire(self.base, self.z - 1)

    @property
    def r(self) -> "Wire":
        return Wire(self.base, self.z + 1)

    def __str__(self) -> str:
        return self.base + (-self.z * ".l" if self.z < 0 else self.z * ".r")


@dataclass(frozen=True)
class RObject:
    """An ordered list of wires; the empty list is the monoidal unit."""

    wires: tuple[Wire, ...] = ()

    @staticmethod
    def parse(spec: str) -> "RObject":
        """Build from a compact spec like ``"n.r s n.l"``."""
        out = []
        for tok in spec.split():
            base, _, tail = tok.partition(".")
            z = tail.count("r") - tail.count("l")
            out.append(Wire(base, z))
        return RObject(tuple(out))

    def __len__(self) -> int:
        return len(self.wires)

    def __iter__(self):
        return iter(self.wires)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return RObject(self.wires[key])
        return self.wires[key]

    def __matmul__(self, other: "RObject") -> "RObject":
        return RObject(self.wires + other.wires)

    @property
    def l(self) -> "RObject":
        return RObject(tuple(w.l for w in reversed(self.wires)))

    @property
    def r(self) -> "RObject":
        return RObject(tuple(w.r for w in reversed(self.wires)))

    def __str__(self) -> str:
        return " ".join(str(w) for w in self.wires) if self.wires else "1"


EMPTY = RObject()


@dataclass(frozen=True)
class WordBox:
    label: str
    wires: RObject

    @property
    def dom(self) -> RObject:
        return EMPTY

    @property
    def cod(self) -> RObject:
        return self.wires

    def __str__(self) -> str:
        return f"{self.label}:{self.wires}"


def _boundary():
    """A generator boundary built once, in ``__post_init__``: ``Diagram.build``
    reads it on every generator it walks.  It is derived from the other
    fields, so equality, hashing and ``repr`` leave it out."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Cup:
    """Contracts the adjacent pair (base.z, base.z+1); exactly the pregroup
    contractions p·pʳ → 1 (z = 0) and pˡ·p → 1 (z = -1)."""

    base: str
    z: int
    dom: RObject = _boundary()

    def __post_init__(self):
        object.__setattr__(self, "dom", RObject((Wire(self.base, self.z),
                                                 Wire(self.base, self.z + 1))))

    @property
    def cod(self) -> RObject:
        return EMPTY

    def __str__(self) -> str:
        return f"cup({Wire(self.base, self.z)}, {Wire(self.base, self.z + 1)})"


@dataclass(frozen=True)
class Cap:
    """Creates the pair (base.z+1, base.z), dual to :class:`Cup`."""

    base: str
    z: int
    cod: RObject = _boundary()

    def __post_init__(self):
        object.__setattr__(self, "cod", RObject((Wire(self.base, self.z + 1),
                                                 Wire(self.base, self.z))))

    @property
    def dom(self) -> RObject:
        return EMPTY

    def __str__(self) -> str:
        return f"cap({Wire(self.base, self.z + 1)}, {Wire(self.base, self.z)})"


@dataclass(frozen=True)
class Swap:
    w1: Wire
    w2: Wire
    dom: RObject = _boundary()
    cod: RObject = _boundary()

    def __post_init__(self):
        object.__setattr__(self, "dom", RObject((self.w1, self.w2)))
        object.__setattr__(self, "cod", RObject((self.w2, self.w1)))

    def __str__(self) -> str:
        return f"swap({self.w1}, {self.w2})"


Generator = WordBox | Cup | Cap | Swap
Layer = tuple[int, Generator]


@dataclass(frozen=True)
class Diagram:
    dom: RObject
    cod: RObject
    layers: tuple[Layer, ...]

    @staticmethod
    def build(dom: RObject, layers) -> "Diagram":
        """Validating constructor: simulates the layers and derives the codomain."""
        layers = tuple((offset, gen) for offset, gen in layers)
        return Diagram(dom, RObject(tuple(_walk(dom, layers))), layers)

    @staticmethod
    def id(obj: RObject) -> "Diagram":
        return Diagram(obj, obj, ())

    def __rshift__(self, other: "Diagram") -> "Diagram":
        return compose(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return tensor(self, other)

    def boundaries(self) -> list[RObject]:
        """The run of boundaries: entry ``i`` is the object before layer ``i``."""
        out = [self.dom]
        _walk(self.dom, self.layers, lambda wires: out.append(RObject(tuple(wires))))
        return out

    def count(self, kind) -> int:
        return sum(1 for _, g in self.layers if isinstance(g, kind))

    def __str__(self) -> str:
        if not self.layers:
            return f"id({self.dom})"
        return " >> ".join(f"{g}@{o}" for o, g in self.layers)


def _walk(dom: RObject, layers, visit=None) -> list[Wire]:
    """Simulate ``layers`` on a list of wires and return the final boundary;
    ``visit`` sees the list after each layer.  Raises on the first layer whose
    domain is not on the boundary at its offset."""
    boundary = list(dom.wires)
    for i, (offset, gen) in enumerate(layers):
        wires = gen.dom.wires
        end = offset + len(wires)
        if offset < 0 or end > len(boundary):
            raise DiagramError(f"layer {i}: {gen} at offset {offset} does not fit "
                               f"boundary {RObject(tuple(boundary))}")
        if wires and tuple(boundary[offset:end]) != wires:
            raise DiagramError(f"layer {i}: {gen} expects {gen.dom}, boundary has "
                               f"{RObject(tuple(boundary[offset:end]))} at offset {offset}")
        boundary[offset:end] = gen.cod.wires
        if visit is not None:
            visit(boundary)
    return boundary


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    if d1.cod != d2.dom:
        raise DiagramError(f"compose boundary mismatch: cod {d1.cod} vs dom {d2.dom}")
    return Diagram(d1.dom, d2.cod, d1.layers + d2.layers)


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Whisker ``d1``'s layers first, then ``d2``'s shifted past ``d1``'s codomain."""
    shift = len(d1.cod)
    shifted = tuple((o + shift, g) for o, g in d2.layers)
    return Diagram(d1.dom @ d2.dom, d1.cod @ d2.cod, d1.layers + shifted)


def well_formed(d: Diagram) -> list[str]:
    """Total check of the layered typing invariant; empty list when valid."""
    try:
        boundary = _walk(d.dom, d.layers)
    except DiagramError as exc:
        return [str(exc)]
    if tuple(boundary) != d.cod.wires:
        return [f"final boundary {RObject(tuple(boundary))} does not match cod {d.cod}"]
    return []


def cup_block(block: RObject, start: int) -> list[Layer]:
    """Cups closing ``block.l @ block`` (sitting at ``start``), innermost pair
    first; ``cup_block(b.r, start)`` closes ``b @ b.r``."""
    m = len(block)
    return [(start + m - 1 - i, Cup(block[i].base, block[i].z - 1)) for i in range(m)]


def cap_block(block: RObject, start: int) -> list[Layer]:
    """Caps creating ``block @ block.l`` at ``start``, outermost pair first;
    ``cap_block(b.r, start)`` creates ``b.r @ b``."""
    return [(start + i, Cap(block[i].base, block[i].z - 1)) for i in range(len(block))]


def swap_blocks(left: RObject, right: RObject, start: int) -> list[Layer]:
    """Exchange two adjacent blocks ``[left right] -> [right left]``.

    Factorized into elementary swaps: the rightmost wire of ``left`` bubbles
    right across all of ``right`` first, then the next, and so on.
    """
    layers: list[Layer] = []
    wires = list(left) + list(right)
    m, k = len(left), len(right)
    for i in range(m - 1, -1, -1):
        # wires[i] walks right past k wires
        for j in range(k):
            pos = i + j
            layers.append((start + pos, Swap(wires[pos], wires[pos + 1])))
            wires[pos], wires[pos + 1] = wires[pos + 1], wires[pos]
    return layers


def crossed_image(direction: str, x: RObject, y: RObject, z: RObject,
                  start: int) -> list[Layer]:
    """The swap-cup-swap image of crossed composition, the rule's symmetry in
    the compact closed category.

    FCX on ``x y.l | z.r y``, ``x`` at ``start``: swap ``y.l`` past
    ``z.r``, cup ``y.l`` against ``y``, then swap ``x`` past ``z.r``.  BCX
    is its mirror, on ``y z.l | y.r x`` with ``y`` at ``start``.  Wires
    either side (the trailing arguments of the generalized rules) ride
    through on identities.
    """
    if direction == "FCX":
        return (swap_blocks(y.l, z.r, start + len(x))
                + cup_block(y, start + len(x) + len(z))
                + swap_blocks(x, z.r, start))
    return (swap_blocks(z.l, y.r, start + len(y))
            + cup_block(y.r, start)
            + swap_blocks(z.l, x, start))


# --- JSON interchange -------------------------------------------------------

# Written as text, each wire, generator and layer by one format, in the
# bytes ``json.dumps(..., ensure_ascii=False)`` gives for the same payload.
_json_str = json.JSONEncoder(ensure_ascii=False).encode
_WIRE = '{"base": %s, "z": %d}'


def _wires_to_json(wires) -> str:
    return "[%s]" % ", ".join([_WIRE % (_json_str(w.base), w.z) for w in wires])


def _layer_to_json(offset: int, gen: Generator) -> str:
    if isinstance(gen, WordBox):
        text = '{"kind": "word", "label": %s, "cod": %s}' % (
            _json_str(gen.label), _wires_to_json(gen.wires))
    elif isinstance(gen, Swap):
        text = '{"kind": "swap", "w1": %s, "w2": %s}' % (
            _WIRE % (_json_str(gen.w1.base), gen.w1.z),
            _WIRE % (_json_str(gen.w2.base), gen.w2.z))
    else:
        text = '{"kind": "%s", "base": %s, "z": %d}' % (
            "cup" if isinstance(gen, Cup) else "cap", _json_str(gen.base), gen.z)
    return '{"offset": %d, "gen": %s}' % (offset, text)


def diagram_to_json(d: Diagram) -> str:
    return '{"dom": %s, "cod": %s, "layers": [%s]}' % (
        _wires_to_json(d.dom), _wires_to_json(d.cod),
        ", ".join([_layer_to_json(o, g) for o, g in d.layers]))


# The reader is a trust boundary: each object must have exactly its fields
# and each field its JSON type; a malformed payload raises a DiagramError that
# names its JSON pointer.

_GEN_FIELDS = {"word": {"kind", "label", "cod"}, "cup": {"kind", "base", "z"},
               "cap": {"kind", "base", "z"}, "swap": {"kind", "w1", "w2"}}
_TYPE_NAMES = {str: "a non-empty string", int: "an integer", list: "a list"}


def _object(obj, keys: set[str], ptr: str) -> dict:
    if not isinstance(obj, dict):
        raise DiagramError(f"expected an object at {ptr or '/'}")
    for key in sorted(obj.keys() ^ keys):
        raise DiagramError(f"{'unknown' if key in obj else 'missing'} field {key!r} "
                           f"at {ptr or '/'}")
    return obj


def _field(obj: dict, key: str, ptr: str, kind: type):
    """``obj[key]``: a non-empty ``str``, an ``int`` that is not a bool, or a
    ``list``."""
    value = obj[key]
    if type(value) is not kind or value == "":
        raise DiagramError(f"{key!r} must be {_TYPE_NAMES[kind]} at {ptr}/{key}")
    return value


def _winding(obj: dict, ptr: str, top: int = MAX_WINDING) -> int:
    z = _field(obj, "z", ptr, int)
    if not -MAX_WINDING <= z <= top:
        raise DiagramError(f"'z' must be in {-MAX_WINDING}..{top} at {ptr}/z")
    return z


def _wire_from_json(obj, ptr: str) -> Wire:
    _object(obj, {"base", "z"}, ptr)
    return Wire(_field(obj, "base", ptr, str), _winding(obj, ptr))


def _wires_from_json(obj: dict, key: str, ptr: str) -> RObject:
    items = _field(obj, key, ptr, list)
    return RObject(tuple(_wire_from_json(w, f"{ptr}/{key}/{i}") for i, w in enumerate(items)))


def _gen_from_json(obj, ptr: str) -> Generator:
    if not isinstance(obj, dict) or "kind" not in obj:
        _object(obj, {"kind"}, ptr)   # raises: not an object, or no kind
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _GEN_FIELDS:
        raise DiagramError(f"unknown generator kind {kind!r} at {ptr}/kind")
    _object(obj, _GEN_FIELDS[kind], ptr)
    if kind == "word":
        return WordBox(_field(obj, "label", ptr, str), _wires_from_json(obj, "cod", ptr))
    if kind == "swap":
        return Swap(_wire_from_json(obj["w1"], f"{ptr}/w1"),
                    _wire_from_json(obj["w2"], f"{ptr}/w2"))
    # a cup or a cap spans the windings z and z + 1
    base, z = _field(obj, "base", ptr, str), _winding(obj, ptr, MAX_WINDING - 1)
    return Cup(base, z) if kind == "cup" else Cap(base, z)


def diagram_from_json(text: str | bytes) -> Diagram:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DiagramError(f"invalid JSON: {exc}") from None
    _object(payload, {"dom", "cod", "layers"}, "")
    dom, cod = _wires_from_json(payload, "dom", ""), _wires_from_json(payload, "cod", "")
    layers = []
    for i, entry in enumerate(_field(payload, "layers", "", list)):
        ptr = f"/layers/{i}"
        _object(entry, {"offset", "gen"}, ptr)
        layers.append((_field(entry, "offset", ptr, int),
                       _gen_from_json(entry["gen"], f"{ptr}/gen")))
    d = Diagram.build(dom, layers)
    if d.cod != cod:
        raise DiagramError(f"stored cod {cod} does not match layers (computed {d.cod})")
    return d
