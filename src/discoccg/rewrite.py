# -*- coding: utf-8 -*-
"""Diagram rewriting: snake removal, canonical layer order, planarization.

``normalize`` eliminates cap-then-cup zigzags (both chiralities), cancels
adjacent inverse swaps and then sorts interchangeable layers into a canonical
order, giving a normal form used for structural equality.  The sort is an
insertion sweep that carries a layer past a whole run of neighbours at once,
so it is near-linear where a carry one neighbour at a time is quadratic
(right-branching chains).  ``planarize`` removes the swaps introduced by
crossed composition by relocating the crossed rule's primary constituent,
whatever its size, into its secondary's wire block, the per-instance
transformation applied recursively innermost-first; the two constituents are
found as wired components of the layers before the image, and the image is
regenerated with ``diagram.crossed_image``, its one builder, to recognize it.
Both take a well-formed diagram, as ``Diagram.build`` and ``diagram_from_json``
make it; every step keeps dom, cod and semantics, so no result is re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Cap, Cup, Diagram, DiagramError, Layer, RObject, Swap, WordBox, crossed_image,
    left_adjoint, obj_str, right_adjoint,
)


class RewriteError(DiagramError):
    """A rewrite pass failed to make progress it was expected to make."""


@dataclass(frozen=True)
class RewriteStep:
    kind: str  # SnakeLeft | SnakeRight | SlideBoxThroughSwap | SwapCancel | CupSlide
    layer: int
    offset: int


# --- layer-list mechanics -----------------------------------------------------

def _try_interchange(layers: list[Layer], i: int) -> tuple[Layer, Layer] | None:
    """Swap layers ``i`` and ``i+1`` when their supports are disjoint."""
    o1, g1 = layers[i]
    o2, g2 = layers[i + 1]
    if o2 >= o1 + len(g1.cod):
        return (o2 - len(g1.cod) + len(g1.dom), g2), (o1, g1)
    if o1 >= o2 + len(g2.dom):
        return (o2, g2), (o1 - len(g2.dom) + len(g2.cod), g1)
    return None


def _producers(dom: RObject, layers: list[Layer], stop: int):
    """Producer tags of the boundary before layer ``stop``, and the tags each
    layer before ``stop`` consumes.

    A tag is ("dom", j) or (layer_index, port).
    """
    tags: list = [("dom", j) for j in range(len(dom))]
    consumed = []
    for i in range(stop):
        o, g = layers[i]
        dw = len(g.dom)
        consumed.append(tuple(tags[o:o + dw]))
        tags[o:o + dw] = [(i, k) for k in range(len(g.cod))]
    return tags, consumed


def _find_snakes(dom: RObject, layers: list[Layer]):
    """Yield yankable cap/cup pairs as (cap_layer, cup_layer, chirality)."""
    _, consumed = _producers(dom, layers, len(layers))
    consumer = {tag: (j, slot) for j, tags in enumerate(consumed)
                for slot, tag in enumerate(tags)}
    for i, (_, gen) in enumerate(layers):
        if not isinstance(gen, Cap):
            continue
        # Right snake: the cap's right leg feeds a cup's left slot.
        # Left snake: the cap's left leg feeds a cup's right slot.
        for port, slot, chirality in ((1, 0, "SnakeRight"), (0, 1, "SnakeLeft")):
            hit = consumer.get((i, port))
            if hit is not None and hit[1] == slot:
                tgt = layers[hit[0]][1]
                if isinstance(tgt, Cup) and (tgt.base, tgt.z) == (gen.base, gen.z):
                    yield (i, hit[0], chirality)


def _remove_snake(layers: list[Layer], cap: int, cup: int, chirality: str) -> list[Layer] | None:
    """Bubble cap and cup toward each other and delete the pair; None when blocked."""
    work = list(layers)
    i, j = cap, cup
    while i + 1 < j:
        swapped = _try_interchange(work, i)
        if swapped is not None:
            work[i], work[i + 1] = swapped
            i += 1
            continue
        swapped = _try_interchange(work, j - 1)
        if swapped is not None:
            work[j - 1], work[j] = swapped
            j -= 1
            continue
        return None
    cup = j
    oc, ou = work[i][0], work[cup][0]
    expected = ou - 1 if chirality == "SnakeRight" else ou + 1
    if oc != expected:
        return None
    del work[cup]
    del work[i]
    return work


_KIND_ORDER = {"WordBox": 0, "Cap": 1, "Cup": 2, "Swap": 3}


def _layer_key(g) -> tuple[int, str]:
    """The (kind, label) part of a layer's sort key; the sweep reads it only
    where two offsets tie."""
    return _KIND_ORDER[type(g).__name__], str(g)


def _shapes(layers: list[Layer]) -> dict[int, tuple[int, int, bool]]:
    """(dom width, cod width, is a word box) of each generator, keyed by its
    ``id``: the rewrites move and delete layers but never make generators."""
    gens = {id(g): g for _, g in layers}
    return {k: (len(g.dom), len(g.cod), isinstance(g, WordBox))
            for k, g in gens.items()}


def _blocks(rest: list[int], stored: list[int]) -> list[list[int]]:
    """Split layers ``rest``, read right to left under one shift, into blocks
    that each run from a suffix minimum of the offsets leftwards to the next
    one; the blocks come right to left too."""
    blocks: list[list[int]] = []
    low = None
    for e in rest:
        if low is None or stored[e] < low:
            blocks.append([e])
            low = stored[e]
        else:
            blocks[-1].append(e)
    return blocks


def _sort_layers(layers: list[Layer], trace: list[RewriteStep] | None,
                 shapes: dict[int, tuple[int, int, bool]]) -> tuple[bool, bool]:
    """One insertion sweep ordering interchangeable neighbours by (offset, kind, label).

    Each layer x is carried left while it is interchangeable with its left
    neighbour y, the two are not both word boxes (their sequence is the word
    order of the sentence) and its key after the interchange is strictly
    smaller.  While y lies wholly right of x's inputs (``oy >= ox +
    max(dom_x, 1)``) the move always happens: x keeps its offset and y
    shifts by ``cod_x - dom_x``.  The sweep moves x past a run of such
    neighbours at once.

    The placed layers form a stack of blocks, each under one lazy shift.  A
    block ends with a suffix minimum of the offsets (its record) and holds
    the larger offsets back to the previous record, read right to left.  A
    run is the blocks whose record is at least ``ox + max(dom_x, 1)``, so
    finding its end visits records, not layers.  The full rule, and the
    (kind, label) key on a tie, is applied only to the record that ends a
    run.  When x is placed, the records left of it that are no longer below
    everything right of them join the block to their right; a merge rebases
    the smaller block.

    Returns (changed, settled).  The layers of a run all shift alike, so
    their neighbour pairs stay in order.  Only a move past a state whose
    outputs end where x's inputs begin leaves the passed layer in place;
    without one, the sweep ends at a fixed point (settled), and it costs
    O(n log n + blocks passed) untraced; a jump re-reads the layers passed.
    Traced, it adds one step per move."""
    gens = [g for _, g in layers]
    stored = [o for o, _ in layers]   # offset of layer k: stored[k] + its block's shift
    revs: list[list[int]] = []        # the stack of blocks
    shifts: list[int] = []
    after_word = 0                    # placed layers right of the last word box
    changed, settled = False, True
    for x, gx in enumerate(gens):
        ox = stored[x]
        dom_x, cod_x, word_x = shapes[id(gx)]
        reach = after_word if word_x else x   # a word box never passes another
        passed: list[tuple[list[int], int]] = []   # (block, new shift), right to left
        uniform = True
        moved = 0
        while moved < reach:
            rev, shift = revs[-1], shifts[-1]
            y = rev[0]
            oy = stored[y] + shift
            if oy >= ox + (dom_x or 1):
                size = len(rev)
                if moved + size > reach:   # the block holds the last word box
                    size = reach - moved
                    passed.append((rev[:size], shift + cod_x - dom_x))
                    revs[-1] = rev[size:]
                else:
                    revs.pop()
                    shifts.pop()
                    passed.append((rev, shift + cod_x - dom_x))
                if trace is not None:
                    trace.extend(RewriteStep("CupSlide", j, ox)
                                 for j in range(x - moved - 1, x - moved - size - 1, -1))
                moved += size
                continue
            # the run ends at the record y: one interchange under the full rule
            if oy > ox:   # y's outputs overlap x's inputs
                break
            dom_y, cod_y, word_y = shapes[id(gens[y])]
            if word_x and word_y:
                break
            if ox >= oy + cod_y:
                new_ox, new_oy = ox - cod_y + dom_y, oy
            elif oy >= ox + dom_x:
                new_ox, new_oy = ox, oy - dom_x + cod_x
            else:
                break
            if new_ox > oy or (new_ox == oy and _layer_key(gx) >= _layer_key(gens[y])):
                break
            revs.pop()
            shifts.pop()
            rest = _blocks(rev[1:], stored)
            revs.extend(reversed(rest))
            shifts.extend([shift] * len(rest))
            passed.append(([y], shift + new_oy - oy))
            uniform = uniform and new_oy - oy == cod_x - dom_x
            ox = new_ox
            moved += 1
            if trace is not None:
                trace.append(RewriteStep("CupSlide", x - moved, ox))
        after_word = moved if word_x else after_word + (moved <= after_word)
        changed = changed or moved > 0
        if not uniform:
            # the passed layers shifted unevenly: find their records anew
            settled = False
            for rev, shift in passed:
                for e in rev:
                    stored[e] += shift
            passed = [(rev, 0) for rev in _blocks([e for rev, _ in passed for e in rev], stored)]
        # place x: a new record, or a member of the leftmost block it passed
        if passed and stored[passed[-1][0][0]] + passed[-1][1] <= ox:
            target, tshift = passed.pop()
        else:
            target, tshift = [], 0
        target.append(x)
        stored[x] = ox - tshift
        low = stored[target[0]] + tshift
        while revs and stored[revs[-1][0]] + shifts[-1] >= low:
            left, lshift = revs.pop(), shifts.pop()
            if len(left) > len(target):   # rebase the smaller block
                for e in target:
                    stored[e] += tshift - lshift
                left[:0] = target
                target, tshift = left, lshift
            else:
                for e in left:
                    stored[e] += lshift - tshift
                target.extend(left)
        revs.append(target)
        shifts.append(tshift)
        for rev, shift in reversed(passed):
            revs.append(rev)
            shifts.append(shift)
    if changed:
        layers[:] = [(stored[k] + shift, gens[k])
                     for rev, shift in zip(revs, shifts) for k in reversed(rev)]
    return changed, settled


def _cancel_swaps(layers: list[Layer], trace: list[RewriteStep] | None) -> bool:
    for i in range(len(layers) - 1):
        o1, g1 = layers[i]
        o2, g2 = layers[i + 1]
        if isinstance(g1, Swap) and o1 == o2 and g2 == Swap(g1.w2, g1.w1):
            if trace is not None:
                trace.append(RewriteStep("SwapCancel", i, o1))
            del layers[i + 1]
            del layers[i]
            return True
    return False


def normalize(d: Diagram, trace: list[RewriteStep] | None = None) -> Diagram:
    """Rewrite a well-formed diagram to the canonical fixed point: no snakes,
    no adjacent inverse swaps, interchangeable layers in sorted order.  Each
    step keeps dom, cod and semantics; idempotent.  The sort reruns only after
    a snake or a swap pair is removed, or when its last sweep was unsettled."""
    layers = list(d.layers)
    shapes = _shapes(layers)
    kinds = {type(g) for _, g in layers}   # no step makes a cap or a swap
    budget = 10 * (len(layers) + 1) ** 2
    steps = 0
    settled = False   # the layers are a fixed point of the sort
    while True:
        removed = None
        for snake in _find_snakes(d.dom, layers) if Cap in kinds else ():
            removed = _remove_snake(layers, *snake)
            if removed is not None:
                if trace is not None:
                    trace.append(RewriteStep(snake[2], snake[0], layers[snake[0]][0]))
                layers = removed
                kinds = {type(g) for _, g in layers}
                settled = False
                break
        if removed is None:
            if Swap in kinds and _cancel_swaps(layers, trace):
                kinds = {type(g) for _, g in layers}
                settled = False
                continue
            if settled:
                break
            changed, settled = _sort_layers(layers, trace, shapes)
            if not changed:
                break
        steps += 1
        if steps > budget:
            raise RewriteError("normalize exceeded its step budget")
    return Diagram(d.dom, d.cod, tuple(layers))


# --- planarization ------------------------------------------------------------

def _components(consumed) -> list[int]:
    """The wired component of each layer, named by its first layer."""
    first = list(range(len(consumed)))

    def find(i: int) -> int:
        while first[i] != i:
            first[i] = first[first[i]]
            i = first[i]
        return i

    for i, tags in enumerate(consumed):
        for src, _ in tags:
            if src != "dom":
                a, b = find(i), find(src)
                first[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(consumed))]


def _match_crossed(dom: RObject, layers: list[Layer], s: int) -> list[Layer] | None:
    """Relocate the crossed-composition image whose first swap is layer
    ``s``: the layers with its constituents moved and its swaps gone, or
    None when there is no such image.

    The first swap run moves ``m`` wires right past ``k`` wires; the image's
    cup block ends it, so its greedy reading is exact.  The layers before
    ``s`` fall into wired components.  The two constituents hold every
    component that has a layer at or after the first layer of a component
    producing one of those ``m + k`` wires; each joins the left or the right
    constituent by the side of the run's middle its outputs lie on.  They
    must be states whose outputs are contiguous, the left one's layers
    first.  Their output spans fix ``x``, ``y`` and ``z``, and the image
    ``crossed_image`` regenerates from them must be the layers from ``s`` on.
    The image is replaced by its own cup block, after the constituents in
    their planar order.
    """
    o = layers[s][0]
    k = 0
    while s + k < len(layers) and isinstance(layers[s + k][1], Swap) and layers[s + k][0] == o + k:
        k += 1
    m = 1
    while (s + m * k < len(layers) and isinstance(layers[s + m * k][1], Swap)
           and layers[s + m * k][0] == o - m):
        m += 1
    mid = o + 1   # the boundary position where the two constituents meet
    slice_tags, consumed = _producers(dom, layers, s)
    run_tags = slice_tags[mid - m: mid + k]
    if any(src == "dom" for src, _ in run_tags):
        return None
    roots = _components(consumed)
    # the constituents hold every component with a layer from ``lo`` on
    lo = min(roots[src] for src, _ in run_tags)
    i = s - 1
    while i >= lo:
        lo = min(lo, roots[i])
        i -= 1
    pos = [p for p, (src, _) in enumerate(slice_tags) if src != "dom" and src >= lo]
    if pos[-1] + 1 - pos[0] != len(pos):
        return None  # outputs not contiguous: not a relocatable block
    right = {roots[slice_tags[p][0]] for p in pos if p >= mid}
    if any(roots[slice_tags[p][0]] in right for p in pos if p < mid):
        return None  # a component with outputs on both sides
    blocks: tuple[list[int], list[int]] = ([], [])
    for i in range(lo, s):
        if any(src == "dom" for src, _ in consumed[i]):
            return None  # a component that reads the domain cannot move
        blocks[roots[i] in right].append(i)
    a_layers, b_layers = blocks
    if a_layers[-1] > b_layers[0]:
        return None  # the left constituent's layers must come first
    a_lo, b_hi = pos[0], pos[-1] + 1
    # the boundary at slice s, read off its producer tags
    boundary = tuple(dom[port] if src == "dom" else layers[src][1].cod[port]
                     for src, port in slice_tags)
    alpha, beta = layers[lo:b_layers[0]], layers[b_layers[0]:s]
    for direction, y_width in (("FCX", m), ("BCX", k)):
        if direction == "FCX":
            # x y.l | z.r y: the left block is x y.l, the right one z.r y (+ trailing)
            start, x = a_lo, boundary[a_lo: mid - m]
            y, z = boundary[mid + k: mid + k + m], left_adjoint(boundary[mid: mid + k])
        else:
            # y z.l | y.r x: the left block is (trailing +) y z.l, the right one y.r x
            start, x = mid - m - k, boundary[mid + k: b_hi]
            y, z = boundary[max(start, 0): mid - m], right_adjoint(boundary[mid - m: mid])
        if len(y) != y_width:
            continue   # the boundary has no room for y
        image = crossed_image(direction, x, y, z, start)
        end = s + len(image)
        if layers[s:end] != image:
            continue
        if direction == "FCX":
            # the primary x y.l slides right past z.r, the secondary left past x y.l
            moved = ([(q - len(x) - len(y), g) for q, g in beta]
                     + [(q + len(z), g) for q, g in alpha])
        else:
            # the primary y.r x slides left past z.l
            moved = alpha + [(q - len(z), g) for q, g in beta]
        cups = [layer for layer in image if isinstance(layer[1], Cup)]
        return layers[:lo] + moved + cups + layers[end:]
    return None


def planarize(d: Diagram, trace: list[RewriteStep] | None = None,
              problems: list[str] | None = None) -> Diagram:
    """Remove all swaps by relocating crossed-composition constituents.

    Works on well-formed diagrams as the functor makes them (run before
    ``normalize``): each crossed image, first swap first, has its primary
    state slid through its swaps, one ``SlideBoxThroughSwap`` step per image,
    keeping dom and cod.  A diagram without swaps is returned itself; a swap
    that is no crossed image is reported, and the diagram returned unchanged.
    """
    if not d.count(Swap):
        return d
    layers = list(d.layers)
    local_trace: list[RewriteStep] = []
    guard = len(layers) + 1
    while True:
        swap_at = next((i for i, (_, g) in enumerate(layers) if isinstance(g, Swap)), None)
        if swap_at is None:
            break
        guard -= 1
        relocated = _match_crossed(d.dom, layers, swap_at) if guard > 0 else None
        if relocated is None:
            if problems is not None:
                problems.append(
                    f"swap at layer {swap_at} is not removable by state sliding")
            return d
        local_trace.append(RewriteStep("SlideBoxThroughSwap", swap_at, layers[swap_at][0]))
        layers = relocated
    if trace is not None:
        trace.extend(local_trace)
    return Diagram(d.dom, d.cod, tuple(layers))


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Equality by rewriting: planarize, normalize, compare structurally.

    Sound but not complete for general symmetric monoidal equivalence.
    """
    if d1.dom != d2.dom or d1.cod != d2.cod:
        raise DiagramError(
            f"boundary mismatch: [{obj_str(d1.dom)}] -> [{obj_str(d1.cod)}] "
            f"vs [{obj_str(d2.dom)}] -> [{obj_str(d2.cod)}]")
    return normalize(planarize(d1)) == normalize(planarize(d2))
