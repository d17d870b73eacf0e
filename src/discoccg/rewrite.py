# -*- coding: utf-8 -*-
"""Diagram rewriting: snake removal, canonical layer order, planarization.

``normalize`` eliminates cap-then-cup zigzags (both chiralities), cancels
adjacent inverse swaps and then sorts interchangeable layers into a canonical
order, giving a normal form used for structural equality.  The sort is an
insertion sweep that carries a layer past a whole run of neighbours at once,
so it is near-linear where a carry one neighbour at a time is quadratic
(right-branching chains).  ``planarize``
removes the swaps introduced by crossed composition by relocating the
crossed rule's primary constituent into its secondary's wire block, the
per-instance transformation applied recursively innermost-first.  Every step
preserves dom, cod and tensor semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Cap, Cup, Diagram, DiagramError, Layer, RObject, Swap, WordBox,
    cup_block, swap_blocks,
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
    if not any(isinstance(g, Cap) for _, g in layers):
        return
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
                    break


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
    return {k: (len(g.dom.wires), len(g.cod.wires), isinstance(g, WordBox))
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
        if (isinstance(g1, Swap) and isinstance(g2, Swap) and o1 == o2
                and g2 == Swap(g1.w2, g1.w1)):
            if trace is not None:
                trace.append(RewriteStep("SwapCancel", i, o1))
            del layers[i + 1]
            del layers[i]
            return True
    return False


def normalize(d: Diagram, trace: list[RewriteStep] | None = None) -> Diagram:
    """Rewrite to the canonical fixed point: no snakes, no adjacent inverse
    swaps, interchangeable layers in sorted order.  Preserves dom, cod and
    semantics; idempotent.  The sort runs again only after a snake or a swap
    pair is removed, or when its last sweep was not settled."""
    layers = list(d.layers)
    shapes = _shapes(layers)
    budget = 10 * (len(layers) + 1) ** 2
    steps = 0
    settled = False   # the layers are a fixed point of the sort
    while True:
        removed = None
        for snake in _find_snakes(d.dom, layers):
            removed = _remove_snake(layers, *snake)
            if removed is not None:
                if trace is not None:
                    trace.append(RewriteStep(snake[2], snake[0], layers[snake[0]][0]))
                layers = removed
                settled = False
                break
        if removed is None:
            if _cancel_swaps(layers, trace):
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
    return Diagram.build(d.dom, layers)


# --- planarization ------------------------------------------------------------

@dataclass
class _SwapRun:
    groups: int       # width of the block that bubbles right
    width: int        # width of the block it crosses
    first_offset: int
    end: int          # layer index one past the run


def _parse_swap_run(layers: list[Layer], start: int) -> _SwapRun | None:
    """Parse the bubble pattern emitted by :func:`swap_blocks` starting at ``start``."""
    if start >= len(layers) or not isinstance(layers[start][1], Swap):
        return None
    o = layers[start][0]
    idx = start
    groups = 0
    width = None
    while idx < len(layers) and isinstance(layers[idx][1], Swap) and layers[idx][0] == o - groups:
        k = 0
        while (idx < len(layers) and isinstance(layers[idx][1], Swap)
               and layers[idx][0] == o - groups + k):
            idx += 1
            k += 1
            if width is not None and k == width:
                break
        if width is None:
            width = k
        elif k != width:
            return None
        groups += 1
    if width is None or groups == 0:
        return None
    return _SwapRun(groups, width, o, idx)


def _closure(slice_tags, consumed, span: tuple[int, int], limit: int):
    """Backward closure of the sub-diagram producing ``span`` at a slice.

    Collects the producers of the span, their own producers, and any layer
    before ``limit`` that consumes only in-set wires (cups and swaps fully
    internal to the block leave no surviving outputs and must ride along).
    Returns (layer set, full span of surviving outputs), or None when a wire
    traces to the diagram's domain or the outputs are not contiguous: only
    whole states can be relocated.
    """
    layer_set: set[int] = set()
    queue: list[int] = []

    def add(layer: int):
        if layer not in layer_set:
            layer_set.add(layer)
            queue.append(layer)

    for pos in range(span[0], span[1]):
        tag = slice_tags[pos]
        if tag[0] == "dom":
            return None
        add(tag[0])
    while True:
        while queue:
            layer = queue.pop()
            for sub in consumed[layer]:
                if sub[0] == "dom":
                    return None
                add(sub[0])
        absorbed = False
        for t in range(limit):
            if t in layer_set or not consumed[t]:
                continue
            if all(sub[0] != "dom" and sub[0] in layer_set for sub in consumed[t]):
                add(t)
                absorbed = True
        if not absorbed and not queue:
            break
    positions = {p for p, tag in enumerate(slice_tags)
                 if tag[0] != "dom" and tag[0] in layer_set}
    positions.update(range(span[0], span[1]))
    lo, hi = min(positions), max(positions) + 1
    if hi - lo != len(positions):
        return None  # outputs not contiguous: not a relocatable block
    return layer_set, (lo, hi)


@dataclass
class _CrossedMatch:
    direction: str
    start: int            # first image layer
    end: int              # one past the last image layer
    alpha: tuple[int, int]   # layer range of the left constituent
    beta: tuple[int, int]    # layer range of the right constituent
    alpha_span: tuple[int, int]
    beta_span: tuple[int, int]
    y_wires: RObject
    x_width: int
    y_width: int
    z_width: int


def _match_crossed(dom: RObject, layers: list[Layer], s: int) -> _CrossedMatch | None:
    """Recognize a crossed-composition image whose first swap is layer ``s``.

    The first swap run is terminated by the image's cup block, so its greedy
    parse is unambiguous.  The second run may be continued seamlessly by an
    enclosing image's swaps, so the width of the relocated block is searched
    downward from the greedy bound, each candidate verified against a
    regenerated image and against the constituent closures.
    """
    run1 = _parse_swap_run(layers, s)
    if run1 is None:
        return None
    slice_tags, consumed = _producers(dom, layers, s)
    # the boundary at slice s, read off its producer tags
    boundary = RObject(tuple(dom[port] if src == "dom" else layers[src][1].cod[port]
                             for src, port in slice_tags))
    m, k, o = run1.groups, run1.width, run1.first_offset

    cups_start = run1.end
    ncups = 0
    while (cups_start + ncups < len(layers)
           and isinstance(layers[cups_start + ncups][1], Cup)):
        ncups += 1

    def verify(direction: str, x_w: int) -> _CrossedMatch | None:
        if direction == "FCX":
            y_w, z_w = m, k
            p = o - m + 1 - x_w
            if p < 0:
                return None
            x_wires = boundary[p: p + x_w]
            yl = boundary[p + x_w: p + x_w + y_w]
            zr = boundary[o + 1: o + 1 + z_w]
            y_wires = boundary[o + 1 + z_w: o + 1 + z_w + y_w]
            if len(y_wires) != y_w:
                return None
            expected = (swap_blocks(yl, zr, p + x_w)
                        + cup_block(y_wires, p + x_w + z_w)
                        + swap_blocks(x_wires, zr, p))
            alpha_seed = (p, p + x_w + y_w)
            beta_seed = (o + 1, o + 1 + z_w + y_w)
        else:
            y_w, z_w = k, m
            lead = o - m + 1 - k
            if lead < 0:
                return None
            y_wires = boundary[lead: lead + y_w]
            zl = boundary[lead + y_w: lead + y_w + z_w]
            yr = boundary[lead + y_w + z_w: lead + y_w + z_w + y_w]
            x_wires = boundary[lead + 2 * y_w + z_w: lead + 2 * y_w + z_w + x_w]
            if len(x_wires) != x_w:
                return None
            expected = (swap_blocks(zl, yr, lead + y_w)
                        + cup_block(y_wires.r, lead)
                        + swap_blocks(zl, x_wires, lead))
            alpha_seed = (lead, lead + y_w + z_w)
            beta_seed = (lead + y_w + z_w, lead + 2 * y_w + z_w + x_w)
        end = s + len(expected)
        if list(layers[s:end]) != expected:
            return None
        a = _closure(slice_tags, consumed, alpha_seed, s)
        b = _closure(slice_tags, consumed, beta_seed, s)
        if a is None or b is None:
            return None
        a_layers, a_span = a
        b_layers, b_span = b
        if a_layers & b_layers or a_span[1] != b_span[0]:
            return None
        # spans may exceed the seeds only where generalized trailing arguments
        # live: right of beta for FCX, left of alpha for BCX
        if direction == "FCX":
            if a_span != alpha_seed or b_span[0] != beta_seed[0] or b_span[1] < beta_seed[1]:
                return None
        else:
            if b_span != beta_seed or a_span[1] != alpha_seed[1] or a_span[0] > alpha_seed[0]:
                return None
        both = sorted(a_layers | b_layers)
        if not both or both != list(range(min(both), s)) or max(a_layers) >= min(b_layers):
            return None
        a0, a1 = min(a_layers), max(a_layers) + 1
        return _CrossedMatch(
            direction, s, end, (a0, a1), (a1, s), a_span, b_span,
            y_wires, x_w, y_w, z_w)

    if ncups >= m:
        run2 = _parse_swap_run(layers, cups_start + m)
        if run2 is not None and run2.width == k and run2.first_offset == o - m:
            for x_w in range(run2.groups, 0, -1):
                mt = verify("FCX", x_w)
                if mt is not None:
                    return mt
    if ncups >= k:
        run2 = _parse_swap_run(layers, cups_start + k)
        if run2 is not None and run2.groups >= m and run2.first_offset == o - k:
            for x_w in range(run2.width, 0, -1):
                mt = verify("BCX", x_w)
                if mt is not None:
                    return mt
    return None


def _apply_crossed(layers: list[Layer], mt: _CrossedMatch) -> list[Layer]:
    alpha = layers[mt.alpha[0]:mt.alpha[1]]
    beta = layers[mt.beta[0]:mt.beta[1]]
    prefix = layers[:mt.alpha[0]]
    suffix = layers[mt.end:]
    if mt.direction == "FCX":
        # insert the primary (alpha) between the secondary's z.r and y blocks
        a_width = mt.alpha_span[1] - mt.alpha_span[0]
        shifted_beta = [(o - a_width, g) for o, g in beta]
        shifted_alpha = [(o + mt.z_width, g) for o, g in alpha]
        p = mt.alpha_span[0]
        cups = cup_block(mt.y_wires, p + mt.z_width + mt.x_width)
        return prefix + shifted_beta + shifted_alpha + cups + suffix
    # BCX: insert the primary (beta) between the secondary's y and z.l blocks
    shifted_beta = [(o - mt.z_width, g) for o, g in beta]
    lead = mt.beta_span[0] - mt.y_width - mt.z_width
    cups = cup_block(mt.y_wires.r, lead)
    return prefix + list(alpha) + shifted_beta + cups + suffix


def planarize(d: Diagram, trace: list[RewriteStep] | None = None,
              problems: list[str] | None = None) -> Diagram:
    """Remove all swaps by relocating crossed-composition constituents.

    Works on diagrams as produced by the functor (run before ``normalize``).
    A diagram without swaps is returned itself.  If a swap does not match a
    crossed-composition image, the problem is reported and the diagram is
    returned unchanged.
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
        mt = _match_crossed(d.dom, layers, swap_at) if guard > 0 else None
        if mt is None:
            if problems is not None:
                problems.append(
                    f"swap at layer {swap_at} is not removable by state sliding")
            return d
        local_trace.append(RewriteStep("SlideBoxThroughSwap", mt.start, layers[mt.start][0]))
        layers = _apply_crossed(layers, mt)
    if trace is not None:
        trace.extend(local_trace)
    return Diagram.build(d.dom, layers)


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Equality by rewriting: planarize, normalize, compare structurally.

    Sound but not complete for general symmetric monoidal equivalence.
    """
    if d1.dom != d2.dom or d1.cod != d2.cod:
        raise DiagramError(
            f"boundary mismatch: [{d1.dom}] -> [{d1.cod}] vs [{d2.dom}] -> [{d2.cod}]")
    return normalize(planarize(d1)) == normalize(planarize(d2))
