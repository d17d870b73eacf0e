#!/usr/bin/env python3
"""Convert the bundled corpus end to end and print per-sentence statistics.

Usage: python scripts/convert_corpus.py [--planarize] [--normalize] [--check]

With ``--check``, the exit status is 1 when the oracle rejects a rewrite.
"""

import argparse
import time

from discoccg import biclosed as bc
from discoccg.corpus import load_corpus
from discoccg.diagram import Cap, Cup, Swap
from discoccg.functor import DEFAULT_CONTEXT, lower
from discoccg.rewrite import normalize, planarize
from discoccg.semantics import DimAssignment, semantically_equal


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--planarize", action="store_true")
    ap.add_argument("--normalize", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="verify every rewrite against the tensor oracle")
    args = ap.parse_args()

    dims = DimAssignment({}, 2)
    start = time.perf_counter()
    rows = []
    for ident, derivation in load_corpus():
        diagram = lower(bc.lower_derivation(derivation), DEFAULT_CONTEXT)
        before = diagram
        if args.planarize:
            diagram = planarize(diagram)
        if args.normalize:
            diagram = normalize(diagram)
        ok = "-"
        if args.check and diagram is not before:
            ok = "yes" if semantically_equal(before, diagram, dims, [1, 2, 3]) else "NO"
        rows.append((ident, before.count(Swap), diagram.count(Swap),
                     diagram.count(Cup), diagram.count(Cap), len(diagram.layers), ok))
    elapsed = time.perf_counter() - start

    print(f"{'id':26s} {'swaps':>5s} {'after':>5s} {'cups':>4s} {'caps':>4s} "
          f"{'layers':>6s} {'sem':>4s}")
    for row in rows:
        print(f"{row[0]:26s} {row[1]:5d} {row[2]:5d} {row[3]:4d} {row[4]:4d} "
              f"{row[5]:6d} {row[6]:>4s}")
    print(f"\n{len(rows)} derivations in {elapsed * 1000:.1f} ms")
    return 1 if any(row[6] == "NO" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
