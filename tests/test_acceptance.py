"""Acceptance suite: one test per shipping criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from discoccg import biclosed as bc
from discoccg.ccgtypes import parse_type
from discoccg.corpus import load_corpus
from discoccg.diagram import (
    Diagram, EMPTY, RObject, Swap, Wire, WordBox, well_formed,
)
from discoccg.functor import DEFAULT_CONTEXT, lower
from discoccg.rewrite import diagrams_equal, normalize, planarize
from discoccg.rules import rule_histogram
from discoccg.semantics import DimAssignment, Lexicon, evaluate, semantically_equal

DIMS22 = DimAssignment({}, 2)
FIVE_SEEDS = [101, 102, 103, 104, 105]

REQUIRED_RULES = ["FA", "BA", "FC", "BC", "GFC:2", "GBC:2", "FTR:S", "BTR:S",
                  "FCX", "BCX"]
NAMED_EXAMPLES = ["alice-likes-bob", "alice-likes-bob-raised",
                  "big-bad-wolf-left", "big-bad-wolf-right", "np-shift",
                  "bruce-puts-on-his-hat", "dutch-cross-serial",
                  "not-much-to-say", "apples-and-oranges"]


def _passed(name):
    print(f"PASS {name}")


def test_corpus_conversion_rate_and_coverage():
    start = time.perf_counter()
    corpus = load_corpus()
    diagrams = {}
    failures = []
    for ident, derivation in corpus:
        try:
            d = lower(bc.lower_derivation(derivation), DEFAULT_CONTEXT)
            if well_formed(d):
                failures.append(ident)
            diagrams[ident] = d
        except Exception:  # noqa: BLE001 - accounting, not handling
            failures.append(ident)
    elapsed = time.perf_counter() - start

    assert len(corpus) >= 25
    assert failures == []
    assert len(diagrams) == len(corpus)

    seen = set()
    for _, derivation in corpus:
        seen.update(rule_histogram(derivation))
    # UNARY and CONJ are exercised pre-ingest; check them on the raw corpus
    from discoccg.corpus import load_raw
    raw_rules = set()

    def collect(raw):
        if hasattr(raw, "rule_str"):
            raw_rules.add(raw.rule_str.split(":")[0].upper())
            for kid in raw.children:
                collect(kid)

    for _, raw in load_raw():
        collect(raw)
    for rule in REQUIRED_RULES:
        assert rule in seen, f"corpus never exercises {rule}"
    assert {"UNARY", "CONJ"} <= raw_rules
    for name in NAMED_EXAMPLES:
        assert name in diagrams, f"missing named example {name}"
    assert elapsed < 1.0, f"conversion took {elapsed:.3f}s"
    _passed(f"corpus conversion {len(corpus)}/{len(corpus)} in {elapsed * 1000:.0f} ms")


def test_transitive_verb_image_is_order_three():
    image = DEFAULT_CONTEXT.f_obj(parse_type("(S\\NP)/NP"))
    assert image == RObject((Wire("n", 1), Wire("s", 0), Wire("n", -1)))
    _passed("functor image of (S\\NP)/NP is n.r s n.l")


def test_type_raising_rewrites_away():
    corpus = dict(load_corpus())
    raised = lower(bc.lower_derivation(corpus["alice-likes-bob-raised"]))
    plain = lower(bc.lower_derivation(corpus["alice-likes-bob"]))
    assert normalize(raised) == normalize(plain)
    assert diagrams_equal(raised, plain)
    assert semantically_equal(raised, plain, DIMS22, FIVE_SEEDS, rtol=1e-9)
    _passed("type-raised and plain derivations share a normal form")


def test_big_bad_wolf_equivalence():
    corpus = dict(load_corpus())
    left = lower(bc.lower_derivation(corpus["big-bad-wolf-left"]))
    right = lower(bc.lower_derivation(corpus["big-bad-wolf-right"]))
    assert normalize(left) == normalize(right)
    assert semantically_equal(left, right, DIMS22, FIVE_SEEDS, rtol=1e-9)
    _passed("big bad wolf derivations agree")


def test_planarization_criterion():
    corpus = dict(load_corpus())
    crossed = 0
    for ident, derivation in corpus.items():
        d = lower(bc.lower_derivation(derivation))
        if d.count(Swap) == 0:
            continue
        crossed += 1
        problems: list[str] = []
        planar = planarize(d, problems=problems)
        assert problems == [], ident
        assert planar.count(Swap) == 0, ident
        assert planar.cod == d.cod, ident
        assert semantically_equal(d, planar, DIMS22, FIVE_SEEDS, rtol=1e-9), ident
    assert crossed >= 4

    bruce = planarize(lower(bc.lower_derivation(corpus["bruce-puts-on-his-hat"])))
    verb_block = RObject.parse("n.r s n.l").wires
    assert any(
        boundary.wires[i:i + 3] == verb_block
        for boundary in bruce.boundaries()
        for i in range(len(boundary) - 2)
    ), "no contiguous n.r s n.l block in the planar phrasal-verb diagram"
    _passed(f"planarize removed all swaps on {crossed} crossed derivations")


def test_swap_as_transpose():
    dims = DimAssignment({"a": 2, "b": 3})
    wa, wb = Wire("a", 0), Wire("b", 0)
    wires = RObject((wa, wb))
    state = Diagram.build(EMPTY, [(0, WordBox("M", wires))])
    swapped = Diagram.build(EMPTY, [(0, WordBox("M", wires)), (0, Swap(wa, wb))])
    lex = Lexicon(dims, seed=9)
    m = evaluate(state, dims, lex).array
    mt = evaluate(swapped, dims, Lexicon(dims, seed=9)).array
    brute = np.empty((3, 2))
    for i in range(2):
        for j in range(3):
            brute[j, i] = m[i, j]
    assert np.array_equal(mt, brute)
    _passed("swap evaluates to the exact transpose")


def test_property_suites_within_budget():
    """The >=200-case property suites live in the unit test modules; this
    re-runs them as one timed batch."""
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_types.py::test_slash_roundtrip",
         "tests/test_types.py::test_arrow_roundtrip",
         "tests/test_rules.py::test_application_schema_soundness",
         "tests/test_rules.py::test_gfc1_coincides_with_fc",
         "tests/test_ingest.py::test_validate_after_ingest_on_generated_trees",
         "tests/test_semantics.py::test_snake_identity_action_exact",
         "tests/test_rewrite.py::test_rewrites_preserve_evaluation_on_random_derivations",
         "tests/test_rewrite.py::test_rewrite_steps_preserve_evaluation",
         "tests/test_functor.py::test_functor_laws_across_corpus",
         "tests/test_functor.py::test_functor_curry_laws_randomized",
         ],
        capture_output=True, text=True, timeout=120, cwd=root)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"
    _passed(f"property suites green in {elapsed:.1f}s")
