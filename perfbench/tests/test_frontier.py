import json

import numpy as np
import pytest

from discoccg import biclosed as bc
from discoccg import semantics
from discoccg.functor import lower
from discoccg.ingest import ingest_tree, read_json
from discoccg.rewrite import normalize, planarize

from perfbench import gen
from perfbench.checks import predicted_frontier

DIMS = semantics.DimAssignment({"s": 3}, 2)


def largest_frontier(monkeypatch, d):
    """Run ``evaluate`` and return the size of its largest frontier tensor."""
    sizes = [1]
    insert = semantics._insert

    def recording(frontier, block, offset):
        out = insert(frontier, block, offset)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(semantics, "_insert", recording)
    result = semantics.evaluate(d, DIMS, semantics.Lexicon(DIMS, seed=1))
    monkeypatch.setattr(semantics, "_insert", insert)
    assert np.isfinite(result.array).all()
    return max(sizes)


@pytest.mark.parametrize("key", [f"rb{k}" for k in range(1, 7)]
                         + [f"cross{k}" for k in range(2, 7)] + ["fc6", "coord6"])
def test_predictor_matches_evaluate(monkeypatch, key):
    raw = lower(bc.lower_derivation(ingest_tree(read_json(json.dumps(gen.sentence(key))))))
    for d in (raw, planarize(raw), normalize(planarize(raw))):
        assert predicted_frontier(d, DIMS) == largest_frontier(monkeypatch, d)
