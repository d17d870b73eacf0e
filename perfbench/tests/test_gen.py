import json
from collections import Counter
from pathlib import Path

import pytest

from perfbench import gen

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())


CORPUS = gen.load_corpus(ROOT)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = gen.input_bytes(gen.generate(workload, 3, ROOT))
    assert gen.input_bytes(gen.generate(workload, 3, ROOT)) == first
    if workload == "batch-mixed":
        assert gen.input_bytes(gen.generate(workload, 4, ROOT)) != first


def test_batch_mixed_composition():
    entries = gen.generate("batch-mixed", 11, ROOT)
    kinds = Counter(key.split("-")[0] if key.startswith(("bad-", "corpus-"))
                    else key.rstrip("0123456789") for _, key, _ in entries)
    assert len(entries) == gen.MIXED_SIZE
    assert kinds == {"bad": 20, "corpus": 300, "rb": 170, "fc": 170, "cross": 170,
                     "coord": 170}
    keys = {key for _, key, _ in entries}
    assert {f"{f}{k}" for f, ks in gen.MIXED_KS.items() for k in ks} <= keys
    assert len({ident for ident, _, _ in entries}) == len(entries)


def test_expected_verdicts_from_ingest():
    for key in gen.convertible_keys(CORPUS):
        assert gen.expected_ok(gen.tree_for(key, CORPUS)), key
    for variant in gen.BAD_VARIANTS:
        assert not gen.expected_ok(gen.sentence(f"bad-{variant}")), variant


def depth(tree):
    return 1 + max(map(depth, tree.get("children", ())), default=0)


def test_long_chains_stay_below_the_recursion_cap():
    assert max(depth(gen.sentence(key)) for key in gen.LONG_CHAINS) <= 200


def test_every_convertible_key_has_a_recorded_digest():
    assert sorted(DIGESTS) == gen.convertible_keys(CORPUS)
