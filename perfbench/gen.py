"""Seeded workload generator: derivation JSON for the ``discoccg`` batch CLI.

Every sentence is keyed by its shape (``rb7``, ``cross4``, ``corpus-<id>``,
``bad-<variant>``).  The words of a sentence depend only on its key, so the
bytes the CLI emits for it are fixed per key and can be compared against
digests recorded once (``digests.json``).  The seed chooses how the quota
remainders fall, which malformed variants appear and the order of the batch.

Families (``k`` counts the words that make a sentence longer):

- ``rb<k>``: right-branching adjective chain ``the a0 ... a(k-1) wolf likes Bob``
  (FA chain; every word box precedes every cup in the raw diagram);
- ``fc<k>``: the same sentence with the adjectives combined by a
  left-branching FC chain, ``k >= 2``;
- ``cross<k>``: Dutch cross-serial clause with ``k >= 2`` verbs, a
  left-nested ``GFCX:2`` chain closed by ``FCX`` and ``k + 1`` NP arguments;
- ``coord<k>``: a left-nested CONJ list of ``k >= 2`` NPs, then ``sleep``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

FAMILIES = ("rb", "fc", "cross", "coord")

# k ranges of the batch-mixed families; the oracle runs on all of them.
MIXED_KS = {"rb": range(1, 8), "fc": range(2, 13), "cross": range(2, 7),
            "coord": range(2, 13)}
MIXED_SIZE = 1000
MIXED_CORPUS_SHARE = 0.30
MIXED_BAD_SHARE = 0.02

# The long chains stay at depth <= 192: near 256 levels ``biclosed.to_sexpr``
# and JSON encoding raise RecursionError, which aborts the whole batch.
LONG_CHAINS = ("rb128", "rb192", "fc128", "fc192", "coord192")
CROSS_SERIAL = tuple(f"cross{k}" for k in range(12, 49, 4))

CORPUS_PATH = Path("src") / "discoccg" / "corpus" / "derivations.json"


def _p(t: str) -> str:
    return f"({t})" if ("/" in t or "\\" in t) else t


def fwd(result: str, arg: str) -> str:
    return f"{_p(result)}/{_p(arg)}"


def bwd(result: str, arg: str) -> str:
    return f"{_p(result)}\\{_p(arg)}"


def leaf(word: str, cat: str) -> dict:
    return {"word": word, "type": cat}


def node(rule: str, cat: str, *children: dict) -> dict:
    return {"rule": rule, "type": cat, "children": list(children)}


def _frame(subject_n: dict) -> dict:
    """``the <N> likes Bob``: the noun phrase as subject of a transitive verb."""
    vp = bwd("S", "NP")
    subj = node("FA", "NP", leaf("the", fwd("NP", "N")), subject_n)
    return node("BA", "S", subj,
                node("FA", vp, leaf("likes", fwd(vp, "NP")), leaf("Bob", "NP")))


def right_branching(k: int) -> dict:
    nn = fwd("N", "N")
    tree = leaf("wolf", "N")
    for i in reversed(range(k)):
        tree = node("FA", "N", leaf(f"a{i}", nn), tree)
    return _frame(tree)


def left_fc_chain(k: int) -> dict:
    if k < 2:
        raise ValueError("an FC chain needs k >= 2")
    nn = fwd("N", "N")
    chain = leaf("a0", nn)
    for i in range(1, k):
        chain = node("FC", nn, chain, leaf(f"a{i}", nn))
    return _frame(node("FA", "N", chain, leaf("wolf", "N")))


def cross_serial(k: int) -> dict:
    if k < 2:
        raise ValueError("a cross-serial clause needs k >= 2 verbs")
    # cats[i] takes i NP arguments: S, S\NP, (S\NP)\NP, ...
    cats = ["S"]
    for _ in range(k + 1):
        cats.append(bwd(cats[-1], "NP"))
    chain = leaf("v0", fwd(cats[2], "VP"))
    for i in range(1, k - 1):
        chain = node("GFCX:2", fwd(cats[2 + i], "VP"), chain,
                     leaf(f"v{i}", fwd(bwd("VP", "NP"), "VP")))
    tree = node("FCX", cats[k + 1], chain, leaf(f"v{k - 1}", bwd("VP", "NP")))
    for i in reversed(range(k + 1)):
        tree = node("BA", cats[i], leaf(f"n{i}", "NP"), tree)
    return tree


def coordination(k: int) -> dict:
    if k < 2:
        raise ValueError("a coordination list needs k >= 2 conjuncts")
    glue = bwd("NP", "NP")
    tree = leaf("c0", "NP")
    for i in range(1, k):
        tree = node("BA", "NP", tree, node("CONJ", glue, leaf("and", "conj"), leaf(f"c{i}", "NP")))
    return node("BA", "S", tree, leaf("sleep", bwd("S", "NP")))


_BUILDERS = {"rb": right_branching, "fc": left_fc_chain, "cross": cross_serial,
             "coord": coordination}


def _alice(obj: dict) -> dict:
    vp = bwd("S", "NP")
    return node("BA", "S", leaf("Alice", "NP"),
                node("FA", vp, leaf("likes", fwd(vp, "NP")), obj))


# Malformed entries the CLI isolates today: each yields one FAIL line.
BAD_VARIANTS = {
    "mismatch": lambda: _alice(leaf("Bob", "N")),
    "unknown-rule": lambda: node("FAX", "S", leaf("Alice", "NP"), leaf("sleeps", bwd("S", "NP"))),
    "bad-type": lambda: _alice(leaf("Bob", "(NP")),
    "leaf-no-type": lambda: _alice({"word": "Bob"}),
    "arity": lambda: node("BA", "S", leaf("Alice", "NP")),
    "stray-conj": lambda: _alice(leaf("and", "conj")),
}


def sentence(key: str) -> dict:
    """The derivation tree for a shape key; corpus keys are read separately."""
    if key.startswith("bad-"):
        return BAD_VARIANTS[key[4:]]()
    m = re.fullmatch(r"([a-z]+)(\d+)", key)
    if m is None or m.group(1) not in _BUILDERS:
        raise ValueError(f"unknown sentence key {key!r}")
    return _BUILDERS[m.group(1)](int(m.group(2)))


def load_corpus(root: Path) -> dict[str, dict]:
    return {e["id"]: e["tree"] for e in json.loads((root / CORPUS_PATH).read_bytes())}


def _quota(rng: random.Random, keys: list[str], total: int) -> list[str]:
    """``total`` draws spread evenly over ``keys``; the seed places the remainder."""
    out = keys * (total // len(keys))
    out += rng.sample(keys, total % len(keys))
    return out


def workload_keys(name: str, seed: int, corpus_ids: list[str]) -> list[str]:
    """Sentence keys of a workload, in batch order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "batch-mixed":
        n_bad = round(MIXED_SIZE * MIXED_BAD_SHARE)
        n_corpus = round(MIXED_SIZE * MIXED_CORPUS_SHARE)
        per_family = (MIXED_SIZE - n_bad - n_corpus) // len(FAMILIES)
        n_corpus = MIXED_SIZE - n_bad - per_family * len(FAMILIES)
        keys = _quota(rng, [f"bad-{v}" for v in BAD_VARIANTS], n_bad)
        keys += _quota(rng, [f"corpus-{c}" for c in corpus_ids], n_corpus)
        for fam in FAMILIES:
            keys += _quota(rng, [f"{fam}{k}" for k in MIXED_KS[fam]], per_family)
    elif name == "long-chains":
        keys = list(LONG_CHAINS)
    elif name == "cross-serial":
        keys = list(CROSS_SERIAL)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(keys)
    return keys


WORKLOADS = ("batch-mixed", "long-chains", "cross-serial")


def tree_for(key: str, corpus: dict[str, dict]) -> dict:
    return corpus[key[7:]] if key.startswith("corpus-") else sentence(key)


def convertible_keys(corpus_ids) -> list[str]:
    """Every key a workload can draw, except the malformed ones."""
    keys = {f"corpus-{c}" for c in corpus_ids} | set(LONG_CHAINS) | set(CROSS_SERIAL)
    keys |= {f"{fam}{k}" for fam, ks in MIXED_KS.items() for k in ks}
    return sorted(keys)


def generate(name: str, seed: int, root: Path) -> list[tuple[str, str, dict]]:
    """``(id, key, tree)`` for every sentence of the workload, in batch order."""
    corpus = load_corpus(root)
    return [(f"b{i:04d}-{key}", key, tree_for(key, corpus))
            for i, key in enumerate(workload_keys(name, seed, sorted(corpus)))]


def expected_ok(tree: dict) -> bool:
    """The verdict ``ingest_tree`` gives the sentence: True converts, False fails."""
    from discoccg.ingest import IngestError, ingest_tree, read_json

    try:
        ingest_tree(read_json(json.dumps(tree)))
    except IngestError:
        return False
    return True


def input_bytes(entries: list[tuple[str, str, dict]]) -> bytes:
    return json.dumps([{"id": ident, "tree": tree} for ident, _, tree in entries],
                      ensure_ascii=False).encode()
