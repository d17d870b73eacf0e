"""The CI's byte-identity and growth checks, one name each.

Usage: PYTHONPATH=src:. python tests/ci_checks.py NAME

Each byte-identity check builds a batch (the corpus, or trees from
``tests.sentences``), runs the ``discoccg`` CLI on it in fresh processes and
compares the runs: under ``PYTHONHASHSEED`` 1 and 2, written in process
against handed off to the writer process, in slash against arrow notation,
or each entry alone against the batch.  Every file and every log must be
byte-identical.  The growth checks bound how a stage's time grows from
1024 to 4096 levels (a UNARY chain from 1500 to 6000), each time the best
of 3.  Every check works in a
temporary directory and exits nonzero on the first difference.  The checks
that ask for no oracle also run where numpy is not installed.  ``--probe
NAME`` runs one of the probes that a check starts in fresh processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SELF = Path(__file__).resolve()
ROOT = SELF.parent.parent
CORPUS = ROOT / "src" / "discoccg" / "corpus" / "derivations.json"
HASHSEEDS = (1, 2)
REWRITE = ["--emit", "biclosed,diagram,tikz,svg,stats", "--planarize", "--normalize", "--strict"]
ORACLE = ["--check-semantics", "*=2", "--seed", "7"]


def run(work: Path, label: str, argv: list, hashseed: int | None = None) -> Path:
    """Run ``python argv`` in a fresh process, its stdout appended to
    ``work/label/log``; return ``work/label``."""
    folder = work / label
    folder.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [os.environ.get("PYTHONPATH")])])}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    log = subprocess.run([sys.executable, *map(str, argv)], env=env, cwd=work, check=True,
                         stdout=subprocess.PIPE).stdout
    with open(folder / "log", "ab") as f:
        f.write(log)
    return folder


def cli(work: Path, label: str, args: list, hashseed: int | None = None,
        mode: str | None = None) -> Path:
    """``run`` the CLI into ``work/label/out``; with a ``mode``, through
    ``tests/handoff_cli.py``, which forces or bars the hand-off to the
    writer process and fails if a child process is left."""
    program = ["-m", "discoccg.cli"] if mode is None else [ROOT / "tests" / "handoff_cli.py", mode]
    return run(work, label, [*program, *args, "--out-dir", work / label / "out"], hashseed)


def alike(*folders: Path) -> None:
    """Fail unless every folder holds the files of the first, byte for byte."""
    def files(top):
        return {p.relative_to(top): p.read_bytes() for p in top.rglob("*") if p.is_file()}

    first = files(folders[0])
    for folder in folders[1:]:
        other = files(folder)
        differ = sorted(str(p) for p in first.keys() | other.keys()
                        if first.get(p) != other.get(p))
        assert not differ, f"{folders[0]} and {folder} differ: {differ[:10]}"


def batch(work: Path, name: str, entries) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps([{"id": i, "tree": t} for i, t in entries], ensure_ascii=False))
    return path


def hashseeds(work: Path, args: list) -> None:
    alike(*(cli(work, f"seed{h}", args, h) for h in HASHSEEDS))


def handoff(work: Path, args: list) -> None:
    alike(*(cli(work, f"{mode}-{h}", args, h, mode)
            for mode in ("in-process", "handed-off") for h in HASHSEEDS))


def crossed_batch(work: Path) -> Path:
    # planarize regroups each crossed image's layers into wired components
    from tests.sentences import cross_serial, np_shift_two_word_primary

    return batch(work, "crossed", [("np-shift2", np_shift_two_word_primary()),
                                   ("cross8", cross_serial(8))])


def hand_off_batch(work: Path) -> Path:
    from tests.sentences import cross_serial, right_branching

    entries = [(e["id"], e["tree"]) for e in json.loads(CORPUS.read_text())]
    return batch(work, "batch", [*entries, ("rb200", right_branching(200)),
                                 ("cross8", cross_serial(8))])


def arrows(work: Path) -> None:
    """Every type and raising target of the corpus reprinted with
    ``to_arrows()`` converts to the bytes of slash notation."""
    from discoccg.ccgtypes import parse_type

    def to_arrows(tree):
        out = {**tree, "type": parse_type(tree["type"]).to_arrows()}
        if "children" in tree:
            head, _, target = tree["rule"].partition(":")
            if head.upper() in ("FTR", "BTR"):
                out["rule"] = f"{head}:{parse_type(target).to_arrows()}"
            out["children"] = [to_arrows(child) for child in tree["children"]]
        return out

    entries = [(e["id"], to_arrows(e["tree"])) for e in json.loads(CORPUS.read_text())]
    args = [*REWRITE, "--seed", "7"]
    alike(cli(work, "slash", ["--in", CORPUS, *args]),
          cli(work, "arrows", ["--in", batch(work, "arrows", entries), *args]))


def long(work: Path) -> None:
    """Rewritten long sentences read back well-formed with the raw
    boundaries: planarize and normalize do not validate their results, the
    diagram reader does (rb400 still converts at the default limit)."""
    from discoccg.diagram import diagram_from_json, obj_str
    from tests.sentences import (
        coordination, cross_serial, left_fc_chain, np_shift_two_word_primary, raw_diagram,
        right_branching,
    )

    entries = {"rb400": right_branching(400), "fc400": left_fc_chain(400),
               "coord400": coordination(400), "cross32": cross_serial(32),
               "np-shift2": np_shift_two_word_primary()}
    out = cli(work, "long", ["--in", batch(work, "long", entries.items()), "--emit", "diagram",
                             "--planarize", "--normalize", "--strict"]) / "out"
    for ident, tree in entries.items():
        d = diagram_from_json((out / f"{ident}.diagram.json").read_text())
        raw = raw_diagram(tree)
        assert (d.dom, d.cod) == (raw.dom, raw.cod), ident
        print(f"{ident}: {len(raw.layers)} -> {len(d.layers)} layers, cod {obj_str(d.cod)}")


def _deep_entries() -> dict:
    def chain(slash, n):
        return "S" + f"{slash}S" * n

    def fa(n):
        return {"rule": "FA", "type": chain("/", n), "children": [
            {"word": "a", "type": chain("/", n) + "/NP"}, {"word": "b", "type": "NP"}]}

    def fc(n):
        return {"rule": "FC", "type": chain("/", n), "children": [
            {"word": "a", "type": chain("/", n)}, {"word": "b", "type": "S/S"}]}

    def unary(child):
        return {"rule": "UNARY", "type": child["type"], "children": [child]}

    paren = "S"
    for _ in range(600):
        paren = f"S/({paren})"
    alice = {"rule": "BA", "type": "S", "children": [
        {"word": "Alice", "type": "NP"},
        {"rule": "FA", "type": "S\\NP", "children": [
            {"word": "likes", "type": "(S\\NP)/NP"}, {"word": "Bob", "type": "NP"}]}]}

    def leaf(slash, n):
        return {"word": "w", "type": chain(slash, n)}

    return {"left300": leaf("/", 300), "left450": leaf("/", 450), "bleft450": leaf("\\", 450),
            "fa450": fa(450), "left600": leaf("/", 600), "bleft600": leaf("\\", 600),
            "fa600": fa(600), "left1200": leaf("/", 1200), "left4096": leaf("/", 4096),
            "bleft4096": leaf("\\", 4096), "fa4096": fa(4096),
            "unaryleaf4096": unary(leaf("/", 4096)), "unaryfc4096": unary(fc(4096)),
            "fabad1200": {**fa(1200), "type": chain("\\", 1200)},
            "paren600": {"word": "w", "type": paren}, "fig1": alice}


def deep(work: Path) -> None:
    """Deep categories convert in a batch as each does alone in a fresh
    process: whether an entry converts must not depend on the entries
    before it.  Unbracketed categories convert at any depth, also below a
    UNARY; bracket nesting is bounded by the parser, and a wrong declared
    type names its rule."""
    entries = _deep_entries()
    whole = batch(work, "batch", entries.items())
    for h in HASHSEEDS:
        seed = work / f"seed{h}"
        together, alone = seed / "batch", seed / "alone"
        cli(seed, "batch", ["--in", whole, "--emit", "biclosed,diagram"], h)
        for ident, tree in entries.items():
            cli(seed, "alone", ["--in", batch(work, ident, [(ident, tree)]),
                                "--emit", "biclosed,diagram"], h)
        alike(together / "out", alone / "out")
        fails = [[line for line in (folder / "log").read_text().splitlines()
                  if line.startswith("FAIL")] for folder in (together, alone)]
        assert fails[0] == fails[1], fails
    alike(work / "seed1", work / "seed2")
    log = (work / "seed1" / "batch" / "log").read_text()
    lines = log.splitlines()
    for prefix in ("FAIL paren600: bad type at node root: nested too deeply to parse",
                   "FAIL fabad1200: FA produces S/S/"):
        assert any(line.startswith(prefix) for line in lines), prefix
    assert "total 16 converted 14 failed 2" in lines, lines[-1:]
    assert "RecursionError" not in log


def derivation4096(work: Path) -> None:
    """A 4096-level derivation converts at the default recursion limit."""
    alike(*(run(work, f"seed{h}", [SELF, "--probe", "derivation4096"], h)
            for h in HASHSEEDS))


def probe_derivation4096() -> None:
    # built from rules.Leaf and Binary, since the JSON decoder still recurses
    # once per tree level (ROADMAP item 7); the bracketed reader, ingest and
    # everything after them walk explicit stacks
    from discoccg.biclosed import lower_derivation, to_sexpr
    from discoccg.diagram import Wire, well_formed
    from discoccg.functor import lower
    from discoccg.ingest import derivation_to_json
    from discoccg.rules import validate
    from tests.sentences import right_branching_derivation

    assert sys.getrecursionlimit() == 1000
    d = right_branching_derivation(4096)
    assert validate(d) == []
    nodes, todo = 0, [derivation_to_json(d)]
    while todo:
        nodes += 1
        todo += todo.pop().get("children", [])
    assert nodes == 2 * (4096 + 4) - 1, nodes
    term = lower_derivation(d)
    diagram = lower(term)
    assert well_formed(diagram) == [] and diagram.cod == (Wire("s"),)
    print(to_sexpr(term))


def ccgbank_deep(work: Path) -> None:
    """Deep bracketed sentences convert at the default recursion limit, and
    rb4096's term is the one the ``derivation4096`` probe prints."""
    from tests.sentences import (
        bracketed, coordination, left_fc_chain, right_branching, unary_chain,
    )

    path = work / "deep.txt"
    path.write_text("".join(f"{bracketed(tree)}\n" for tree in (
        right_branching(4096), left_fc_chain(4096), coordination(4096), unary_chain(1500))))
    runs = [cli(work, f"seed{h}", ["--in", path, "--format", "ccgbank", *REWRITE], h)
            for h in HASHSEEDS]
    alike(*runs)
    log = (runs[0] / "log").read_text()
    assert "total 4 converted 4 failed 0" in log.splitlines(), log[-500:]
    assert "RecursionError" not in log
    probe = run(work, "probe", [SELF, "--probe", "derivation4096"]) / "log"
    assert (runs[0] / "out" / "s0.biclosed").read_text() == probe.read_text()


def best_of_3(function, *args) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        function(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def growth(stage: str, best, limit: float, small: int = 1024, large: int = 4096) -> None:
    """Fail if ``best(large)`` exceeds ``limit`` times ``best(small)``."""
    times = {k: best(k) for k in (small, large)}
    ratio = times[large] / times[small]
    print(f"{stage} {small} {times[small]:.4f} s, {large} {times[large]:.4f} s, "
          f"ratio {ratio:.1f}")
    assert ratio <= limit, f"{large} takes {ratio:.1f} times {small}'s time, more than {limit}"


def normalize_growth(work: Path) -> None:
    """rb4096 has four times the layers of rb1024; carrying each layer one
    neighbour at a time made it 17.7 times slower (quadratic), carrying it
    past whole runs about 5 times (BENCH_normalize.json)."""
    from discoccg.diagram import well_formed
    from discoccg.rewrite import normalize
    from tests.sentences import raw_diagram, right_branching

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * 4096))   # JSON, both ways
    growth("normalize rb", lambda k: best_of_3(normalize, raw_diagram(right_branching(k))), 8)
    d = raw_diagram(right_branching(4096))
    norm = normalize(d)   # normalize does not validate its result
    assert well_formed(norm) == [] and (norm.dom, norm.cod) == (d.dom, d.cod)


def ingest_growth(work: Path) -> None:
    """rb4096 has four times the nodes of rb1024; reading and ingesting it
    took 3.6 to 5.0 times as long on a 2-core x86 machine.  A chain of 6000
    UNARY nodes has four times the nodes of one of 1500; while each
    retyping followed every binding below it, ingesting it took about 15
    times as long (0.136 s and 2.076 s on that machine)."""
    from discoccg.ingest import ingest_tree, read_json
    from tests.sentences import right_branching, unary_chain

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * 6000))   # JSON, both ways
    growth("ingest rb", lambda k: best_of_3(
        lambda text: ingest_tree(read_json(text)), json.dumps(right_branching(k))), 8)
    growth("ingest unary", lambda k: best_of_3(ingest_tree, unary_chain(k)), 8, 1500, 6000)


def f_obj_growth(work: Path) -> None:
    """S/S/.../S of 4096 slashes has four times the levels of 1024.  A walk
    that walked each part it missed again took 10 to 19 times as long on a
    2-core x86 machine; one fold, which drops each part's image once
    mapped, about 7.  Each run is a fresh process, since categories are
    interned."""
    growth("f_obj depth", lambda depth: min(
        float((run(work, f"{depth}-{i}", [SELF, "--probe", "f_obj", depth]) / "log").read_text())
        for i in range(3)), 10)


def probe_f_obj(depth: str) -> None:
    from discoccg.ccgtypes import Atom, Forward
    from discoccg.functor import LoweringContext

    t = Atom("S")
    for _ in range(int(depth)):
        t = Forward(t, Atom("S"))
    start = time.perf_counter()
    LoweringContext().f_obj(t)
    print(time.perf_counter() - start)


CHECKS = {
    "corpus": lambda w: hashseeds(w, ["--in", CORPUS, *REWRITE]),
    "corpus-oracle": lambda w: hashseeds(w, [
        "--in", CORPUS, *REWRITE, "--check-semantics", "n=2,s=2,*=2", "--seed", "7"]),
    "renders": lambda w: cli(w, "renders", ["--in", CORPUS, "--emit", "tikz,svg", "--strict"]),
    "crossed": lambda w: hashseeds(w, ["--in", crossed_batch(w), *REWRITE]),
    "crossed-oracle": lambda w: hashseeds(w, ["--in", crossed_batch(w), *REWRITE, *ORACLE]),
    "hand-off": lambda w: handoff(w, ["--in", CORPUS, *REWRITE, "--seed", "7"]),
    "hand-off-oracle": lambda w: handoff(w, ["--in", hand_off_batch(w), *REWRITE, *ORACLE]),
    "arrows": arrows, "long": long, "deep": deep, "derivation4096": derivation4096,
    "ccgbank-deep": ccgbank_deep,
    "normalize-growth": normalize_growth, "ingest-growth": ingest_growth,
    "f-obj-growth": f_obj_growth,
}


def main(argv: list[str]) -> int | str:
    if argv[:1] == ["--probe"]:
        globals()[f"probe_{argv[1]}"](*argv[2:])
        return 0
    if len(argv) != 1 or argv[0] not in CHECKS:
        return f"usage: ci_checks.py NAME, one of: {' '.join(CHECKS)}"
    with tempfile.TemporaryDirectory(prefix=f"ci-{argv[0]}-") as work:
        CHECKS[argv[0]](Path(work))
    print(f"{argv[0]}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
