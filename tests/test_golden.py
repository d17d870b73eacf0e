"""Byte-level goldens: the README command on the bundled corpus, and the
biclosed terms of composition up to the highest degree.

One sha256 pins every emitted file and the stdout log, so any change to a
rule image, a rewrite or a renderer shows up here.  A refactor must leave it
unchanged; re-record it only for an intended change of output bytes.
"""

import hashlib
from pathlib import Path

from discoccg import biclosed as bc
from discoccg import corpus
from discoccg.ccgtypes import parse_type
from discoccg.cli import main
from discoccg.diagram import diagram_to_json
from discoccg.functor import lower
from discoccg.rules import BA, BC, FA, FC, apply_rule, gbc, gfc

CORPUS = Path(corpus.__file__).parent / "derivations.json"
ARGS = ["--emit", "biclosed,diagram,tikz,svg,stats", "--planarize", "--normalize",
        "--check-semantics", "n=2,s=2,*=2", "--seed", "7"]
GOLDEN = "ca5fa1e6972a1147208054f9e41b442ddfa5d46a89ae551e43254b3632149911"


def run_digest(out_dir: Path, capsys) -> str:
    assert main(["--in", str(CORPUS), "--out-dir", str(out_dir), *ARGS]) == 0
    log = capsys.readouterr().out
    h = hashlib.sha256(log.encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_corpus_outputs_match_golden(tmp_path, capsys):
    assert run_digest(tmp_path / "out", capsys) == GOLDEN


def _composition_cases():
    """Order-preserving rules on fixed inputs: application, composition, and
    generalized composition of degrees 2 to 4, whose secondaries peel the
    arguments (N/NP), PP, A and S\\N in turn."""
    cases = [(FA, ["(S\\NP)/NP", "NP"]), (BA, ["NP", "S\\NP"]),
             (FC, ["(S\\NP)/VP", "VP/NP"]), (BC, ["NP\\PP", "(S\\NP)\\NP"])]
    args = ["(N/NP)", "PP", "A", "(S\\N)"]
    for n in (2, 3, 4):
        forward = backward = "VP"
        for arg in args[:n]:
            forward, backward = f"({forward})/{arg}", f"({backward})\\{arg}"
        cases += [(gfc(n), ["(S\\NP)/VP", forward]), (gbc(n), [backward, "(S/NP)\\VP"])]
    return [(rule, [parse_type(x) for x in inputs]) for rule, inputs in cases]


COMPOSITION_GOLDEN = "7e61f3114482e7bdbb49cbfcb7fdd87afb8402d0c9f64cde3a79a4f8abeb5ed8"


def test_composition_terms_match_golden():
    # each rule term's s-expression and its generic curry/uncurry diagram,
    # which the annotation-free term lowers to
    h = hashlib.sha256()
    for rule, inputs in _composition_cases():
        term = bc.rule_term(rule, inputs)
        assert term.cod == apply_rule(rule, inputs), rule
        generic = lower(bc.annotate(term, None))
        h.update(f"{bc.to_sexpr(term)}\n{diagram_to_json(generic)}\n".encode())
    assert h.hexdigest() == COMPOSITION_GOLDEN
