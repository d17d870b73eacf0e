"""Byte-level golden of the README command on the bundled corpus.

One sha256 pins every emitted file and the stdout log, so any change to a
rule image, a rewrite or a renderer shows up here.  A refactor must leave it
unchanged; re-record it only for an intended change of output bytes.
"""

import hashlib
from pathlib import Path

from discoccg import corpus
from discoccg.cli import main

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
