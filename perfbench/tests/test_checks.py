import json
from pathlib import Path

from discoccg import cli

from perfbench import gen
from perfbench.checks import check_batch

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
KEYS = ["rb2", "cross2", "coord2", "rb2", "bad-arity", "corpus-np-shift"]


def run_batch(tmp_path, capsys):
    corpus = gen.load_corpus(ROOT)
    entries = [(f"s{i}-{key}", key, gen.tree_for(key, corpus)) for i, key in enumerate(KEYS)]
    (tmp_path / "in.json").write_bytes(gen.input_bytes(entries))
    out = tmp_path / "out"
    assert cli.main(["--in", str(tmp_path / "in.json"), "--out-dir", str(out),
                     "--planarize", "--normalize", "--emit",
                     "biclosed,diagram,tikz,svg,stats", "--seed", "7"]) == 0
    expected = {ident: gen.expected_ok(tree) for ident, _, tree in entries}
    return entries, expected, out, capsys.readouterr().out


def test_clean_batch_passes(tmp_path, capsys):
    entries, expected, out, log = run_batch(tmp_path, capsys)
    report = check_batch(entries, expected, out, log, DIGESTS)
    assert report.problems == [] and report.failed == 0
    assert report.oracle_verified == 4   # once per distinct key
    assert report.out_layers == sum(
        len(json.loads((out / f"{ident}.diagram.json").read_text())["layers"])
        for ident, _, _ in entries if expected[ident])


def test_changed_bytes_and_missing_fail_line_are_caught(tmp_path, capsys):
    entries, expected, out, log = run_batch(tmp_path, capsys)
    svg = out / "s0-rb2.svg"
    svg.write_bytes(svg.read_bytes() + b" ")
    log = "\n".join(line for line in log.splitlines() if "s4-bad-arity" not in line)
    report = check_batch(entries, expected, out, log, DIGESTS)
    assert report.failed == 2
    assert any("digest" in p for p in report.problems)
    assert any("expected a FAIL line" in p for p in report.problems)
