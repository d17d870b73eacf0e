import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import discoccg
from discoccg import cli
from discoccg.cli import JobConfig, STATS_COLUMNS, build_parser, main, run
from discoccg.corpus import corpus_text
from discoccg.semantics import DimAssignment
from tests.sentences import (
    coordination, cross_serial, deep_json, left_fc_chain, np_shift_two_word_primary,
    right_branching,
)

ALICE = {"rule": "BA", "type": "S", "children": [
    {"word": "Alice", "type": "NP"},
    {"rule": "FA", "type": "S\\NP", "children": [
        {"word": "likes", "type": "(S\\NP)/NP"},
        {"word": "Bob", "type": "NP"}]}]}


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_bytes(corpus_text())
    return path


def test_corpus_batch_planarize_stats(corpus_file, tmp_path):
    out = tmp_path / "out"
    cfg = JobConfig(inputs=[str(corpus_file)], out_dir=str(out),
                    emit=("stats", "diagram"), planarize=True)
    report = run(cfg)
    assert (report.total, report.converted, report.failed) == (28, 28, 0)
    assert len(report.stats_rows) == 28
    for row in report.stats_rows:
        swaps_after = row[STATS_COLUMNS.index("swaps_after")]
        assert swaps_after == 0
    from discoccg.cli import write_report
    write_report(report, cfg)
    stats = (out / "stats.tsv").read_text().splitlines()
    assert stats[0].split("\t") == list(STATS_COLUMNS)
    assert len(stats) == 29


def test_empty_input(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    report = run(JobConfig(inputs=[str(path)], emit=("diagram",)))
    assert (report.total, report.converted, report.failed) == (0, 0, 0)
    assert report.summary() == "total 0 converted 0 failed 0"


def test_single_malformed_entry_does_not_abort(tmp_path):
    broken = json.loads(json.dumps(ALICE))
    broken["children"][0]["typ"] = "oops"
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps([ALICE, broken, ALICE]))
    report = run(JobConfig(inputs=[str(path)], emit=("diagram",)))
    assert (report.total, report.converted, report.failed) == (3, 2, 1)
    ident, message = report.failures[0]
    assert ident == "s1"
    assert "/children/0" in message


def test_outputs_are_byte_stable(corpus_file, tmp_path):
    cfg = JobConfig(inputs=[str(corpus_file)],
                    emit=("biclosed", "diagram", "tikz", "svg"),
                    planarize=True, normalize=True)
    r1, r2 = run(cfg), run(cfg)
    assert r1.outputs.keys() == r2.outputs.keys()
    for key in r1.outputs:
        assert r1.outputs[key] == r2.outputs[key], key


def test_check_semantics_flag(corpus_file):
    cfg = JobConfig(inputs=[str(corpus_file)], emit=("diagram",),
                    planarize=True, normalize=True,
                    check_semantics="n=2,s=2,*=2", seed=17)
    report = run(cfg)
    assert report.failed == 0


def test_check_semantics_on_long_right_branching_sentence(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps([right_branching(36)]))   # 40 words
    report = run(JobConfig(inputs=[str(path)], emit=("diagram",),
                           planarize=True, normalize=True, check_semantics="*=2"))
    assert (report.converted, report.failed) == (1, 0)


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_fails_one_sentence(tmp_path, monkeypatch, error):
    path = tmp_path / "three.json"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    convert = cli._convert_one

    def exhausting(ident, *args):
        if ident == "s1":
            raise error("out of resources")
        return convert(ident, *args)

    monkeypatch.setattr(cli, "_convert_one", exhausting)
    report = run(JobConfig(inputs=[str(path)], emit=("diagram",)))
    assert (report.converted, report.failed) == (2, 1)
    assert report.failures == [("s1", f"{error.__name__}: out of resources")]


@pytest.mark.parametrize("error, shown", [(TypeError("bad term"), "TypeError: bad term"),
                                           (KeyError("n"), "KeyError: 'n'")])
def test_stage_error_of_any_class_fails_one_sentence(tmp_path, capsys, monkeypatch,
                                                     error, shown):
    path = tmp_path / "three.json"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    functor = cli.lower
    calls = []

    def lower(term, ctx):   # the functor stage fails on the middle sentence
        calls.append(term)
        if len(calls) == 2:
            raise error
        return functor(term, ctx)

    monkeypatch.setattr(cli, "lower", lower)
    out_dir = tmp_path / "out"
    assert main(["--in", str(path), "--out-dir", str(out_dir), "--strict"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"FAIL s1: {shown}\ntotal 3 converted 2 failed 1\n"
    assert captured.err == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["s0.diagram.json", "s2.diagram.json"]


def test_main_strict_exit_code(tmp_path, capsys):
    broken = json.loads(json.dumps(ALICE))
    broken["children"][0]["type"] = "S"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([broken]))
    assert main(["--in", str(path), "--strict"]) == 1
    assert main(["--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert "failed 1" in captured.out


def test_main_writes_files(tmp_path, corpus_file):
    out = tmp_path / "artifacts"
    code = main(["--in", str(corpus_file), "--out-dir", str(out),
                 "--emit", "biclosed,diagram,tikz,svg,stats", "--planarize"])
    assert code == 0
    assert (out / "alice-likes-bob.biclosed").exists()
    assert (out / "alice-likes-bob.diagram.json").exists()
    assert (out / "np-shift.svg").exists()
    assert (out / "stats.tsv").exists()


def test_ccgbank_input(tmp_path):
    path = tmp_path / "bank.txt"
    path.write_text(
        "(BA S (LEX NP Alice) (FA S\\NP (LEX (S\\NP)/NP likes) (LEX NP Bob)))\n")
    report = run(JobConfig(inputs=[str(path)], fmt="ccgbank", emit=("stats",)))
    assert (report.total, report.converted) == (1, 1)


def test_atom_map_flag(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ALICE))
    code = main(["--in", str(path), "--out-dir", str(tmp_path / "o"),
                 "--emit", "diagram", "--atom-map", "NP=q"])
    assert code == 0
    payload = json.loads((tmp_path / "o" / "s0.diagram.json").read_text())
    bases = {w["base"] for w in payload["cod"]}
    assert bases == {"s"}
    layer_bases = {w["base"] for layer in payload["layers"]
                   for w in layer["gen"].get("cod", [])}
    assert "q" in layer_bases


@pytest.mark.parametrize("entries", [
    ["NP=n.r"],            # would print cup(n.r, n.r.r), like cup(n, n.r) one winding up
    ["NP= "],              # an empty base once stripped
    ["N P=q"],             # not an atom name
    ["NP"],                # no base at all
    ["NP=q", "NP=r"],      # a repeated key
    ["NP=q", " NP =r"],    # repeated once stripped
])
def test_bad_atom_map_entry_is_one_error_line(tmp_path, capsys, entries):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ALICE))
    argv = ["--in", str(path), "--out-dir", str(tmp_path / "o")]
    for entry in entries:
        argv += ["--atom-map", entry]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bad --atom-map entry {entries[-1]!r}")
    assert not (tmp_path / "o").exists()


def test_atom_map_entries_are_stripped(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ALICE))
    outputs = []
    for entry in ("NP=q", " NP = q "):
        out = tmp_path / f"o{len(outputs)}"
        assert main(["--in", str(path), "--out-dir", str(out), "--atom-map", entry]) == 0
        outputs.append((out / "s0.diagram.json").read_text())
    assert outputs[0] == outputs[1] and '"q"' in outputs[0]


def test_unknown_emit_rejected(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ALICE))
    with pytest.raises(ValueError):
        run(JobConfig(inputs=[str(path)], emit=("nope",)))


def test_parser_round(capsys):
    parser = build_parser()
    args = parser.parse_args(["--in", "x.json", "--emit", "diagram,stats"])
    assert args.inputs == ["x.json"]


def _batch(tmp_path, capsys, entries):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(entries))
    out = tmp_path / "a" / "b" / "out"
    code = main(["--in", str(path), "--out-dir", str(out), "--emit", "diagram,stats"])
    lines = capsys.readouterr().out.splitlines()
    return code, out, lines


def test_path_like_id_cannot_escape_out_dir(tmp_path, capsys):
    code, out, lines = _batch(tmp_path, capsys, [
        {"id": "../../escape", "tree": ALICE}, {"id": "ok", "tree": ALICE}])
    assert code == 0
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["a/b/out/ok.diagram.json", "a/b/out/stats.tsv", "batch.json"]
    assert [line for line in lines if line.startswith("FAIL")] == [
        'FAIL "../../escape": bad id at /0/id: ids are strings of at most 200 '
        "characters from [A-Za-z0-9._-] that do not start with '.'"]
    assert lines[-1] == "total 2 converted 1 failed 1"


def test_non_string_id_fails_alone(tmp_path, capsys):
    code, out, lines = _batch(tmp_path, capsys, [
        {"id": {"a": 1}, "tree": ALICE}, {"id": 7, "tree": ALICE}, ALICE])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["s2.diagram.json", "stats.tsv"]
    fails = [line for line in lines if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fails] == ['FAIL {"a"', "FAIL 7"]
    assert lines[-1] == "total 3 converted 1 failed 2"


def test_duplicate_id_fails_instead_of_overwriting(tmp_path, capsys):
    bob = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": "sleeps", "type": "S\\NP"}]}
    code, out, lines = _batch(tmp_path, capsys, [
        {"id": "same", "tree": ALICE}, {"id": "same", "tree": bob}])
    assert code == 0
    assert "Alice" in (out / "same.diagram.json").read_text()
    assert (out / "stats.tsv").read_text().count("\nsame\t") == 1
    assert "FAIL same: duplicate id 'same': ids name output files" in lines
    assert lines[-1] == "total 2 converted 1 failed 1"


def test_unknown_wrapper_field_fails_its_entry_only(tmp_path, capsys):
    code, out, lines = _batch(tmp_path, capsys, [
        {"id": "noted", "tree": ALICE, "note": "x"}, {"id": "plain", "tree": ALICE}])
    assert code == 0
    assert "FAIL noted: unknown field 'note' at /0" in lines
    assert (out / "plain.diagram.json").exists()
    assert not (out / "noted.diagram.json").exists()
    assert lines[-1] == "total 2 converted 1 failed 1"


def test_too_deep_json_is_one_error_line(tmp_path, capsys):
    # an entry too deep to decode fails alone; the others still convert
    path = tmp_path / "deep.json"
    path.write_text(deep_json(600, ALICE))
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "FAIL s1: JSON nested too deeply to decode (more levels than the recursion "
        f"limit of {sys.getrecursionlimit()}) at /1",
        "total 2 converted 1 failed 1"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["s0.diagram.json"]
    # a file that is one tree too deep to decode is rejected before any output
    path.write_text(deep_json(600)[1:-1])
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: JSON nested too deeply to decode (more levels than "
                            f"the recursion limit of {sys.getrecursionlimit()})\n")
    assert not (tmp_path / "o2").exists()


def test_type_too_deep_to_parse_is_one_fail_line(tmp_path, capsys):
    # a category nested past the parser's recursion fails at its node and
    # names the nesting; the next sentence still converts
    deep = {"word": "w", "type": "(" * 600 + "S" + ")" * 600}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([{"id": "deep600", "tree": deep}, {"id": "fig1", "tree": ALICE}]))
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "FAIL deep600: bad type at node root: nested too deeply to parse (more levels "
        f"than the recursion limit of {sys.getrecursionlimit()})",
        "total 2 converted 1 failed 1"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["fig1.diagram.json"]


def test_left_nested_category_prints_in_its_biclosed_file(tmp_path, capsys):
    # 450 left-nested slashes convert with the biclosed printer; 600 levels
    # still fail at the category parser
    def left(n):
        return {"word": "w", "type": "(" * n + "S" + "/NP)" * n}

    path = tmp_path / "left.json"
    path.write_text(json.dumps([{"id": "left450", "tree": left(450)},
                                {"id": "left600", "tree": left(600)}]))
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o"),
                 "--emit", "biclosed,diagram"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "FAIL left600: bad type at node root: nested too deeply to parse (more levels "
        f"than the recursion limit of {sys.getrecursionlimit()})",
        "total 2 converted 1 failed 1"]
    biclosed = (tmp_path / "o" / "left450.biclosed").read_text()
    assert biclosed == f'(word "w" {"(" * 449}S/NP{")/NP" * 449})\n'


def test_deep_categories_convert_in_a_batch_as_they_do_alone(tmp_path, capsys):
    # ``S/S/…/S`` parses without recursion, no memo lookup compares or hashes
    # a category level by level, every map over a category is one iterative
    # fold, and the indexed types below a UNARY are built, unified and erased
    # with explicit stacks, so an unbracketed category converts at any depth
    # and whether an entry converts does not depend on the entries before it:
    # each prints the line and writes the files it gives alone, in a fresh
    # process.  Bracket nesting is still bounded by the parser.
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
    entries = [{"id": "left300", "tree": {"word": "w", "type": chain("/", 300)}},
               {"id": "left450", "tree": {"word": "w", "type": chain("/", 450)}},
               {"id": "bleft450", "tree": {"word": "w", "type": chain("\\", 450)}},
               {"id": "fa450", "tree": fa(450)},
               {"id": "left600", "tree": {"word": "w", "type": chain("/", 600)}},
               {"id": "bleft600", "tree": {"word": "w", "type": chain("\\", 600)}},
               {"id": "fa600", "tree": fa(600)},
               {"id": "left1200", "tree": {"word": "w", "type": chain("/", 1200)}},
               {"id": "left4096", "tree": {"word": "w", "type": chain("/", 4096)}},
               {"id": "bleft4096", "tree": {"word": "w", "type": chain("\\", 4096)}},
               {"id": "fa4096", "tree": fa(4096)},
               {"id": "unaryleaf4096", "tree": unary({"word": "w", "type": chain("/", 4096)})},
               {"id": "unaryfc4096", "tree": unary(fc(4096))},
               {"id": "fabad1200", "tree": {**fa(1200), "type": chain("\\", 1200)}},
               {"id": "paren600", "tree": {"word": "w", "type": paren}},
               {"id": "fig1", "tree": ALICE}]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(entries))
    emit = ["--emit", "biclosed,diagram"]
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "batch"), *emit]) == 0
    batch = capsys.readouterr().out.splitlines()
    # each category is echoed as its first 200 characters and its length
    produced, declared = chain("/", 100)[:200], chain("\\", 100)[:200]
    assert batch == [
        f"FAIL fabad1200: FA produces {produced}… (2401 characters) but node declares "
        f"{declared}… (2401 characters) at node root",
        "FAIL paren600: bad type at node root: nested too deeply to parse (more levels "
        f"than the recursion limit of {sys.getrecursionlimit()})",
        "total 16 converted 14 failed 2"]
    env = dict(os.environ, PYTHONPATH=str(Path(discoccg.__file__).resolve().parents[1]))
    for entry in entries:
        ident, alone = entry["id"], tmp_path / entry["id"]
        (tmp_path / f"{ident}.json").write_text(json.dumps([entry]))
        proc = subprocess.run(
            [sys.executable, "-m", "discoccg.cli", "--in", str(tmp_path / f"{ident}.json"),
             "--out-dir", str(alone), *emit], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:-1] == [line for line in batch if line.startswith(f"FAIL {ident}:")]
        written = sorted(p.name for p in alone.iterdir())
        assert written == sorted(p.name for p in (tmp_path / "batch").glob(f"{ident}.*"))
        assert all((alone / name).read_bytes() == (tmp_path / "batch" / name).read_bytes()
                   for name in written)


def test_word_wound_too_far_fails_alone(tmp_path, capsys):
    cat = "S/NP"
    for _ in range(99):
        cat = f"S/({cat})"
    path = tmp_path / "wound.json"
    path.write_text(json.dumps([{"id": "slash100", "tree": {"word": "w", "type": cat}},
                                {"id": "fig1", "tree": ALICE}]))
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "FAIL slash100: cannot lower word 'w': the functor cannot wind a wire that far "
        "(winding -7 on n exceeds |z| <= 6)",
        "total 2 converted 1 failed 1"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["fig1.diagram.json"]


# Items of about 5 000 characters, one per site that repeats input back in a
# FAIL line, each with the start of the line that names it.
_LONG = "S" + "/S" * 2500
_BLONG = "S" + "\\S" * 2500
_WOUND = "S/NP"
for _ in range(99):
    _WOUND = f"S/({_WOUND})"


def _leaf(word, cat):
    return {"word": word, "type": cat}


def _node(rule, cat, *children):
    return {"rule": rule, "type": cat, "children": list(children)}


OVERSIZED = {
    "unsafe-id": ({"id": "i" * 5000 + "/", "tree": ALICE}, 'FAIL "iiii'),
    "type": ({"tree": _leaf("w", _LONG + "/(")}, "FAIL s0: bad type 'S/S/S/"),
    "rule": ({"tree": _node("X" * 5000, "S", _leaf("w", "S"))}, "FAIL s0: unknown rule 'XXXX"),
    "leaf-field": ({"tree": {**_leaf("w", "S"), "f" * 5000: 1}},
                   "FAIL s0: unknown field 'ffff"),
    "node-field": ({"tree": {**_node("FA", "S", _leaf("w", "S")), "f" * 5000: 1}},
                   "FAIL s0: unknown field 'ffff"),
    "wrapper-field": ({"id": "x", "tree": ALICE, "f" * 5000: 1},
                      "FAIL x: unknown field 'ffff"),
    "control-word": ({"tree": _leaf("w" * 5000 + "\x01", "S")}, "FAIL s0: word 'wwww"),
    "surrogate-word": ({"tree": _leaf("w" * 5000 + "\ud800", "S")}, "FAIL s0: word 'wwww"),
    "wound-word": ({"tree": _leaf("w" * 5000, _WOUND)},
                   "FAIL s0: cannot lower word 'wwww"),
    "declared": ({"tree": _node("FA", _BLONG, _leaf("a", _LONG + "/NP"), _leaf("b", "NP"))},
                 "FAIL s0: FA produces S/S/S/"),
    "raising-rule": ({"tree": _node("FTR:" + _LONG, "S", _leaf("w", "NP"))},
                     "FAIL s0: FTR:S/S/S/"),
    "raising-arity": ({"tree": _node("FTR:" + _LONG, "S", _leaf("v", "NP"), _leaf("w", "NP"))},
                      "FAIL s0: FTR:S/S/S/"),
    "degree": ({"tree": _node("GFC:" + "9" * 1000, "S", _leaf("v", "S/S"), _leaf("w", "S/S"))},
               "FAIL s0: GFC:9999"),
    "schema": ({"tree": _node("FA", "S", _leaf("v", _BLONG), _leaf("w", "NP"))},
               "FAIL s0: FA: expected a primary of the form X ⤙ Y, got [S\\S\\"),
    # a UNARY whose retyping breaks the rule below it, over a long atom
    "unary": ({"tree": _node("UNARY", "S", _node(
        "FC", "A" * 5000 + "/NP", _leaf("a", "A" * 5000 + "/N"), _leaf("b", "N/NP")))},
        "FAIL s0: substitution produces a rule-schema violation at node 0: FC now yields AAAA"),
    "conjuncts": ({"tree": _node("BA", _LONG, _leaf("x", _LONG), _node(
        "CONJ", f"({_LONG})\\({_LONG})", _leaf("and", "conj"), _leaf("y", _BLONG)))},
        "FAIL s0: conjuncts' types differ at node root: S/S/"),
    "conj-declares": ({"tree": _node("BA", _BLONG, _leaf("x", _LONG), _node(
        "CONJ", f"({_BLONG})\\({_LONG})", _leaf("and", "conj"), _leaf("y", _LONG)))},
        "FAIL s0: CONJ node declares S\\S\\"),
}


@pytest.mark.parametrize("entry,prefix", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_fail_lines_echo_a_bounded_part_of_each_item(tmp_path, capsys, entry, prefix):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([entry]))
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    fail, summary = capsys.readouterr().out.splitlines()
    assert fail.startswith(prefix) and "… (" in fail, fail[:300]
    assert len(fail.encode("utf-8")) <= 1024, fail[:300]
    assert summary == "total 1 converted 0 failed 1"


def _no_conversion(monkeypatch):
    def convert(*args):
        raise AssertionError("a sentence was converted")

    monkeypatch.setattr(cli, "_convert_one", convert)



def test_malformed_second_input_rejects_the_batch(tmp_path, capsys, monkeypatch):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps([ALICE]))
    text = json.dumps([ALICE, ALICE])[:-20]   # a truncated list
    bad.write_text(text)
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    _no_conversion(monkeypatch)
    out = tmp_path / "out"
    assert main(["--in", str(good), str(bad), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid JSON: {err.value}\n"
    assert not out.exists()


def test_several_inputs_convert_in_file_order(tmp_path, capsys):
    bob = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": "sleeps", "type": "S\\NP"}]}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps([{"id": "b", "tree": ALICE}, {"id": "a", "tree": bob}]))
    second.write_text(json.dumps([{"id": "c", "tree": bob}, {"id": "b", "tree": bob}]))
    out = tmp_path / "out"
    assert main(["--in", str(first), str(second), "--out-dir", str(out),
                 "--emit", "diagram,stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["FAIL b: duplicate id 'b': ids name output files",
                     "total 4 converted 3 failed 1"]
    rows = (out / "stats.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["b", "a", "c"]
    assert "Alice" in (out / "b.diagram.json").read_text()


def test_out_dir_files_are_written_as_each_sentence_converts(tmp_path, capsys, monkeypatch):
    """A batch this small never hands its files to a writer process: each
    sentence's files are on disk before the next sentence converts."""
    out, convert, present = tmp_path / "out", cli._convert_one, []

    def logged(ident, *args):
        present.append(sorted(p.name for p in out.iterdir()))
        return convert(ident, *args)

    monkeypatch.setattr(cli, "_convert_one", logged)
    bad = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": "sleeps", "type": "S"}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps([{"id": "a", "tree": ALICE}, {"id": "a", "tree": ALICE},
                                {"id": "b", "tree": bad}, {"id": "c", "tree": ALICE}]))
    assert main(["--in", str(path), "--out-dir", str(out), "--emit", "diagram,stats"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total 4 converted 2 failed 2"
    # a duplicate is refused before it converts; a failed sentence writes nothing
    assert present == [[], ["a.diagram.json"], ["a.diagram.json"]]
    assert sorted(p.name for p in out.iterdir()) == [
        "a.diagram.json", "c.diagram.json", "stats.tsv"]


def test_file_that_cannot_be_written_ends_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "s1.diagram.json").mkdir(parents=True)
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    assert main(["--in", str(path), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "s1.diagram.json" in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["s0.diagram.json", "s1.diagram.json"]


def _force_handoff(monkeypatch) -> list:
    """Hand every file of the next runs to a writer process; the returned
    list gathers what each ``_Writer.start`` returned."""
    started, start = [], cli._Writer.start

    def counted():
        started.append(start())
        return started[-1]

    monkeypatch.setattr(cli, "HANDOFF_S", -1.0)
    monkeypatch.setattr(cli._Writer, "start", counted)
    return started


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_writer_process_writes_the_files_written_in_process(corpus_file, tmp_path, capsys,
                                                            monkeypatch):
    args = ["--in", str(corpus_file), "--emit", ",".join(cli.EMITS), "--planarize",
            "--normalize", "--check-semantics", "n=2,s=2,*=2", "--seed", "7", "--strict"]
    assert main(args + ["--out-dir", str(tmp_path / "in-process")]) == 0
    in_process = capsys.readouterr()
    started = _force_handoff(monkeypatch)
    assert main(args + ["--out-dir", str(tmp_path / "handed-off")]) == 0
    _assert_no_child_left()
    assert len(started) == 1 and started[0] is not None
    assert capsys.readouterr() == in_process
    assert _files(tmp_path / "handed-off") == _files(tmp_path / "in-process")
    assert len(_files(tmp_path / "in-process")) == 4 * 28 + 1


def test_writer_process_error_ends_the_run_as_in_process(tmp_path, capsys, monkeypatch):
    started = _force_handoff(monkeypatch)
    out = tmp_path / "out"
    (out / "s1.diagram.json").mkdir(parents=True)
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    assert main(["--in", str(path), "--out-dir", str(out)]) == 2
    _assert_no_child_left()
    assert len(started) == 1 and started[0] is not None
    error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                              str(out / "s1.diagram.json"))
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert sorted(p.name for p in out.iterdir()) == ["s0.diagram.json", "s1.diagram.json"]


def test_writer_that_stopped_fails_the_next_send(tmp_path):
    (tmp_path / "bad").mkdir()
    writer = cli._Writer.start()
    with pytest.raises(IsADirectoryError) as info:
        writer.send(tmp_path, {"ok": "x", "bad": "y", "late": b"z"})
        for _ in range(1000):   # sends until one finds the writer gone
            time.sleep(0.01)
            writer.send(tmp_path, {"later": "w"})
        writer.close()
    _assert_no_child_left()
    assert isinstance(info.value.__context__, BrokenPipeError)
    assert info.value.filename == str(tmp_path / "bad")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "ok"]
    writer.close()   # closing again does nothing


def test_writer_loop_stops_where_a_sender_died_mid_pickle(tmp_path):
    # the stream holds one whole pair, then a pair cut at each point a
    # sender could die: the loop writes the whole pair, then ends cleanly
    import pickle

    out, stream = tmp_path / "out", tmp_path / "stream"
    out.mkdir()
    whole = pickle.dumps((out, {"a": "x"}))
    small = pickle.dumps((out, {"b": "y", "c": b"z"}))
    large = pickle.dumps((out, {"b": "y" * 200_000, "c": b"z" * 200_000}))
    cuts = [small[:end] for end in range(len(small))]
    cuts += [large[:end] for end in [*range(0, len(large), 4099), len(large) - 1]]
    status_r, status_w = os.pipe()
    try:
        for cut in cuts:
            stream.write_bytes(whole + cut)
            assert cli._write_sent(os.open(stream, os.O_RDONLY), status_w) == 0, cut[-20:]
            assert _files(out) == {"a": b"x"}, len(cut)
    finally:
        os.close(status_w)
        with open(status_r, "rb") as status:
            assert status.read() == b""


def test_writer_process_writes_nothing_for_a_failed_sentence(tmp_path, capsys, monkeypatch):
    started = _force_handoff(monkeypatch)
    bad = {"rule": "BA", "type": "S", "children": [
        {"word": "Bob", "type": "NP"}, {"word": "sleeps", "type": "S"}]}
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps([{"id": "a", "tree": ALICE}, {"id": "a", "tree": ALICE},
                                {"id": "b", "tree": bad}, {"id": "c", "tree": ALICE}]))
    assert main(["--in", str(path), "--out-dir", str(out), "--emit", "diagram,stats"]) == 0
    _assert_no_child_left()
    assert len(started) == 1 and started[0] is not None
    assert capsys.readouterr().out.splitlines()[-1] == "total 4 converted 2 failed 2"
    assert sorted(p.name for p in out.iterdir()) == [
        "a.diagram.json", "c.diagram.json", "stats.tsv"]


def test_writer_process_takes_any_out_dir_name(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE, ALICE]))
    args = ["--in", str(path), "--emit", "diagram,svg"]
    assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
    _force_handoff(monkeypatch)
    assert main(args + ["--out-dir", str(tmp_path / "a b\nc")]) == 0
    _assert_no_child_left()
    capsys.readouterr()
    assert _files(tmp_path / "a b\nc") == _files(tmp_path / "plain")


def test_without_os_fork_files_are_written_in_process(tmp_path, capsys, monkeypatch):
    started = _force_handoff(monkeypatch)
    monkeypatch.delattr(os, "fork")
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    assert main(["--in", str(path), "--out-dir", str(out)]) == 0
    # one attempt, then the batch stays in process
    assert started == [None]
    assert capsys.readouterr().out == "total 3 converted 3 failed 0\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "s0.diagram.json", "s1.diagram.json", "s2.diagram.json"]


def test_fork_that_fails_leaves_the_files_in_process(tmp_path, capsys, monkeypatch):
    started = _force_handoff(monkeypatch)
    opened = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    assert main(["--in", str(path), "--out-dir", str(out)]) == 0
    assert started == [None]
    assert capsys.readouterr().out == "total 3 converted 3 failed 0\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "s0.diagram.json", "s1.diagram.json", "s2.diagram.json"]
    if opened is not None:   # both pipes are closed again
        assert len(os.listdir("/proc/self/fd")) == opened


def _handed_off(tmp_path, before: str = "") -> str:
    """The standard output of ``tests/handoff_cli.py handed-off`` on three
    sentences, run after ``before`` in a fresh interpreter whose standard
    output is a pipe, and so block-buffered: what ``before`` prints is still
    in the buffer when the writer is forked.  The script fails when a child
    process is left after the run."""
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    script = Path(__file__).with_name("handoff_cli.py")
    env = dict(os.environ, PYTHONPATH=str(Path(discoccg.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    code = f"{before}\nimport runpy\nrunpy.run_path({str(script)!r}, run_name='__main__')"
    proc = subprocess.run(
        [sys.executable, "-c", code, "handed-off", "--in", str(path), "--out-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "s0.diagram.json", "s1.diagram.json", "s2.diagram.json"]
    return proc.stdout


def test_forked_writer_leaves_the_callers_buffered_output(tmp_path):
    out = _handed_off(tmp_path, before='print("printed before main")')
    assert out == "printed before main\ntotal 3 converted 3 failed 0\n"


def test_forked_writer_leaves_the_callers_atexit_handlers(tmp_path):
    out = _handed_off(tmp_path, before='import atexit; atexit.register(print, "at exit")')
    assert out == "total 3 converted 3 failed 0\nat exit\n"


def test_forked_writer_is_reaped_by_the_run(tmp_path):
    assert _handed_off(tmp_path) == "total 3 converted 3 failed 0\n"


# Linux carries a process's peak RSS over to a child it starts, so the batch
# is started from a small interpreter that reports the batch's own peak.
PEAK_PROBE = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "discoccg.cli", *sys.argv[1:]], check=True,
               stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_out_dir_batch_memory_does_not_grow_with_the_batch(tmp_path):
    # long sentences, whose files are large beside their input; when a batch
    # kept every file, ten copies peaked 10-12% above one
    entries = [{"id": "rb", "tree": right_branching(96)},
               {"id": "fc", "tree": left_fc_chain(96)},
               {"id": "cross", "tree": cross_serial(12)},
               {"id": "coord", "tree": coordination(48)}]
    env = dict(os.environ, PYTHONPATH=str(Path(discoccg.__file__).resolve().parents[1]))
    peaks = {}
    for copies in (1, 10):
        path = tmp_path / f"x{copies}.json"
        path.write_text(json.dumps([{"id": f"{e['id']}-{c}", "tree": e["tree"]}
                                    for c in range(copies) for e in entries]))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_PROBE, "--in", str(path), "--out-dir",
             str(tmp_path / f"o{copies}"), "--emit", ",".join(cli.EMITS),
             "--planarize", "--normalize", "--strict"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks[copies] = int(proc.stdout)
    assert peaks[10] <= 1.05 * peaks[1], peaks


def test_each_entry_is_read_after_the_previous_one_converts(tmp_path, monkeypatch):
    from discoccg import ingest

    events = []
    read, convert = ingest._raw_node, cli._convert_one

    def logged_read(obj, ptr):
        if ptr.count("/") == 1:   # an entry's root, not one of its children
            events.append(("read", ptr))
        return read(obj, ptr)

    def logged_convert(ident, *args):
        events.append(("convert", ident))
        return convert(ident, *args)

    monkeypatch.setattr(ingest, "_raw_node", logged_read)
    monkeypatch.setattr(cli, "_convert_one", logged_convert)
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE, ALICE, ALICE]))
    report = run(JobConfig(inputs=[str(path)]))
    assert report.converted == 3
    assert events == [("read", "/0"), ("convert", "s0"), ("read", "/1"),
                      ("convert", "s1"), ("read", "/2"), ("convert", "s2")]

def test_out_dir_that_is_a_file_is_one_error_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE]))
    taken = tmp_path / "taken"
    taken.write_text("")
    _no_conversion(monkeypatch)
    assert main(["--in", str(path), "--out-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(taken) in captured.err


def test_out_dir_under_a_file_is_one_error_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE]))
    (tmp_path / "taken").write_text("")
    _no_conversion(monkeypatch)
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "taken" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_failed_output_write_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([ALICE]))
    (tmp_path / "out" / "s0.diagram.json").mkdir(parents=True)   # blocks the file
    assert main(["--in", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_deep_ccgbank_line_converts(tmp_path, capsys):
    # the bracketed reader and the ingest walks keep explicit stacks
    deep = "(UNARY NP " * 1500 + "(LEX NP Alice)" + ")" * 1500
    path = tmp_path / "bank.txt"
    path.write_text("(BA S (LEX NP Alice) (LEX S\\NP sleeps))\n" + deep + "\n")
    out = tmp_path / "o"
    assert main(["--in", str(path), "--format", "ccgbank", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["total 2 converted 2 failed 0"]
    assert sorted(p.name for p in out.iterdir()) == ["s0.diagram.json", "s1.diagram.json"]


def _one_sentence(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ALICE))
    return str(path)


def test_empty_check_semantics_spec_checks_with_the_default_dimension(
        tmp_path, monkeypatch):
    checked = []

    def check(before, after, dims, seeds):
        checked.append(dims)
        return True

    monkeypatch.setattr(cli, "semantically_equal", check)
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", ""]) == 0
    assert checked == [DimAssignment({}, 2)]


@pytest.mark.parametrize("spec", ["=3", "n=2,=3"])
def test_dims_entry_without_a_base_is_one_error_line(tmp_path, capsys, spec):
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad dims entry '=3'\n"


def test_dims_keys_and_values_are_stripped(tmp_path, monkeypatch):
    checked = []

    def check(before, after, dims, seeds):
        checked.append(dims)
        return True

    monkeypatch.setattr(cli, "semantically_equal", check)
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", "n = 3, * = 4"]) == 0
    assert checked == [DimAssignment({"n": 3}, 4)]


@pytest.mark.parametrize("spec, entry, key", [
    ("n=3,n=4", "n=4", "n"), ("n=3, n = 4", "n = 4", "n"), ("*=2,s=2,*=3", "*=3", "*")])
def test_repeated_dims_key_is_one_error_line(tmp_path, capsys, spec, entry, key):
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad dims entry {entry!r}: {key!r} is already set\n"


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_dims_value_is_one_error_line(tmp_path, capsys, value):
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", f"s=2,n={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad dims entry 'n={value}': a value must be an integer\n"


def test_400_word_chain_converts_with_every_emit(tmp_path, capsys):
    # at the default recursion limit: no stage recurses per term level
    path, out = tmp_path / "rb400.json", tmp_path / "o"
    path.write_text(deep_json(400))
    assert main(["--in", str(path), "--out-dir", str(out), "--emit", ",".join(cli.EMITS),
                 "--planarize", "--normalize", "--check-semantics", "*=2", "--strict"]) == 0
    assert capsys.readouterr().out == "total 1 converted 1 failed 0\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "s0.biclosed", "s0.diagram.json", "s0.svg", "s0.tikz", "stats.tsv"]
    assert (out / "s0.biclosed").read_text().count("(word ") == 404


def test_dims_key_that_names_no_wire_base_is_one_error_line(tmp_path, capsys):
    # a key that can never match a wire base would silently check nothing
    spec = "n.r=3,x y=2"
    assert main(["--in", _one_sentence(tmp_path), "--check-semantics", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad dims entry 'n.r=3': a key must be * or an atom "
                            "name, [A-Za-z][A-Za-z0-9_]*\n")


def test_two_word_crossed_primary_converts_under_planarize(corpus_file, tmp_path, capsys):
    # the primary of np-shift2's BCX rule is a two-word constituent
    np_shift = next(e for e in json.loads(corpus_file.read_text()) if e["id"] == "np-shift")
    path, out = tmp_path / "np.json", tmp_path / "o"
    two_words = {"id": "np-shift2", "tree": np_shift_two_word_primary()}
    path.write_text(json.dumps([np_shift, two_words]))
    assert main(["--in", str(path), "--out-dir", str(out), "--emit", "diagram",
                 "--planarize", "--normalize", "--check-semantics", "*=2", "--strict"]) == 0
    assert capsys.readouterr().out.splitlines() == ["total 2 converted 2 failed 0"]
    assert sorted(p.name for p in out.iterdir()) == [
        "np-shift.diagram.json", "np-shift2.diagram.json"]


@pytest.mark.parametrize("encoded", ["escaped", "raw"])
def test_word_with_a_lone_surrogate_fails_alone(tmp_path, capsys, encoded):
    # JSON "\ud800", or the bytes ED A0 80 that the reader decodes with
    # surrogatepass: the word has no UTF-8 encoding, so no output can hold it
    bad = json.loads(json.dumps(ALICE))
    bad["children"][0]["word"] = "Al\ud800ice"
    entries = [{"id": "ok", "tree": ALICE}, {"id": "bad", "tree": bad}, {"id": "ok2", "tree": ALICE}]
    path, out = tmp_path / "in.json", tmp_path / "o"
    if encoded == "escaped":
        path.write_text(json.dumps(entries))
    else:
        path.write_bytes(json.dumps(entries, ensure_ascii=False).encode("utf-8", "surrogatepass"))
    fail = "FAIL bad: word 'Al\\ud800ice' contains a lone surrogate at node 0"
    assert main(["--in", str(path), "--out-dir", str(out), "--emit", "diagram"]) == 0
    assert capsys.readouterr().out.splitlines() == [fail, "total 3 converted 2 failed 1"]
    assert sorted(p.name for p in out.iterdir()) == ["ok.diagram.json", "ok2.diagram.json"]
    assert main(["--in", str(path), "--emit", "diagram"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if not line.startswith("{")] == [
        "--- ok.diagram.json", "--- ok2.diagram.json", fail, "total 3 converted 2 failed 1"]


def test_stdout_mode_prints_svg_as_text(tmp_path, capsys):
    path, out = _one_sentence(tmp_path), tmp_path / "o"
    assert main(["--in", path, "--emit", "svg,tikz", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["--in", path, "--emit", "svg,tikz"]) == 0
    svg = (out / "s0.svg").read_text(encoding="utf-8")
    tikz = (out / "s0.tikz").read_text(encoding="utf-8")
    assert capsys.readouterr().out == (
        f"--- s0.svg\n{svg}\n--- s0.tikz\n{tikz}total 1 converted 1 failed 0\n")


# Run in a fresh interpreter: numpy, which only the tensor oracle needs, is
# imported by --check-semantics and by the oracle's names, not before.
IMPORT_PROBE = """
import sys
import discoccg.cli
import discoccg
loaded = ["numpy" in sys.modules]
args = ["--in", sys.argv[1], "--emit", "biclosed,diagram,tikz,svg,stats",
        "--planarize", "--normalize", "--seed", "7", "--strict"]
assert discoccg.cli.main(args + ["--out-dir", sys.argv[2] + "/plain"]) == 0
loaded.append("numpy" in sys.modules)
assert discoccg.cli.main(args + ["--out-dir", sys.argv[2] + "/checked",
                                 "--check-semantics", "n=2,s=2,*=2"]) == 0
loaded.append("numpy" in sys.modules)
from discoccg import Lexicon, evaluate
assert all(hasattr(discoccg, name) for name in discoccg.__all__)
print(loaded, Lexicon.__module__, evaluate.__module__)
"""


def test_numpy_loads_only_for_the_oracle(corpus_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(discoccg.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(corpus_file), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "total 28 converted 28 failed 0", "total 28 converted 28 failed 0",
        "[False, False, True] discoccg.semantics discoccg.semantics"]
