import types
from collections import Counter

import pytest

from perfbench.tracer import LAYERS, Tracer, aggregate, self_times


def span(name, start, end, parent, sentence=None):
    return [name, start, end, parent, sentence]


def test_self_time_subtracts_children():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("ingest.tree", 1.0, 4.0, 0),
        span("rules.validate", 2.0, 3.0, 1),
        span("functor.lower", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0, -1), span("a.x", 1.0, 4.0, 0),
             span("a.y", 3.0, 6.0, 0), span("a.z", 8.0, 12.0, 0)]
    # children cover [1, 6] and [8, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_partition_the_wall():
    spans = [
        span("cli.main", 0.0, 20.0, -1),
        span("cli.run", 0.5, 18.0, 0),
        span("ingest.read", 1.0, 2.0, 1),
        span("cli.convert", 2.0, 17.0, 1, "s0"),
        span("ingest.tree", 2.5, 5.0, 3, "s0"),
        span("rules.validate", 3.0, 4.0, 4, "s0"),
        span("semantics.check", 6.0, 16.0, 3, "s0"),
        span("semantics.evaluate", 6.5, 15.0, 6, "s0"),
        span("diagram.well_formed", 7.0, 7.5, 7, "s0"),
        span("semantics.lexicon", 8.0, 9.0, 7, "s0"),
        span("cli.write", 18.0, 19.5, 0),
    ]
    out = aggregate(spans, Counter(lexicon_hits=1))
    assert out["ingest.s"] == pytest.approx(2.5)
    assert out["rules.self_s"] == pytest.approx(1.0)
    assert out["ingest.self_s"] == pytest.approx(2.5)    # read 1.0 + tree 1.5
    assert out["semantics.self_s"] == pytest.approx(9.5)   # check 1.5 + eval 7 + lexicon 1
    assert out["diagram.self_s"] == pytest.approx(0.5)
    assert out["cli.write_s"] == pytest.approx(1.5)
    assert out["cli.self_s"] == pytest.approx(20.0 - 1.0 - 2.5 - 10.0 - 1.5)
    assert sum(out[f"{layer}.self_s"] for layer in LAYERS) + out["cli.write_s"] \
        == pytest.approx(20.0)
    assert out["semantics.lexicon_hit_ratio"] == 1.0
    assert out["semantics.evaluate_calls"] == 1


def test_wrappers_nest_spans_and_restore_attributes():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda ident, x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "outer", "cli.convert", sentence_arg=True)
    tracer.wrap(mod, "inner", "ingest.tree")
    assert mod.outer("s7", 1) == 4
    assert tracer.spans == [["cli.convert", 0.0, 3.0, -1, "s7"],
                            ["ingest.tree", 1.0, 2.0, 0, "s7"]]
    tracer.uninstall()
    assert (mod.inner, mod.outer) == original


def test_traced_cli_emits_the_same_bytes(tmp_path, capsys):
    from discoccg import cli

    from perfbench import gen

    entries = [(f"s{i}-{key}", key, gen.sentence(key))
               for i, key in enumerate(["rb3", "cross3", "coord3", "bad-mismatch"])]
    (tmp_path / "in.json").write_bytes(gen.input_bytes(entries))
    args = ["--in", str(tmp_path / "in.json"), "--planarize", "--normalize", "--emit",
            "biclosed,diagram,tikz,svg,stats", "--check-semantics", "*=2"]
    before = {name: getattr(cli, name) for name in vars(cli)}

    def run(out, trace):
        tracer = Tracer()
        if trace:
            tracer.install()
        try:
            assert cli.main([*args, "--out-dir", str(tmp_path / out)]) == 0
        finally:
            tracer.uninstall()
        files = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
        return files, capsys.readouterr().out, tracer

    plain, plain_log, _ = run("plain", False)
    traced, traced_log, tracer = run("traced", True)
    assert traced == plain and traced_log == plain_log
    assert {name: getattr(cli, name) for name in vars(cli)} == before
    sentences = {s[4] for s in tracer.spans if s[0] == "cli.convert"}
    assert sentences == {ident for ident, _, _ in entries}
    calls = Counter(s[0] for s in tracer.spans)
    assert calls["cli.main"] == 1 and calls["biclosed.to_sexpr"] == 3
    assert calls["semantics.evaluate"] == 3 * 2 * 5
